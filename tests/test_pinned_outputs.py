"""Outputs the README examples do not reach print the bytes they printed
when these digests were recorded: a hyperelliptic character list with
rational-model section counts, a generic bielliptic cover with extras,
a pretty-printed genus-6 certificate, the largest counts suite the
enumeration budget accepts, whose cell (3, 7) builds 4^9 characteristics,
and the pretty renderings of a verify suite's PASS lines and of a count
report.  Then come whole construct ranges, which repeat one README
example (hyperelliptic genus 3): hyperelliptic genus 2 to 8, and twenty
seeds each of the genus-6 certificate (200 to 219) and of a generic
genus-6 bielliptic cover (100 to 119).  Last come the samplers' redraw
paths at small moduli, where a collision of branch points redraws the
whole configuration: five seeds of the genus-6 certificate at N = 8
and 12 (at N = 8 seeds 0 to 4 take 5, 17, 57, 7 and 71 draws), three
of generic bielliptic covers of genus 3 to 5 at N = 8, and generic
covers of genus 7 and 8 at the default modulus.  The oracle suite, whose
README example runs at the default seed, is pinned at two more seeds.
"""

import hashlib

import pytest

from thetanulls.cli import main

# argv after ``thetanulls`` -> sha256 of stdout
STDOUT_SHA256 = {
    "construct hyperelliptic --g 5 --pretty": (
        "bfbc1d6887df698d76eee652152988c3def558b3b95fca86f24ae5d57e920094"
    ),
    "construct bielliptic-generic --g 6 --N 8 --seed 0": (
        "7948333d184206a3f264dcd22acd46ae46066dbc2fe87686bfcca68a17bebf07"
    ),
    "construct bielliptic-g6 --N 24 --seed 7 --pretty": (
        "5fc430ee39f0923cfe0886ee52fd988d63df0476559dc30fdc51ac90fa1a7dad"
    ),
    "verify --suite counts --max-r 7": (
        "cc62e15772e73a9dd4a26074bc685ddf09f4279f88057911aae3793ed12a47ae"
    ),
    "verify --suite identities --max-r 3 --pretty": (
        "dbbe89da86b4793762080971b005b92936bdbb94bf47b2c3e360f16988d839c7"
    ),
    "count --case etale --b 3 --rho 010000 --pretty": (
        "988624529a3907a51878f55ba1954fce64cad4efd851aa5daef62fa77c7539e8"
    ),
    "construct hyperelliptic --g 2": (
        "fcb31198719c7bd2d50dd8b0da2dc176c70dacc79e6edff606004ee30437209a"
    ),
    "construct hyperelliptic --g 3": (
        "532ab2c46e92ce52437afb2cc5dd6da906e825c710e69d059690929a666e9799"
    ),
    "construct hyperelliptic --g 4": (
        "5e7fa2e993e6cf56bd336a7602fb2dd4c11adbffcef3e8d69c3101d4976d8272"
    ),
    "construct hyperelliptic --g 5": (
        "095ae394b04dbf2b68dda836be8d6a516a24a73e8d7b3b25cc3c70eb046d5034"
    ),
    "construct hyperelliptic --g 6": (
        "716670ce6505ef12746cad78e8d66003c998ebf76810ceec331a997b060a3192"
    ),
    "construct hyperelliptic --g 7": (
        "7a70727b34ca783a09a0a01d51718d8291769e4a63f5f058a42d9fe0aa948504"
    ),
    "construct hyperelliptic --g 8": (
        "e92d5334c963ad64ef2bc06316db5ff2acd3ff0e803a53ef07cefa08aa49ef55"
    ),
    "construct bielliptic-g6 --seed 200": (
        "829f21ab40e029e710453fb7a66b4f0da069034b8a1bbe2822f1dadea5d982bd"
    ),
    "construct bielliptic-g6 --seed 201": (
        "e7db45cbb7f542527d421f2f3364c5a66dfe66c98989ea6b6b8b7817a3330470"
    ),
    "construct bielliptic-g6 --seed 202": (
        "33032c8dc34e6527a86a62aee98adcba8c7e1d89846ac42c90aab49917bb86a2"
    ),
    "construct bielliptic-g6 --seed 203": (
        "b724540708d1492d82448d23d3244fbe9cab059273b1acfa2a599baafcee8d75"
    ),
    "construct bielliptic-g6 --seed 204": (
        "69af1b9a7a941d8f89915c52eb92c5478d133c4b51ba676e0281b6bf74793db6"
    ),
    "construct bielliptic-g6 --seed 205": (
        "5caa7790f176825ed2fbdc30397d760602efbd2cd4baa544301bf07f25d0b38a"
    ),
    "construct bielliptic-g6 --seed 206": (
        "b67de5040e6b730d62f1d7618c26e4c074b97efcd397f16089ac66470588e179"
    ),
    "construct bielliptic-g6 --seed 207": (
        "33db60d949e3c4742f520146d9cb211fa431dd3a0c21d31fedf1c5d94e1343f2"
    ),
    "construct bielliptic-g6 --seed 208": (
        "dd642c60f182cff34159d3e74895a0e965483ef2a2b148410d26f8cff7a9a3c7"
    ),
    "construct bielliptic-g6 --seed 209": (
        "91e1617b6658ab464a1b0d97569bafdcf5723a7ec2467d947794f998e6ec5826"
    ),
    "construct bielliptic-g6 --seed 210": (
        "6a3527a4eaeda248acb3f2f32cc294bd2b72b4b7984e32f23f8fca625a12a749"
    ),
    "construct bielliptic-g6 --seed 211": (
        "453e7290a5b3b25d427c98b27e10de70702d1b6ab7aec4e20ece1d38edac0942"
    ),
    "construct bielliptic-g6 --seed 212": (
        "0870c45ec89273ee9490455f01b25c2cb5ef2d240953368ee034c0594c565600"
    ),
    "construct bielliptic-g6 --seed 213": (
        "c967eaf65cfa32d2676b2a6fb4fdd09c0b26c2e38e8d08f4ff4afe90d425441f"
    ),
    "construct bielliptic-g6 --seed 214": (
        "69bb5038d74c9d79d1ceb4cebd1b8904978ce82feaf08c5cf5e50db32ede0dc0"
    ),
    "construct bielliptic-g6 --seed 215": (
        "08248afd12fb2dfbb4288b00f42c7cb0589000b0705dfcd8311abc02ddc55e15"
    ),
    "construct bielliptic-g6 --seed 216": (
        "e13787db44077f53f98e9fb1b1824b23700fd6527cb40bef90f668559919c81c"
    ),
    "construct bielliptic-g6 --seed 217": (
        "b331a2c78c5efa7c32e676d78aa15140e0f9bcf83da230121131935e3d56860e"
    ),
    "construct bielliptic-g6 --seed 218": (
        "ff43a6e10046b5868fb8716fa0539e709b4f99af879b8901a8c20e1965d7be39"
    ),
    "construct bielliptic-g6 --seed 219": (
        "0e43fd0595cb87e99bde9696775b511f3de4769ef3de0fe65f5d0e079a33d8f7"
    ),
    "construct bielliptic-generic --g 6 --seed 100": (
        "5bda6aaa9cb6260da2d910b4fd288ec8bb97121054ca9bd253d698ab7f6b2e53"
    ),
    "construct bielliptic-generic --g 6 --seed 101": (
        "9b193bec377c23c3ce92a16cd83cc7f4dfd1002ba9803028ed389f019bf7f978"
    ),
    "construct bielliptic-generic --g 6 --seed 102": (
        "e175bd3da376b4efc38413e5c4ff3e0e90bccc5c4250b969a9aff593af71b9b7"
    ),
    "construct bielliptic-generic --g 6 --seed 103": (
        "f2f825e251b9c7c02f29585cf9d2abe6c8ab1f616faf90b5efbf7385dc255ca3"
    ),
    "construct bielliptic-generic --g 6 --seed 104": (
        "33c93def5d255a45eed5a4b4cc3b6109b43aa8fd678e242d1a1c3b167e9060ba"
    ),
    "construct bielliptic-generic --g 6 --seed 105": (
        "c7e51e7132272edc4f3d80aa9f9d9b3658950e6ae885e42053c4e7743374fddf"
    ),
    "construct bielliptic-generic --g 6 --seed 106": (
        "13d58c83c128a7da207e26c9657babab42afb0c008460994e02a1245ec6b61e9"
    ),
    "construct bielliptic-generic --g 6 --seed 107": (
        "a150ea7565e1f28f712833492cb1c776483177a1d7a8d6524d40cda78d1960b3"
    ),
    "construct bielliptic-generic --g 6 --seed 108": (
        "a949f508a13204b553a59af8055de27c819921e7fbf67503be3875a47fe6a076"
    ),
    "construct bielliptic-generic --g 6 --seed 109": (
        "e0d1e7ba2823b5539ed12fc6e33fbeb6567a784c1136e6cfc413b11b6af29919"
    ),
    "construct bielliptic-generic --g 6 --seed 110": (
        "b24b6943035e922542bbb25325824e573fc0d46ce9b14935e841974278130e0c"
    ),
    "construct bielliptic-generic --g 6 --seed 111": (
        "f39b5d1142faad7486a59b886b40fb0f2f59d5f254dbaca16c09f63a4b9fad62"
    ),
    "construct bielliptic-generic --g 6 --seed 112": (
        "0cd2a4405b2d60a29d1ab50c0a6e9205e9c4aa77f9e969112c0b8cdb2427d1dd"
    ),
    "construct bielliptic-generic --g 6 --seed 113": (
        "d18ac9314f572090c1f8f2358ce3f450849ec39e2fe1f6db2f2ec51f71e79165"
    ),
    "construct bielliptic-generic --g 6 --seed 114": (
        "6786650664331aa3d29aa3657668b622dd922901af08cc14e3fa569119cbe117"
    ),
    "construct bielliptic-generic --g 6 --seed 115": (
        "e26000b597bed119ebb41012ad99d956d750a1f5587927e27029da7871cbbc79"
    ),
    "construct bielliptic-generic --g 6 --seed 116": (
        "baf445e845d5313b507313fa6b9ea270428ec20551a1f99dd25c1afbb8352a3f"
    ),
    "construct bielliptic-generic --g 6 --seed 117": (
        "5bdfc90921709590fde76d6c062831de86ab088b05a556b669b805ac25b19cce"
    ),
    "construct bielliptic-generic --g 6 --seed 118": (
        "2df5f034e7147f4b280f1b861a5931980002fb8379dbce3823575a5eced1910c"
    ),
    "construct bielliptic-generic --g 6 --seed 119": (
        "84240f307063f27bbc81393e5be1d350f6f67960ae35b81fef9f03ef33bc872b"
    ),
    "construct bielliptic-g6 --N 8 --seed 0": (
        "55e936f1586169da630fe1916552358d3ca3b98f34c34004507bbba883e58ec5"
    ),
    "construct bielliptic-g6 --N 8 --seed 1": (
        "3c60adea25770af26b72778b0f69f3b80f50bec0d11141e2961313cc13209df8"
    ),
    "construct bielliptic-g6 --N 8 --seed 2": (
        "05f0d400635162a9e518fcd00e87586237236f218f5229472e5ee9394853db66"
    ),
    "construct bielliptic-g6 --N 8 --seed 3": (
        "68a7a3880d36e3283053ab447aa1f674d7a6457dcee4d7384a20651e1341adc7"
    ),
    "construct bielliptic-g6 --N 8 --seed 4": (
        "99ae0553941f9eb9977a7541fb1ed0faa16b2a6f4694bb0dd3d008a9dc2d6508"
    ),
    "construct bielliptic-g6 --N 12 --seed 0": (
        "3737b54b82a8e506f999ea8d99627e49eefa011289452fd27cacb0fa20861813"
    ),
    "construct bielliptic-g6 --N 12 --seed 1": (
        "4a2844f1de7970d63c35288d6939d1a007d9d7009cc9ea1d0bfe5e767b9151b3"
    ),
    "construct bielliptic-g6 --N 12 --seed 2": (
        "af5b7f653b0629592f527d77bb5ec57a01360668365fe84e102b72e59a96aa63"
    ),
    "construct bielliptic-g6 --N 12 --seed 3": (
        "3d907e31cc8fe535b7916cd52fd42ed8e6dabc5207d3159ce53ff66ea905d176"
    ),
    "construct bielliptic-g6 --N 12 --seed 4": (
        "a4dee65b29c9cd25a6b7e168ccf42605c25d3c01100b415bdbea236888d103f8"
    ),
    "construct bielliptic-generic --g 3 --N 8 --seed 0": (
        "0d27c158d7fbaf19e3d976f53f895ff716e88f67198a08c42eef25c5536d774f"
    ),
    "construct bielliptic-generic --g 3 --N 8 --seed 1": (
        "0de750e2d6e605e631ee4d2a827d55874dcdb3e86c98069e8d1711de0a5ecb2a"
    ),
    "construct bielliptic-generic --g 3 --N 8 --seed 2": (
        "320b39c64b2fe0f204d1412dbc8acab94dc8c145ecd40dfcab2998c3ae70af9e"
    ),
    "construct bielliptic-generic --g 4 --N 8 --seed 0": (
        "3fab891b29141acebdbb8207f15b560226ffdfe8f861952b24c2defabc8c082d"
    ),
    "construct bielliptic-generic --g 4 --N 8 --seed 1": (
        "7b2a4f9c46092b46d5c5840d249e913ddf600b76546a4883f5522620f111c283"
    ),
    "construct bielliptic-generic --g 4 --N 8 --seed 2": (
        "10c34de2d40e0b852e9ba08459c02209ac339943860ad6dbee89f13840e86bd6"
    ),
    "construct bielliptic-generic --g 5 --N 8 --seed 0": (
        "28d87a6fc3147efab29d062f31a5556a12cd7a22d72163f766d1daf109aa3de4"
    ),
    "construct bielliptic-generic --g 5 --N 8 --seed 1": (
        "3d18883f131abbdc474fbb3385848d08fe46c77576518df3ba7e5d56fb1e5d99"
    ),
    "construct bielliptic-generic --g 5 --N 8 --seed 2": (
        "b7078a54f3d99580d4f5ed6012f62ec9bde1895cd13c025ca024603d9f8ef8e9"
    ),
    "construct bielliptic-generic --g 7 --seed 0": (
        "ee3e6619f167900db125b1ec5480072e0a672f75931b3bf429d9145c41067068"
    ),
    "construct bielliptic-generic --g 8 --seed 0": (
        "38b66dd33156b14a52e0fe245e38cb8da9f870488bc05870c8cc9df2f7c42f86"
    ),
    "verify --suite oracle --seed 1": (
        "42bd922b29abf76418ae857fc5d50cd6a4de7cd625d2001dccec6906ebe37567"
    ),
    "verify --suite oracle --seed 999999": (
        "d571f1ea1126fad08a3733ffeafda808b136216528444fece21f6606e040e999"
    ),
}


@pytest.mark.parametrize("argv", list(STDOUT_SHA256))
def test_pinned_stdout(capsys, argv):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]
