"""Outputs the README examples do not reach print the bytes they printed
when these digests were recorded: a hyperelliptic character list with
rational-model section counts, a generic bielliptic cover with extras,
a pretty-printed genus-6 certificate, the largest counts suite the
enumeration budget accepts, whose cell (3, 7) builds 4^9 characteristics,
and the pretty renderings of a verify suite's PASS lines and of a count
report."""

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
}


@pytest.mark.parametrize("argv", list(STDOUT_SHA256))
def test_pinned_stdout(capsys, argv):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]
