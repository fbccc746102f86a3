"""The README's CLI examples print the bytes they printed when these
digests were recorded, its library example runs, and its Layout table
names every module.

One example runs differently from the README: the syzygetic suite runs
with --max-b 4 to keep the run short.
"""

import hashlib
import re
from pathlib import Path

import pytest

from thetanulls.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# argv after ``thetanulls`` -> sha256 of stdout
STDOUT_SHA256 = {
    "count --case ramified --b 1 --r 5": (
        "d5c509cf144a46243f8d4bc4e3b8d7c61fe55a181bd3003b2b542b28e92fbe9b"
    ),
    "count --case etale --b 3": (
        "51e59fa067bcc8829adb54aa66875a9bd417e0d2dbab9886b4b86a7af007f0aa"
    ),
    "count --case etale --b 3 --rho 010000": (
        "39e71d5f94e7ea72e4fc2e0467a19702bd2a6c7f80cdba68bb7ad07f91bafb34"
    ),
    "verify --suite counts --max-b 3 --max-r 6": (
        "f2f6f5a8aa918f0845f698cae40a4e1b4c4507132d410809891db5f73057e26d"
    ),
    "verify --suite identities": (
        "9244eb965cb53ea7499a6743c547febdea49519b1f1f0b99c5e391b42c583248"
    ),
    "verify --suite etale": (
        "3a7bb23a9a51fc67a95f830a4be02e0ab24ad544ed04c421bc7eb7f6c7e627a6"
    ),
    "verify --suite syzygetic --max-b 4": (
        "edf2694da01de03a64e113387627df22668f903c712361d4b21e5a00aac2343c"
    ),
    "verify --suite oracle": (
        "f4fc35f50669f33cb1e3c66fc349a2e0b725bda7381dc1e56cb4b6b5fb498482"
    ),
    "construct bielliptic-g6 --N 240 --seed 0": (
        "57062756182cb5d9452b389d115edaad7c85135eb8de7d161a2e15e4f3362361"
    ),
    "construct bielliptic-generic --g 6 --seed 1": (
        "58f66b54e61687c82e251f70490ac0378008d7a785c5da4e5b9aa5b314b49749"
    ),
    "construct hyperelliptic --g 3": (
        "532ab2c46e92ce52437afb2cc5dd6da906e825c710e69d059690929a666e9799"
    ),
}

# README example -> the argv pinned for it
SUBSTITUTES = {
    "verify --suite syzygetic --max-b 5": "verify --suite syzygetic --max-b 4",
}


def readme_examples() -> list[str]:
    return [
        " ".join(line.split("#")[0].split()[1:])
        for line in README.read_text().splitlines()
        if line.startswith("thetanulls ")
    ]


def test_every_readme_example_is_pinned():
    pinned = {SUBSTITUTES.get(example, example) for example in readme_examples()}
    assert pinned == set(STDOUT_SHA256)


@pytest.mark.parametrize("example", list(STDOUT_SHA256))
def test_readme_example_stdout(capsys, example):
    assert main(example.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[example]


def test_readme_library_example_runs():
    blocks = README.read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    exec(blocks[0].split("```")[0], {})


def test_readme_layout_lists_every_module():
    layout = README.read_text().split("## Layout\n")[1].split("\n## ")[0]
    listed = set(re.findall(r"^\| `thetanulls\.(\w+)` \|", layout, re.MULTILINE))
    modules = {p.stem for p in (ROOT / "src" / "thetanulls").glob("*.py")} - {"__init__", "__main__"}
    assert listed == modules
