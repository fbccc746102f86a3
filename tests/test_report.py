"""``report.dumps`` writes raw results in one walk, byte for byte as the
stdlib writes them with each integer as its decimal string: on a generated
corpus of nested values and on every report of a sweep over each
subcommand and choice.
"""

import json
import random
from fractions import Fraction

import pytest

from thetanulls import cli, report
from thetanulls.cli import main

# ASCII letters beside what JSON escapes: quote, backslash, control
# characters, DEL, and non-ASCII in and beyond the BMP (a surrogate pair)
CHARS = 'ab "\\/\x00\x01\x1f\x7f\n\r\té€ \U0001d53d'
LEAVES = (True, False, None, 0, 1, -1, 2**64, -(2**64) - 1, 3**90, "", '"', "\\")


def _plain(value):
    """The reference rule: each int as its decimal string, a tuple as a list, any other number refused."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def stdlib(value) -> str:
    return json.dumps(_plain(value), indent=2) + "\n"


def _text(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def _value(rng, depth):
    kind = rng.randrange(6 if depth else 3)
    if kind == 0:
        return rng.choice(LEAVES)
    if kind == 1:
        return rng.randrange(-(2**70), 2**70)
    if kind == 2:
        return _text(rng)
    size = rng.randrange(4)  # a quarter of the containers are empty
    if kind == 3:
        return {_text(rng): _value(rng, depth - 1) for _ in range(size)}
    items = [_value(rng, depth - 1) for _ in range(size)]
    return items if kind == 4 else tuple(items)


CORPUS = [_value(random.Random(seed), 4) for seed in range(300)]
CORPUS += [*LEAVES, {}, [], (), [[], {}], {"": {"": []}}, ({"a": ()},)]


def test_dumps_matches_the_stdlib_on_a_generated_corpus():
    for i, value in enumerate(CORPUS):
        assert report.dumps(value) == stdlib(value), i


# a Fraction too: int is the only number type a report holds, and the
# asymptotic ratio reaches it already written as text
@pytest.mark.parametrize("value", [1.5, {1, 2}, object(), [b"bytes"], {(1, 2): "tuple key"}, Fraction(3, 4)])
def test_dumps_refuses_what_the_stdlib_refuses(value):
    with pytest.raises(TypeError):
        stdlib(value)
    with pytest.raises(TypeError):
        report.dumps(value)


def test_report_keys_are_names():
    # json.dumps would write an int key as its text; no report has one
    with pytest.raises(TypeError):
        report.dumps({1: "one"})


SWEEP = [
    *(f"verify --suite {suite}" for suite in ("counts", "identities", "etale", "oracle")),
    "verify --suite syzygetic --max-b 3",
    "verify --suite counts --max-b 1 --max-r 3 --pretty",
    *(f"count --case ramified --b {b} --r {r}" for b in range(4) for r in range(1, 7)),
    *(f"count --case etale --b {b}" for b in range(1, 8)),
    "count --case etale --b 3 --rho 010000",
    "count --case etale --b 6 --rho 011010010111",
    *(f"construct bielliptic-g6 --seed {seed}" for seed in range(20)),
    "construct bielliptic-g6 --N 24 --seed 7 --pretty",
    *(f"construct hyperelliptic --g {g}" for g in range(2, 8)),
    *(f"construct bielliptic-generic --g {g}" for g in range(3, 9)),
    "construct bielliptic-generic --g 6 --N 8 --seed 0",
]


def test_every_report_of_a_sweep_matches_the_stdlib(monkeypatch, capsys):
    checked = []

    def checking(value):
        text = report.dumps(value)
        checked.append(text == stdlib(value))
        return text

    monkeypatch.setattr(cli, "dumps", checking)
    for argv in SWEEP:
        assert main(argv.split()) == 0, argv
        capsys.readouterr()
    assert checked == [True] * len(SWEEP)

