import argparse
import errno
import inspect
import json
import os
import random
import shlex
import signal
import subprocess
import sys
import textwrap
import tracemalloc
from math import comb
from pathlib import Path

import pytest

from thetanulls import constructions, etale, quadforms, ramified, verify
from thetanulls.cli import COMMANDS, build_parser, main
from thetanulls.report import check


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_count_ramified_values(capsys):
    code, report = run_json(capsys, "count", "--case", "ramified", "--b", "1", "--r", "5")
    assert code == 0
    results = report["results"]
    assert results["even"] == "544"
    assert results["odd"] == "480"
    assert results["vanishing_lb"] == "40"
    assert results["asymptotic_ratio"] == {"fraction": "5/64", "decimal": "0.078125"}


def test_count_etale_values(capsys):
    code, report = run_json(capsys, "count", "--case", "etale", "--b", "3")
    assert code == 0
    results = report["results"]
    assert (results["even"], results["odd"], results["T_size"]) == ("48", "16", "6")


def test_count_etale_rho_at_the_enumeration_bound(capsys):
    # the largest accepted --rho is an exhaustive count over the value tables'
    # largest dimension, and one genus more is refused
    rng = random.Random(11)
    rho = "".join(rng.choice("01") for _ in range(23)) + "1"
    code, report = run_json(capsys, "count", "--case", "etale", "--b", "12", "--rho", rho)
    assert code == 0
    assert report["results"]["T_size_enumerated"] == report["results"]["T_size"] == "2096128"
    with pytest.raises(SystemExit) as err:
        main(["count", "--case", "etale", "--b", "13", "--rho", rho + "01"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith("error: enumerating forms runs up to base genus 12, got 13\n")


def test_count_genus2_edge(capsys):
    code, report = run_json(capsys, "count", "--case", "ramified", "--b", "0", "--r", "3")
    assert code == 0
    assert report["results"]["vanishing_lb"] == "0"


def test_integers_are_decimal_strings(capsys):
    _, report = run_json(capsys, "count", "--case", "ramified", "--b", "2", "--r", "6")
    def only_strings(node):
        if isinstance(node, dict):
            return all(only_strings(v) for v in node.values())
        if isinstance(node, list):
            return all(only_strings(v) for v in node)
        return isinstance(node, (str, bool))
    assert only_strings(report)


def test_byte_identical_reports(capsys):
    _, first = run_cli(capsys, "construct", "bielliptic-g6", "--seed", "4")
    _, second = run_cli(capsys, "construct", "bielliptic-g6", "--seed", "4")
    assert first == second


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["count", "--case", "ramified", "--b", "50", "--r", "1"])
    assert err.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["count", "--case", "etale", "--b", "2", "--r", "3"])
    assert err.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["count", "--case", "etale", "--b", "2", "--rho", "0000"])
    assert err.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "b,rho,message",
    [
        ("1", "1", "cover class must live in GF(2)^(2b)"),
        ("1", "", "cover class must live in GF(2)^(2b)"),
        ("1", "0100", "cover class must live in GF(2)^(2b)"),
        ("1", "2", "cover class must live in GF(2)^(2b)"),
        ("3", "01x100", "not a bitstring: '01x100'"),
    ],
)
def test_rho_of_the_wrong_length_has_one_message(capsys, b, rho, message):
    # the length is checked against 2b before the characters are read
    with pytest.raises(SystemExit) as err:
        main(["count", "--case", "etale", "--b", b, "--rho", rho])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,expected",
    [
        ("verify --suite identities --max-r 48", 2),
        ("verify --suite identities --max-r 0", 2),
        ("verify --suite counts --max-r 0", 2),
        ("verify --suite counts --max-b -1", 2),
        ("verify --suite syzygetic --max-b 1", 2),
        ("verify --suite oracle --max-b 0", 2),
        ("verify --suite identities --threads 2", 2),
        ("verify --suite etale --seed 1", 2),
        ("verify --suite etale --threads 2", 2),
        ("verify --suite etale --max-b 10", 2),
        ("verify --suite etale --max-b 12", 2),
        ("verify --suite etale --max-b 0", 2),
        ("verify --suite etale --max-b -1", 2),
        ("verify --suite counts --threads 0", 2),
        ("verify --suite counts --threads 2", 2),
        ("verify --suite counts --max-r 8", 2),
        ("verify --suite syzygetic --max-b 6", 2),
        ("count --case ramified --b 0", 2),
        ("count --case ramified --b -1 --r 1", 2),
        ("count --case ramified --b 0 --r 0", 2),
        ("count --case ramified --b 0 --r 48", 2),
        ("count --case etale --b 0", 2),
        ("count --case etale --b 24", 2),
        ("count --case etale --b 3 --rho 01x100", 2),
        ("count --case ramified --b 0 --r 2 --rho 01", 2),
        ("construct hyperelliptic --g 1", 2),
        ("construct bielliptic-generic --g 2", 2),
        ("construct hyperelliptic --g 10", 2),
        ("construct bielliptic-generic --g 11", 2),
        ("construct hyperelliptic --g 3 --N 8", 2),
        ("construct hyperelliptic --g 3 --seed 1", 2),
        ("construct bielliptic-g6 --g 7", 2),
        ("count --case etale --b 2 --json-out {missing}", 2),
        ("count --case etale --b 2 --json-out ''", 2),
        ("count --case etale --b 2 --rho 0000", 2),
        ("count --case etale --b 2 --rho 01", 2),
        ("count --case etale --b 2 --rho 01000000", 2),
        ("count --case etale --b 13 --rho 1" + "0" * 25, 2),
        ("construct bielliptic-g6 --seed -7", 2),
        ("construct bielliptic-generic --g 5 --seed -1", 2),
        ("verify --suite oracle --seed -1", 2),
        ("verify --suite counts --seed -1", 2),
        ("construct bielliptic-g6 --N 6 --seed -1", 2),
        ("construct bielliptic-generic --g 3 --N 6 --seed -1", 2),
        ("construct bielliptic-g6 --N 6", 3),
        ("construct bielliptic-generic --g 3 --N 6", 3),
    ],
)
def test_edge_inputs_keep_exit_code_contract(tmp_path, capsys, argv, expected):
    # any exception other than SystemExit escaping main would be a traceback
    args = shlex.split(argv.format(missing=tmp_path / "missing" / "x.json"))
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    assert "error" in err


# a cheap run of each subcommand and choice, with the flags it is probed with
COUNT_GRID_FLAGS = ("--b", "--r", "--rho")
VERIFY_GRID_FLAGS = ("--max-b", "--max-r", "--seed")
CONSTRUCT_GRID_FLAGS = ("--g", "--N", "--seed")
GRID_BASES = {
    "count --case ramified --b 1 --r 1": COUNT_GRID_FLAGS,
    "count --case etale --b 1": COUNT_GRID_FLAGS,
    "verify --suite counts --max-b 0 --max-r 1": VERIFY_GRID_FLAGS,
    "verify --suite identities --max-r 1": VERIFY_GRID_FLAGS,
    "verify --suite etale --max-b 1": VERIFY_GRID_FLAGS,
    "verify --suite syzygetic --max-b 2": VERIFY_GRID_FLAGS,
    "verify --suite oracle": VERIFY_GRID_FLAGS,
    "construct hyperelliptic --g 2": CONSTRUCT_GRID_FLAGS,
    "construct bielliptic-generic --g 3": CONSTRUCT_GRID_FLAGS,
    "construct bielliptic-g6": CONSTRUCT_GRID_FLAGS,
}
GRID_VALUES = ("-1", "0", "1", str(10**6))
RHO_VALUES = ("", "0", "01", "2")


def _timeout(signum, frame):
    raise TimeoutError("call ran past 30 s")


@pytest.mark.parametrize("base", GRID_BASES)
def test_edge_value_grid_keeps_exit_code_contract(capsys, base):
    # every choice of every subcommand has a base, so none ships unprobed
    bases = [b.split() for b in GRID_BASES]
    probed = {(words[0], next(w for w in words if w in COMMANDS[words[0]][1])) for words in bases}
    assert probed == {(command, choice) for command, (_, table, _) in COMMANDS.items() for choice in table}
    # each flag in turn at each edge value, appended so it overrides the base's
    previous = signal.signal(signal.SIGALRM, _timeout)
    try:
        for flag in GRID_BASES[base]:
            for value in RHO_VALUES if flag == "--rho" else GRID_VALUES:
                argv = [*base.split(), flag, value]
                signal.alarm(30)
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                finally:
                    signal.alarm(0)
                out, err = capsys.readouterr()
                assert code in (0, 1, 2, 3), argv
                assert "Traceback" not in err, argv
                if code in (2, 3):
                    assert "error" in err, argv
                else:
                    json.loads(out)
    finally:
        signal.signal(signal.SIGALRM, previous)


def _recorded_enumerations(monkeypatch) -> list[int]:
    """The size of each ``enumerate_theta_chars`` result, at every binding in the package."""
    original = ramified.enumerate_theta_chars
    sizes = []

    def counting(spec):
        chars = original(spec)
        sizes.append(len(chars))
        return chars

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "thetanulls" and getattr(module, "enumerate_theta_chars", None) is original:
            monkeypatch.setattr(module, "enumerate_theta_chars", counting)
    return sizes


def test_construct_enumerates_once_per_call(monkeypatch, capsys):
    # the benchmark's ramified.chars trace check counts 1,024 characteristics
    # per bielliptic-g6 call: exactly one full enumeration
    sizes = _recorded_enumerations(monkeypatch)
    assert main(["construct", "bielliptic-g6", "--seed", "7"]) == 0
    capsys.readouterr()
    assert sizes == [1024]


def test_negative_seed_refused_before_any_cell_runs(monkeypatch, capsys):
    # random.Random seeds with abs(seed), so -1 would repeat seed 1; the
    # counts suite refuses it before its first, rational, cell enumerates
    sizes = _recorded_enumerations(monkeypatch)
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "counts", "--seed", "-1"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith("error: seed must be a non-negative integer, got -1\n")
    assert sizes == []


def test_every_parameter_is_a_flag_of_its_subcommand():
    # a parameter no flag can set would be a knob only code could turn
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, (selector, table, flags) in COMMANDS.items():
        actions = {a.dest: a for a in subparsers.choices[command]._actions}
        assert set(actions[selector].choices) == set(table), command
        assert all(actions[flag].option_strings for flag in flags), command
        for choice, func in table.items():
            params = set(inspect.signature(func).parameters)
            assert params <= set(flags), (command, choice, params - set(flags))


def test_failing_check_exits_1(monkeypatch, tmp_path, capsys):
    # the parser exists before the patch: it is built once per process, and
    # the suite table it was built from is held, so the replacement still runs
    assert main(["count", "--case", "etale", "--b", "2"]) == 0
    capsys.readouterr()

    def fake_counts(max_b=3, max_r=6, seed=0):
        return [check("fake", 0, 1)]

    monkeypatch.setitem(verify.SUITES, "counts", fake_counts)
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "verify", "--suite", "counts", "--json-out", str(target))
    assert code == 1
    assert json.loads(out)["checks_passed"] is False
    assert target.read_text() == out
    code, out = run_cli(capsys, "verify", "--suite", "counts", "--pretty")
    assert code == 1
    assert '[FAIL] fake (expected="0", actual="1")' in out.splitlines()
    assert out.endswith("checks passed: False\n")


def test_oracle_suite_fails_where_the_blocks_are_counted(monkeypatch, capsys):
    # a basis formula wrong only from dimension 18 up, where the zero count's
    # upper half table has 2^10 bits, must fail the random check and the run
    arf = quadforms.QuadraticForm.arf
    monkeypatch.setattr(quadforms.QuadraticForm, "arf", lambda q: arf(q) ^ (q.dim >= 18))
    code, report = run_json(capsys, "verify", "--suite", "oracle")
    assert code == 1
    assert report["checks_passed"] is False
    (random_check,) = [c for c in report["checks"] if c["name"].startswith("arf_oracle_random[")]
    assert int(random_check["actual"]) > 0


def test_unwritable_json_out_refused_before_the_suite_runs(monkeypatch, capsys):
    calls = []

    def fake_counts(max_b=3, max_r=6, seed=0):
        calls.append(max_r)
        return [check("fake", 0, 0)]

    monkeypatch.setitem(verify.SUITES, "counts", fake_counts)
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "counts", "--max-r", "7", "--json-out", "/"])
    assert err.value.code == 2
    assert calls == []
    assert "--json-out" in capsys.readouterr().err


def test_a_replaced_table_function_is_read_for_its_own_flags(monkeypatch, capsys):
    # signatures are read once per function object, not per name: after the
    # original suite ran, its replacement's signature still decides the flags
    assert main(["verify", "--suite", "counts", "--max-b", "0", "--max-r", "1"]) == 0
    capsys.readouterr()

    def fake_counts(max_r=6, seed=0):
        return [check("fake", 0, 0)]

    monkeypatch.setitem(verify.SUITES, "counts", fake_counts)
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "counts", "--max-b", "0"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith("error: verify counts takes no --max-b\n")
    assert main(["verify", "--suite", "counts", "--max-r", "1"]) == 0
    capsys.readouterr()


def test_model_error_exits_3(capsys):
    assert main(["construct", "bielliptic-g6", "--N", "238"]) == 3
    capsys.readouterr()


def test_verify_counts_passes(capsys):
    code, report = run_json(capsys, "verify", "--suite", "counts", "--max-b", "2", "--max-r", "4")
    assert code == 0
    assert report["checks_passed"] is True
    assert all(c["pass"] for c in report["checks"])


def test_verify_identities(capsys):
    code, report = run_json(capsys, "verify", "--suite", "identities")
    assert code == 0
    assert len(report["checks"]) == 30


def test_verify_syzygetic_small(capsys):
    code, report = run_json(capsys, "verify", "--suite", "syzygetic", "--max-b", "3")
    assert code == 0


def test_construct_genus6(capsys):
    code, report = run_json(capsys, "construct", "bielliptic-g6", "--N", "240", "--seed", "0")
    assert code == 0
    assert report["results"]["count"] == "43"
    assert report["results"]["forced_extras_present"] is True
    assert len(report["results"]["extras"]) == 3


def test_construct_hyperelliptic(capsys):
    code, report = run_json(capsys, "construct", "hyperelliptic", "--g", "3")
    assert code == 0
    assert report["results"]["enumerated"]["vanishing"] == "1"


def test_construct_generic_bielliptic(capsys):
    code, report = run_json(capsys, "construct", "bielliptic-generic", "--g", "6", "--seed", "1")
    assert code == 0
    assert report["results"]["count"] == "40"


def test_json_out_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    _, out = run_cli(capsys, "count", "--case", "etale", "--b", "4", "--json-out", str(target))
    assert target.read_text() == out


def test_refused_or_failed_run_leaves_json_out_intact(tmp_path, capsys):
    # a file that existed keeps its bytes; one that did not is not left behind
    target, missing = tmp_path / "report.json", tmp_path / "new.json"
    target.write_bytes(b'{"old": 1}')
    for argv, expected in (
        ("verify --suite counts --max-r 8", 2),
        ("construct bielliptic-g6 --N 4", 3),
        ("count --case etale --b 0", 2),
    ):
        for path in (target, missing):
            try:
                code = main([*argv.split(), "--json-out", str(path)])
            except SystemExit as exc:
                code = exc.code
            assert code == expected, (argv, path)
        assert target.read_bytes() == b'{"old": 1}', argv
        assert not missing.exists(), argv
    capsys.readouterr()


def test_pretty_renders_same_data(capsys):
    code, out = run_cli(capsys, "count", "--case", "ramified", "--b", "1", "--r", "5", "--pretty")
    assert code == 0
    assert "even = 544" in out
    assert out.startswith("command: count")


def _child_env() -> dict:
    # the child finds the package in the checkout's src, installed or not
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "thetanulls", "count", "--case", "etale", "--b", "2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["T_size"] == "1"
    assert "elapsed_ms=" in proc.stderr


def test_parser_is_built_once_per_process_not_at_import():
    # counts the top-level parsers a fresh process constructs: none at
    # import (set-up pays nothing), one across two main calls
    code = textwrap.dedent("""
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__
        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "thetanulls":
                built.append(self)
        argparse.ArgumentParser.__init__ = counting
        import thetanulls.cli
        counts = [len(built)]
        for _ in range(2):
            assert thetanulls.cli.main(["count", "--case", "etale", "--b", "2"]) == 0
            counts.append(len(built))
        print(*counts)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 1 1"


def test_signatures_are_read_once_per_function_and_process():
    # two calls of each count case read each function's signature once
    code = textwrap.dedent("""
        import collections, inspect
        import thetanulls.cli
        reads = collections.Counter()
        signature = inspect.signature
        def counting(obj, *args, **kwargs):
            reads[obj.__name__] += 1
            return signature(obj, *args, **kwargs)
        inspect.signature = counting
        for argv in (["count", "--case", "etale", "--b", "2"], ["count", "--case", "ramified", "--b", "1", "--r", "2"]) * 2:
            assert thetanulls.cli.main(argv) == 0
        print(sorted(reads.items()))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[('_etale_counts', 1), ('_ramified_counts', 1)]"


def test_no_state_crosses_calls_through_the_shared_parser(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main("count --case etale --b 5 --r 2".split())
    assert err.value.code == 2
    assert main("construct bielliptic-g6 --N 238".split()) == 3
    assert main("count --case ramified --b 1 --r 5 --pretty".split()) == 0
    capsys.readouterr()
    target = tmp_path / "report.json"
    assert main(["count", "--case", "etale", "--b", "4", "--json-out", str(target)]) == 0
    written = capsys.readouterr().out
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    argv = ["count", "--case", "etale", "--b", "3", "--rho", "010000"]  # the README's example
    assert main(argv) == 0
    fresh = subprocess.run([sys.executable, "-m", "thetanulls", *argv], capture_output=True, env=_child_env())
    assert fresh.returncode == 0
    assert capsys.readouterr().out.encode() == fresh.stdout
    assert target.read_text() == written


def test_cli_import_loads_no_process_pool():
    # every call pays for what importing the CLI loads; verify runs in one process
    code = "import sys, thetanulls.cli; print(*{m.split('.')[0] for m in sys.modules})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert {"concurrent", "multiprocessing"}.isdisjoint(proc.stdout.split())


OVER_BUDGET = {
    "construct hyperelliptic --g 10000000": "genus 10000000 would enumerate 2^20000000 or more characteristics",
    "construct bielliptic-generic --g 10000000": "genus 10000000 would enumerate 2^19999998 or more characteristics",
    "verify --suite counts --max-r 10000000": "--max-b 3 --max-r 10000000 would enumerate 2^20000004 or more characteristics",
    "verify --suite etale --max-b 10000000": "--max-b 10000000 would enumerate 2^20000000 or more characteristics",
    "verify --suite syzygetic --max-b 10000000": "--max-b 10000000 would enumerate 2^59999988 or more triples",
}


@pytest.mark.parametrize("argv", OVER_BUDGET)
def test_over_budget_refusal_builds_nothing_it_bounds(capsys, argv):
    # 4^k characteristics at k = 10^7 is a 2.5 MB integer; the refusal compares exponents
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as err:
            main(argv.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {OVER_BUDGET[argv]}, over the budget of 2^18\n")
    assert peak < 1_000_000


class _Stated(Exception):
    pass


def _stated_exponent(monkeypatch, route, *args) -> int:
    """The exponent that ``route(*args)`` states to the budget, before any work."""

    def stated(log2_work, *rest):
        raise _Stated(log2_work)

    monkeypatch.setattr(ramified, "refuse_over_budget", stated)
    monkeypatch.setattr(constructions, "refuse_over_budget", stated)
    with pytest.raises(_Stated) as err:
        route(*args)
    return err.value.args[0]


def test_each_route_states_the_floor_of_log2_of_its_work(monkeypatch):
    def floor_log2(work: int) -> int:
        return work.bit_length() - 1

    for g in range(2, 60):
        assert _stated_exponent(monkeypatch, constructions.hyperelliptic_report, g) == floor_log2(4**g)
    for g in range(3, 60):
        assert _stated_exponent(monkeypatch, constructions.count_vanishing_generic_bielliptic, g) == floor_log2(4 ** (g - 1))
    for b in range(0, 20):
        for r in range(1, 20):
            assert _stated_exponent(monkeypatch, verify.counts_suite, b, r) == floor_log2(4 ** (b + r - 1))
    for b in range(1, 60):
        assert _stated_exponent(monkeypatch, verify.etale_suite, b) == floor_log2(4**b)
    # a syzygy cell checks C(|T|, 3) triples, and up to CLOSURE_MAX_B also
    # (2^(2b-2))^3 closure products; the stated exponent bounds every cell's
    # work, exactly for the largest cell, which from b = 5 on is the last
    def syzygy_work(b: int) -> int:
        closure = (1 << (2 * b - 2)) ** 3 if b <= verify.CLOSURE_MAX_B else 0
        return comb(etale.closed_form_counts(b)["T_size"], 3) + closure

    for b in range(2, 41):
        cells = [floor_log2(syzygy_work(cell)) for cell in range(2, b + 1)]
        stated = _stated_exponent(monkeypatch, verify.syzygetic_suite, b)
        assert stated == max(cells)
        if b >= 5:
            assert stated == cells[-1]


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", ["count --case etale --b 3", "construct hyperelliptic --g 5"])
def test_closed_stdout_exits_2_with_one_error_line(argv, unbuffered):
    # the reading end is closed before the child starts, so sending the report fails:
    # in main's write when stdout is unbuffered or the report is over 8 KB, else at the flush
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "thetanulls", *argv.split()],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env={**_child_env(), "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert [line for line in proc.stderr.splitlines() if "error" in line.lower()] == [
        f"thetanulls: error: cannot write stdout: {BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))}"
    ]
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
