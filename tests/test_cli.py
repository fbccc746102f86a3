import json
import os
import subprocess
import sys

import pytest

from thetanulls import verify
from thetanulls.cli import main
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
    "argv,expected",
    [
        ("verify --suite identities --max-r 31", 2),
        ("verify --suite identities --max-r 0", 2),
        ("verify --suite counts --max-r 0", 2),
        ("verify --suite counts --max-b -1", 2),
        ("verify --suite syzygetic --max-b 1", 2),
        ("verify --suite oracle --max-b 0", 2),
        ("verify --suite identities --threads 2", 2),
        ("verify --suite etale --seed 1", 2),
        ("count --case ramified --b 0 --r 2 --rho 01", 2),
        ("construct hyperelliptic --g 1", 2),
        ("construct bielliptic-generic --g 2", 2),
        ("count --case etale --b 2 --json-out {missing}", 2),
        ("count --case etale --b 2 --rho 0000", 2),
        ("count --case etale --b 2 --rho 01", 2),
        ("construct bielliptic-g6 --N 6", 3),
        ("construct bielliptic-generic --g 3 --N 6", 3),
    ],
)
def test_edge_inputs_keep_exit_code_contract(tmp_path, capsys, argv, expected):
    # any exception other than SystemExit escaping main would be a traceback
    args = argv.format(missing=tmp_path / "missing" / "x.json").split()
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    assert "error" in err


def test_unwritable_json_out_refused_before_the_suite_runs(monkeypatch, capsys):
    calls = []

    def fake_counts(max_b=3, max_r=6, seed=0, threads=1):
        calls.append(max_r)
        return [check("fake", 0, 0)]

    monkeypatch.setitem(verify.SUITES, "counts", fake_counts)
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "counts", "--max-r", "7", "--json-out", "/"])
    assert err.value.code == 2
    assert calls == []
    assert "--json-out" in capsys.readouterr().err


def test_threads_clamped_to_cells_and_cpus(monkeypatch, capsys):
    # a stand-in pool that records its size and runs in-process, so no
    # worker is ever started whatever size is asked for
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    argv = ["verify", "--suite", "counts", "--max-b", "1", "--max-r", "3"]  # 6 cells
    _, single = run_cli(capsys, *argv)
    monkeypatch.setattr(verify, "ProcessPoolExecutor", FakePool)
    for cpus, threads, expected in [(4, 100000, [4]), (64, 100000, [6]), (4, 3, [3]), (1, 8, []), (None, 8, [])]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes.clear()
        _, out = run_cli(capsys, *argv, "--threads", str(threads))
        assert sizes == expected
        assert out == single


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


def test_verify_threads_do_not_change_output(capsys):
    _, single = run_cli(capsys, "verify", "--suite", "counts", "--max-b", "1", "--max-r", "3")
    _, double = run_cli(capsys, "verify", "--suite", "counts", "--max-b", "1", "--max-r", "3", "--threads", "2")
    assert single == double


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


def test_pretty_renders_same_data(capsys):
    code, out = run_cli(capsys, "count", "--case", "ramified", "--b", "1", "--r", "5", "--pretty")
    assert code == 0
    assert "even = 544" in out
    assert out.startswith("command: count")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "thetanulls", "count", "--case", "etale", "--b", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["T_size"] == "1"
    assert "elapsed_ms=" in proc.stderr
