"""Benchmark workloads: seeded argv lists for ``thetanulls.cli.main`` and
independent checks of what each invocation prints.

Expected values come from the paper's closed forms, computed here in
plain integer arithmetic; nothing below calls ``thetanulls``.
"""

from __future__ import annotations

import random
import re
from math import comb

# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = ("etale-forms", "g6-seed-scan")

# Every call is short, so each repeats often enough in a run for its
# fastest time to be steady (see README.md, Steadiness), and each
# workload has 100 calls, so call_p90_ms has 10 beyond it.
G6_CALLS = 100
SYZYGETIC_MAX_B, CLOSURE_MAX_B = 3, 4  # CLOSURE_MAX_B is the syzygetic suite's default
ETALE_COUNT_CALLS, ETALE_COUNT_BS = 97, (5, 6)


# --- closed forms of the paper, g = 2b + r - 1 ---


def total(b: int, r: int) -> int:
    return 2 ** (2 * (b + r - 1))


def vanishing_lb(b: int, r: int) -> int:
    """2^(g-1) (2^(g-2b) + 1 - 2^(-r+1) C(2r, r)), cleared of denominators."""
    g = 2 * b + r - 1
    return (2**g * (2 ** (g - 2 * b) + 1) - 2 ** (g - r + 1) * comb(2 * r, r)) // 2


def etale_total(b: int) -> int:
    return 2 ** (2 * b)  # 2^(g+1), g = 2b - 1


def etale_even(b: int) -> int:
    return 3 * 2 ** (2 * b - 2)


def etale_odd(b: int) -> int:
    return 2 ** (2 * b - 2)


def etale_T(b: int) -> int:
    """2^(g-2) - 2^((g-3)/2) vanishing thetanulls."""
    return 0 if b < 2 else 2 ** (2 * b - 3) - 2 ** (b - 2)


# --- invocations ---


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass; the program sees nothing else of the seed."""
    rng = random.Random(seed)
    if workload == "etale-forms":
        argvs = [
            ["verify", "--suite", "syzygetic", "--max-b", str(SYZYGETIC_MAX_B)],
            ["verify", "--suite", "etale"],
            ["verify", "--suite", "oracle", "--seed", str(rng.randrange(10**6))],
        ]
        for i in range(ETALE_COUNT_CALLS):
            b = ETALE_COUNT_BS[i % len(ETALE_COUNT_BS)]
            rho = rng.randrange(1, 1 << (2 * b))
            bits = "".join(str((rho >> j) & 1) for j in range(2 * b))
            argvs.append(["count", "--case", "etale", "--b", str(b), "--rho", bits])
        return argvs
    if workload == "g6-seed-scan":
        return [["construct", "bielliptic-g6", "--seed", str(rng.randrange(2**31))] for _ in range(G6_CALLS)]
    raise ValueError(f"unknown workload {workload!r}")


def expected_trace_counts(workload: str) -> dict[str, int]:
    """Per-pass counter values the closed forms fix."""
    if workload == "etale-forms":
        syzygy = sum(comb(etale_T(b), 3) for b in range(2, SYZYGETIC_MAX_B + 1))
        closure = sum(2 ** (3 * (2 * b - 2)) for b in range(2, min(SYZYGETIC_MAX_B, CLOSURE_MAX_B) + 1))
        return {"verify.triples": syzygy + closure}
    if workload == "g6-seed-scan":
        return {"ramified.chars": G6_CALLS * total(1, 5)}
    raise ValueError(f"unknown workload {workload!r}")


# --- output checks ---

_CELL = re.compile(r"^(\w+)\[b=(\d+)\]$")


def _closed_form_for_check(name: str):
    """Expected value of a verify check that a closed form fixes, else None."""
    m = _CELL.match(name)
    if m is None:
        return None
    kind, b = m.group(1), int(m.group(2))
    forms = {
        "total": etale_total,
        "even": etale_even,
        "odd": etale_odd,
        "T_size": etale_T,
        "subspace_size": lambda b: 2 ** (2 * b - 2),
    }
    return forms[kind](b) if kind in forms else None


def _expect(problems: list[str], label: str, expected, actual) -> None:
    if expected != actual:
        problems.append(f"{label}: expected {expected!r}, got {actual!r}")


def check_output(argv: list[str], report: dict) -> list[str]:
    """Problems with one invocation's parsed JSON report; empty when right."""
    problems: list[str] = []
    res = report.get("results", {})
    if argv[0] == "verify":
        _expect(problems, "checks_passed", True, report.get("checks_passed"))
        checks_total = int(res.get("checks_total", "0"))
        if checks_total <= 0:
            problems.append("verify ran zero checks")
        _expect(problems, "results.checks_passed", checks_total, int(res.get("checks_passed", "-1")))
        for chk in report.get("checks", []):
            value = _closed_form_for_check(chk["name"])
            if value is not None:
                _expect(problems, f"check {chk['name']} expected", str(value), chk["expected"])
    elif argv[:2] == ["construct", "bielliptic-g6"]:
        if int(res.get("count", "0")) < 43:
            problems.append(f"genus-6 count {res.get('count')} below 43")
        _expect(problems, "forced_extras_present", True, res.get("forced_extras_present"))
        _expect(problems, "guaranteed_lower_bound", str(vanishing_lb(1, 5)), res.get("guaranteed_lower_bound"))
    elif argv[:3] == ["count", "--case", "etale"]:
        b = int(argv[4])
        forms = {"total": etale_total(b), "even": etale_even(b), "odd": etale_odd(b), "T_size": etale_T(b)}
        for key, value in forms.items():
            _expect(problems, key, str(value), res.get(key))
        _expect(problems, "T_size_enumerated", res.get("T_size"), res.get("T_size_enumerated"))
        _expect(problems, "parameters.rho", argv[6], report.get("parameters", {}).get("rho"))
    else:
        problems.append(f"no check for {argv[:2]}")
    return problems
