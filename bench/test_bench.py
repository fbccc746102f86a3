"""Tests of the benchmark's own arithmetic: python3 -m pytest bench"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import layertrace
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = layertrace.Tracer(clock)

    def leaf(n):
        clock.advance(n)

    leaf = tracer.wrap("gf2.leaf", leaf)

    def middle():
        clock.advance(1)
        leaf(5)
        clock.advance(2)
        leaf(4)

    middle = tracer.wrap("picard.middle", middle)

    def root():
        clock.advance(3)
        middle()
        leaf(7)

    root = tracer.wrap("cli.root", root)
    root()
    stats = tracer.stats
    assert (stats["gf2.leaf"].calls, stats["gf2.leaf"].total, stats["gf2.leaf"].self_time) == (3, 16, 16)
    assert (stats["picard.middle"].total, stats["picard.middle"].self_time) == (12, 3)
    assert (stats["cli.root"].total, stats["cli.root"].self_time) == (22, 3)
    assert sum(tracer.layer_self_s().values()) == stats["cli.root"].total == 22

    tracer.reset()
    root()
    assert sum(tracer.layer_self_s().values()) == 22


def test_raising_child_still_closes_its_span():
    clock = FakeClock()
    tracer = layertrace.Tracer(clock)

    def fails():
        clock.advance(2)
        raise ValueError("boom")

    fails = tracer.wrap("ramified.fails", fails)

    def root():
        clock.advance(1)
        with pytest.raises(ValueError):
            fails()
        clock.advance(1)

    root = tracer.wrap("cli.root", root)
    root()
    assert tracer.stats["ramified.fails"].self_time == 2
    assert tracer.stats["cli.root"].self_time == 2
    assert tracer._child == [4]


def test_sizes_add_up():
    tracer = layertrace.Tracer()
    enumerate_chars = tracer.wrap("ramified.enumerate_theta_chars", lambda n: list(range(n)), len)
    enumerate_chars(3)
    enumerate_chars(4)
    assert tracer.counters()["ramified.chars"] == 7


def test_every_binding_is_traced_and_restored():
    from thetanulls import cli, constructions, etale, gf2, picard, quadforms, verify

    original = constructions.hyperelliptic_report
    tracer = layertrace.Tracer()
    with layertrace.installed(tracer):
        assert cli.hyperelliptic_report is constructions.hyperelliptic_report is not original
        assert etale.affine_difference is quadforms.affine_difference
        assert verify.SUITES["counts"] is verify.counts_suite
        assert tracer.missing_counter_spans() == []
        assert cli.main(["construct", "hyperelliptic", "--g", "3"]) == 0
        gf2.GF2Vector(1, 2) ^ gf2.GF2Vector(3, 2)
        picard.RationalModel().sqrt_classes(picard.LineBundleClass("rational", 4))
    assert constructions.hyperelliptic_report is cli.hyperelliptic_report is original
    assert picard.BaseCurveModel.tensor.__name__ == "tensor" and not hasattr(picard.BaseCurveModel.tensor, "__wrapped__")
    counters = tracer.counters()
    assert counters["cli.calls"] == 1
    assert counters["ramified.chars"] == 64  # 2^(2g) for g = 3
    assert counters["constructions.builds"] == 1
    assert counters["picard.roots"] == counters["ramified.chars"] + 1
    assert tracer.stats["gf2.GF2Vector.__add__"].calls == 1


def test_closed_form_trace_counts():
    assert workloads.expected_trace_counts("etale-forms") == {"verify.triples": 4_180}
    assert workloads.expected_trace_counts("g6-seed-scan") == {"ramified.chars": 100 * 1024}


def test_closed_forms_match_the_paper():
    assert (workloads.total(1, 5), workloads.vanishing_lb(1, 5)) == (1024, 40)
    assert [workloads.vanishing_lb(0, g + 1) for g in (2, 3, 4)] == [0, 1, 10]
    assert [workloads.etale_T(b) for b in (2, 3, 4, 5)] == [1, 6, 28, 120]


def test_invocations_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.invocations(name, 7) == workloads.invocations(name, 7)
    assert workloads.invocations("g6-seed-scan", 7) != workloads.invocations("g6-seed-scan", 8)


def test_wrong_reports_are_caught():
    g6 = ["construct", "bielliptic-g6", "--seed", "1"]
    good = {"results": {"count": "43", "forced_extras_present": True, "guaranteed_lower_bound": "40"}}
    assert workloads.check_output(g6, good) == []
    bad = {"results": {"count": "42", "forced_extras_present": True, "guaranteed_lower_bound": "40"}}
    assert workloads.check_output(g6, bad)
    verify = ["verify", "--suite", "oracle"]
    vacuous = {"results": {"checks_total": "0", "checks_passed": "0"}, "checks": [], "checks_passed": True}
    assert workloads.check_output(verify, vacuous) == ["verify ran zero checks"]
