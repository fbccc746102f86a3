"""Acceptance suite: one test per target, each printing a pass/fail line.

Every expected value here is a closed form evaluated in exact integer
arithmetic or a count reproduced by an independent enumeration; nothing
is tuned.  The asymptotic ratio has an exact flat start: ratio(2) =
ratio(3) = 0 because both guaranteed counts vanish, and it grows strictly
from r = 3 on; 10b asserts that shape against an independent closed form.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

from thetanulls import etale, quadforms, ramified
from thetanulls.constructions import (
    count_vanishing_genus6,
    hyperelliptic_report,
    sample_bielliptic_spec,
)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")


def _ramified_spec(b: int, r: int):
    if b == 0:
        return ramified.RamifiedCoverSpec.rational(r)
    if b == 1:
        return sample_bielliptic_spec(r, seed=1000 + r)
    return ramified.RamifiedCoverSpec.generic(b, r)


def test_criterion_01_ramified_counts_match_enumeration():
    started = time.monotonic()
    ok = True
    for b in range(4):
        for r in range(1, 7):
            spec = _ramified_spec(b, r)
            chars = ramified.enumerate_theta_chars(spec)
            parities = [ramified.parity(spec, tc) for tc in chars]
            expected = ramified.closed_form_counts(b, r)
            ok &= len(chars) == len(set(chars)) == expected["total"]
            ok &= parities.count(0) == expected["even"]
            ok &= parities.count(1) == expected["odd"]
    elapsed = time.monotonic() - started
    ok &= elapsed < 10.0
    _report("1 ramified closed forms vs enumeration", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_02_vanishing_lower_bound():
    ok = True
    for b in range(4):
        for r in range(1, 7):
            spec = _ramified_spec(b, r)
            chars = ramified.enumerate_theta_chars(spec)
            enumerated = sum(
                1
                for tc in chars
                if ramified.parity(spec, tc) == 0 and tc.subset_size < r
            )
            ok &= enumerated == ramified.closed_form_counts(b, r)["vanishing_lb"]
    ok &= ramified.closed_form_counts(1, 5)["vanishing_lb"] == 40
    _report("2 vanishing lower bound", ok)
    assert ok


def test_criterion_03_roots_of_unity_identity():
    started = time.monotonic()
    ok = all(ramified.binomial_identity_check(r) for r in range(1, 31))
    elapsed = time.monotonic() - started
    ok &= elapsed < 1.0
    _report("3 roots-of-unity identity", ok, f"{elapsed:.3f}s")
    assert ok


def test_criterion_04_hyperelliptic_specialization():
    ok = True
    for g, expected in ((2, 0), (3, 1), (4, 10)):
        rep = hyperelliptic_report(g)
        ok &= rep["vanishing_lb"] == expected
        ok &= rep["enumerated"]["vanishing"] == expected
    _report("4 hyperelliptic specialization", ok)
    assert ok


def test_criterion_05_genus6_construction():
    ok = True
    exact = 0
    slowest = 0.0
    for seed in range(10):
        started = time.monotonic()
        cert = count_vanishing_genus6(N=240, seed=seed)
        slowest = max(slowest, time.monotonic() - started)
        ok &= cert["count"] >= 43
        ok &= cert["forced_extras_present"]
        exact += cert["count"] == 43
    ok &= exact >= 8
    ok &= slowest < 5.0
    _report("5 genus-6 construction", ok, f"exactly 43 on {exact}/10 seeds, worst {slowest:.2f}s")
    assert ok


def test_criterion_06_etale_counts():
    started = time.monotonic()
    ok = True
    for b in range(1, 7):
        spec = etale.EtaleCoverSpec.default(b)
        chars = etale.enumerate_etale(spec)
        parities = [etale.parity_etale(spec, tc) for tc in chars]
        ok &= parities.count(0) == 3 * (1 << (spec.g - 1))
        ok &= parities.count(1) == 1 << (spec.g - 1)
    for b in range(1, 9):
        spec = etale.EtaleCoverSpec.default(b)
        size = len(etale.vanishing_thetanulls(spec))
        ok &= size == etale.closed_form_counts(b)["T_size"]
        if b >= 2:
            ok &= size == (1 << (spec.g - 2)) - (1 << ((spec.g - 3) // 2))
    elapsed = time.monotonic() - started
    ok &= elapsed < 10.0
    _report("6 etale counts", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_07_syzygetic():
    ok = True
    for b in range(2, 6):
        spec = etale.EtaleCoverSpec.default(b)
        vanishing = etale.vanishing_thetanulls(spec)
        subspace = etale.even_subspace(spec)
        ok &= all(
            etale.triple_parity(spec, *triple) == 0
            for triple in itertools.combinations(vanishing, 3)
        )
        ok &= len(subspace) == 1 << (spec.g - 1)
        ok &= all(etale.parity_etale(spec, tc) == 0 for tc in subspace)
        ok &= set(vanishing) <= set(subspace)
    _report("7 syzygetic vanishing set", ok)
    assert ok


def test_criterion_08_arf_oracle_equivalence():
    ok = True
    for n in (1, 2, 3):
        for q in quadforms.all_forms(2 * n):
            ok &= q.arf() == quadforms.arf_by_zero_count(q)
    rng = random.Random(0)
    dims = list(range(2, 21, 2))
    for _ in range(10_000):
        dim = rng.choice(dims)
        q = quadforms.QuadraticForm(dim, rng.randrange(1 << dim))
        ok &= q.arf() == quadforms.arf_by_zero_count(q)
    _report("8 Arf oracle equivalence", ok)
    assert ok


def test_criterion_09_h0_cross_consistency():
    ok = True
    for b in (0, 1):
        for r in range(1, 7):
            spec = _ramified_spec(b, r)
            for tc in ramified.enumerate_theta_chars(spec):
                h = ramified.h0_theta(spec, tc)
                ok &= h == ramified.h0_theta_decomposed(spec, tc)
                ok &= h % 2 == ramified.parity(spec, tc)
    _report("9 section-count cross-consistency", ok)
    assert ok


def test_criterion_10a_ratio_independent_of_base_genus():
    started = time.monotonic()
    ok = all(
        len({ramified.asymptotic_ratio(b, r) for b in range(4)}) == 1
        for r in range(1, 201)
    )
    elapsed = time.monotonic() - started
    ok &= elapsed < 5.0
    _report("10a asymptotic ratio independent of base genus", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_10b_ratio_strictly_increasing_from_2():
    # With g = 2b + r - 1 the ratio is f(r) = 1 + 2^(1-r) - C(2r, r) / 4^(r-1)
    # for every b; its step f(r+1) - f(r) = 2 C(2r, r) / (4^r (r+1)) - 2^(-r)
    # is exactly 0 at r = 2 and positive from r = 3 on.  So the ratio is flat
    # at 0 on r = 2, 3 (no guaranteed vanishing thetanull in genus 1 or 2 of
    # a hyperelliptic curve) and strictly increasing afterwards.
    def closed_form(r):
        return 1 + Fraction(1, 2 ** (r - 1)) - Fraction(comb(2 * r, r), 4 ** (r - 1))

    rs = range(2, 201)
    ratios = {r: Fraction(*ramified.asymptotic_ratio(0, r)) for r in rs}
    ok = all(ratios[r] == closed_form(r) for r in rs)
    for r in (2, 3):
        spec = ramified.RamifiedCoverSpec.rational(r)
        enumerated = sum(
            1
            for tc in ramified.enumerate_theta_chars(spec)
            if ramified.parity(spec, tc) == 0 and tc.subset_size < r
        )
        ok &= ratios[r] == Fraction(enumerated, 2 ** (2 * r - 3)) == 0
    flat = [(r, r + 1) for r in rs[:-1] if not ratios[r] < ratios[r + 1]]
    ok &= flat == [(2, 3)]
    ok &= all(ratios[r] < ratios[r + 1] for r in range(3, 200))
    _report("10b asymptotic ratio flat at 0 on 2..3, strictly increasing on 3..200", ok,
            f"non-strict steps {flat}")
    assert ok


def test_criterion_10c_ratio_exceeds_08_at_200():
    value = Fraction(*ramified.asymptotic_ratio(0, 200))
    ok = value > Fraction(8, 10)
    _report("10c asymptotic ratio above 0.8 at r = 200", ok, f"= {float(value):.4f}")
    assert ok
