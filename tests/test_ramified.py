from fractions import Fraction

import pytest

from thetanulls.constructions import sample_bielliptic_spec
from thetanulls.picard import EllipticModel, LineBundleClass, ModelError
from thetanulls.ramified import (
    RamifiedCoverSpec,
    RamifiedThetaChar,
    asymptotic_ratio,
    binomial_identity_check,
    canonicalize,
    closed_form_counts,
    count_even,
    count_odd,
    count_total,
    count_vanishing_lb,
    enumerate_theta_chars,
    h0_exact,
    h0_theta,
    h0_theta_decomposed,
    is_canonical,
    is_vanishing,
    parity,
    swap_representation,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        RamifiedCoverSpec.rational(0)
    m = EllipticModel(240)
    pts = ((0, 0), (2, 0))
    with pytest.raises(ValueError):  # wrong cover degree
        RamifiedCoverSpec(m, 1, pts, LineBundleClass("elliptic", 2, (1, 0)))
    with pytest.raises(ModelError):  # cover squared is not the branch class
        RamifiedCoverSpec(m, 1, pts, LineBundleClass("elliptic", 1, (0, 0)))
    with pytest.raises(ModelError):  # odd-coordinate branch point
        RamifiedCoverSpec(m, 1, ((1, 0), (3, 0)), LineBundleClass("elliptic", 1, (2, 0)))


def test_enumeration_sizes():
    assert len(enumerate_theta_chars(RamifiedCoverSpec.rational(3))) == 16
    assert len(enumerate_theta_chars(sample_bielliptic_spec(5, seed=0))) == 1024
    # 2^(2(g-b)) with b=2, r=2, g=5 gives 2^6
    assert len(enumerate_theta_chars(RamifiedCoverSpec.generic(2, 2))) == 64


def test_enumeration_canonical_and_distinct():
    spec = sample_bielliptic_spec(3, seed=2)
    chars = enumerate_theta_chars(spec)
    assert len(set(chars)) == len(chars)
    m = spec.model
    for tc in chars:
        assert is_canonical(spec, tc)
        assert tc.subset_size % 2 == spec.r % 2
        assert m.tensor(tc.bundle, tc.bundle) == spec.square_target(tc.subset_mask)


def test_parity_formula():
    spec = RamifiedCoverSpec.rational(4)
    assert parity(spec, RamifiedThetaChar(LineBundleClass("rational", -1), 0b1111)) == 0
    assert parity(spec, RamifiedThetaChar(LineBundleClass("rational", 0), 0b0011)) == 1
    spec5 = sample_bielliptic_spec(5, seed=0)
    one_point = enumerate_theta_chars(spec5)[0]
    assert one_point.subset_size == 1
    assert parity(spec5, one_point) == 0  # (5 - 1)/2 = 2
    with pytest.raises(ValueError):
        parity(spec, RamifiedThetaChar(LineBundleClass("rational", 0), 0b0001))


def test_genus3_unique_vanishing_thetanull():
    # rational base, r = 4: one vanishing thetanull, the empty subset with
    # the degree-1 bundle and two sections
    spec = RamifiedCoverSpec.rational(4)
    chars = enumerate_theta_chars(spec)
    vanishing = [tc for tc in chars if is_vanishing(spec, tc)]
    assert len(vanishing) == 1 == count_vanishing_lb(0, 4)
    (tc,) = vanishing
    assert tc.subset_mask == 0 and tc.bundle.degree == 1 and h0_theta(spec, tc) == 2


def test_swap_is_involution_preserving_everything():
    spec = sample_bielliptic_spec(4, seed=1)
    for tc in enumerate_theta_chars(spec):
        other = swap_representation(spec, tc)
        assert swap_representation(spec, other) == tc
        assert canonicalize(spec, other) == tc
        assert parity(spec, other) == parity(spec, tc)
        assert h0_theta(spec, other) == h0_theta(spec, tc)


def test_h0_routes_agree_and_match_parity():
    for spec in (
        RamifiedCoverSpec.rational(5),
        sample_bielliptic_spec(4, seed=3),
        RamifiedCoverSpec.generic(2, 2),
        RamifiedCoverSpec.generic(3, 3),
    ):
        assert h0_exact(spec) == (spec.model.kind != "generic")
        for tc in enumerate_theta_chars(spec):
            h = h0_theta(spec, tc)
            assert h == h0_theta_decomposed(spec, tc)
            assert h % 2 == parity(spec, tc)


def test_generic_model_flagged_not_exact():
    spec = RamifiedCoverSpec.generic(2, 2)
    assert not h0_exact(spec)
    # lower-bound verdict comes from the subset size alone
    for tc in enumerate_theta_chars(spec):
        assert is_vanishing(spec, tc) == (parity(spec, tc) == 0 and tc.subset_size < 2)


def test_count_formula_instances():
    assert count_even(1, 5) == 544
    assert count_odd(1, 5) == 480
    assert (count_even(0, 4), count_odd(0, 4)) == (36, 28)
    assert (count_even(2, 1), count_odd(2, 1)) == (16, 0)
    assert count_total(1, 5) == 1024


def test_count_vanishing_instances():
    assert count_vanishing_lb(1, 5) == 40
    assert count_vanishing_lb(0, 4) == 1
    assert count_vanishing_lb(0, 3) == 0
    assert count_vanishing_lb(0, 5) == 10
    assert count_vanishing_lb(1, 2) == 0


def test_closed_form_counts_match_count_functions():
    for b in range(4):
        for r in range(1, 8):
            assert list(closed_form_counts(b, r).items()) == [
                ("total", count_total(b, r)),
                ("even", count_even(b, r)),
                ("odd", count_odd(b, r)),
                ("vanishing_lb", count_vanishing_lb(b, r)),
            ]
    with pytest.raises(ValueError):
        closed_form_counts(0, 0)


def test_counts_match_enumeration_small():
    for b in (0, 1, 2):
        for r in (1, 2, 3, 4):
            if b == 0:
                spec = RamifiedCoverSpec.rational(r)
            elif b == 1:
                spec = sample_bielliptic_spec(r, seed=10 * r)
            else:
                spec = RamifiedCoverSpec.generic(b, r)
            chars = enumerate_theta_chars(spec)
            parities = [parity(spec, tc) for tc in chars]
            assert len(chars) == count_total(b, r)
            assert parities.count(0) == count_even(b, r)
            assert parities.count(1) == count_odd(b, r)
            lb = sum(1 for tc, p in zip(chars, parities) if p == 0 and tc.subset_size < r)
            assert lb == count_vanishing_lb(b, r)


def test_binomial_identity_values():
    # r = 1: 2 = 2; r = 2: 6 = 6; r = 5: 252 + 2*10 = 256 + 16
    for r in range(1, 31):
        assert binomial_identity_check(r)
    with pytest.raises(ValueError):
        binomial_identity_check(31)


def test_asymptotic_ratio_values():
    assert asymptotic_ratio(1, 5) == Fraction(5, 64)
    assert asymptotic_ratio(0, 3) == 0
    # the first two ratios vanish exactly; growth is strict from r = 3 on
    assert asymptotic_ratio(0, 2) == 0
    assert asymptotic_ratio(0, 4) == Fraction(1, 32)
    for r in range(3, 60):
        assert asymptotic_ratio(0, r) < asymptotic_ratio(0, r + 1)


def test_asymptotic_ratio_independent_of_base_genus():
    for r in (1, 2, 5, 9):
        values = {asymptotic_ratio(b, r) for b in range(5)}
        assert len(values) == 1
