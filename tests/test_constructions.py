import pytest

from thetanulls.constructions import (
    build_bielliptic_genus6,
    count_vanishing_generic_bielliptic,
    count_vanishing_genus6,
    hyperelliptic_report,
    sample_bielliptic_spec,
)
from thetanulls.picard import ModelError
from thetanulls.ramified import (
    RamifiedThetaChar,
    canonicalize,
    count_vanishing_lb,
    enumerate_theta_chars,
    h0_theta,
    is_vanishing,
    parity,
)


def test_build_invariants():
    for seed in (0, 1, 7):
        config = build_bielliptic_genus6(seed=seed)
        points = config.branch_points
        assert len(points) == 10 == len(set(points))
        assert all(x % 2 == 0 and y % 2 == 0 for x, y in points)
        m = config.model
        # each 2-point divisor lies in the degree-2 pencil, the 3-point one
        # in its twist by the base point
        for pair in config.pair_divisors:
            assert m.of_divisor(pair) == config.pencil_class
        twist = m.tensor(config.pencil_class, m.point_class(config.base_point))
        assert m.of_divisor(config.triple_divisor) == twist
        assert config.cover_class.degree == 5
        assert m.tensor(config.cover_class, config.cover_class) == m.of_divisor(points)
        spec = config.spec()
        assert spec.g == 6 and spec.b == 1 and spec.r == 5


def test_build_is_deterministic():
    assert build_bielliptic_genus6(seed=5) == build_bielliptic_genus6(seed=5)


def test_genus6_count_and_certificate():
    config = build_bielliptic_genus6(seed=0)
    cert = count_vanishing_genus6(config)
    assert cert["count"] == 43
    assert cert["guaranteed_lower_bound"] == 40
    assert len(cert["generic"]) == 40
    assert len(cert["extras"]) == 3
    assert cert["forced_extras_present"]
    for extra in cert["extras"]:
        assert extra["h0"] == 2
        assert extra["bundle"]["degree"] == 0 and extra["bundle"]["point"] == [0, 0]


def test_genus6_forced_extras_every_seed():
    for seed in range(10):
        cert = count_vanishing_genus6(build_bielliptic_genus6(seed=seed))
        assert cert["count"] >= 43
        assert cert["forced_extras_present"]
        for entry in cert["forced_extras"]:
            assert entry["present"] and entry["h0"] == 2


def test_forced_subset_and_complement_are_one_characteristic():
    # the 5 points of pencil_1 + pencil_2 + base and the complementary
    # pencil_3 + twist-divisor present the same theta characteristic
    config = build_bielliptic_genus6(seed=0)
    spec = config.spec()
    trivial = spec.model.trivial()
    mask_a = config.forced_subset_masks()[0]  # pairs 1,2 + base point
    mask_b = spec.full_mask ^ mask_a  # pair 3 + triple divisor
    rep_a = canonicalize(spec, RamifiedThetaChar(trivial, mask_a))
    rep_b = canonicalize(spec, RamifiedThetaChar(trivial, mask_b))
    assert rep_a == rep_b
    assert parity(spec, rep_a) == 0 and h0_theta(spec, rep_a) == 2


def test_genus6_vanishing_breakdown():
    config = build_bielliptic_genus6(seed=3)
    spec = config.spec()
    chars = enumerate_theta_chars(spec)
    vanishing = [tc for tc in chars if is_vanishing(spec, tc)]
    # the 40 guaranteed ones all have small subsets; extras are full-size
    assert sum(1 for tc in vanishing if tc.subset_size < 5) == 40
    assert all(tc.subset_size in (1, 5) for tc in vanishing)


def test_hyperelliptic_classical_counts():
    for g, expected in ((2, 0), (3, 1), (4, 10)):
        rep = hyperelliptic_report(g)
        assert rep["vanishing_lb"] == expected
        assert rep["enumerated"]["vanishing"] == expected
        assert rep["enumerated"]["even"] == rep["even"]
        assert rep["enumerated"]["odd"] == rep["odd"]
    assert "characters" in hyperelliptic_report(3)
    assert "characters" not in hyperelliptic_report(6)
    with pytest.raises(ValueError):
        hyperelliptic_report(1)


def test_generic_bielliptic_counts():
    for seed in range(5):
        result = count_vanishing_generic_bielliptic(6, seed=seed)
        assert result["lower_bound"] == 40
        assert result["count"] >= 40
    assert count_vanishing_generic_bielliptic(6, seed=1)["count"] == 40
    assert count_vanishing_generic_bielliptic(3, seed=0)["count"] == 0
    with pytest.raises(ValueError):
        count_vanishing_generic_bielliptic(2)


def test_generic_bielliptic_matches_closed_form_for_most_seeds():
    matches = sum(
        1
        for seed in range(10)
        if count_vanishing_generic_bielliptic(6, seed=seed)["count"]
        == count_vanishing_lb(1, 5)
    )
    assert matches >= 8


def test_sampler_rejects_impossible_setup():
    # a tiny modulus cannot host 10 distinct even points
    with pytest.raises(ModelError):
        build_bielliptic_genus6(N=4, seed=0, max_attempts=50)


def test_sample_spec_even_cover_class():
    for seed in (0, 1, 2):
        for r in (2, 3, 5):
            spec = sample_bielliptic_spec(r, seed=seed)
            x, y = spec.cover_class.torsion
            assert x % 2 == 0 and y % 2 == 0
            assert len(set(spec.branch_points)) == 2 * r
