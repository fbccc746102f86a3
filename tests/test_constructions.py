import functools
import random

import pytest

from thetanulls.constructions import (
    FORCED_SUBSET_MASKS,
    MAX_ATTEMPTS,
    build_bielliptic_genus6,
    count_vanishing_generic_bielliptic,
    count_vanishing_genus6,
    hyperelliptic_report,
    sample_bielliptic_spec,
)
from thetanulls.picard import LineBundleClass, ModelError
from thetanulls.ramified import (
    RamifiedThetaChar,
    canonicalize,
    closed_form_counts,
    enumerate_theta_chars,
    h0_theta,
    is_vanishing,
    parity,
)


def divisor_class(model, points):
    """Class of a sum of points, folded from the point classes."""
    return functools.reduce(model.tensor, (LineBundleClass("elliptic", 1, p) for p in points), model.trivial())


def test_build_invariants():
    # the certificate's config block is the geometry the spec was built from
    for seed in (0, 1, 7):
        spec = build_bielliptic_genus6(seed=seed)
        cert = count_vanishing_genus6(seed=seed)
        config = cert["config"]
        points = spec.branch_points
        assert len(points) == 10 == len(set(points))
        torsions = tuple(p.torsion for p in points)
        assert all(x % 2 == 0 and y % 2 == 0 for x, y in torsions)
        pairs = [tuple(tuple(p) for p in pair) for pair in config["pair_divisors"]]
        triple = tuple(tuple(p) for p in config["triple_divisor"])
        base = tuple(config["base_point"])
        assert torsions == (*(p for pair in pairs for p in pair), *triple, base)
        m = spec.model
        # each 2-point divisor lies in the degree-2 pencil, the 3-point one
        # in its twist by the base point
        pencil = LineBundleClass("elliptic", 2, tuple(config["pencil_point"]))
        for pair in pairs:
            assert divisor_class(m, pair) == pencil
        twist = m.tensor(pencil, LineBundleClass("elliptic", 1, base))
        assert divisor_class(m, triple) == twist
        cover = spec.cover_class
        assert config["cover_class"] == {"kind": "elliptic", "degree": 5, "point": list(cover.torsion)}
        assert spec.cover_class.degree == 5
        assert m.tensor(spec.cover_class, spec.cover_class) == divisor_class(m, torsions)
        assert 2 * spec.b + spec.r - 1 == 6 and spec.b == 1 and spec.r == 5
        for entry, (i, j) in zip(cert["forced_extras"], ((0, 1), (0, 2), (1, 2)), strict=True):
            assert entry["subset_indices"] == [2 * i, 2 * i + 1, 2 * j, 2 * j + 1, 9]


def test_build_is_deterministic():
    assert build_bielliptic_genus6(seed=5) == build_bielliptic_genus6(seed=5)


def test_genus6_count_and_certificate():
    cert = count_vanishing_genus6(seed=0)
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
        cert = count_vanishing_genus6(seed=seed)
        assert cert["count"] >= 43
        assert cert["forced_extras_present"]
        for entry in cert["forced_extras"]:
            assert entry["present"] and entry["h0"] == 2


def test_forced_subset_and_complement_are_one_characteristic():
    # the 5 points of pencil_1 + pencil_2 + base and the complementary
    # pencil_3 + twist-divisor present the same theta characteristic
    spec = build_bielliptic_genus6(seed=0)
    trivial = spec.model.trivial()
    mask_a = FORCED_SUBSET_MASKS[0]  # pairs 1,2 + base point
    mask_b = spec.full_mask ^ mask_a  # pair 3 + triple divisor
    rep_a = canonicalize(spec, RamifiedThetaChar(trivial, mask_a))
    rep_b = canonicalize(spec, RamifiedThetaChar(trivial, mask_b))
    assert rep_a == rep_b
    assert parity(spec, rep_a) == 0 and h0_theta(spec, rep_a) == 2


def test_genus6_vanishing_breakdown():
    spec = build_bielliptic_genus6(seed=3)
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
        == closed_form_counts(1, 5)["vanishing_lb"]
    )
    assert matches >= 8


def test_sampler_rejects_impossible_setup():
    # a tiny modulus cannot host 10 (or 6) distinct even points; both
    # samplers refuse through the one redraw loop with the one message
    for sample, what in (
        (lambda: build_bielliptic_genus6(N=4, seed=0), "10 distinct construction points"),
        (lambda: sample_bielliptic_spec(3, N=4, seed=0), "6 distinct branch points"),
    ):
        with pytest.raises(ModelError) as exc:
            sample()
        assert str(exc.value) == f"could not sample {what} in 1000 attempts; try a larger torsion modulus"


def raw_tuple_sampler(r, N, seed):
    """The generic sampler as first written, on raw (Z/N)^2 tuples: the last
    point nudged by the coordinate sums mod 4, rho half the nudged sums.
    Returns (points, rho torsion), or the refusal message."""
    randrange = random.Random(seed).randrange
    for _ in range(MAX_ATTEMPTS):
        points = [(2 * randrange(N // 2), 2 * randrange(N // 2)) for _ in range(2 * r)]
        sx = sum(p[0] for p in points)
        sy = sum(p[1] for p in points)
        lx, ly = points[-1]
        points[-1] = ((lx + (sx % 4)) % N, (ly + (sy % 4)) % N)
        if len(set(points)) != 2 * r:
            continue
        sx = sum(p[0] for p in points)
        sy = sum(p[1] for p in points)
        return points, ((sx // 2) % N, (sy // 2) % N)
    return f"could not sample {2 * r} distinct branch points in {MAX_ATTEMPTS} attempts; try a larger torsion modulus"


def test_sampler_matches_raw_tuple_oracle():
    # the class-level rule (nudge by the degree-0 class of the sums mod 4,
    # rho the product of the canonical halves) draws the same specs and
    # refuses the same inputs as the coordinate-sum rule
    specs = refusals = 0
    for N in (8, 12, 24, 240):
        for r in range(1, 10):
            for seed in range(10):
                expected = raw_tuple_sampler(r, N, seed)
                try:
                    spec = sample_bielliptic_spec(r, N=N, seed=seed)
                except ModelError as exc:
                    assert str(exc) == expected
                    refusals += 1
                    continue
                points, rho = expected
                assert [p.torsion for p in spec.branch_points] == points
                assert all(p.degree == 1 for p in spec.branch_points)
                assert spec.cover_class == LineBundleClass("elliptic", r, rho)
                specs += 1
    assert (specs, refusals) == (329, 31)


def test_sample_spec_even_cover_class():
    for seed in (0, 1, 2):
        for r in (2, 3, 5):
            spec = sample_bielliptic_spec(r, seed=seed)
            x, y = spec.cover_class.torsion
            assert x % 2 == 0 and y % 2 == 0
            assert len(set(spec.branch_points)) == 2 * r
