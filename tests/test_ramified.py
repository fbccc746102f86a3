import hashlib
import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from thetanulls.constructions import sample_bielliptic_spec
from thetanulls.picard import EllipticModel, GenericModel, LineBundleClass, ModelError
from thetanulls.ramified import (
    MAX_GENUS,
    RamifiedCoverSpec,
    RamifiedThetaChar,
    asymptotic_ratio,
    binomial_identity_check,
    canonicalize,
    closed_form_counts,
    enumerate_theta_chars,
    h0_theta,
    h0_theta_decomposed,
    is_vanishing,
    parity,
    swap_representation,
)


def _points(*torsions, degree=1):
    return tuple(LineBundleClass("elliptic", degree, t) for t in torsions)


def test_spec_validation():
    with pytest.raises(ValueError):
        RamifiedCoverSpec.rational(0)
    m = EllipticModel(240)
    for points in ((), _points((0, 0)), _points((0, 0), (2, 0), (4, 0))):  # r is read off the points
        with pytest.raises(ValueError, match=f"nonzero even number of branch points, got {len(points)}"):
            RamifiedCoverSpec(m, points, LineBundleClass("elliptic", 1, (2, 0)))
    pts = _points((0, 0), (2, 0))
    with pytest.raises(ValueError):  # wrong cover degree
        RamifiedCoverSpec(m, pts, LineBundleClass("elliptic", 2, (1, 0)))
    with pytest.raises(ModelError):  # cover squared is not the branch class
        RamifiedCoverSpec(m, pts, LineBundleClass("elliptic", 1, (0, 0)))
    with pytest.raises(ModelError, match=r"branch point \(1, 0\) lies outside the even sublattice"):
        RamifiedCoverSpec(m, _points((1, 0), (3, 0)), LineBundleClass("elliptic", 1, (2, 0)))
    with pytest.raises(ValueError, match="degree 1"):  # a branch point of degree 2
        RamifiedCoverSpec(m, _points((0, 0), (2, 0), degree=2), LineBundleClass("elliptic", 1, (2, 0)))
    with pytest.raises(ValueError, match="is not a class of the 'elliptic' model"):  # wrong kind
        RamifiedCoverSpec(m, (LineBundleClass("rational", 1),) * 2, LineBundleClass("elliptic", 1, (0, 0)))
    # a wrong torsion length is refused by the model's shape check in the square check
    with pytest.raises(ValueError, match=r"torsion=\(2,\)\) is not a class of the 'elliptic' model"):
        RamifiedCoverSpec(m, _points((2,), (0, 0)), LineBundleClass("elliptic", 1, (2, 0)))
    generic = GenericModel(2)
    short, point = LineBundleClass("generic", 1, (0, 0, 0)), LineBundleClass("generic", 1, generic.trivial().torsion)
    with pytest.raises(ValueError, match=r"torsion=\(0, 0, 0\)\) is not a class of the 'generic' model"):
        RamifiedCoverSpec(generic, (short, point), point)
    # with an odd coordinate, the spec's even-sublattice rule comes first
    with pytest.raises(ModelError, match=r"branch point \(1,\) lies outside the even sublattice"):
        RamifiedCoverSpec(m, _points((1,), (0, 0)), LineBundleClass("elliptic", 1, (2, 0)))


def test_unreduced_cover_class_refused():
    m = EllipticModel(240)
    pts = _points((0, 0), (4, 0))
    spec = RamifiedCoverSpec(m, pts, LineBundleClass("elliptic", 1, (2, 0)))
    assert spec.cover_class.torsion == (2, 0)
    for torsion in ((242, 0), (-238, 0), (2, 240)):
        with pytest.raises(ModelError, match="reduced coordinates"):
            RamifiedCoverSpec(m, pts, LineBundleClass("elliptic", 1, torsion))
    # a branch point follows the cover class's rule: (244, 0) is not read as (4, 0)
    for torsion in ((244, 0), (-236, 0), (4, 240)):
        with pytest.raises(ModelError, match=r"branch point \(.*\) must have reduced coordinates"):
            RamifiedCoverSpec(m, _points((0, 0), torsion), LineBundleClass("elliptic", 1, (2, 0)))


def test_cover_class_follows_the_branch_point_rule():
    # one rule for the 2r + 1 classes: degree (1 or r), even and reduced coordinates
    m = EllipticModel(240)
    pts = _points((0, 0), (4, 0))
    for cover, error, message in (
        (LineBundleClass("elliptic", 1, (1, 0)), ModelError, r"cover class \(1, 0\) lies outside the even sublattice"),
        (LineBundleClass("elliptic", 1, (2, 3)), ModelError, r"cover class \(2, 3\) lies outside the even sublattice"),
        (LineBundleClass("elliptic", 1, (242, 0)), ModelError, r"cover class \(242, 0\) must have reduced coordinates"),
        (LineBundleClass("elliptic", 1, (2, -2)), ModelError, r"cover class \(2, -2\) must have reduced coordinates"),
        (LineBundleClass("elliptic", 2, (2, 0)), ValueError, r"cover class \(2, 0\) must have degree 1, got 2"),
    ):
        with pytest.raises(error, match=f"^{message}$"):
            RamifiedCoverSpec(m, pts, cover)
    with pytest.raises(ValueError, match=r"^branch point \(4, 0\) must have degree 1, got 0$"):
        RamifiedCoverSpec(m, (pts[0], LineBundleClass("elliptic", 0, (4, 0))), LineBundleClass("elliptic", 1, (2, 0)))


def test_enumeration_sizes():
    assert len(enumerate_theta_chars(RamifiedCoverSpec.rational(3))) == 16
    assert len(enumerate_theta_chars(sample_bielliptic_spec(5, seed=0))) == 1024
    # 2^(2(g-b)) with b=2, r=2, g=5 gives 2^6
    assert len(enumerate_theta_chars(RamifiedCoverSpec.generic(2, 2))) == 64


def _reference_enumeration(spec):
    # the definition: every subset of the right sizes, keeping at size r the
    # smaller word of each complementary pair
    out = []
    for k in range(spec.r % 2, spec.r + 1, 2):
        for combo in itertools.combinations(range(2 * spec.r), k):
            mask = sum(1 << i for i in combo)
            if k == spec.r and mask > spec.full_mask ^ mask:
                continue
            for root in spec.model.sqrt_classes(spec.square_target(mask)):
                out.append(RamifiedThetaChar(root, mask))
    return out


def test_enumeration_canonical_and_distinct():
    specs = [RamifiedCoverSpec.rational(r) for r in range(1, 8)]
    specs += [RamifiedCoverSpec.generic(2, r) for r in range(1, 4)]
    specs += [sample_bielliptic_spec(r, N=N, seed=r) for r in range(2, 6) for N in (24, 240)]
    for spec in specs:
        chars = enumerate_theta_chars(spec)
        assert chars == _reference_enumeration(spec), (spec.model, spec.r)
        assert len(set(chars)) == len(chars)
        m = spec.model
        for tc in chars:
            size = tc.subset_size
            assert size < spec.r or (size == spec.r and tc.subset_mask <= spec.full_mask ^ tc.subset_mask)
            assert size % 2 == spec.r % 2
            assert m.tensor(tc.bundle, tc.bundle) == spec.square_target(tc.subset_mask)


def _target_specs():
    return [
        RamifiedCoverSpec.rational(4),
        sample_bielliptic_spec(4, N=24, seed=3),
        RamifiedCoverSpec.generic(2, 3),
    ]


def test_square_target_matches_the_tensor_fold():
    # the integer route against the independent fold through divisor_class
    for spec in _target_specs():
        m = spec.model
        twisted = m.tensor(m.canonical_class(), spec.cover_class)
        for mask in range(spec.full_mask + 1):
            assert spec.square_target(mask) == m.tensor(twisted, m.inverse(spec.divisor_class(mask))), mask


# sha256 of repr([(bundle, subset_mask), ...]) in enumeration order, recorded
# from the tensor-fold square targets
ENUMERATION_DIGESTS = [
    "152a5c3f44748f61cf747947c0e3c1ab5bf2cc9772f677b97b9ea72b32045089",
    "daa2e079b3b18cb699cf75ae350ce320ad34a6f20e7b2a6d9bcb6bcfbb12a948",
    "66d32c0101b07cdd329c1a060bc939925eea8eeada9199bb9e39edb6fc2037e6",
    "988cd93974550ac15523e2b9ec68368c623051a09a033161e2fb6250de4e1046",
]


def test_enumeration_order_is_pinned():
    specs = _target_specs() + [sample_bielliptic_spec(5, seed=0)]
    digests = [
        hashlib.sha256(repr([(tc.bundle, tc.subset_mask) for tc in enumerate_theta_chars(spec)]).encode()).hexdigest()
        for spec in specs
    ]
    assert digests == ENUMERATION_DIGESTS


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
    assert len(vanishing) == 1 == closed_form_counts(0, 4)["vanishing_lb"]
    (tc,) = vanishing
    assert tc.subset_mask == 0 and tc.bundle.degree == 1 and h0_theta(spec, tc) == 2


def test_swap_is_involution_preserving_everything():
    # the generic model's verdict must not depend on the representation
    for spec in (sample_bielliptic_spec(4, seed=1), RamifiedCoverSpec.generic(2, 4)):
        for tc in enumerate_theta_chars(spec):
            other = swap_representation(spec, tc)
            assert swap_representation(spec, other) == tc
            assert canonicalize(spec, other) == tc
            assert parity(spec, other) == parity(spec, tc)
            assert h0_theta(spec, other) == h0_theta(spec, tc)
            assert is_vanishing(spec, other) == is_vanishing(spec, tc)


def test_random_elliptic_specs_keep_representations_and_counts():
    # seeded property loop over elliptic models other than the default N = 240
    rng = random.Random(2012)
    for _ in range(12):
        r, N = rng.randint(2, 5), 4 * rng.randint(16, 79)
        spec = sample_bielliptic_spec(r, N=N, seed=rng.randrange(1 << 30))
        chars = enumerate_theta_chars(spec)
        for tc in chars:
            other = swap_representation(spec, tc)
            assert swap_representation(spec, other) == tc
            assert canonicalize(spec, other) == tc
            assert canonicalize(spec, tc) == tc
        parities = [parity(spec, tc) for tc in chars]
        counts = {
            "total": len(chars),
            "even": parities.count(0),
            "odd": parities.count(1),
            "vanishing_lb": sum(1 for tc, p in zip(chars, parities) if p == 0 and tc.subset_size < r),
        }
        assert counts == closed_form_counts(1, r), (r, N)


def test_h0_routes_agree_and_match_parity():
    for spec in (
        RamifiedCoverSpec.rational(5),
        sample_bielliptic_spec(4, seed=3),
        RamifiedCoverSpec.generic(2, 2),
        RamifiedCoverSpec.generic(3, 3),
    ):
        for tc in enumerate_theta_chars(spec):
            h = h0_theta(spec, tc)
            assert h == h0_theta_decomposed(spec, tc)
            assert h % 2 == parity(spec, tc)


def test_generic_model_flagged_not_exact():
    spec = RamifiedCoverSpec.generic(2, 2)
    # lower-bound verdict comes from the subset size alone
    for tc in enumerate_theta_chars(spec):
        assert is_vanishing(spec, tc) == (parity(spec, tc) == 0 and tc.subset_size < 2)


def test_count_formula_instances():
    assert closed_form_counts(1, 5)["even"] == 544
    assert closed_form_counts(1, 5)["odd"] == 480
    assert [closed_form_counts(0, 4)[k] for k in ("even", "odd")] == [36, 28]
    assert [closed_form_counts(2, 1)[k] for k in ("even", "odd")] == [16, 0]
    assert closed_form_counts(1, 5)["total"] == 1024


def test_count_vanishing_instances():
    assert closed_form_counts(1, 5)["vanishing_lb"] == 40
    assert closed_form_counts(0, 4)["vanishing_lb"] == 1
    assert closed_form_counts(0, 3)["vanishing_lb"] == 0
    assert closed_form_counts(0, 5)["vanishing_lb"] == 10
    assert closed_form_counts(1, 2)["vanishing_lb"] == 0


def test_closed_form_counts_match_paper_expressions():
    # the paper's expressions in exact rationals, g = 2b + r - 1
    two = Fraction(2)
    for b in range(4):
        for r in range(1, 8):
            g = 2 * b + r - 1
            even = two ** (g - 1) * (two ** (g - 2 * b) + 1)
            odd = two ** (g - 1) * (two ** (g - 2 * b) - 1)
            lost = two ** (g - 1) * two ** (1 - r) * comb(2 * r, r)
            counts = closed_form_counts(b, r)
            assert all(type(v) is int for v in counts.values())
            assert list(counts.items()) == [
                ("total", 2 ** (2 * (g - b))),
                ("even", even),
                ("odd", odd),
                ("vanishing_lb", even - lost),
            ], (b, r)
    for b, r in ((0, 0), (-1, 1)):
        with pytest.raises(ValueError, match=f"got b={b}, r={r}"):
            closed_form_counts(b, r)


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
            expected = closed_form_counts(b, r)
            assert len(chars) == expected["total"]
            assert parities.count(0) == expected["even"]
            assert parities.count(1) == expected["odd"]
            lb = sum(1 for tc, p in zip(chars, parities) if p == 0 and tc.subset_size < r)
            assert lb == expected["vanishing_lb"]


def test_binomial_identity_values():
    # r = 1: 2 = 2; r = 2: 6 = 6; r = 5: 252 + 2*10 = 256 + 16
    for r in range(1, 48):
        assert binomial_identity_check(r)
    with pytest.raises(ValueError):
        binomial_identity_check(48)


def test_asymptotic_ratio_values():
    assert asymptotic_ratio(1, 5) == (5, 64)
    assert asymptotic_ratio(0, 3) == (0, 1)
    # the first two ratios vanish exactly; growth is strict from r = 3 on
    assert asymptotic_ratio(0, 2) == (0, 1)
    assert asymptotic_ratio(0, 4) == (1, 32)
    for r in range(3, 60):
        assert Fraction(*asymptotic_ratio(0, r)) < Fraction(*asymptotic_ratio(0, r + 1))


def test_asymptotic_ratio_is_the_reduced_fraction():
    # every (b, r) up to the genus bound, g = 0 included, where the
    # exponent 2b + 2r - 3 is -1: the pair is Fraction's, and its float
    # division rounds as Fraction's float does
    pairs = [(b, r) for b in range(24) for r in range(1, 201) if 2 * b + r - 1 <= MAX_GENUS]
    assert len(pairs) == 576
    for b, r in pairs:
        exact = Fraction(closed_form_counts(b, r)["vanishing_lb"], 1) / Fraction(2) ** (2 * b + 2 * r - 3)
        num, den = asymptotic_ratio(b, r)
        assert (num, den) == (exact.numerator, exact.denominator), (b, r)
        assert repr(num / den) == repr(float(exact)), (b, r)


def test_asymptotic_ratio_independent_of_base_genus():
    for r in (1, 2, 5, 9):
        values = {asymptotic_ratio(b, r) for b in range(5)}
        assert len(values) == 1
