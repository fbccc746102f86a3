"""Involution-invariant theta characteristics on a ramified double cover.

A double cover pi: C -> B branched over 2r points is cut out by a class
rho on B with rho^2 = O(branch divisor); the curve has genus
g = 2b + r - 1 where b is the base genus.  Every invariant theta
characteristic is the pullback of a base bundle twisted by a subset of
the branch points:

    kappa = pi^* L (E),   L^2 = K_B (x) rho (-E),   #E = r (mod 2),

and (L, E) is unique up to the swap (K_B (x) L^{-1}, complement of E).
Parity is ((r - #E) / 2) mod 2 and section counts reduce to the base:
h^0(kappa) = h^0(L) + h^0(K_B (x) L^{-1}).

The enumeration below walks canonical pairs (subsets by size then
lexicographic index order, square roots in model order), so reports and
diffs are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .picard import (
    ELLIPTIC,
    GENERIC,
    RATIONAL,
    BaseCurveModel,
    GenericModel,
    LineBundleClass,
    ModelError,
    RationalModel,
)


@dataclass(frozen=True)
class RamifiedCoverSpec:
    """Branch data of a double cover: 2r branch points and the cover class."""

    model: BaseCurveModel
    r: int
    branch_points: tuple
    cover_class: LineBundleClass

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("need at least one pair of branch points")
        if len(self.branch_points) != 2 * self.r:
            raise ValueError(f"expected {2 * self.r} branch points, got {len(self.branch_points)}")
        if self.cover_class.degree != self.r:
            raise ValueError("the cover class must have degree r")
        for p, cls in zip(self.branch_points, self.point_classes):
            if any(t % 2 for t in cls.torsion):
                raise ModelError(f"branch point {p} lies outside the even sublattice")
        square = self.model.tensor(self.cover_class, self.cover_class)
        if any(t % 2 for t in self.cover_class.torsion):
            raise ModelError("the cover class must have even coordinates")
        if square != self.divisor_class(self.full_mask):
            raise ModelError("the cover class squared must be the branch divisor class")

    @cached_property
    def point_classes(self) -> tuple[LineBundleClass, ...]:
        """The branch points' classes, built once per spec."""
        return tuple(self.model.point_class(p) for p in self.branch_points)

    @property
    def b(self) -> int:
        return self.model.b

    @property
    def g(self) -> int:
        return 2 * self.b + self.r - 1

    @property
    def full_mask(self) -> int:
        return (1 << (2 * self.r)) - 1

    @classmethod
    def rational(cls, r: int) -> "RamifiedCoverSpec":
        """Hyperelliptic-style data over a rational base (2r abstract points)."""
        return cls(RationalModel(), r, tuple(range(2 * r)), LineBundleClass(RATIONAL, r))

    @classmethod
    def generic(cls, b: int, r: int) -> "RamifiedCoverSpec":
        """Parity-level data over a generic genus-b base."""
        model = GenericModel(b)
        cover = LineBundleClass(GENERIC, r, model.trivial().torsion)
        return cls(model, r, tuple(range(2 * r)), cover)

    @classmethod
    def elliptic(
        cls, model: BaseCurveModel, points: tuple, cover_class: LineBundleClass
    ) -> "RamifiedCoverSpec":
        return cls(model, len(points) // 2, tuple(points), cover_class)

    def divisor_class(self, mask: int) -> LineBundleClass:
        result = self.model.trivial()
        for i, cls in enumerate(self.point_classes):
            if (mask >> i) & 1:
                result = self.model.tensor(result, cls)
        return result

    def square_target(self, mask: int) -> LineBundleClass:
        """The class K_B (x) rho (-subset) that the bundle must square to."""
        m = self.model
        return m.tensor(
            m.tensor(m.canonical_class(), self.cover_class),
            m.inverse(self.divisor_class(mask)),
        )


@dataclass(frozen=True)
class RamifiedThetaChar:
    """One invariant theta characteristic as a (bundle, subset) pair."""

    bundle: LineBundleClass
    subset_mask: int

    @property
    def subset_size(self) -> int:
        return self.subset_mask.bit_count()


def is_canonical(spec: RamifiedCoverSpec, tc: RamifiedThetaChar) -> bool:
    """Canonical representatives have #E < r, or #E = r with the smaller of
    the two complementary masks (compared as words)."""
    size = tc.subset_size
    if size < spec.r:
        return True
    if size > spec.r:
        return False
    return tc.subset_mask <= spec.full_mask ^ tc.subset_mask


def swap_representation(spec: RamifiedCoverSpec, tc: RamifiedThetaChar) -> RamifiedThetaChar:
    """The other (bundle, subset) pair presenting the same characteristic."""
    m = spec.model
    other_bundle = m.tensor(m.canonical_class(), m.inverse(tc.bundle))
    return RamifiedThetaChar(other_bundle, spec.full_mask ^ tc.subset_mask)


def canonicalize(spec: RamifiedCoverSpec, tc: RamifiedThetaChar) -> RamifiedThetaChar:
    if is_canonical(spec, tc):
        return tc
    swapped = swap_representation(spec, tc)
    if not is_canonical(spec, swapped):
        raise AssertionError("one of the two representations must be canonical")
    return swapped


def enumerate_theta_chars(spec: RamifiedCoverSpec) -> list[RamifiedThetaChar]:
    """All 2^(2(g-b)) canonical invariant theta characteristics.

    Subsets run by size then lexicographic index tuples; for size r only
    the smaller of each complementary pair is kept; bundles follow the
    model's square-root order.
    """
    out: list[RamifiedThetaChar] = []
    n = 2 * spec.r
    for k in range(spec.r % 2, spec.r + 1, 2):
        for combo in itertools.combinations(range(n), k):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if k == spec.r and mask > spec.full_mask ^ mask:
                continue
            for root in spec.model.sqrt_classes(spec.square_target(mask)):
                out.append(RamifiedThetaChar(root, mask))
    return out


def parity(spec: RamifiedCoverSpec, tc: RamifiedThetaChar) -> int:
    """0 for even, 1 for odd: the parity of (r - #E) / 2."""
    size = tc.subset_size
    if (spec.r - size) % 2:
        raise ValueError(f"subset size {size} breaks the size-parity constraint (r = {spec.r})")
    return ((spec.r - size) // 2) % 2


def h0_theta(spec: RamifiedCoverSpec, tc: RamifiedThetaChar) -> int:
    """Section count h^0(L) + h^0(K_B (x) L^{-1}).

    Riemann-Roch gives h^0(K_B (x) L^{-1}) = h^0(L) - (deg L - b + 1), so
    the count is read off h^0(L) alone.  Exact on rational and elliptic
    models; on the generic model it is the general-position value (a
    lower bound for special bundles), for which the same identity holds.
    """
    return 2 * spec.model.h0(tc.bundle) - (tc.bundle.degree - spec.b + 1)


def h0_theta_decomposed(spec: RamifiedCoverSpec, tc: RamifiedThetaChar) -> int:
    """The same count through the pushforward route
    h^0(L) + h^0(L (x) rho^{-1} (subset)); must agree with ``h0_theta``."""
    m = spec.model
    twisted = m.tensor(
        tc.bundle,
        m.tensor(m.inverse(spec.cover_class), spec.divisor_class(tc.subset_mask)),
    )
    return m.h0(tc.bundle) + m.h0(twisted)


def h0_exact(spec: RamifiedCoverSpec) -> bool:
    """Whether section counts on this model are exact rather than
    general-position values."""
    return spec.model.kind in (RATIONAL, ELLIPTIC)


def is_vanishing(spec: RamifiedCoverSpec, tc: RamifiedThetaChar) -> bool:
    """Even with a nonzero section count.

    On the generic model the sufficient criterion #E < r (degree of the
    bundle exceeding b - 1) is used, so the verdict is a lower bound.
    """
    if parity(spec, tc) != 0:
        return False
    if h0_exact(spec):
        return h0_theta(spec, tc) > 0
    return tc.subset_size < spec.r


# --- closed-form counts, exact integer arithmetic throughout ---


def _check_args(b: int, r: int) -> None:
    if b < 0 or r < 1:
        raise ValueError(f"need base genus >= 0 and r >= 1, got b={b}, r={r}")


def count_total(b: int, r: int) -> int:
    """2^(2(g - b)) invariant theta characteristics, g = 2b + r - 1."""
    _check_args(b, r)
    return 1 << (2 * (b + r - 1))


def count_even(b: int, r: int) -> int:
    """2^(g-1) (2^(g-2b) + 1), written so the edge g = 0 stays integral."""
    _check_args(b, r)
    num = (1 << (2 * b + 2 * r - 2)) + (1 << (2 * b + r - 1))
    assert num % 2 == 0, "closed form lost exactness"
    return num // 2


def count_odd(b: int, r: int) -> int:
    """2^(g-1) (2^(g-2b) - 1)."""
    _check_args(b, r)
    num = (1 << (2 * b + 2 * r - 2)) - (1 << (2 * b + r - 1))
    assert num % 2 == 0, "closed form lost exactness"
    return num // 2


def count_vanishing_lb(b: int, r: int) -> int:
    """Guaranteed vanishing thetanulls:
    2^(g-1) (2^(g-2b) + 1 - 2^(-r+1) C(2r, r)), cleared of denominators."""
    _check_args(b, r)
    twice = (1 << (2 * b)) * comb(2 * r, r)
    assert twice % 2 == 0, "central binomial coefficient must be even"
    value = count_even(b, r) - twice // 2
    assert value >= 0, "the subtracted term can never exceed the even count"
    return value


def closed_form_counts(b: int, r: int) -> dict:
    """The four closed-form counts of a cover, in report order."""
    return {
        "total": count_total(b, r),
        "even": count_even(b, r),
        "odd": count_odd(b, r),
        "vanishing_lb": count_vanishing_lb(b, r),
    }


def _gaussian_power(re: int, im: int, exponent: int) -> tuple[int, int]:
    out_re, out_im = 1, 0
    for _ in range(exponent):
        out_re, out_im = out_re * re - out_im * im, out_re * im + out_im * re
    return out_re, out_im


def binomial_identity_check(r: int) -> bool:
    """Exact check of the fourth-roots-of-unity filter behind the even count.

    Cleared of denominators it reads

        C(2r, r) + 2 sum_{j >= 1} C(2r, r - 4j) = 2^(2r-2) + 2^(r-1),

    and four times either side must equal the exact Gaussian-integer sum
    2^(2r) + (-i)^r (1+i)^(2r) + i^r (1-i)^(2r).
    """
    if not 1 <= r <= 30:
        raise ValueError(f"identity check supported for 1 <= r <= 30, got {r}")
    lhs = comb(2 * r, r) + 2 * sum(comb(2 * r, r - 4 * j) for j in range(1, r // 4 + 1))
    rhs = (1 << (2 * r - 2)) + (1 << (r - 1))
    plus_re, plus_im = _gaussian_power(1, 1, 2 * r)
    minus_re, minus_im = _gaussian_power(1, -1, 2 * r)
    unit = [(1, 0), (0, 1), (-1, 0), (0, -1)][r % 4]  # i^r
    conj = (unit[0], -unit[1])  # (-i)^r
    filt_re = (
        (1 << (2 * r))
        + conj[0] * plus_re
        - conj[1] * plus_im
        + unit[0] * minus_re
        - unit[1] * minus_im
    )
    filt_im = conj[0] * plus_im + conj[1] * plus_re + unit[0] * minus_im + unit[1] * minus_re
    return lhs == rhs and filt_im == 0 and 4 * lhs == filt_re


def asymptotic_ratio(b: int, r: int) -> Fraction:
    """Guaranteed count over its large-genus equivalent 2^(2g-1-2b).

    An exact rational; cancellation makes it independent of b:

        1 + 2^(1-r) - C(2r, r) / 4^(r-1).

    It is 0 for r <= 3 (the guaranteed count vanishes), increases strictly
    from r = 3 on and tends to 1 as r grows.
    """
    _check_args(b, r)
    exponent = 2 * b + 2 * r - 3
    return Fraction(count_vanishing_lb(b, r)) / Fraction(2) ** exponent

