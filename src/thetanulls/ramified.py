"""Involution-invariant theta characteristics on a ramified double cover.

A double cover pi: C -> B branched over 2r points is cut out by a class
rho on B with rho^2 = O(branch divisor); the curve has genus
g = 2b + r - 1 where b is the base genus.  A spec holds the model, the
branch points and rho, and reads b and r off them.  Every invariant theta
characteristic is the pullback of a base bundle twisted by a subset of
the branch points:

    kappa = pi^* L (E),   L^2 = K_B (x) rho (-E),   #E = r (mod 2),

and (L, E) is unique up to the swap (K_B (x) L^{-1}, complement of E).
Parity is ((r - #E) / 2) mod 2 and section counts reduce to the base:
h^0(kappa) = h^0(L) + h^0(K_B (x) L^{-1}).

The enumeration below walks canonical pairs only: every subset with
#E < r, and one of each complementary pair at #E = r (a size-r mask w is
canonical when w < w ^ full, that is, when it leaves out the last branch
point).  Subsets run by size then lexicographic index order and square
roots in model order, so reports and diffs are reproducible.
"""

from __future__ import annotations

import itertools
from math import comb, gcd
from typing import NamedTuple

from .gf2 import Record
from .picard import (
    GENERIC,
    RATIONAL,
    BaseCurveModel,
    GenericModel,
    LineBundleClass,
    ModelError,
    RationalModel,
)


class RamifiedCoverSpec(Record):
    """Branch data of a double cover: the cover class rho and 2r branch points, each
    a degree-1 class with, like rho, even torsion in 0..m-1; ``b``, ``r`` and the torsion
    of K_B (x) rho are set once, as plain attributes rather than fields."""

    _fields = ("model", "branch_points", "cover_class")
    __slots__ = _fields + ("r", "b", "_twisted_canonical_torsion")

    def __init__(self, model: BaseCurveModel, branch_points: tuple[LineBundleClass, ...], cover_class: LineBundleClass):
        if not branch_points or len(branch_points) % 2:
            raise ValueError(f"need a nonzero even number of branch points, got {len(branch_points)}")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "branch_points", branch_points)
        object.__setattr__(self, "cover_class", cover_class)
        object.__setattr__(self, "r", len(branch_points) // 2)
        object.__setattr__(self, "b", self.model.b)
        classes = [("branch point", p, 1) for p in self.branch_points] + [("cover class", self.cover_class, self.r)]
        for name, cls, degree in classes:
            if cls.degree != degree:
                raise ValueError(f"{name} {cls.torsion} must have degree {degree}, got {cls.degree}")
            if any(t % 2 for t in cls.torsion):
                raise ModelError(f"{name} {cls.torsion} lies outside the even sublattice")
            if any(not 0 <= t < m for t, m in zip(cls.torsion, self.model.moduli)):
                raise ModelError(f"{name} {cls.torsion} must have reduced coordinates")
        square = self.model.tensor(self.cover_class, self.cover_class)
        if square != self.divisor_class(self.full_mask):
            raise ModelError("the cover class squared must be the branch divisor class")
        # the torsion of K_B (x) rho, which every square target starts from
        twisted = self.model.tensor(self.model.canonical_class(), self.cover_class)
        object.__setattr__(self, "_twisted_canonical_torsion", twisted.torsion)

    @property
    def full_mask(self) -> int:
        return (1 << (2 * self.r)) - 1

    @classmethod
    def rational(cls, r: int) -> "RamifiedCoverSpec":
        """Hyperelliptic-style data over a rational base: 2r points, each of degree 1."""
        return cls(RationalModel(), (LineBundleClass(RATIONAL, 1),) * (2 * r), LineBundleClass(RATIONAL, r))

    @classmethod
    def generic(cls, b: int, r: int) -> "RamifiedCoverSpec":
        """Parity-level data over a generic genus-b base: 2r points with the trivial label."""
        model = GenericModel(b)
        label = model.trivial().torsion
        return cls(model, (LineBundleClass(GENERIC, 1, label),) * (2 * r), LineBundleClass(GENERIC, r, label))

    def divisor_class(self, mask: int) -> LineBundleClass:
        """The class of a subset as a tensor fold: the route the branch-data
        check and ``h0_theta_decomposed`` take, independent of
        ``square_target``'s integer arithmetic."""
        result = self.model.trivial()
        for i, cls in enumerate(self.branch_points):
            if (mask >> i) & 1:
                result = self.model.tensor(result, cls)
        return result

    def square_target(self, mask: int) -> LineBundleClass:
        """The class K_B (x) rho (-subset) that the bundle must square to.

        The chosen points' torsion is subtracted coordinate by coordinate
        and reduced once, so each subset builds exactly one class.
        """
        chosen = [p.torsion for i, p in enumerate(self.branch_points) if (mask >> i) & 1]
        columns = zip(self._twisted_canonical_torsion, self.model.moduli, *chosen)
        return LineBundleClass(
            self.model.kind,
            2 * self.b - 2 + self.r - len(chosen),
            tuple([(t - sum(c)) % m for t, m, *c in columns]),
        )


class RamifiedThetaChar(NamedTuple):
    """One invariant theta characteristic as a (bundle, subset) pair; a named
    tuple, so it equals and hashes as the plain tuple ``(bundle, subset_mask)``."""

    bundle: LineBundleClass
    subset_mask: int

    @property
    def subset_size(self) -> int:
        return self.subset_mask.bit_count()


def swap_representation(spec: RamifiedCoverSpec, tc: RamifiedThetaChar) -> RamifiedThetaChar:
    """The other (bundle, subset) pair presenting the same characteristic."""
    m = spec.model
    other_bundle = m.tensor(m.canonical_class(), m.inverse(tc.bundle))
    return RamifiedThetaChar(other_bundle, spec.full_mask ^ tc.subset_mask)


def canonicalize(spec: RamifiedCoverSpec, tc: RamifiedThetaChar) -> RamifiedThetaChar:
    """The canonical one of tc's two representations: the one with the smaller
    subset, or at #E = r the one whose mask w has w < w ^ full_mask."""
    size = tc.subset_size
    if size < spec.r or (size == spec.r and tc.subset_mask < tc.subset_mask ^ spec.full_mask):
        return tc
    return swap_representation(spec, tc)


def enumerate_theta_chars(spec: RamifiedCoverSpec) -> list[RamifiedThetaChar]:
    """All 2^(2(g-b)) canonical invariant theta characteristics.

    Subsets run by size then lexicographic index tuples, canonical ones
    only: at #E = r, a walk of ``canonicalize``'s rule w < w ^ full_mask
    (leave out the last point).  Bundles follow the model's root order.
    """
    out: list[RamifiedThetaChar] = []
    for k in range(spec.r % 2, spec.r + 1, 2):
        points = 2 * spec.r - 1 if k == spec.r else 2 * spec.r
        for combo in itertools.combinations(range(points), k):
            mask = 0
            for i in combo:
                mask |= 1 << i
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


def is_vanishing(spec: RamifiedCoverSpec, tc: RamifiedThetaChar) -> bool:
    """Even with a nonzero section count, on every model.

    On the generic model ``h0_theta`` is the general-position value
    |r - #E| / 2, so there the verdict is the guaranteed one, #E != r, on
    either representation of a characteristic: a lower bound.
    """
    return parity(spec, tc) == 0 and h0_theta(spec, tc) > 0


def vanishing_theta_chars(spec: RamifiedCoverSpec) -> list[RamifiedThetaChar]:
    """The canonical characteristics that are vanishing thetanulls, in
    enumeration order."""
    return [tc for tc in enumerate_theta_chars(spec) if is_vanishing(spec, tc)]


# --- closed-form counts, exact integer arithmetic throughout ---


# log2 of the most work a brute-force route may do; at the budget, in a fresh process
# (Python 3.11, shared 2-vCPU host), hyperelliptic --g 9 takes 3.1 s and 72 MB peak
# RSS, verify counts --max-r 7 2.1 s and 103 MB, verify syzygetic --max-b 5 2.2 s and 16 MB
WORK_BUDGET_LOG2 = 18

# the largest genus a count reports: it limits work before it starts, not exactness;
# the closed forms take milliseconds far beyond it, and a report first fails near
# g = 7,142, where a count passes CPython's 4,300-digit int-to-str limit
MAX_GENUS = 46


def refuse_over_budget(log2_work: int, what: str, unit: str = "characteristics") -> None:
    """Refuse ``what``, whose work is at least 2^log2_work ``unit``, when that
    exponent is over ``WORK_BUDGET_LOG2``; a caller states the floor of log2 of
    its work from its flags, so the count it bounds is never built."""
    if log2_work > WORK_BUDGET_LOG2:
        raise ValueError(f"{what} would enumerate 2^{log2_work} or more {unit}, over the budget of 2^{WORK_BUDGET_LOG2}")


def closed_form_counts(b: int, r: int) -> dict:
    """The four closed-form counts of a cover, g = 2b + r - 1, in report order:
    2^(2(g - b)) characteristics, 2^(g-1) (2^(g-2b) +- 1) even and odd, and the
    guaranteed vanishing thetanulls 2^(g-1) (2^(g-2b) + 1 - 2^(1-r) C(2r, r)),
    each halved from an integer so that the edge g = 0 stays exact."""
    if b < 0 or r < 1:
        raise ValueError(f"need base genus >= 0 and r >= 1, got b={b}, r={r}")
    total = 1 << (2 * (b + r - 1))
    twice_even = total + (1 << (2 * b + r - 1))
    twice_lost = comb(2 * r, r) << (2 * b)
    assert twice_even % 2 == 0, "closed form lost exactness"
    assert twice_lost % 2 == 0, "central binomial coefficient must be even"
    vanishing_lb = (twice_even - twice_lost) // 2
    assert vanishing_lb >= 0, "the subtracted term can never exceed the even count"
    return {"total": total, "even": twice_even // 2, "odd": total - twice_even // 2, "vanishing_lb": vanishing_lb}


def _gaussian_product(*factors: tuple[int, int]) -> tuple[int, int]:
    """The product of Gaussian integers given as (real, imaginary) pairs."""
    out_re, out_im = 1, 0
    for re, im in factors:
        out_re, out_im = out_re * re - out_im * im, out_re * im + out_im * re
    return out_re, out_im


def binomial_identity_check(r: int) -> bool:
    """Exact check of the fourth-roots-of-unity filter behind the even count.

    Cleared of denominators it reads

        C(2r, r) + 2 sum_{j >= 1} C(2r, r - 4j) = 2^(2r-2) + 2^(r-1),

    and four times either side must equal the exact Gaussian-integer sum
    2^(2r) + (-i)^r (1+i)^(2r) + i^r (1-i)^(2r), for every r a count reaches.
    """
    if not 1 <= r <= MAX_GENUS + 1:
        raise ValueError(f"identity check supported for 1 <= r <= {MAX_GENUS + 1}, got {r}")
    lhs = comb(2 * r, r) + 2 * sum(comb(2 * r, r - 4 * j) for j in range(1, r // 4 + 1))
    rhs = (1 << (2 * r - 2)) + (1 << (r - 1))
    plus_re, plus_im = _gaussian_product(*[(0, -1)] * r, *[(1, 1)] * (2 * r))  # (-i)^r (1+i)^(2r)
    minus_re, minus_im = _gaussian_product(*[(0, 1)] * r, *[(1, -1)] * (2 * r))  # i^r (1-i)^(2r)
    filt_re = (1 << (2 * r)) + plus_re + minus_re
    return lhs == rhs and plus_im + minus_im == 0 and 4 * lhs == filt_re


def asymptotic_ratio(b: int, r: int) -> tuple[int, int]:
    """Guaranteed count over its large-genus equivalent 2^(2g-1-2b).

    A reduced (numerator, denominator); cancellation makes it independent of b:

        1 + 2^(1-r) - C(2r, r) / 4^(r-1).

    It is 0 for r <= 3 (the guaranteed count vanishes), increases strictly
    from r = 3 on and tends to 1 as r grows.
    """
    num = closed_form_counts(b, r)["vanishing_lb"]
    den = 1 << max(2 * b + 2 * r - 3, 0)  # the power is 2^-1 only at b = 0, r = 1, where num is 0
    common = gcd(num, den)
    return num // common, den // common

