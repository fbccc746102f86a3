"""Finite, exactly computable models of divisor classes on a base curve.

One model serves every base: the class group is Z x Z/m_1 x ... x Z/m_k,
a degree plus a torsion tuple, and the package needs from it only
addition, halving and section counts.  A genus-b base has k = 2b torsion
factors, so a model reads b off its moduli.  Three kinds of base:

* ``rational`` -- no torsion: classes are bare integers (the degree).
* ``elliptic`` -- torsion (Z/N)^2, an N-torsion point in Abel-Jacobi
  coordinates.  N must be divisible by 4 so that classes built from
  even-coordinate points can always be halved, mirroring the honest
  curve where halving never fails.
* ``generic``  -- a parity-level model of a genus-b base: torsion
  (Z/2)^(2b), a 2-torsion label.  Section counts in the critical degree
  range are the general-position values, so ``ramified.is_vanishing``
  gives a lower bound there.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

RATIONAL = "rational"
ELLIPTIC = "elliptic"
GENERIC = "generic"


class ModelError(Exception):
    """A divisor-class operation hit a model-setup violation."""


@dataclass(frozen=True)
class LineBundleClass:
    """A divisor class: degree plus a torsion tuple, one coordinate per
    cyclic factor of the model (empty on the rational model).  Each model
    operation on a class, not construction, refuses a wrong kind or torsion length.
    Equality and hashing compare torsion as given: every class a model builds
    is reduced, and a hand-built class ``c`` compares correctly after
    ``model.tensor(c, model.trivial())``."""

    kind: str
    degree: int
    torsion: tuple[int, ...] = ()


@dataclass(frozen=True)
class BaseCurveModel:
    """Divisor classes on a genus-b base: Z x Z/m_1 x ... x Z/m_k, where
    ``moduli`` lists the m_i; ``b = k // 2`` is set once, not a field."""

    kind: str
    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.moduli) % 2:
            raise ModelError(f"a genus-b base has 2b torsion moduli, got {len(self.moduli)}")
        object.__setattr__(self, "b", len(self.moduli) // 2)

    def _check(self, cls: LineBundleClass) -> None:
        if cls.kind != self.kind or len(cls.torsion) != len(self.moduli):
            raise ValueError(f"{cls!r} is not a class of the {self.kind!r} model with moduli {self.moduli}")

    def trivial(self) -> LineBundleClass:
        return LineBundleClass(self.kind, 0, (0,) * len(self.moduli))

    def tensor(self, x: LineBundleClass, y: LineBundleClass) -> LineBundleClass:
        self._check(x)
        self._check(y)
        torsion = tuple([(s + t) % m for s, t, m in zip(x.torsion, y.torsion, self.moduli)])
        return LineBundleClass(self.kind, x.degree + y.degree, torsion)

    def inverse(self, x: LineBundleClass) -> LineBundleClass:
        self._check(x)
        return LineBundleClass(self.kind, -x.degree, tuple([-t % m for t, m in zip(x.torsion, self.moduli)]))

    def canonical_class(self) -> LineBundleClass:
        return LineBundleClass(self.kind, 2 * self.b - 2, (0,) * len(self.moduli))

    def random_even_class(self, rng, degree: int = 1) -> LineBundleClass:
        """A class of the given degree, its torsion drawn from the even sublattice."""
        return LineBundleClass(self.kind, degree, tuple([2 * rng.randrange(m // 2) for m in self.moduli]))

    def sqrt_classes(self, cls: LineBundleClass) -> tuple[LineBundleClass, ...]:
        """All square roots of a class; there are 2^(2b) of them.

        Each torsion coordinate t, reduced mod m, halves to t/2 and
        t/2 + m/2; roots list the first coordinate varying fastest.  Raises
        ModelError on odd degree or an odd torsion coordinate.
        """
        self._check(cls)
        if cls.degree % 2:
            raise ModelError(f"degree {cls.degree} is odd")
        if any(t % 2 for t in cls.torsion):
            raise ModelError(
                f"torsion {cls.torsion} has an odd coordinate; "
                "construction points must stay in the even sublattice"
            )
        halves = [(t % m // 2, (t % m + m) // 2) for t, m in zip(cls.torsion, self.moduli)]
        degree = cls.degree // 2
        return tuple(
            LineBundleClass(self.kind, degree, root[::-1])
            for root in itertools.product(*reversed(halves))
        )

    def h0(self, cls: LineBundleClass) -> int:
        """Section count max(0, deg - b + 1), except that a degree-0 elliptic
        class has a section only when trivial.  Exact on the rational and
        elliptic models; general-position on the generic model (exact
        outside 0 <= deg <= 2b-2)."""
        self._check(cls)
        if self.kind == ELLIPTIC and cls.degree == 0:
            return 0 if any(map(operator.mod, cls.torsion, self.moduli)) else 1
        return max(0, cls.degree - self.b + 1)


def RationalModel() -> BaseCurveModel:
    """Genus-0 base: the class group is Z via the degree."""
    return BaseCurveModel(RATIONAL, ())


def EllipticModel(N: int) -> BaseCurveModel:
    """Genus-1 base with degree-0 classes modelled by (Z/N)^2 torsion.

    Construction points are drawn from the even sublattice 2 (Z/N)^2 so
    the classes the enumerations need to halve always halve.
    """
    if N <= 0 or N % 4:
        raise ModelError(f"torsion modulus must be a positive multiple of 4, got {N}")
    return BaseCurveModel(ELLIPTIC, (N, N))


def GenericModel(genus: int) -> BaseCurveModel:
    """Genus b >= 2 base, tracked at parity level: degree + 2-torsion label."""
    if genus < 2:
        raise ModelError(f"generic model needs base genus >= 2, got {genus}")
    return BaseCurveModel(GENERIC, (2,) * (2 * genus))
