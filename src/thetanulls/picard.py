"""Finite, exactly computable models of divisor classes on a base curve.

Three kinds of base:

* ``rational`` -- classes are bare integers (the degree).
* ``elliptic`` -- degree plus an N-torsion point of (Z/N)^2 in
  Abel-Jacobi coordinates.  N must be divisible by 4 so that classes
  built from even-coordinate points can always be halved, mirroring the
  honest curve where halving never fails.
* ``generic``  -- a parity-level model of a genus-b base: degree plus a
  2-torsion label in GF(2)^(2b).  Section counts in the critical degree
  range are the general-position values, which ``ramified.h0_exact``
  reports as not exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .gf2 import GF2Vector

RATIONAL = "rational"
ELLIPTIC = "elliptic"
GENERIC = "generic"


class ModelError(Exception):
    """A divisor-class operation hit a model-setup violation."""


class NoSquareRootError(ModelError):
    """The class has odd degree and therefore no square root."""


class NonHalvableError(ModelError):
    """The class cannot be halved in-model (a setup invariant was broken)."""


@dataclass(frozen=True)
class LineBundleClass:
    """A divisor class: degree plus the kind-specific torsion data."""

    kind: str
    degree: int
    point: tuple[int, int] | None = None
    torsion: GF2Vector | None = None

    def __post_init__(self) -> None:
        if self.kind == RATIONAL and (self.point is not None or self.torsion is not None):
            raise ValueError("rational classes carry no point or torsion label")
        if self.kind == ELLIPTIC and (self.point is None or self.torsion is not None):
            raise ValueError("elliptic classes carry exactly a torsion point")
        if self.kind == GENERIC and (self.torsion is None or self.point is not None):
            raise ValueError("generic classes carry exactly a 2-torsion label")

    def to_json(self) -> dict:
        data: dict = {"kind": self.kind, "degree": self.degree}
        if self.point is not None:
            data["point"] = list(self.point)
        if self.torsion is not None:
            data["label"] = self.torsion.to_bitstring()
        return data


class BaseCurveModel:
    """Shared divisor-class arithmetic; subclasses fix the torsion part."""

    kind: str
    b: int

    def _check(self, cls: LineBundleClass) -> None:
        if cls.kind != self.kind:
            raise ValueError(f"class of kind {cls.kind!r} used with a {self.kind!r} model")

    def trivial(self) -> LineBundleClass:
        return self._make(0, self._zero_torsion())

    def tensor(self, x: LineBundleClass, y: LineBundleClass) -> LineBundleClass:
        self._check(x)
        self._check(y)
        return self._make(x.degree + y.degree, self._add_torsion(x, y))

    def inverse(self, x: LineBundleClass) -> LineBundleClass:
        self._check(x)
        return self._make(-x.degree, self._neg_torsion(x))

    def of_divisor(self, points: Iterable) -> LineBundleClass:
        """Class of a sum of points; degree equals the number of points."""
        result = self.trivial()
        for p in points:
            result = self.tensor(result, self.point_class(p))
        return result

    def canonical_class(self) -> LineBundleClass:
        return self._make(2 * self.b - 2, self._zero_torsion())

    def sqrt_classes(self, cls: LineBundleClass) -> tuple[LineBundleClass, ...]:
        """All square roots of a class; there are 2^(2b) of them.

        Raises NoSquareRootError on odd degree and NonHalvableError when
        the torsion part cannot be halved in-model.
        """
        self._check(cls)
        if cls.degree % 2:
            raise NoSquareRootError(f"degree {cls.degree} is odd")
        return self._roots(cls)

    # subclass hooks
    def point_class(self, p) -> LineBundleClass:
        raise NotImplementedError

    def h0(self, cls: LineBundleClass) -> int:
        raise NotImplementedError

    def _make(self, degree: int, torsion) -> LineBundleClass:
        raise NotImplementedError

    def _zero_torsion(self):
        raise NotImplementedError

    def _add_torsion(self, x: LineBundleClass, y: LineBundleClass):
        raise NotImplementedError

    def _neg_torsion(self, x: LineBundleClass):
        raise NotImplementedError

    def _roots(self, cls: LineBundleClass) -> tuple[LineBundleClass, ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class RationalModel(BaseCurveModel):
    """Genus-0 base: the class group is Z via the degree."""

    kind = RATIONAL
    b = 0

    def point_class(self, p) -> LineBundleClass:
        return LineBundleClass(RATIONAL, 1)

    def h0(self, cls: LineBundleClass) -> int:
        self._check(cls)
        return max(0, cls.degree + 1)

    def _make(self, degree: int, torsion) -> LineBundleClass:
        return LineBundleClass(RATIONAL, degree)

    def _zero_torsion(self):
        return None

    def _add_torsion(self, x, y):
        return None

    def _neg_torsion(self, x):
        return None

    def _roots(self, cls: LineBundleClass) -> tuple[LineBundleClass, ...]:
        return (LineBundleClass(RATIONAL, cls.degree // 2),)


@dataclass(frozen=True)
class EllipticModel(BaseCurveModel):
    """Genus-1 base with degree-0 classes modelled by (Z/N)^2 torsion.

    Construction points are drawn from the even sublattice 2 (Z/N)^2 so
    the classes the enumerations need to halve always halve.
    """

    N: int = 240

    kind = ELLIPTIC
    b = 1

    def __post_init__(self) -> None:
        if self.N <= 0 or self.N % 4:
            raise ModelError(f"torsion modulus must be a positive multiple of 4, got {self.N}")

    def point_class(self, p: Sequence[int]) -> LineBundleClass:
        x, y = p
        return LineBundleClass(ELLIPTIC, 1, (x % self.N, y % self.N))

    def is_even_point(self, p: Sequence[int]) -> bool:
        return p[0] % 2 == 0 and p[1] % 2 == 0

    def random_even_point(self, rng) -> tuple[int, int]:
        half = self.N // 2
        return (2 * rng.randrange(half), 2 * rng.randrange(half))

    def h0(self, cls: LineBundleClass) -> int:
        self._check(cls)
        if cls.degree < 0:
            return 0
        if cls.degree == 0:
            return 1 if cls.point == (0, 0) else 0
        return cls.degree

    def _make(self, degree: int, torsion) -> LineBundleClass:
        x, y = torsion
        return LineBundleClass(ELLIPTIC, degree, (x % self.N, y % self.N))

    def _zero_torsion(self):
        return (0, 0)

    def _add_torsion(self, x, y):
        return (x.point[0] + y.point[0], x.point[1] + y.point[1])

    def _neg_torsion(self, x):
        return (-x.point[0], -x.point[1])

    def _roots(self, cls: LineBundleClass) -> tuple[LineBundleClass, ...]:
        x, y = cls.point
        if x % 2 or y % 2:
            raise NonHalvableError(
                f"torsion point {cls.point} has an odd coordinate; "
                "construction points must stay in the even sublattice"
            )
        half = self.N // 2
        roots = []
        for dy in (0, 1):
            for dx in (0, 1):
                roots.append(self._make(cls.degree // 2, (x // 2 + dx * half, y // 2 + dy * half)))
        return tuple(roots)


@dataclass(frozen=True)
class GenericModel(BaseCurveModel):
    """Genus b >= 2 base, tracked at parity level: degree + 2-torsion label."""

    genus: int

    kind = GENERIC

    def __post_init__(self) -> None:
        if self.genus < 2:
            raise ModelError(f"generic model needs base genus >= 2, got {self.genus}")

    @property
    def b(self) -> int:  # type: ignore[override]
        return self.genus

    @property
    def label_dim(self) -> int:
        return 2 * self.genus

    def point_class(self, p) -> LineBundleClass:
        return LineBundleClass(GENERIC, 1, torsion=GF2Vector.zero(self.label_dim))

    def h0(self, cls: LineBundleClass) -> int:
        """General-position section count; exact outside 0 <= deg <= 2b-2."""
        self._check(cls)
        return max(0, cls.degree - self.genus + 1)

    def _make(self, degree: int, torsion) -> LineBundleClass:
        return LineBundleClass(GENERIC, degree, torsion=torsion)

    def _zero_torsion(self):
        return GF2Vector.zero(self.label_dim)

    def _add_torsion(self, x, y):
        return x.torsion + y.torsion

    def _neg_torsion(self, x):
        return x.torsion

    def _roots(self, cls: LineBundleClass) -> tuple[LineBundleClass, ...]:
        if not cls.torsion.is_zero:
            raise NonHalvableError("a square class must carry the zero 2-torsion label")
        half_degree = cls.degree // 2
        return tuple(
            self._make(half_degree, GF2Vector(bits, self.label_dim))
            for bits in range(1 << self.label_dim)
        )
