"""Words of GF(2)^(2n), the symplectic pairing, the ``--rho`` parse type,
and ``Record``, the frozen value base of the package's classes.

A vector is an int word, coordinates packed little-endian in the
hyperbolic basis order (a1, b1, a2, b2, ...); the spec or form holding it
knows its dimension.  In this order the pairing matrix is block diagonal,
so pairing values are index-local (a swap inside each pair) and a single
machine word holds any vector of dimension up to 64.
"""

from __future__ import annotations

import operator

MAX_DIM = 64

# the a-coordinates 0, 2, 4, ... of every hyperbolic pair in a word
EVEN_POSITIONS = int("01" * (MAX_DIM // 2), 2)


def swap_pairs(bits: int) -> int:
    """Exchange the two coordinates inside every hyperbolic pair (2i, 2i+1);
    a word of even dimension keeps its dimension."""
    return ((bits & EVEN_POSITIONS) << 1) | ((bits >> 1) & EVEN_POSITIONS)


class Record:
    """A frozen dataclass without ``dataclasses``: a subclass keeps its ``_fields`` in
    ``__slots__``, sets each once with ``object.__setattr__``, and is compared (within
    its class), hashed and written by them alone."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = operator.attrgetter(*cls._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __eq__(self, other):
        return self._values(self) == other._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in zip(self._fields, self._values(self)))})"


class GF2Vector(Record):
    """A ``--rho`` bitstring: its word ``bits`` in GF(2)^dim, dim even and at
    most ``MAX_DIM``.  ``__add__``/``__xor__`` have no caller in the
    package; they stay only because the benchmark's tests name them."""

    __slots__ = _fields = ("bits", "dim")

    def __init__(self, bits: int, dim: int) -> None:
        if dim <= 0 or dim > MAX_DIM or dim % 2:
            raise ValueError(f"dimension must be even and in 2..{MAX_DIM}, got {dim}")
        if not 0 <= bits < (1 << dim):
            raise ValueError("coordinate word out of range for the dimension")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "dim", dim)

    def __add__(self, other: "GF2Vector") -> "GF2Vector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return GF2Vector(self.bits ^ other.bits, self.dim)

    __xor__ = __add__

    @classmethod
    def from_bitstring(cls, text: str) -> "GF2Vector":
        if set(text) - {"0", "1"}:
            raise ValueError(f"not a bitstring: {text!r}")
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
        return cls(bits, len(text))


def pairing(u: int, v: int) -> int:
    """Symplectic pairing e(u, v) = sum_i u[2i] v[2i+1] + u[2i+1] v[2i] mod 2 of words."""
    return (u & swap_pairs(v)).bit_count() & 1

