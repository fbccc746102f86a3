"""Words of GF(2)^(2n), the symplectic pairing, and the ``--rho`` parse type.

A vector is an int word, coordinates packed little-endian in the
hyperbolic basis order (a1, b1, a2, b2, ...); the spec or form holding it
knows its dimension.  In this order the pairing matrix is block diagonal,
so pairing values are index-local (a swap inside each pair) and a single
machine word holds any vector of dimension up to 64.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_DIM = 64

# the a-coordinates 0, 2, 4, ... of every hyperbolic pair in a word
EVEN_POSITIONS = int("01" * (MAX_DIM // 2), 2)


def swap_pairs(bits: int) -> int:
    """Exchange the two coordinates inside every hyperbolic pair (2i, 2i+1);
    a word of even dimension keeps its dimension."""
    return ((bits & EVEN_POSITIONS) << 1) | ((bits >> 1) & EVEN_POSITIONS)


@dataclass(frozen=True)
class GF2Vector:
    """A ``--rho`` bitstring: its word ``bits`` in GF(2)^dim, dim even and at
    most ``MAX_DIM``.  ``__add__``/``__xor__`` have no caller in the
    package; they stay only because the benchmark's tests name them."""

    bits: int
    dim: int

    def __post_init__(self) -> None:
        if self.dim <= 0 or self.dim > MAX_DIM or self.dim % 2:
            raise ValueError(f"dimension must be even and in 2..{MAX_DIM}, got {self.dim}")
        if not 0 <= self.bits < (1 << self.dim):
            raise ValueError("coordinate word out of range for the dimension")

    def __add__(self, other: "GF2Vector") -> "GF2Vector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return GF2Vector(self.bits ^ other.bits, self.dim)

    __xor__ = __add__

    def to_bitstring(self) -> str:
        """Coordinates as a 0/1 string, first coordinate first."""
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.dim))

    @classmethod
    def from_bitstring(cls, text: str) -> "GF2Vector":
        if set(text) - {"0", "1"}:
            raise ValueError(f"not a bitstring: {text!r}")
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
        return cls(bits, len(text))

    def __repr__(self) -> str:
        return f"GF2Vector('{self.to_bitstring()}')"


def pairing(u: int, v: int) -> int:
    """Symplectic pairing e(u, v) = sum_i u[2i] v[2i+1] + u[2i+1] v[2i] mod 2 of words."""
    return (u & swap_pairs(v)).bit_count() & 1

