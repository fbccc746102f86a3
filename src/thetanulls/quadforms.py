"""Quadratic refinements of the symplectic pairing and the Arf invariant.

A form q is stored by its values on the standard basis and extended by

    q(sum c_i e_i) = sum c_i q(e_i) + sum_{i<j} c_i c_j e(e_i, e_j),

which makes q(u + v) = q(u) + q(v) + e(u, v) hold identically.  With the
interleaved basis the cross term collapses to sum_i c_{2i} c_{2i+1}, so
evaluation, translation and the Arf invariant are all word operations.
A form carries only the dimension 2n of its space; the vectors it is
evaluated on and translated by are int words below 2^(2n), and
enumerating all forms on the space is enumerating bit words of length 2n.

The packed value table of a basis-value word, its values on the vectors
below 2^steps, doubles a packed word once per basis vector; it takes the
word, not a form, so a caller that needs only tables builds no form.
The two carries of each doubling step are built once per step and cached,
at most 24 entries: about 12 KB after the 16 steps of the etale suite's
vanishing counts, about 190 KB after 20 steps, which only an etale --rho
count at b >= 10 or a direct call reaches, and 3 MB at 24 steps (b = 12).
The Arf oracle counts zeros on two orthogonal halves of the space, split
at a hyperbolic-pair boundary: q vanishes on a sum exactly when its two
half values agree, so two half-dimension value tables count every zero
and the full 2^dim-bit table is never built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from .gf2 import EVEN_POSITIONS, MAX_DIM, swap_pairs

VALUE_TABLE_MAX_DIM = 24  # bounds the carry cache, and the etale --rho count at b = 12


def _pair_parity(word: int) -> int:
    """sum_i w[2i] w[2i+1] mod 2 over the hyperbolic pairs of a word: the
    cross term of a vector, and the Arf invariant of a basis-value word."""
    return (word & (word >> 1) & EVEN_POSITIONS).bit_count() & 1


@dataclass(frozen=True)
class QuadraticForm:
    """Quadratic form refining the symplectic pairing of GF(2)^dim."""

    dim: int
    basis_values: int

    def __post_init__(self) -> None:
        if self.dim < 0 or self.dim > MAX_DIM or self.dim % 2:
            raise ValueError(f"dimension must be even and in 0..{MAX_DIM}, got {self.dim}")
        if not 0 <= self.basis_values < (1 << self.dim):
            raise ValueError("basis values out of range for the space")

    def __call__(self, v: int) -> int:
        if not 0 <= v < 1 << self.dim:
            raise ValueError(f"vector word out of range for dimension {self.dim}")
        return ((self.basis_values & v).bit_count() & 1) ^ _pair_parity(v)

    def arf(self) -> int:
        """Arf invariant as sum_i q(a_i) q(b_i) over the hyperbolic pairs."""
        return _pair_parity(self.basis_values)

    def translate(self, alpha: int) -> "QuadraticForm":
        """The form x -> q(x) + e(alpha, x); the affine action of the space."""
        if not 0 <= alpha < 1 << self.dim:
            raise ValueError(f"vector word out of range for dimension {self.dim}")
        return QuadraticForm(self.dim, self.basis_values ^ swap_pairs(alpha))


def all_forms(dim: int) -> Iterator[QuadraticForm]:
    """All 2^dim quadratic forms on GF(2)^dim, in basis-value order."""
    for bv in range(1 << dim):
        yield QuadraticForm(dim, bv)


def affine_difference(q1: QuadraticForm, q2: QuadraticForm) -> int:
    """The unique word v with q2 = q1.translate(v).

    The difference of two forms is the linear functional with basis values
    q1(e_i) + q2(e_i); against the interleaved pairing its dual vector is
    the pair-swap of that word.
    """
    if q1.dim != q2.dim:
        raise ValueError("forms live on different spaces")
    return swap_pairs(q1.basis_values ^ q2.basis_values)


@functools.cache
def _carries(j: int) -> tuple[int, int]:
    """The two carries of doubling step j, for q(e_j) = 0 and q(e_j) = 1.

    Both are 2^j-bit words: the partner bit e(v, e_j) over the block v < 2^j,
    which is 0 for j even and the upper half-block for j odd, and its
    complement in the block.
    """
    size = 1 << j
    half = size >> 1
    partner = ((1 << half) - 1) << half if j % 2 else 0
    return partner, partner ^ ((1 << size) - 1)


def value_table(basis_values: int, steps: int) -> int:
    """Values over the vectors v < 2^steps of the form with these basis
    values, packed into one word (bit v = q(v)); bits of ``basis_values``
    at and above ``steps`` are not read.

    Built by doubling along the basis: extending by e_j adds
    q(e_j) + e(v, e_j) to the previous block, and e(v, e_j) is the partner
    bit of v, which for the interleaved order is constant (j even) or a
    half-block pattern (j odd).  ``steps`` above ``VALUE_TABLE_MAX_DIM``
    is refused before any carry is built or looked up.
    """
    if steps > VALUE_TABLE_MAX_DIM:
        raise ValueError(f"value table supported up to dimension {VALUE_TABLE_MAX_DIM}")
    table = 0
    for j in range(steps):
        # table and carry both lie below 2^(2^j), so no mask is needed
        table |= (table ^ _carries(j)[(basis_values >> j) & 1]) << (1 << j)
    return table


def zero_count(q: QuadraticForm) -> int:
    """Number of vectors on which q vanishes.

    GF(2)^dim splits at the hyperbolic-pair boundary low = 2 (dim // 4)
    into two orthogonal halves, the vectors below 2^low and the multiples
    of 2^low, so q(x + y) = q(x) + q(y) and q vanishes at x + y exactly
    when its two half values agree.  With z and o the zeros and ones of
    each half's value table, the count is z_L z_H + o_L o_H: the values of
    2^low + 2^(dim - low) vectors are read, never the full table."""
    if q.dim > VALUE_TABLE_MAX_DIM:
        raise ValueError(f"value table supported up to dimension {VALUE_TABLE_MAX_DIM}")
    low = 2 * (q.dim // 4)
    high = q.dim - low
    ones_low = value_table(q.basis_values, low).bit_count()
    # low is even, so the shift keeps the hyperbolic pairs of the upper half
    ones_high = value_table(q.basis_values >> low, high).bit_count()
    return ((1 << low) - ones_low) * ((1 << high) - ones_high) + ones_low * ones_high


def arf_by_zero_count(q: QuadraticForm) -> int:
    """Independent Arf evaluation: the invariant is 0 exactly when twice
    the zero count of q is 2^(2n) + 2^n, and 1 when it is 2^(2n) - 2^n.
    Never used as the primary path."""
    twice_zeros = 2 * zero_count(q)
    size, gap = 1 << q.dim, 1 << (q.dim // 2)
    if twice_zeros == size + gap:
        return 0
    if twice_zeros == size - gap:
        return 1
    raise AssertionError("zero count incompatible with a quadratic refinement")
