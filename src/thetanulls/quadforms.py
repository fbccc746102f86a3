"""Quadratic refinements of the symplectic pairing and the Arf invariant.

A form q is stored by its values on the standard basis and extended by

    q(sum c_i e_i) = sum c_i q(e_i) + sum_{i<j} c_i c_j e(e_i, e_j),

which makes q(u + v) = q(u) + q(v) + e(u, v) hold identically.  With the
interleaved basis the cross term collapses to sum_i c_{2i} c_{2i+1}, so
evaluation, translation and the Arf invariant are all word operations.
A form carries only the dimension 2n of its space; the vectors it is
evaluated on and translated by are int words below 2^(2n), and
enumerating all forms on the space is enumerating bit words of length 2n.

The exhaustive value table doubles a packed word once per basis vector;
the two carries of each doubling step are built once per step and cached,
at most 24 entries: about 256 KB once a dimension-20 table has been
built, about 4 MB at dimension 24.  The Arf oracle counts zeros on the
same recurrence but stops one step short and counts the last step's two
halves apart, so it never builds the full 2^dim-bit table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from .gf2 import EVEN_POSITIONS, MAX_DIM, swap_pairs

VALUE_TABLE_MAX_DIM = 24


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


def _doubled(q: QuadraticForm, steps: int) -> int:
    """Values of q on the vectors below 2^steps, packed as in ``value_table``:
    the first ``steps`` doubling steps.  Refused above ``VALUE_TABLE_MAX_DIM``
    before any carry is built or looked up."""
    if q.dim > VALUE_TABLE_MAX_DIM:
        raise ValueError(f"value table supported up to dimension {VALUE_TABLE_MAX_DIM}")
    bv = q.basis_values
    table = 0
    for j in range(steps):
        # table and carry both lie below 2^(2^j), so no mask is needed
        table |= (table ^ _carries(j)[(bv >> j) & 1]) << (1 << j)
    return table


def value_table(q: QuadraticForm) -> int:
    """Values of q over all vectors, packed into one word (bit v = q(v)).

    Built by doubling along the basis: extending by e_j adds
    q(e_j) + e(v, e_j) to the previous block, and e(v, e_j) is the partner
    bit of v, which for the interleaved order is constant (j even) or a
    half-block pattern (j odd).  The two possible carries of each step are
    built once per step index and cached; the refusal above
    ``VALUE_TABLE_MAX_DIM`` bounds the cache at 24 entries, about 256 KB
    once a dimension-20 table has been built and about 4 MB at dimension 24.
    """
    return _doubled(q, q.dim)


def zero_count(q: QuadraticForm) -> int:
    """Number of vectors on which q vanishes, from all 2^dim values.

    The doubling runs for dim - 1 steps; the last step's two halves of the
    table, the head and the head plus its carry, are counted apart instead
    of joined, so the largest word built has 2^(dim-1) bits."""
    if q.dim == 0:
        return 1
    top = q.dim - 1
    head = _doubled(q, top)
    tail = head ^ _carries(top)[(q.basis_values >> top) & 1]
    return (1 << q.dim) - head.bit_count() - tail.bit_count()


def arf_by_zero_count(q: QuadraticForm) -> int:
    """Independent Arf evaluation: the invariant is 0 exactly when q has
    2^(2n-1) + 2^(n-1) zeros.  Never used as the primary path."""
    dim = q.dim
    if dim == 0:
        return 0
    zeros = zero_count(q)
    majority = 1 << (dim - 1)
    gap = 1 << (dim // 2 - 1)
    if zeros == majority + gap:
        return 0
    if zeros == majority - gap:
        return 1
    raise AssertionError("zero count incompatible with a quadratic refinement")
