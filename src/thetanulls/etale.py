"""Invariant theta characteristics on an unramified (fixed-point-free) cover.

The cover of a genus-b base is cut out by a nonzero 2-torsion class in
V = GF(2)^(2b); the covering curve has genus g = 2b - 1 and carries
2^(g+1) invariant theta characteristics, falling into two families:

* square roots of K_B twisted by the cover class, identified in pairs by
  the twist -- always even, modelled here as abstract labels in V modulo
  the cover class;
* pullbacks of theta characteristics of the base, i.e. quadratic forms q
  on V modulo translation by the cover class -- with parity q(cover).

The vanishing family is the forms with q(cover) = 0 and Arf invariant 1;
it sits inside the affine subspace {q(cover) = 0} of size 2^(g-1), all
of whose members are even, and is syzygetic (triple products stay even).
Only the generic vanishing mechanism (odd base bundle) is modelled;
accidental vanishing on special bases is out of scope.

Vectors of V, the cover class among them, are int words below 4^b.  A
root-case characteristic is its label, the smaller word of {w, w ^ cover},
and a form-case one its canonical ``QuadraticForm``; forms are enumerated
and filtered as basis-value words, and built only for the words a caller
receives.
The exhaustive count of the vanishing set tests every basis-value word
at once: each of its three predicates is a packed table over the words,
read off ``quadforms.value_table``, and the count is a popcount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .gf2 import MAX_DIM, swap_pairs
from .quadforms import QuadraticForm, _pair_parity, affine_difference, value_table

# Largest base genus whose forms are counted exhaustively on request.  The
# count builds three 2^(2b)-bit value tables: 2.4 ms at b = 11 (4 ms with
# the carries cold), 12 ms and 32 MB peak RSS at b = 12 (Python 3.11,
# 2-vCPU host), four times the memory per genus.  The bound is kept at 11,
# where a word-by-word count set it, so that the accepted inputs stay as
# they were.
MAX_ENUMERATION_B = 11


@dataclass(frozen=True)
class EtaleCoverSpec:
    """An unramified double cover: base genus b and the cover class, a nonzero word below 4^b."""

    b: int
    cover_class: int

    def __post_init__(self) -> None:
        if self.b < 1:
            raise ValueError("base genus must be at least 1")
        if 2 * self.b > MAX_DIM:
            raise ValueError(f"dimension must be even and in 2..{MAX_DIM}, got {2 * self.b}")
        if not 0 <= self.cover_class < 1 << (2 * self.b):
            raise ValueError("cover class must live in GF(2)^(2b)")
        if not self.cover_class:
            raise ValueError("the cover class of a connected cover is nonzero")

    @property
    def g(self) -> int:
        return 2 * self.b - 1

    @classmethod
    def default(cls, b: int) -> "EtaleCoverSpec":
        """Cover cut out by the first basis vector; counts are independent
        of the choice."""
        return cls(b, 1)


# a twist-class label word (root case) or a canonical quadratic form (form case)
EtaleThetaChar = int | QuadraticForm


def canonical_form(spec: EtaleCoverSpec, q: QuadraticForm) -> QuadraticForm:
    """Form-case representative: of q and its translate by the cover class,
    the one whose word has the top bit of ``swap_pairs(cover)`` clear, the
    rule ``_canonical_words`` states."""
    top = swap_pairs(spec.cover_class).bit_length() - 1
    if q.basis_values >> top & 1:
        q = q.translate(spec.cover_class)
    return q


def _canonical_words(dim: int, translation: int) -> Iterator[int]:
    """The words w < 2^dim with w < w ^ translation, in increasing order.

    XOR with a nonzero translation flips its top bit, so w is the smaller
    of the pair exactly when w has that bit clear: the canonical words are
    runs of ``top`` consecutive words, one run in every ``2 * top``.
    """
    top = 1 << (translation.bit_length() - 1)
    for start in range(0, 1 << dim, 2 * top):
        yield from range(start, start + top)


def _even_words(spec: EtaleCoverSpec) -> Iterator[int]:
    """Basis-value words of the canonical forms with q(cover) = 0, in increasing order."""
    rho = spec.cover_class
    # q(cover) is the cover's cross term plus the sum of the basis values over its support
    cross = _pair_parity(rho)
    return (bv for bv in _canonical_words(2 * spec.b, swap_pairs(rho)) if (bv & rho).bit_count() & 1 == cross)


def _form_chars(spec: EtaleCoverSpec, words: Iterator[int]) -> list[QuadraticForm]:
    dim = 2 * spec.b
    return [QuadraticForm(dim, bv) for bv in words]


def enumerate_etale(spec: EtaleCoverSpec) -> list[EtaleThetaChar]:
    """All 2^(g+1) invariant theta characteristics, root cases first."""
    dim, rho = 2 * spec.b, spec.cover_class
    return list(_canonical_words(dim, rho)) + _form_chars(spec, _canonical_words(dim, swap_pairs(rho)))


def parity_etale(spec: EtaleCoverSpec, tc: EtaleThetaChar) -> int:
    """Root cases are even; form cases have parity q(cover)."""
    return 0 if isinstance(tc, int) else tc(spec.cover_class)


def vanishing_thetanulls(spec: EtaleCoverSpec) -> list[QuadraticForm]:
    """The canonical forms with q(cover) = 0 and Arf invariant 1.

    Well defined on representatives: translating by the cover class
    preserves q(cover), and preserves the Arf invariant exactly when
    q(cover) = 0.  Empty for a genus-1 base.
    """
    # the Arf invariant of a form is the pair parity of its basis-value word
    return _form_chars(spec, filter(_pair_parity, _even_words(spec)))


def count_vanishing_enumerated(spec: EtaleCoverSpec) -> int:
    """Size of ``vanishing_thetanulls(spec)``, counted over all 2^(2b)
    basis-value words w as the popcount of three packed tables with bit w
    for each word; refused past ``MAX_ENUMERATION_B``.

    The zero form's value table has bit w = ``_pair_parity(w)``, the Arf
    invariant of the word w.  XOR-ed onto the table of the form with basis
    values u it leaves bit w = parity(w & u): with u = cover, q(cover) less
    the cover's cross term; with u the top bit of ``swap_pairs(cover)``,
    the bit that ``_canonical_words`` requires clear.
    """
    if spec.b > MAX_ENUMERATION_B:
        raise ValueError(f"enumerating forms runs up to base genus {MAX_ENUMERATION_B}, got {spec.b}")
    dim = 2 * spec.b
    rho = spec.cover_class
    ones = (1 << (1 << dim)) - 1
    arf = value_table(QuadraticForm(dim, 0))
    on_cover = value_table(QuadraticForm(dim, rho)) ^ arf
    if not _pair_parity(rho):
        on_cover ^= ones
    top = swap_pairs(rho).bit_length() - 1
    canonical = value_table(QuadraticForm(dim, 1 << top)) ^ arf ^ ones
    return (arf & canonical & on_cover).bit_count()


def closed_form_counts(b: int) -> dict:
    """The closed-form counts of a cover, g = 2b - 1, in report order:
    2^(g+1) characteristics, 3 * 2^(g-1) even, 2^(g-1) odd, and the
    vanishing set's 2^(g-2) - 2^((g-3)/2), which is 0 at b = 1."""
    if b < 1:
        raise ValueError("base genus must be at least 1")
    g = 2 * b - 1
    return {
        "total": 1 << (g + 1),
        "even": 3 * (1 << (g - 1)),
        "odd": 1 << (g - 1),
        "T_size": ((1 << (2 * b - 2)) - (1 << (b - 1))) // 2,
    }


def even_subspace(spec: EtaleCoverSpec) -> list[QuadraticForm]:
    """The affine subspace {q(cover) = 0} of size 2^(g-1), all even; it
    contains every vanishing thetanull and is closed under triple
    products."""
    return _form_chars(spec, _even_words(spec))


def _triple_form(t1: EtaleThetaChar, t2: EtaleThetaChar, t3: EtaleThetaChar) -> QuadraticForm:
    """The form of t2 (x) t3 (x) t1^{-1}: t1 translated by the affine
    differences that lead from it to t2 and to t3."""
    if isinstance(t1, int) or isinstance(t2, int) or isinstance(t3, int):
        raise ValueError("triple products are only defined within the form case")
    return t1.translate(affine_difference(t1, t2) ^ affine_difference(t1, t3))


def triple_product(
    spec: EtaleCoverSpec, t1: EtaleThetaChar, t2: EtaleThetaChar, t3: EtaleThetaChar
) -> QuadraticForm:
    """The theta characteristic t2 (x) t3 (x) t1^{-1} via the affine structure."""
    return canonical_form(spec, _triple_form(t1, t2, t3))


def triple_parity(
    spec: EtaleCoverSpec, t1: EtaleThetaChar, t2: EtaleThetaChar, t3: EtaleThetaChar
) -> int:
    """Parity of the triple product; 0 whenever all three factors lie in
    the q(cover) = 0 subspace, which is the syzygetic property."""
    return _triple_form(t1, t2, t3)(spec.cover_class)

