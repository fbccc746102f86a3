import random
import tracemalloc

import pytest

from thetanulls.gf2 import pairing
from thetanulls.quadforms import (
    VALUE_TABLE_MAX_DIM,
    QuadraticForm,
    _carries,
    affine_difference,
    all_forms,
    arf_by_zero_count,
    value_table,
    zero_count,
)
from thetanulls.verify import ORACLE_MAX_DIM, oracle_suite


def vectors(dim):
    """All vectors of GF(2)^dim as words, in increasing order."""
    return range(1 << dim)


def test_values_forced_by_polarization():
    dim = 4
    q = QuadraticForm(dim, 0)
    assert q(0) == 0
    assert q(0b01 ^ 0b10) == 1  # = e(a1, b1)


def test_dimension_mismatch():
    # a vector is a word, refused by evaluation and translation outside 0 <= v < 2^dim
    q = QuadraticForm(4, 0)
    for word in (1 << 4, 1 << 5, -1):
        with pytest.raises(ValueError):
            q(word)
        with pytest.raises(ValueError):
            q.translate(word)


@pytest.mark.parametrize("dim", [-2, 3, 66])
def test_dimension_must_be_even_and_in_range(dim):
    with pytest.raises(ValueError):
        QuadraticForm(dim, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polarization_exhaustive(n):
    dim = 2 * n
    vecs = vectors(dim)
    for q in all_forms(dim):
        for u in vecs:
            for v in vecs:
                assert q(u ^ v) == q(u) ^ q(v) ^ pairing(u, v)


def test_polarization_exhaustive_dim8():
    # all 256 forms via packed value tables: bit v of the table is q(v)
    dim = 8
    size = 1 << dim
    ones = (1 << size) - 1
    pair_rows = []
    for u_bits in range(size):
        row = 0
        for v_bits in range(size):
            if pairing(u_bits, v_bits):
                row |= 1 << v_bits
        pair_rows.append(row)

    def xor_permute(table, shift_bits):
        # bit v of the result is bit (v xor shift_bits) of table
        out = table
        for k in range(dim):
            if (shift_bits >> k) & 1:
                step = 1 << k
                width = 1 << step
                # mask of table indices whose bit k is set
                block = ((1 << step) - 1) << step
                mask = 0
                period = 1 << (k + 1)
                for start in range(0, size, period):
                    mask |= block << start
                out = ((out & mask) >> step) | ((out & (ones ^ mask)) << step)
        return out

    for q in all_forms(dim):
        table = value_table(q.basis_values, q.dim)
        for u_bits in range(size):
            qu = (table >> u_bits) & 1
            shifted = xor_permute(table, u_bits)
            expected = table ^ ((ones if qu else 0) ^ pair_rows[u_bits])
            assert shifted == expected


def test_value_table_matches_direct_evaluation():
    for n in (1, 2, 3, 4):
        dim = 2 * n
        for q in all_forms(dim):
            table = value_table(q.basis_values, q.dim)
            for v in vectors(dim):
                assert (table >> v) & 1 == q(v)


def _edge_words(rng, dim):
    """Basis values 0 and all-ones, a single set bit at each of the top two
    steps, and 3 words drawn from rng: both carries of every step."""
    return [0, (1 << dim) - 1, 1 << (dim - 1), 1 << (dim - 2)] + [rng.randrange(1 << dim) for _ in range(3)]


@pytest.mark.parametrize("dim", range(10, 21, 2))
def test_value_table_matches_direct_evaluation_large(dim):
    # both carries of every step, the largest included: the all-zero and
    # all-one basis values, and a single set bit at each of the top two
    # steps; each block's first bit and partner pattern are read at e_j and
    # e_j + e_(j+1), besides random vectors
    rng = random.Random(dim)
    words = _edge_words(rng, dim)
    edges = [0, (1 << dim) - 1] + [1 << j for j in range(dim)] + [3 << j for j in range(dim - 1)]
    for bv in words:
        q = QuadraticForm(dim, bv)
        table = value_table(bv, dim)
        for bits in edges + [rng.randrange(1 << dim) for _ in range(256)]:
            assert (table >> bits) & 1 == q(bits)


def test_zero_count_reads_every_value():
    # zero_count never builds the table; it must count what the table holds
    for dim in range(0, 9, 2):
        for q in all_forms(dim):
            assert zero_count(q) == (1 << dim) - value_table(q.basis_values, q.dim).bit_count()
    for dim in range(10, 25, 2):
        for bv in _edge_words(random.Random(dim), dim):
            q = QuadraticForm(dim, bv)
            assert zero_count(q) == (1 << dim) - value_table(q.basis_values, q.dim).bit_count()


def test_zero_count_never_builds_the_full_table():
    # a dimension-20 table is 128 KB; the two orthogonal halves of the space
    # are 10 steps each, so the largest word is one 128-byte half table.  A
    # count that builds a 2^18-bit head peaks near 88 KB
    q = QuadraticForm(20, (1 << 20) - 1)
    zero_count(q)  # warm the carries
    tracemalloc.start()
    try:
        zero_count(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024
    # the oracle suite's largest tables are its half tables
    _carries.cache_clear()
    oracle_suite(0)
    assert _carries.cache_info().currsize == ORACLE_MAX_DIM // 2


def test_value_table_independent_of_call_order():
    word = random.Random(20).randrange(1 << 20)
    _carries.cache_clear()
    first = value_table(word, 20)
    smaller = [value_table((1 << dim) - 1, dim) for dim in range(2, 19, 2)]
    assert value_table(word, 20) == first
    _carries.cache_clear()
    assert [value_table((1 << dim) - 1, dim) for dim in range(2, 19, 2)] == smaller
    assert value_table(word, 20) == first


def test_value_table_of_fewer_steps_is_the_low_block():
    # for s < d the s-step table is the low 2^s bits of the d-step table, and
    # the bits of the word at and above s are not read
    rng = random.Random(5)
    for d in range(13):
        for word in [0, (1 << d) - 1] + [rng.randrange(1 << d) for _ in range(3)]:
            full = value_table(word, d)
            for s in range(d + 1):
                low = full & ((1 << (1 << s)) - 1)
                assert value_table(word, s) == low
                assert value_table(word & ((1 << s) - 1), s) == low
                assert value_table(word | rng.randrange(1, 1 << 40) << s, s) == low


def test_value_table_dimension_cap():
    # the refusal comes before any carry is built or looked up
    before = _carries.cache_info()
    past_the_cap = (lambda: value_table(0, VALUE_TABLE_MAX_DIM + 1), lambda: zero_count(QuadraticForm(VALUE_TABLE_MAX_DIM + 2, 0)))
    for refused in past_the_cap:
        with pytest.raises(ValueError, match=f"value table supported up to dimension {VALUE_TABLE_MAX_DIM}"):
            refused()
        assert _carries.cache_info() == before
    assert arf_by_zero_count(QuadraticForm(VALUE_TABLE_MAX_DIM, 0)) == 0
    assert _carries.cache_info().currsize <= VALUE_TABLE_MAX_DIM


def test_arf_standard_form_is_zero():
    for n in (1, 2, 3, 5):
        assert QuadraticForm(2 * n, 0).arf() == 0


def test_arf_dim2_minority_form():
    q = QuadraticForm(2, 0b11)
    assert q.arf() == 1
    assert zero_count(q) == 1  # only the origin


def test_arf_class_sizes():
    # Arf-1 forms number 2^(n-1) (2^n - 1), Arf-0 forms 2^(n-1) (2^n + 1)
    for n in (1, 2, 3):
        arfs = [q.arf() for q in all_forms(2 * n)]
        assert arfs.count(1) == (1 << (n - 1)) * ((1 << n) - 1)
        assert arfs.count(0) == (1 << (n - 1)) * ((1 << n) + 1)


def test_zero_count_examples():
    assert zero_count(QuadraticForm(4, 0)) == 10  # 2^3 + 2^1


def test_arf_oracle_agreement_exhaustive():
    for n in (0, 1, 2, 3):
        for q in all_forms(2 * n):
            assert q.arf() == arf_by_zero_count(q)


def test_arf_oracle_random_large():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randrange(1, 9)
        q = QuadraticForm(2 * n, rng.randrange(1 << (2 * n)))
        assert q.arf() == arf_by_zero_count(q)


def test_translate_identity_and_involution():
    dim = 6
    q = QuadraticForm(dim, 0b101001)
    assert q.translate(0) == q
    alpha = (1 << 2) ^ (1 << 5)  # a2 + b3
    assert q.translate(alpha).translate(alpha) == q


def test_translate_composition_exhaustive_dim6():
    dim = 6
    vecs = vectors(dim)
    for q in all_forms(dim):
        for alpha in vecs:
            q_a = q.translate(alpha)
            for beta in vecs:
                assert q_a.translate(beta) == q.translate(alpha ^ beta)


def test_translate_value_law():
    dim = 4
    for q in all_forms(dim):
        for alpha in vectors(dim):
            qt = q.translate(alpha)
            for x in vectors(dim):
                assert qt(x) == q(x) ^ pairing(alpha, x)


def test_translate_arf_shift():
    # Arf(q + e(rho, .)) = Arf(q) + q(rho)
    for n in (1, 2, 3):
        dim = 2 * n
        for q in all_forms(dim):
            for rho in vectors(dim):
                assert q.translate(rho).arf() == q.arf() ^ q(rho)


def test_affine_action_simply_transitive():
    for n in (1, 2):
        dim = 2 * n
        everything = set(all_forms(dim))
        for q in all_forms(dim):
            orbit = {q.translate(alpha) for alpha in vectors(dim)}
            assert orbit == everything


def test_affine_difference_round_trip():
    # translation is simply transitive, so q1.translate(v) == q2 pins v
    dim = 6
    forms = list(all_forms(dim))
    for q1 in forms:
        assert affine_difference(q1, q1) == 0
        a1 = 1
        assert affine_difference(q1, q1.translate(a1)) == a1
        for q2 in forms:
            assert q1.translate(affine_difference(q1, q2)) == q2
