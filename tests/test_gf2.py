import pytest

from thetanulls.gf2 import GF2Vector, pairing, swap_pairs


def vectors(dim):
    """All vectors of GF(2)^dim as words, in increasing order."""
    return range(1 << dim)


def test_vector_validation():
    with pytest.raises(ValueError):
        GF2Vector(0, 3)  # odd dimension
    with pytest.raises(ValueError):
        GF2Vector(0, 66)
    with pytest.raises(ValueError):
        GF2Vector(1 << 4, 4)


def test_vector_arithmetic():
    u = GF2Vector.from_bitstring("1010")
    v = GF2Vector.from_bitstring("0110")
    assert (u + v).bits == 0b0011
    assert (u + u).bits == 0
    with pytest.raises(ValueError):
        u + GF2Vector(0, 6)


def test_pairing_hyperbolic_pairs():
    a = [1 << 2 * i for i in range(3)]
    b = [1 << 2 * i + 1 for i in range(3)]
    for i in range(3):
        for j in range(3):
            assert pairing(a[i], b[j]) == (1 if i == j else 0)
            assert pairing(a[i], a[j]) == 0
            assert pairing(b[i], b[j]) == 0


def test_pairing_alternating_exhaustive():
    # e(v, v) = 0 for every vector, dimensions 2 through 8
    for n in (1, 2, 3, 4):
        for v in vectors(2 * n):
            assert pairing(v, v) == 0


def test_pairing_bilinear_exhaustive_dim6():
    vecs = vectors(6)
    for u in vecs:
        for v in vecs:
            s = u ^ v
            for w in vecs:
                assert pairing(s, w) == pairing(u, w) ^ pairing(v, w)


def test_pairing_nondegenerate():
    for n in (1, 2, 3, 4):
        basis = [1 << i for i in range(2 * n)]
        for v in vectors(2 * n):
            if all(pairing(v, e) == 0 for e in basis):
                assert v == 0


def test_pairing_symmetric_in_char_two():
    for u in vectors(4):
        for v in vectors(4):
            assert pairing(u, v) == pairing(v, u)


def test_swap_pairs_is_involution():
    for bits in range(16):
        assert swap_pairs(swap_pairs(bits)) == bits
