import pytest

from thetanulls.gf2 import GF2Vector, SymplecticSpace, pairing, swap_pairs


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
    assert (u + v).to_bitstring() == "1100"
    assert (u + u).is_zero
    with pytest.raises(ValueError):
        u + GF2Vector.zero(6)


def test_pairing_hyperbolic_pairs():
    V = SymplecticSpace(3)
    for i in range(3):
        for j in range(3):
            assert pairing(V.a(i), V.b(j)) == (1 if i == j else 0)
            assert pairing(V.a(i), V.a(j)) == 0
            assert pairing(V.b(i), V.b(j)) == 0


def test_pairing_alternating_exhaustive():
    # e(v, v) = 0 for every vector, dimensions 2 through 8
    for n in (1, 2, 3, 4):
        for v in SymplecticSpace(n).vectors():
            assert pairing(v, v) == 0


def test_pairing_bilinear_exhaustive_dim6():
    V = SymplecticSpace(3)
    vecs = list(V.vectors())
    for u in vecs:
        for v in vecs:
            s = u + v
            for w in vecs:
                assert pairing(s, w) == pairing(u, w) ^ pairing(v, w)


def test_pairing_nondegenerate():
    for n in (1, 2, 3, 4):
        V = SymplecticSpace(n)
        basis = V.basis()
        for v in V.vectors():
            if all(pairing(v, e) == 0 for e in basis):
                assert v.is_zero


def test_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        pairing(GF2Vector.zero(4), GF2Vector.zero(6))


def test_pairing_symmetric_in_char_two():
    V = SymplecticSpace(2)
    for u in V.vectors():
        for v in V.vectors():
            assert pairing(u, v) == pairing(v, u)


def test_swap_pairs_is_involution():
    for bits in range(16):
        assert swap_pairs(swap_pairs(bits, 4), 4) == bits
