import random

import pytest

from thetanulls.picard import (
    EllipticModel,
    GenericModel,
    LineBundleClass,
    ModelError,
    NonHalvableError,
    NoSquareRootError,
    RationalModel,
)


def test_class_kind_fields_validated():
    with pytest.raises(ValueError):
        LineBundleClass("rational", 1, (0, 0))
    with pytest.raises(ValueError):
        LineBundleClass("elliptic", 1)
    with pytest.raises(ValueError):
        LineBundleClass("generic", 1)


def test_tensor_inverse_trivial():
    for model in (RationalModel(), EllipticModel(240), GenericModel(2)):
        L = model.tensor(model.point_class((2, 4) if model.kind == "elliptic" else 0), model.canonical_class())
        assert model.tensor(L, model.inverse(L)) == model.trivial()


def test_elliptic_divisor_class():
    m = EllipticModel(240)
    c = m.of_divisor([(2, 0), (0, 2)])
    assert c.degree == 2 and c.torsion == (2, 2)


def test_cover_class_degree_from_pencil():
    # square of a degree-2 class times a point has degree 5
    m = EllipticModel(240)
    alpha = m.of_divisor([(2, 0), (0, 2)])
    rho = m.tensor(m.tensor(alpha, alpha), m.point_class((4, 4)))
    assert rho.degree == 5 and rho.torsion == (8, 8)


def test_kind_mismatch_raises():
    m = RationalModel()
    with pytest.raises(ValueError):
        m.tensor(m.trivial(), EllipticModel(240).trivial())


def test_canonical_classes():
    assert RationalModel().canonical_class().degree == -2
    assert EllipticModel(240).canonical_class() == EllipticModel(240).trivial()
    assert GenericModel(3).canonical_class().degree == 4


def test_h0_rational():
    m = RationalModel()
    assert m.h0(LineBundleClass("rational", 3)) == 4
    assert m.h0(LineBundleClass("rational", 0)) == 1
    assert m.h0(LineBundleClass("rational", -1)) == 0


def test_h0_elliptic():
    m = EllipticModel(240)
    assert m.h0(LineBundleClass("elliptic", -2, (0, 0))) == 0
    assert m.h0(LineBundleClass("elliptic", 0, (6, 0))) == 0
    assert m.h0(LineBundleClass("elliptic", 0, (0, 0))) == 1
    assert m.h0(LineBundleClass("elliptic", 5, (6, 0))) == 5


def test_h0_elliptic_riemann_roch():
    # h0(L) - h0(K - L) = deg L with K trivial
    m = EllipticModel(240)
    rng = random.Random(1)
    for _ in range(200):
        L = LineBundleClass("elliptic", rng.randrange(-6, 7), (rng.randrange(240), rng.randrange(240)))
        dual = m.tensor(m.canonical_class(), m.inverse(L))
        assert m.h0(L) - m.h0(dual) == L.degree


def test_h0_generic_and_flag():
    m = GenericModel(3)
    assert m.h0(LineBundleClass("generic", -1, torsion=(0,) * 6)) == 0
    low = LineBundleClass("generic", 2, torsion=(0,) * 6)
    assert m.h0(low) == 0
    mid = LineBundleClass("generic", 3, torsion=(0,) * 6)
    assert m.h0(mid) == 1
    high = LineBundleClass("generic", 5, torsion=(0,) * 6)
    assert m.h0(high) == 3


def test_sqrt_rational():
    m = RationalModel()
    assert m.sqrt_classes(LineBundleClass("rational", 4)) == (LineBundleClass("rational", 2),)
    with pytest.raises(NoSquareRootError):
        m.sqrt_classes(LineBundleClass("rational", 3))


def test_sqrt_elliptic_two_torsion_order():
    m = EllipticModel(240)
    roots = m.sqrt_classes(m.trivial())
    assert [r.torsion for r in roots] == [(0, 0), (120, 0), (0, 120), (120, 120)]
    with pytest.raises(NonHalvableError):
        m.sqrt_classes(LineBundleClass("elliptic", 2, (3, 0)))


def test_sqrt_generic():
    m = GenericModel(2)
    roots = m.sqrt_classes(LineBundleClass("generic", 6, torsion=(0,) * 4))
    assert len(roots) == 16 and all(r.degree == 3 for r in roots)
    assert len({r.torsion for r in roots}) == 16
    with pytest.raises(NonHalvableError):
        m.sqrt_classes(LineBundleClass("generic", 2, torsion=(1, 0, 0, 0)))


@pytest.mark.parametrize(
    "model,cls",
    [
        (RationalModel(), LineBundleClass("rational", 6)),
        (EllipticModel(240), LineBundleClass("elliptic", 4, (10, 30))),
        (GenericModel(2), LineBundleClass("generic", 4, torsion=(0,) * 4)),
    ],
)
def test_sqrt_count_and_squares(model, cls):
    roots = model.sqrt_classes(cls)
    assert len(roots) == 1 << (2 * model.b)
    for s in roots:
        assert model.tensor(s, s) == cls


def test_sqrt_count_of_trivial_is_two_torsion_size():
    for model in (RationalModel(), EllipticModel(240), GenericModel(3)):
        assert len(model.sqrt_classes(model.trivial())) == 1 << (2 * model.b)


def test_elliptic_modulus_must_be_multiple_of_four():
    with pytest.raises(ModelError):
        EllipticModel(238)
    with pytest.raises(ModelError):
        GenericModel(1)


def test_class_json():
    m = EllipticModel(240)
    assert m.point_class((2, 2)).to_json() == {"kind": "elliptic", "degree": 1, "point": [2, 2]}
    g = GenericModel(2)
    assert g.trivial().to_json() == {"kind": "generic", "degree": 0, "label": "0000"}
    assert RationalModel().trivial().to_json() == {"kind": "rational", "degree": 0}


def test_random_group_laws_and_roots():
    rng = random.Random(7)

    def random_class(model, degree):
        return LineBundleClass(model.kind, degree, tuple(rng.randrange(m) for m in model.moduli))

    models = [RationalModel(), EllipticModel(240), EllipticModel(12)] + [GenericModel(b) for b in (2, 3, 4)]
    for model in models:
        for _ in range(50):
            x, y, z = (random_class(model, rng.randrange(-8, 9)) for _ in range(3))
            assert model.tensor(x, y) == model.tensor(y, x)
            assert model.tensor(model.tensor(x, y), z) == model.tensor(x, model.tensor(y, z))
            assert model.tensor(x, model.inverse(x)) == model.trivial()
        for _ in range(5):
            x = random_class(model, rng.randrange(-4, 5))
            square = model.tensor(x, x)
            roots = model.sqrt_classes(square)
            assert len(roots) == len(set(roots)) == 1 << (2 * model.b)
            assert x in roots
            assert all(model.tensor(s, s) == square for s in roots)
