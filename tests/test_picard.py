import functools
import inspect
import random

import pytest

from thetanulls.picard import (
    BaseCurveModel,
    EllipticModel,
    GenericModel,
    LineBundleClass,
    ModelError,
    RationalModel,
)
from thetanulls.ramified import RamifiedCoverSpec


def divisor_class(model, points):
    """Class of a sum of points, folded from the point classes."""
    return functools.reduce(model.tensor, (LineBundleClass("elliptic", 1, p) for p in points), model.trivial())


def test_class_kind_fields_validated():
    # building a class checks nothing; the model of its kind refuses a wrong
    # torsion length at every operation that takes a class
    cases = [
        (RationalModel(), LineBundleClass("rational", 1, (0, 0))),
        (EllipticModel(240), LineBundleClass("elliptic", 1)),
        (GenericModel(2), LineBundleClass("generic", 1)),
    ]
    for model, cls in cases:
        trivial = model.trivial()
        calls = [(model.tensor, cls, trivial), (model.tensor, trivial, cls)]
        calls += [(model.inverse, cls), (model.sqrt_classes, cls), (model.h0, cls)]
        for op, *args in calls:
            with pytest.raises(ValueError, match=f"is not a class of the '{model.kind}' model"):
                op(*args)


def test_tensor_inverse_trivial():
    for model in (RationalModel(), EllipticModel(240), GenericModel(2)):
        point = LineBundleClass(model.kind, 1, (2, 4) if model.kind == "elliptic" else model.trivial().torsion)
        L = model.tensor(point, model.canonical_class())
        assert model.tensor(L, model.inverse(L)) == model.trivial()


def test_elliptic_divisor_class():
    m = EllipticModel(240)
    c = divisor_class(m, [(2, 0), (0, 2)])
    assert c.degree == 2 and c.torsion == (2, 2)


def test_cover_class_degree_from_pencil():
    # square of a degree-2 class times a point has degree 5
    m = EllipticModel(240)
    alpha = divisor_class(m, [(2, 0), (0, 2)])
    rho = m.tensor(m.tensor(alpha, alpha), LineBundleClass("elliptic", 1, (4, 4)))
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


def test_unreduced_elliptic_torsion_reads_as_its_residue():
    """Hand-built classes may carry torsion outside 0..N-1; the model's
    operations read it as its residue.  A branch point is the exception:
    ``RamifiedCoverSpec`` refuses one with unreduced torsion, as it refuses
    such a cover class, rather than reading it as its residue."""
    m = EllipticModel(240)
    for t in ((240, 0), (-240, 480)):
        assert m.h0(LineBundleClass("elliptic", 0, t)) == 1
        assert m.sqrt_classes(LineBundleClass("elliptic", 0, t)) == m.sqrt_classes(m.trivial())
        # raw equality compares torsion as given; the model's operations reduce it
        assert m.tensor(LineBundleClass("elliptic", 0, t), m.trivial()) == m.trivial()
        assert m.inverse(LineBundleClass("elliptic", 0, t)) == m.trivial()
        # as a branch point it would square-match a cover class at (0, 0)
        origin = LineBundleClass("elliptic", 1, (0, 0))
        with pytest.raises(ModelError, match="reduced coordinates"):
            RamifiedCoverSpec(m, (LineBundleClass("elliptic", 1, t), origin), origin)
    assert m.h0(LineBundleClass("elliptic", 0, (246, 0))) == 0
    roots = m.sqrt_classes(LineBundleClass("elliptic", 2, (244, -2)))
    assert [r.torsion for r in roots] == [(2, 119), (122, 119), (2, 239), (122, 239)]


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
    with pytest.raises(ModelError, match="degree 3 is odd"):
        m.sqrt_classes(LineBundleClass("rational", 3))


def test_sqrt_elliptic_two_torsion_order():
    m = EllipticModel(240)
    roots = m.sqrt_classes(m.trivial())
    assert [r.torsion for r in roots] == [(0, 0), (120, 0), (0, 120), (120, 120)]
    with pytest.raises(ModelError, match="has an odd coordinate"):
        m.sqrt_classes(LineBundleClass("elliptic", 2, (3, 0)))


def test_sqrt_generic():
    m = GenericModel(2)
    roots = m.sqrt_classes(LineBundleClass("generic", 6, torsion=(0,) * 4))
    assert len(roots) == 16 and all(r.degree == 3 for r in roots)
    assert len({r.torsion for r in roots}) == 16
    with pytest.raises(ModelError, match="has an odd coordinate"):
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


def test_base_genus_is_read_off_the_moduli():
    # b is no field: a model is written, compared and hashed by kind and moduli
    assert repr(RationalModel()) == "BaseCurveModel(kind='rational', moduli=())"
    assert list(inspect.signature(BaseCurveModel).parameters) == ["kind", "moduli"]
    for model, b in ((RationalModel(), 0), (EllipticModel(240), 1), (GenericModel(3), 3)):
        assert model.b == b == len(model.moduli) // 2
        assert model == BaseCurveModel(model.kind, model.moduli)
        assert len(model.sqrt_classes(model.canonical_class())) == 1 << (2 * b)
    # an elliptic kind with four moduli is a genus-2 model, not a genus-1 one
    assert BaseCurveModel("elliptic", (240,) * 4).b == 2
    with pytest.raises(ModelError, match="2b torsion moduli, got 3"):
        BaseCurveModel("generic", (2, 2, 2))


def test_elliptic_modulus_must_be_multiple_of_four():
    with pytest.raises(ModelError):
        EllipticModel(238)
    with pytest.raises(ModelError):
        GenericModel(1)


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


def test_random_even_class_is_a_reduced_even_class_of_the_given_degree():
    rng = random.Random(3)
    for model in (RationalModel(), EllipticModel(8), EllipticModel(240), GenericModel(3)):
        for degree in (-2, 0, 1, 2, 5):
            for _ in range(20):
                cls = model.random_even_class(rng, degree)
                assert (cls.kind, cls.degree, len(cls.torsion)) == (model.kind, degree, len(model.moduli))
                assert all(t % 2 == 0 and 0 <= t < m for t, m in zip(cls.torsion, model.moduli))
                assert model.tensor(cls, model.trivial()) == cls  # reduced: equal to its residue
        assert model.random_even_class(rng).degree == 1
