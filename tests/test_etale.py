import itertools
import random
from fractions import Fraction

import pytest

from thetanulls.etale import (
    EtaleCoverSpec,
    canonical_form,
    closed_form_counts,
    count_vanishing_enumerated,
    enumerate_etale,
    even_subspace,
    parity_etale,
    triple_parity,
    triple_product,
    vanishing_thetanulls,
)
from thetanulls.quadforms import QuadraticForm, all_forms


def test_spec_validation():
    # base genus outside 1..32, the zero word, and a word outside 0 <= w < 4^b
    outside = r"cover class must live in GF\(2\)\^\(2b\)"
    for b, word, message in (
        (0, 1, "base genus must be at least 1"),
        (33, 1, "dimension must be even and in 2..64, got 66"),
        (2, 0, "the cover class of a connected cover is nonzero"),
        (1, 0b0100, outside),
        (2, 16, outside),
        (2, -1, outside),
    ):
        with pytest.raises(ValueError, match=message):
            EtaleCoverSpec(b, word)
    assert EtaleCoverSpec(32, (1 << 64) - 1).g == 63


def test_enumeration_sizes():
    assert len(enumerate_etale(EtaleCoverSpec.default(1))) == 4
    chars = enumerate_etale(EtaleCoverSpec.default(2))
    assert len(chars) == 16
    assert sum(1 for t in chars if isinstance(t, int)) == 8
    assert len(enumerate_etale(EtaleCoverSpec.default(3))) == 64


def test_enumeration_distinct_and_canonical():
    spec = EtaleCoverSpec.default(3)
    chars = enumerate_etale(spec)
    assert len(set(chars)) == len(chars)
    for tc in chars:
        if isinstance(tc, int):
            assert tc <= tc ^ spec.cover_class
        else:
            assert canonical_form(spec, tc) == tc


def test_characteristics_are_root_labels_then_forms():
    for b in range(1, 5):
        spec = EtaleCoverSpec.default(b)
        half = 1 << (2 * b - 1)
        chars = enumerate_etale(spec)
        assert [type(tc) for tc in chars] == [int] * half + [QuadraticForm] * half
        evens = even_subspace(spec)
        returned = (
            [canonical_form(spec, q) for q in chars[half:]]
            + [triple_product(spec, *triple) for triple in itertools.product(evens[:3], repeat=3)]
            + vanishing_thetanulls(spec)
            + evens
        )
        assert all(type(tc) is QuadraticForm for tc in returned)


def test_parity_counts():
    spec = EtaleCoverSpec.default(2)
    parities = [parity_etale(spec, t) for t in enumerate_etale(spec)]
    assert parities.count(0) == 12  # 3 * 2^(g-1)
    assert parities.count(1) == 4  # 2^(g-1)
    for t in enumerate_etale(spec):
        if isinstance(t, int):
            assert parity_etale(spec, t) == 0
        else:
            assert parity_etale(spec, t) == t(spec.cover_class)


def test_parity_counts_up_to_b6():
    for b in range(1, 7):
        spec = EtaleCoverSpec.default(b)
        parities = [parity_etale(spec, t) for t in enumerate_etale(spec)]
        assert parities.count(0) == 3 * (1 << (spec.g - 1))
        assert parities.count(1) == 1 << (spec.g - 1)


def test_closed_form_counts_match_paper_expressions():
    # the paper's expressions in exact rationals, g = 2b - 1; T_size reads 1/2 - 1/2 at b = 1
    two = Fraction(2)
    for b in range(1, 9):
        g = 2 * b - 1
        counts = closed_form_counts(b)
        assert all(type(v) is int for v in counts.values())
        assert list(counts.items()) == [
            ("total", two ** (g + 1)),
            ("even", 3 * two ** (g - 1)),
            ("odd", two ** (g - 1)),
            ("T_size", two ** (g - 2) - two ** Fraction(g - 3, 2)),
        ], b
    for b in range(1, 5):
        spec = EtaleCoverSpec.default(b)
        parities = [parity_etale(spec, t) for t in enumerate_etale(spec)]
        assert closed_form_counts(b) == {
            "total": len(parities),
            "even": parities.count(0),
            "odd": parities.count(1),
            "T_size": len(vanishing_thetanulls(spec)),
        }
    for b in (0, -1):
        with pytest.raises(ValueError, match="base genus must be at least 1"):
            closed_form_counts(b)


def test_vanishing_set_sizes():
    assert closed_form_counts(1)["T_size"] == 0 and not vanishing_thetanulls(EtaleCoverSpec.default(1))
    assert len(vanishing_thetanulls(EtaleCoverSpec.default(2))) == 1
    assert len(vanishing_thetanulls(EtaleCoverSpec.default(3))) == 6
    for b in range(1, 6):
        spec = EtaleCoverSpec.default(b)
        T = vanishing_thetanulls(spec)
        g = spec.g
        assert len(T) == closed_form_counts(b)["T_size"]
        if b >= 2:
            assert len(T) == (1 << (g - 2)) - (1 << ((g - 3) // 2))
        for tc in T:
            assert parity_etale(spec, tc) == 0
            assert tc.arf() == 1 and tc(spec.cover_class) == 0


def test_canonicalization_well_defined():
    # translating by the cover class keeps q(cover), and keeps Arf when
    # q(cover) = 0, so the vanishing set does not depend on representatives
    for b in (2, 3, 4):
        spec = EtaleCoverSpec.default(b)
        rho = spec.cover_class
        for q in all_forms(2 * spec.b):
            qt = q.translate(rho)
            assert qt(rho) == q(rho)
            if q(rho) == 0:
                assert qt.arf() == q.arf()


def test_triple_parity_collapses_on_equal_arguments():
    spec = EtaleCoverSpec.default(3)
    for tc in even_subspace(spec)[:8]:
        assert triple_parity(spec, tc, tc, tc) == parity_etale(spec, tc)


def test_syzygetic_small():
    for b in (2, 3, 4):
        spec = EtaleCoverSpec.default(b)
        T = vanishing_thetanulls(spec)
        for triple in itertools.combinations(T, 3):
            assert triple_parity(spec, *triple) == 0


def test_triple_with_odd_member_is_odd():
    spec = EtaleCoverSpec.default(2)
    evens = even_subspace(spec)
    odd_forms = [
        t
        for t in enumerate_etale(spec)
        if not isinstance(t, int) and t(spec.cover_class) == 1
    ]
    for t1 in evens:
        for t2 in evens:
            for t3 in odd_forms:
                assert triple_parity(spec, t1, t2, t3) == 1


def test_triple_product_root_case_unsupported():
    spec = EtaleCoverSpec.default(2)
    root = next(t for t in enumerate_etale(spec) if isinstance(t, int))
    form = next(t for t in enumerate_etale(spec) if not isinstance(t, int))
    with pytest.raises(ValueError):
        triple_parity(spec, root, form, form)


def test_even_subspace_structure():
    spec = EtaleCoverSpec.default(2)
    subspace = even_subspace(spec)
    assert len(subspace) == 4  # 2^(g-1)
    assert set(vanishing_thetanulls(spec)) <= set(subspace)
    for b in (1, 2, 3, 4, 5):
        s = EtaleCoverSpec.default(b)
        sub = even_subspace(s)
        assert len(sub) == 1 << (s.g - 1)
        assert all(parity_etale(s, t) == 0 for t in sub)


def test_even_subspace_closed_under_triple_products():
    for b in (2, 3, 4):
        spec = EtaleCoverSpec.default(b)
        subspace = even_subspace(spec)
        members = set(subspace)
        for t1, t2, t3 in itertools.product(subspace, repeat=3):
            product = triple_product(spec, t1, t2, t3)
            assert product in members
            assert parity_etale(spec, product) == triple_parity(spec, t1, t2, t3)


def test_counts_independent_of_cover_class():
    for b in (2, 3):
        dim = 2 * b
        baseline = None
        for bits in range(1, 1 << dim):
            spec = EtaleCoverSpec(b, bits)
            chars = enumerate_etale(spec)
            parities = [parity_etale(spec, t) for t in chars]
            summary = (len(chars), parities.count(0), len(vanishing_thetanulls(spec)))
            if baseline is None:
                baseline = summary
            assert summary == baseline


def _cover_specs():
    """Every nonzero cover class for b <= 3, and seeded ones for b = 4, 5."""
    for b in (1, 2, 3):
        for bits in range(1, 1 << (2 * b)):
            yield EtaleCoverSpec(b, bits)
    rng = random.Random(2012)
    for b in (4, 5):
        for _ in range(8):
            yield EtaleCoverSpec(b, rng.randrange(1, 1 << (2 * b)))


def test_word_filters_match_the_object_route():
    for spec in _cover_specs():
        rho = spec.cover_class
        chars = enumerate_etale(spec)
        roots = [tc for tc in chars if isinstance(tc, int)]
        forms = [tc for tc in chars if not isinstance(tc, int)]
        labels = {min(v, v ^ rho) for v in range(1 << (2 * spec.b))}
        assert roots == sorted(labels)
        canonical = {canonical_form(spec, q) for q in all_forms(2 * spec.b)}
        assert forms == sorted(canonical, key=lambda tc: tc.basis_values)
        even = [tc for tc in forms if tc(rho) == 0]
        vanishing = [tc for tc in even if tc.arf() == 1]
        assert even_subspace(spec) == even
        assert vanishing_thetanulls(spec) == vanishing
        assert count_vanishing_enumerated(spec) == len(vanishing)


@pytest.mark.parametrize("b", range(6, 12))
def test_table_count_matches_closed_form_on_edge_covers(b):
    # e_1, the top coordinate, all ones and seeded words: the canonical
    # rule's top bit of swap_pairs(cover) at both ends, and both values of
    # the cover's cross term
    dim = 2 * b
    rng = random.Random(b)
    words = [1, 1 << (dim - 1), (1 << dim) - 1] + [rng.randrange(1, 1 << dim) for _ in range(3)]
    expected = closed_form_counts(b)["T_size"]
    for bits in words:
        assert count_vanishing_enumerated(EtaleCoverSpec(b, bits)) == expected


def test_table_count_matches_the_form_list_at_b6():
    rng = random.Random(6)
    for _ in range(4):
        spec = EtaleCoverSpec(6, rng.randrange(1, 1 << 12))
        assert count_vanishing_enumerated(spec) == len(vanishing_thetanulls(spec))
