"""Verification suites: enumeration against closed forms, exact identities,
and oracle agreement.

Each suite returns a flat list of check dicts and takes only CLI flags;
fixed bounds are the constants below.
"""

from __future__ import annotations

import itertools
import random

from . import etale, quadforms, ramified
from .constructions import checked_seed, sample_bielliptic_spec
from .report import check

T_SIZE_MAX_B = 8  # vanishing-set sizes are counted up to here, past --max-b
CLOSURE_MAX_B = 4  # base genus up to which the cubic closure check runs
ORACLE_SAMPLES, ORACLE_MAX_DIM = 10000, 20  # random forms the oracle checks


def _counts_cell(b: int, r: int, seed: int) -> list[dict]:
    if b == 0:
        spec = ramified.RamifiedCoverSpec.rational(r)
    elif b == 1:
        spec = sample_bielliptic_spec(r, seed=seed * 1000 + r)
    else:
        spec = ramified.RamifiedCoverSpec.generic(b, r)
    chars = ramified.enumerate_theta_chars(spec)
    parities = [ramified.parity(spec, tc) for tc in chars]
    lb = sum(1 for tc, p in zip(chars, parities) if p == 0 and tc.subset_size < r)
    expected = ramified.closed_form_counts(b, r)
    tag = f"b={b},r={r}"
    return [
        check(f"total[{tag}]", expected["total"], len(chars)),
        check(f"distinct[{tag}]", expected["total"], len(set(chars))),
        check(f"even[{tag}]", expected["even"], parities.count(0)),
        check(f"odd[{tag}]", expected["odd"], parities.count(1)),
        check(f"vanishing_lb[{tag}]", expected["vanishing_lb"], lb),
    ]


def counts_suite(max_b: int = 3, max_r: int = 6, seed: int = 0) -> list[dict]:
    """Enumerated totals, parities and guaranteed vanishing counts against
    the closed forms, for every base genus and branch half-count in range.
    The largest cell, at (max_b, max_r), is held to the enumeration budget
    before any cell starts."""
    ramified.refuse_over_budget(2 * (max_b + max_r - 1), f"--max-b {max_b} --max-r {max_r}")
    ramified.closed_form_counts(max_b, max_r)  # refuses max_b < 0 and max_r < 1
    checked_seed(seed)  # a b = 1 cell would refuse it only after the rational cells ran
    return [c for b in range(max_b + 1) for r in range(1, max_r + 1) for c in _counts_cell(b, r, seed)]


def identities_suite(max_r: int = 30) -> list[dict]:
    """The exact fourth-roots-of-unity filter identity for each r."""
    return [
        check(f"binomial_identity[r={r}]", True, ramified.binomial_identity_check(r))
        for r in range(1, max_r + 1)
    ]


def _etale_cell(b: int, max_count_b: int) -> list[dict]:
    spec = etale.EtaleCoverSpec.default(b)
    expected = etale.closed_form_counts(b)
    checks = []
    if b <= max_count_b:
        chars = etale.enumerate_etale(spec)
        parities = [etale.parity_etale(spec, tc) for tc in chars]
        checks.extend(
            [
                check(f"total[b={b}]", expected["total"], len(chars)),
                check(f"even[b={b}]", expected["even"], parities.count(0)),
                check(f"odd[b={b}]", expected["odd"], parities.count(1)),
            ]
        )
    checks.append(check(f"T_size[b={b}]", expected["T_size"], etale.count_vanishing_enumerated(spec)))
    return checks


def etale_suite(max_b: int = 6) -> list[dict]:
    """Unramified-case counts against the closed forms; vanishing-set sizes are cheap
    and run past the full enumerations, whose 2^(2 max_b) are held to the budget first."""
    ramified.refuse_over_budget(2 * max_b, f"--max-b {max_b}")
    etale.closed_form_counts(max_b)  # refuses max_b < 1
    return [c for b in range(1, max(max_b, T_SIZE_MAX_B) + 1) for c in _etale_cell(b, max_b)]


def syzygetic_suite(max_b: int = 5) -> list[dict]:
    """Every triple from the vanishing set is even; the set lies in the
    all-even affine subspace of dimension g - 1, which is closed under
    triple products.  The budget states the floor of log2 of the largest
    cell's work: its C(|T|, 3) triple parities and, up to ``CLOSURE_MAX_B``,
    the closure check's 2^(6(b-1)) triple products.  Only ``syzygetic``,
    ``subspace_size`` and ``subspace_closed`` can fail; ``subspace_even`` and
    ``T_in_subspace`` hold by construction (see ``etale.even_subspace``)."""
    log2_work = max(3 * (2 * max_b - 3) - 3, 6 * (min(max_b, CLOSURE_MAX_B) - 1))
    ramified.refuse_over_budget(log2_work, f"--max-b {max_b}", "triples")
    checks = []
    for b in range(2, max_b + 1):
        spec = etale.EtaleCoverSpec.default(b)
        vanishing = etale.vanishing_thetanulls(spec)
        subspace = etale.even_subspace(spec)
        subspace_set = set(subspace)
        odd_triples = sum(
            1
            for triple in itertools.combinations(vanishing, 3)
            if etale.triple_parity(spec, *triple) != 0
        )
        checks.append(check(f"syzygetic[b={b}]", 0, odd_triples))
        checks.append(check(f"subspace_size[b={b}]", 1 << (spec.g - 1), len(subspace)))
        checks.append(
            check(
                f"subspace_even[b={b}]",
                0,
                sum(etale.parity_etale(spec, tc) for tc in subspace),
            )
        )
        checks.append(
            check(
                f"T_in_subspace[b={b}]",
                True,
                all(tc in subspace_set for tc in vanishing),
            )
        )
        if b <= CLOSURE_MAX_B:
            closed = all(
                etale.triple_product(spec, t1, t2, t3) in subspace_set
                for t1 in subspace
                for t2 in subspace
                for t3 in subspace
            )
            checks.append(check(f"subspace_closed[b={b}]", True, closed))
    return checks


def oracle_suite(seed: int = 0) -> list[dict]:
    """Basis-formula Arf against the exhaustive zero-count oracle:
    every form up to dimension 6, then random forms up to ``ORACLE_MAX_DIM``."""
    rng = random.Random(checked_seed(seed))
    quadforms._ones.cache_clear()  # each distinct half table once per call, dropped on return or raise
    try:
        checks = []
        for dim in (2, 4, 6):
            bad = sum(
                1
                for q in quadforms.all_forms(dim)
                if q.arf() != quadforms.arf_by_zero_count(q)
            )
            checks.append(check(f"arf_oracle_exhaustive[dim={dim}]", 0, bad))
        dims = range(2, ORACLE_MAX_DIM + 1, 2)
        bad = 0
        for _ in range(ORACLE_SAMPLES):
            dim = rng.choice(dims)
            q = quadforms.QuadraticForm(dim, rng.randrange(1 << dim))
            if q.arf() != quadforms.arf_by_zero_count(q):
                bad += 1
        checks.append(check(f"arf_oracle_random[samples={ORACLE_SAMPLES},max_dim={ORACLE_MAX_DIM}]", 0, bad))
        return checks
    finally:
        quadforms._ones.cache_clear()


SUITES = {
    "counts": counts_suite,
    "identities": identities_suite,
    "etale": etale_suite,
    "syzygetic": syzygetic_suite,
    "oracle": oracle_suite,
}
