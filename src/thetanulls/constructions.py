"""End-to-end builds on concrete base curves.

Two flavours:

* hyperelliptic branch data over a rational base, recovering the
  classical counts of vanishing thetanulls (0, 1, 10 in genus 2, 3, 4);
* bielliptic covers of an elliptic torsion model, including the tuned
  genus-6 cover whose branch divisor splits as three members of a
  degree-2 pencil plus a member of its point-twist plus the point
  itself.  That arrangement forces three extra vanishing thetanulls
  (trivial bundle, subset = two pencil members plus the point) on top of
  the 40 guaranteed ones, giving at least 43; a random even branch
  divisor stays at the guaranteed 40 for most seeds.

Both bielliptic samplers return a ``RamifiedCoverSpec`` whose branch
points are degree-1 classes; the genus-6 report's ``config`` block is read
off its spec, and each class a report names is ``{kind, degree, point}``.

Sampling uses a caller-seeded generator only, so every certificate is
reproducible from (N, seed); a seed is a non-negative integer.
"""

from __future__ import annotations

import functools
import random

from .picard import ELLIPTIC, BaseCurveModel, EllipticModel, LineBundleClass, ModelError
from .ramified import (
    RamifiedCoverSpec,
    RamifiedThetaChar,
    canonicalize,
    closed_form_counts,
    enumerate_theta_chars,
    h0_theta,
    is_vanishing,
    parity,
    refuse_over_budget,
    vanishing_theta_chars,
)

MAX_ATTEMPTS = 1000  # draws a sampler makes before it gives up
DEFAULT_MODULUS = 240  # the elliptic torsion modulus N when a caller names none
LIST_CHARACTERS_MAX_G = 5  # hyperelliptic reports list characters up to here
# pair_i + pair_j + base point for (i, j) in (0, 1), (0, 2), (1, 2): the
# subsets of the genus-6 build's three forced extras
FORCED_SUBSET_MASKS = tuple((0b11 << 2 * i) | (0b11 << 2 * j) | (1 << 9) for i, j in ((0, 1), (0, 2), (1, 2)))


def checked_seed(seed: int) -> int:
    """``seed``, refused when negative: ``random.Random`` seeds with ``abs(seed)``."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def build_bielliptic_genus6(N: int = DEFAULT_MODULUS, seed: int = 0) -> RamifiedCoverSpec:
    """Sample the tuned genus-6 branch data as its ``RamifiedCoverSpec``.

    Branch points are ordered pair_1, pair_2, pair_3, triple, base point:
    three members of a degree-2 pencil, a member of its twist by the base
    point, and the point; the cover class is 2 * pencil + base point.
    Classes are drawn from the even sublattice, the last point of each
    divisor solved for with the model's group law; a collision redraws
    everything.
    """
    rng = random.Random(checked_seed(seed))  # a usage error goes before a model error
    model = EllipticModel(N)

    def draw():
        base, pencil, x1, x2 = (model.random_even_class(rng, degree) for degree in (1, 2, 1, 1))
        x3 = model.tensor(model.tensor(pencil, base), model.inverse(model.tensor(x1, x2)))
        pairs = [(y, model.tensor(pencil, model.inverse(y))) for y in (model.random_even_class(rng) for _ in range(3))]
        points = [p for pair in pairs for p in pair] + [x1, x2, x3, base]
        return points, lambda: model.tensor(model.tensor(pencil, pencil), base)

    return _sample_spec(model, 10, "construction points", draw)


def _sample_spec(model: BaseCurveModel, n: int, what: str, draw) -> RamifiedCoverSpec:
    """The spec of the first of ``MAX_ATTEMPTS`` draws with ``n`` distinct points;
    ``draw()`` returns them and a thunk for the cover class, called on that draw only."""
    for _ in range(MAX_ATTEMPTS):
        points, cover = draw()
        if len(set(points)) == n:
            return RamifiedCoverSpec(model, tuple(points), cover())
    raise ModelError(f"could not sample {n} distinct {what} in {MAX_ATTEMPTS} attempts; try a larger torsion modulus")


def count_vanishing_genus6(N: int = DEFAULT_MODULUS, seed: int = 0) -> dict:
    """Exact vanishing-thetanull count of ``build_bielliptic_genus6(N, seed)``, with a certificate.

    The certificate lists the guaranteed characteristics (subset smaller
    than 5), every extra (full-size subset with sections), and the
    presence check for the three forced extras: trivial bundle, subset =
    pair_i + pair_j + base point, 2 sections each.
    """
    spec = build_bielliptic_genus6(N, seed)
    points = spec.branch_points
    vanishing = vanishing_theta_chars(spec)
    generic = [tc for tc in vanishing if tc.subset_size < spec.r]
    extras = [tc for tc in vanishing if tc.subset_size == spec.r]

    vanishing_set = set(vanishing)
    trivial = spec.model.trivial()
    forced_report = []
    for mask in FORCED_SUBSET_MASKS:
        rep = canonicalize(spec, RamifiedThetaChar(trivial, mask))
        present = rep in vanishing_set
        forced_report.append(
            {
                "subset_indices": _mask_indices(mask),
                "canonical_subset_indices": _mask_indices(rep.subset_mask),
                "present": present,
                "h0": h0_theta(spec, rep) if present else 0,
            }
        )

    return {
        "config": {
            "N": N,
            "seed": seed,
            "base_point": list(points[9].torsion),
            "pencil_point": list(spec.model.tensor(points[0], points[1]).torsion),
            "pair_divisors": [[list(p.torsion) for p in points[i : i + 2]] for i in (0, 2, 4)],
            "triple_divisor": [list(p.torsion) for p in points[6:9]],
            "cover_class": _class_json(spec.cover_class),
        },
        "count": len(vanishing),
        "guaranteed_lower_bound": closed_form_counts(spec.b, spec.r)["vanishing_lb"],
        "generic": [_char_json(spec, tc) for tc in generic],
        "extras": [_char_json(spec, tc) for tc in extras],
        "forced_extras": forced_report,
        "forced_extras_present": all(f["present"] and f["h0"] == 2 for f in forced_report),
    }


def _mask_indices(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def _class_json(cls: LineBundleClass) -> dict:
    return {"kind": cls.kind, "degree": cls.degree, "point": list(cls.torsion)}


def _char_json(spec: RamifiedCoverSpec, tc: RamifiedThetaChar) -> dict:
    return {
        "bundle": _class_json(tc.bundle),
        "subset_indices": _mask_indices(tc.subset_mask),
        "h0": h0_theta(spec, tc),
    }


def sample_bielliptic_spec(r: int, N: int = DEFAULT_MODULUS, seed: int = 0) -> RamifiedCoverSpec:
    """Unconstrained bielliptic branch data: 2r distinct even points.

    The last point is nudged by the degree-0 class (branch sum mod 4), so
    the cover class rho, the degree-r product of the points' canonical halves
    (x/2, y/2), squares to the branch divisor, stays in the even sublattice
    and has every square root the enumeration needs.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    rng = random.Random(checked_seed(seed))  # a usage error goes before a model error
    model = EllipticModel(N)

    def draw():
        points = [model.random_even_class(rng) for _ in range(2 * r)]
        if len(set(points[:-1])) == 2 * r - 1:  # else no nudge makes the draw distinct
            nudge = tuple(t % 4 for t in functools.reduce(model.tensor, points).torsion)
            points[-1] = model.tensor(points[-1], LineBundleClass(ELLIPTIC, 0, nudge))
        halves = (LineBundleClass(ELLIPTIC, 0, tuple(t // 2 for t in p.torsion)) for p in points)
        return points, lambda: functools.reduce(model.tensor, halves, LineBundleClass(ELLIPTIC, r, (0, 0)))

    return _sample_spec(model, 2 * r, "branch points", draw)


def count_vanishing_generic_bielliptic(g: int, N: int = DEFAULT_MODULUS, seed: int = 0) -> dict:
    """Exact vanishing count for a random bielliptic cover of genus g.

    Always at least the guaranteed lower bound; equality holds for
    generic branch data on a real elliptic base.  The finite (Z/N)^2
    model has accidental extras (about C(2r, r) / (2 (N/2)^2) expected,
    so some from g ~ 10 at N = 240), listed under ``extras``.
    """
    if g < 3:
        raise ValueError("a bielliptic cover of an elliptic base needs genus >= 3")
    r = g - 1
    refuse_over_budget(2 * (g - 1), f"genus {g}")
    spec = sample_bielliptic_spec(r, N=N, seed=seed)
    vanishing = vanishing_theta_chars(spec)
    extras = [tc for tc in vanishing if tc.subset_size == r]
    return {
        "g": g,
        "r": r,
        "N": N,
        "seed": seed,
        "branch_points": [list(p.torsion) for p in spec.branch_points],
        "cover_class": _class_json(spec.cover_class),
        "count": len(vanishing),
        "lower_bound": closed_form_counts(1, r)["vanishing_lb"],
        "extras": [_char_json(spec, tc) for tc in extras],
    }


def hyperelliptic_report(g: int) -> dict:
    """Counts for the hyperelliptic specialization (rational base, r = g + 1).

    Up to genus ``LIST_CHARACTERS_MAX_G`` the report also lists every
    characteristic with its bundle degree, subset and section count.
    """
    if g < 2:
        raise ValueError("hyperelliptic curves start at genus 2")
    r = g + 1
    refuse_over_budget(2 * g, f"genus {g}")
    spec = RamifiedCoverSpec.rational(r)
    chars = enumerate_theta_chars(spec)
    parities = [parity(spec, tc) for tc in chars]
    report = {
        "b": 0,
        "r": r,
        "g": g,
        **closed_form_counts(0, r),
        "enumerated": {
            "total": len(chars),
            "even": parities.count(0),
            "odd": parities.count(1),
            "vanishing": sum(1 for tc in chars if is_vanishing(spec, tc)),
        },
        "model": {"kind": spec.model.kind, "b": spec.b},
    }
    if g <= LIST_CHARACTERS_MAX_G:
        report["characters"] = [
            {
                "bundle_degree": tc.bundle.degree,
                "subset_indices": _mask_indices(tc.subset_mask),
                "parity": p,
                "h0": h0_theta(spec, tc),
            }
            for tc, p in zip(chars, parities)
        ]
    return report
