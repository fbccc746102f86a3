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

Sampling uses a caller-seeded generator only, so every certificate is
reproducible from (N, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

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

Point = tuple[int, int]

MAX_ATTEMPTS = 1000  # draws a sampler makes before it gives up
LIST_CHARACTERS_MAX_G = 5  # hyperelliptic reports list characters up to here


def _add(p: Point, q: Point, N: int) -> Point:
    return ((p[0] + q[0]) % N, (p[1] + q[1]) % N)


def _sub(p: Point, q: Point, N: int) -> Point:
    return ((p[0] - q[0]) % N, (p[1] - q[1]) % N)


@dataclass(frozen=True)
class BiellipticGenus6:
    """Tuned genus-6 branch data over an elliptic base.

    ``pair_divisors`` are the three 2-point members of the degree-2
    pencil, ``triple_divisor`` the 3-point member of its twist by
    ``base_point``; the 10 branch points are ordered pair_1, pair_2,
    pair_3, triple, base point.
    """

    model: BaseCurveModel
    seed: int
    base_point: Point
    pencil_point: Point  # Abel-Jacobi coordinate of the degree-2 pencil class
    pair_divisors: tuple[tuple[Point, Point], ...]
    triple_divisor: tuple[Point, Point, Point]

    @property
    def branch_points(self) -> tuple[Point, ...]:
        points: list[Point] = []
        for pair in self.pair_divisors:
            points.extend(pair)
        points.extend(self.triple_divisor)
        points.append(self.base_point)
        return tuple(points)

    @property
    def cover_class(self) -> LineBundleClass:
        N = self.model.moduli[0]
        doubled = _add(self.pencil_point, self.pencil_point, N)
        return LineBundleClass(ELLIPTIC, 5, _add(doubled, self.base_point, N))

    @cached_property
    def spec(self) -> RamifiedCoverSpec:
        return RamifiedCoverSpec(self.model, 5, self.branch_points, self.cover_class)

    def forced_subset_masks(self) -> list[int]:
        """Masks of pair_i + pair_j + base point, the three forced subsets."""
        pair_bits = [0b11 << (2 * i) for i in range(3)]
        point_bit = 1 << 9
        return [
            pair_bits[0] | pair_bits[1] | point_bit,
            pair_bits[0] | pair_bits[2] | point_bit,
            pair_bits[1] | pair_bits[2] | point_bit,
        ]

    def to_json(self) -> dict:
        return {
            "N": self.model.moduli[0],
            "seed": self.seed,
            "base_point": list(self.base_point),
            "pencil_point": list(self.pencil_point),
            "pair_divisors": [[list(p) for p in pair] for pair in self.pair_divisors],
            "triple_divisor": [list(p) for p in self.triple_divisor],
            "cover_class": self.cover_class.to_json(),
        }


def build_bielliptic_genus6(N: int = 240, seed: int = 0) -> BiellipticGenus6:
    """Sample the tuned genus-6 branch data.

    Points are drawn from the even sublattice; the last point of each
    divisor is solved for so the divisor lands in the required class.
    Redraws everything on a collision.
    """
    model = EllipticModel(N)
    rng = random.Random(seed)
    for _ in range(MAX_ATTEMPTS):
        base = model.random_even_point(rng)
        pencil = model.random_even_point(rng)
        x1 = model.random_even_point(rng)
        x2 = model.random_even_point(rng)
        x3 = _sub(_add(pencil, base, N), _add(x1, x2, N), N)
        triple = (x1, x2, x3)
        pairs = []
        for _ in range(3):
            y = model.random_even_point(rng)
            pairs.append((y, _sub(pencil, y, N)))
        points = [p for pair in pairs for p in pair] + list(triple) + [base]
        if len(set(points)) == 10:
            config = BiellipticGenus6(model, seed, base, pencil, tuple(pairs), triple)
            config.spec  # runs the branch-data invariants once; the spec is cached
            return config
    raise ModelError(
        f"could not sample 10 distinct construction points in {MAX_ATTEMPTS} attempts; "
        "try a larger torsion modulus"
    )


def count_vanishing_genus6(N: int = 240, seed: int = 0) -> dict:
    """Exact vanishing-thetanull count of ``build_bielliptic_genus6(N, seed)``, with a certificate.

    The certificate lists the guaranteed characteristics (subset smaller
    than 5), every extra (full-size subset with sections), and the
    presence check for the three forced extras: trivial bundle, subset =
    pair_i + pair_j + base point, 2 sections each.
    """
    config = build_bielliptic_genus6(N, seed)
    spec = config.spec
    vanishing = vanishing_theta_chars(spec)
    generic = [tc for tc in vanishing if tc.subset_size < spec.r]
    extras = [tc for tc in vanishing if tc.subset_size == spec.r]

    vanishing_set = set(vanishing)
    trivial = spec.model.trivial()
    forced_report = []
    for mask in config.forced_subset_masks():
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
        "config": config.to_json(),
        "count": len(vanishing),
        "guaranteed_lower_bound": closed_form_counts(spec.b, spec.r)["vanishing_lb"],
        "generic": [_char_json(spec, tc) for tc in generic],
        "extras": [_char_json(spec, tc) for tc in extras],
        "forced_extras": forced_report,
        "forced_extras_present": all(f["present"] and f["h0"] == 2 for f in forced_report),
    }


def _mask_indices(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def _char_json(spec: RamifiedCoverSpec, tc: RamifiedThetaChar) -> dict:
    return {
        "bundle": tc.bundle.to_json(),
        "subset_indices": _mask_indices(tc.subset_mask),
        "h0": h0_theta(spec, tc),
    }


def sample_bielliptic_spec(r: int, N: int = 240, seed: int = 0) -> RamifiedCoverSpec:
    """Unconstrained bielliptic branch data: 2r distinct even points.

    The coordinate sums are nudged to multiples of 4 (by adding 2 to the
    last point) so the cover class, half the branch sum, stays in the
    even sublattice and every square root the enumeration needs exists.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    model = EllipticModel(N)
    rng = random.Random(seed)
    for _ in range(MAX_ATTEMPTS):
        points = [model.random_even_point(rng) for _ in range(2 * r)]
        sx = sum(p[0] for p in points)
        sy = sum(p[1] for p in points)
        lx, ly = points[-1]
        points[-1] = ((lx + (sx % 4)) % N, (ly + (sy % 4)) % N)
        if len(set(points)) != 2 * r:
            continue
        sx = sum(p[0] for p in points)
        sy = sum(p[1] for p in points)
        cover = LineBundleClass(ELLIPTIC, r, ((sx // 2) % N, (sy // 2) % N))
        return RamifiedCoverSpec(model, r, tuple(points), cover)
    raise ModelError(
        f"could not sample {2 * r} distinct branch points in {MAX_ATTEMPTS} attempts; "
        "try a larger torsion modulus"
    )


def count_vanishing_generic_bielliptic(g: int, N: int = 240, seed: int = 0) -> dict:
    """Exact vanishing count for a random bielliptic cover of genus g.

    Always at least the guaranteed lower bound; equality holds for
    generic branch data on a real elliptic base.  The finite (Z/N)^2
    model has accidental extras (about C(2r, r) / (2 (N/2)^2) expected,
    so some from g ~ 10 at N = 240), listed under ``extras``.
    """
    if g < 3:
        raise ValueError("a bielliptic cover of an elliptic base needs genus >= 3")
    r = g - 1
    refuse_over_budget(g - 1, f"genus {g}")
    spec = sample_bielliptic_spec(r, N=N, seed=seed)
    vanishing = vanishing_theta_chars(spec)
    extras = [tc for tc in vanishing if tc.subset_size == r]
    return {
        "g": g,
        "r": r,
        "N": N,
        "seed": seed,
        "branch_points": [list(p) for p in spec.branch_points],
        "cover_class": spec.cover_class.to_json(),
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
    refuse_over_budget(g, f"genus {g}")
    spec = RamifiedCoverSpec.rational(r)
    chars = enumerate_theta_chars(spec)
    vanishing = [tc for tc in chars if is_vanishing(spec, tc)]
    report = {
        "b": 0,
        "r": r,
        "g": g,
        **closed_form_counts(0, r),
        "enumerated": {
            "total": len(chars),
            "even": sum(1 for tc in chars if parity(spec, tc) == 0),
            "odd": sum(1 for tc in chars if parity(spec, tc) == 1),
            "vanishing": len(vanishing),
        },
        "model": {"kind": spec.model.kind, "b": spec.b},
    }
    if g <= LIST_CHARACTERS_MAX_G:
        report["characters"] = [
            {
                "bundle_degree": tc.bundle.degree,
                "subset_indices": _mask_indices(tc.subset_mask),
                "parity": parity(spec, tc),
                "h0": h0_theta(spec, tc),
            }
            for tc in chars
        ]
    return report
