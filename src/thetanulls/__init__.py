"""Exact models of involution-invariant theta characteristics on curves.

The package enumerates, counts and verifies the invariant theta
characteristics and vanishing thetanulls of a double cover, in the
ramified case (pairs of a base bundle and a branch-point subset) and the
unramified case (quadratic forms on the 2-torsion of the base), all in
exact arithmetic over finite models.
"""

from .gf2 import GF2Vector, pairing
from .quadforms import QuadraticForm, affine_difference, all_forms, arf_by_zero_count
from .picard import (
    EllipticModel,
    GenericModel,
    LineBundleClass,
    ModelError,
    NoSquareRootError,
    NonHalvableError,
    RationalModel,
)
from .ramified import (
    RamifiedCoverSpec,
    RamifiedThetaChar,
    asymptotic_ratio,
    binomial_identity_check,
    canonicalize,
    count_even,
    count_odd,
    count_total,
    count_vanishing_lb,
    enumerate_theta_chars,
    h0_theta,
    h0_theta_decomposed,
    is_vanishing,
    parity,
    swap_representation,
)
from .etale import (
    EtaleCoverSpec,
    EtaleThetaChar,
    count_vanishing,
    enumerate_etale,
    even_subspace,
    parity_etale,
    triple_parity,
    triple_product,
    vanishing_thetanulls,
)
from .constructions import (
    BiellipticGenus6,
    build_bielliptic_genus6,
    count_vanishing_generic_bielliptic,
    count_vanishing_genus6,
    hyperelliptic_report,
    sample_bielliptic_spec,
)

__version__ = "0.1.0"
