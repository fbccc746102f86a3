"""Exact models of involution-invariant theta characteristics on curves.

The package enumerates, counts and verifies the invariant theta
characteristics and vanishing thetanulls of a double cover, in the
ramified case (pairs of a base bundle and a branch-point subset) and the
unramified case (quadratic forms on the 2-torsion of the base), all in
exact arithmetic over finite models.
"""

__version__ = "0.1.0"
