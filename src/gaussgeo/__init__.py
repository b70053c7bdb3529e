"""Fisher-Rao geometry of multivariate normal distributions.

Geodesics, distances, midpoints, and dyadic interpolation computed through
a symmetric-space lift: normal distributions embed into SPD matrices via
their natural parameters, geodesics arise as exponentials of horizontal
generators two orders up, midpoints from an arithmetic-harmonic mean
iteration, and the same factorization yields an isospectral (Toda-type)
Lax flow.
"""

from .matcore import EigenError, NotSpdError, block_cholesky, check_special_symmetry
from .manifold import (
    AffineMap,
    GaussianPoint,
    Tangent,
    embed,
    fisher_numeric,
    metric_at_identity,
    normalize_to_identity,
    tangent_norm,
    unembed,
)
from .sympair import horizontal_lift, submersion_project
from .geodesic import (
    GeodesicTrajectory,
    ShootingError,
    distance,
    exp_map,
    exp_map_from,
    first_integrals,
    geodesic_residual,
    log_map,
    trajectory,
)
from .ahm import AhmPair, ahm_midpoint, interpolate, midpoint_N
from .laxflow import LaxSamples, integrate, lax_closed_form, verify_lax

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "AhmPair",
    "EigenError",
    "GaussianPoint",
    "GeodesicTrajectory",
    "LaxSamples",
    "NotSpdError",
    "ShootingError",
    "Tangent",
    "ahm_midpoint",
    "block_cholesky",
    "check_special_symmetry",
    "distance",
    "embed",
    "exp_map",
    "exp_map_from",
    "first_integrals",
    "fisher_numeric",
    "geodesic_residual",
    "horizontal_lift",
    "integrate",
    "interpolate",
    "lax_closed_form",
    "log_map",
    "metric_at_identity",
    "midpoint_N",
    "normalize_to_identity",
    "submersion_project",
    "tangent_norm",
    "trajectory",
    "unembed",
    "verify_lax",
]
