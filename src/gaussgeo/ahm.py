"""Arithmetic-harmonic mean iteration and geodesic midpoints.

For SPD matrices the simultaneous recursion

    P' = (P + Q) / 2,        Q' = 2 (P^{-1} + Q^{-1})^{-1}

converges quadratically, from both sides in the definite order, to the
matrix geometric mean of the initial pair, which is the midpoint of the
connecting geodesic in the affine-invariant geometry.  One step contracts
the gap exactly by

    Q' - P' = -1/2 (Q - P) (P + Q)^{-1} (Q - P),

a negative semidefinite quantity (the scalar pair (4, 1) maps to
(2.5, 1.6), so the sign is forced).  Two conserved structures matter for
the lifted geodesics: the product det(P) det(Q) is invariant step to step,
and once both initial matrices satisfy the exchange symmetry
``J X^{-1} J = X`` the involution swaps the iterates pairwise
(``J P_k^{-1} J = Q_k`` for k >= 1), so the common limit satisfies the
symmetry and projects back onto the normal manifold.  Individual iterates
drift off the symmetric slice (and off determinant one) by an amount of the
order of the current gap; only the limit restores both exactly.

Midpoints of normal distributions are computed by lifting the endpoints to
the identity and the exponential of the connecting generator, running the
mean iteration upstairs, projecting, and undoing the normalization; the
halved exponential provides an independent cross-check of the same point.
Dyadic interpolation shares one such solve: each interior point is the
mean-iteration midpoint of its two lifted neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import require_spd, spd_inv, spd_sqrt, sym, sym_exp
from .manifold import AffineMap, GaussianPoint, Tangent, normalize_to_identity, unembed
from .geodesic import exp_map, log_map
from .sympair import horizontal_lift, submersion_project

AHM_TOL = 1e-12
AHM_MAX_ITER = 60
MIDPOINT_CROSSCHECK_TOL = 1e-8


@dataclass(frozen=True)
class AhmPair:
    """State of the mean iteration: the SPD pair (checked once, kept read-only) and the iteration count."""

    P: np.ndarray
    Q: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        for name in ("P", "Q"):
            a = require_spd(getattr(self, name), name=name)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def gap(self) -> float:
        return float(np.linalg.norm(self.Q - self.P))


def ahm_step(pair: AhmPair) -> AhmPair:
    """One step of the arithmetic-harmonic recursion."""
    p, q = pair.P, pair.Q
    return AhmPair(P=0.5 * (p + q), Q=2.0 * spd_inv(spd_inv(p) + spd_inv(q)), iteration=pair.iteration + 1)


def gap_identity_residual(before: AhmPair, after: AhmPair) -> float:
    """Residual of the exact one-step gap contraction identity."""
    delta = before.Q - before.P
    predicted = -0.5 * delta @ np.linalg.solve(before.P + before.Q, delta)
    return float(np.linalg.norm((after.Q - after.P) - sym(predicted)))


def ahm_sequence(p0: np.ndarray, q0: np.ndarray, tol: float = AHM_TOL, max_iter: int = AHM_MAX_ITER) -> list[AhmPair]:
    """All iterates from (p0, q0) until the gap falls below ``tol`` (relative)."""
    pair = AhmPair(P=p0, Q=q0)
    out = [pair]
    for _ in range(max_iter):
        if pair.gap() <= tol * max(1.0, float(np.linalg.norm(pair.P))):
            return out
        pair = ahm_step(pair)
        out.append(pair)
    if pair.gap() <= tol * max(1.0, float(np.linalg.norm(pair.P))):
        return out
    raise RuntimeError(f"mean iteration did not converge in {max_iter} steps (gap {pair.gap():.3e})")


def ahm_midpoint(p0: np.ndarray, q0: np.ndarray, tol: float = AHM_TOL, max_iter: int = AHM_MAX_ITER) -> np.ndarray:
    """Geodesic midpoint (matrix geometric mean) of an SPD pair."""
    final = ahm_sequence(p0, q0, tol=tol, max_iter=max_iter)[-1]
    return 0.5 * (final.P + final.Q)


def direct_midpoint(p0: np.ndarray, q0: np.ndarray) -> np.ndarray:
    """Closed-form geometric mean, the independent reference for the iteration."""
    root = spd_sqrt(require_spd(p0, name="P0"))
    inner = spd_sqrt(sym(np.linalg.solve(root, np.linalg.solve(root, q0).T).T))
    return sym(root @ inner @ root)


def _checked_point(lifted: np.ndarray, xi: Tangent, t: float, denorm: AffineMap) -> GaussianPoint:
    """Project a mean-iteration limit and cross-check it against ``exp_map(xi, t)``.

    Projects the limit through the submersion, whose membership check
    verifies that it kept the exchange symmetry, and denormalizes it with
    ``denorm``; the exponential of the same tangent at the same time is an
    independent computation of the point.  A limit that fails the
    projection's checks is a numerical failure, not an input error.
    """
    try:
        projected = submersion_project(lifted)
    except ValueError as exc:
        raise ArithmeticError(f"mean iteration limit does not project: {exc}") from exc
    result = denorm.apply(unembed(projected))
    reference = denorm.apply(exp_map(xi, t))
    deviation = float(np.linalg.norm(result.sigma - reference.sigma)) + float(np.linalg.norm(result.mu - reference.mu))
    scale = max(1.0, float(np.linalg.norm(reference.sigma)))
    if deviation > MIDPOINT_CROSSCHECK_TOL * scale:
        raise ArithmeticError(f"mean-iteration point at t={t:g} disagrees with the exponential by {deviation:.3e}")
    return result


def midpoint_N(p: GaussianPoint, q: GaussianPoint, tol: float = AHM_TOL, max_iter: int = AHM_MAX_ITER, **log_opts) -> GaussianPoint:
    """Midpoint of the geodesic segment between two normal distributions.

    Pipeline: normalize ``p`` to the identity, shoot the connecting tangent,
    lift the endpoints to the identity matrix and the exponential of the
    generator, run the mean iteration upstairs, verify the limit kept the
    exchange symmetry, project, and denormalize.  The result is
    cross-checked against the halved exponential of the same tangent; the
    two routes are independent computations of one point.
    """
    if p.close_to(q):
        return p
    xi = log_map(p, q, **log_opts)
    lifted_mid = ahm_midpoint(np.eye(2 * xi.n + 1), sym_exp(horizontal_lift(xi)), tol=tol, max_iter=max_iter)
    return _checked_point(lifted_mid, xi, 0.5, normalize_to_identity(p).inverse())


def interpolate(
    p: GaussianPoint, q: GaussianPoint, depth: int, tol: float = AHM_TOL, max_iter: int = AHM_MAX_ITER, **log_opts
) -> list[GaussianPoint]:
    """Dyadic geodesic interpolation: 2**depth + 1 points from ``p`` to ``q``.

    Endpoints are returned exactly.  Interior points come from one shared
    solve: the connecting tangent is shot once, the endpoints are lifted to
    the identity and the exponential of its generator, and each dyadic point
    is the mean-iteration midpoint of its two lifted neighbours (points of
    one one-parameter group, so their geometric mean sits at the mean
    time).  Every interior point gets the checks of :func:`midpoint_N`.
    """
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    count = 2 ** depth
    if p.close_to(q):
        return [p] * count + [q]
    xi = log_map(p, q, **log_opts)
    lifted = [None] * (count + 1)
    lifted[0], lifted[count] = np.eye(2 * xi.n + 1), sym_exp(horizontal_lift(xi))
    points = [p] + [None] * (count - 1) + [q]
    denorm = normalize_to_identity(p).inverse()
    span = count
    while span > 1:
        for lo in range(0, count, span):
            mid = lo + span // 2
            lifted[mid] = ahm_midpoint(lifted[lo], lifted[lo + span], tol=tol, max_iter=max_iter)
            points[mid] = _checked_point(lifted[mid], xi, mid / count, denorm)
        span //= 2
    return points
