"""Arithmetic-harmonic mean iteration and geodesic midpoints.

For SPD matrices the simultaneous recursion

    P' = (P + Q) / 2,        Q' = 2 (P^{-1} + Q^{-1})^{-1} = 2 P (P + Q)^{-1} Q

converges quadratically, from both sides in the definite order, to the
matrix geometric mean of the initial pair, which is the midpoint of the
connecting geodesic in the affine-invariant geometry.  The harmonic mean is
formed as ``sym(2 P solve(P + Q, Q))``, one solve and no inverse.  One step
contracts the gap exactly by

    Q' - P' = -1/2 (Q - P) (P + Q)^{-1} (Q - P),

a negative semidefinite quantity (the scalar pair (4, 1) maps to
(2.5, 1.6), so the sign is forced).  Two conserved structures matter for
the lifted geodesics: the product det(P) det(Q) is invariant step to step,
and once both initial matrices satisfy the exchange symmetry
``J X^{-1} J = X`` the involution swaps the iterates pairwise
(``J P_k^{-1} J = Q_k`` for k >= 1), so the common limit satisfies the
symmetry and projects back onto the normal manifold.  Individual iterates
drift off the symmetric slice (and off determinant one) by an amount of the
order of the current gap; only the limit restores both exactly.  Only the
inputs are checked; the iterates are plain arrays that nothing re-checks.

Midpoints of normal distributions are computed by lifting the endpoints to
the identity and the exponential of the connecting generator, running the
mean iteration upstairs, projecting, and undoing the normalization.  Dyadic
interpolation shares one such solve: each interior point is the
mean-iteration midpoint of its two lifted neighbours, and one batched
:func:`trajectory` of the same tangent cross-checks all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import require_spd, spd_sqrt, sym, sym_exp
from .manifold import GaussianPoint, normalize_to_identity, unembed
from .geodesic import log_map, trajectory
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


def _step(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One arithmetic-harmonic step on plain arrays, with the harmonic mean in its one-solve form."""
    s = p + q
    return 0.5 * s, sym(2.0 * p @ np.linalg.solve(s, q))


def _iterates(p: np.ndarray, q: np.ndarray, tol: float, max_iter: int):
    """Unchecked iterates from (p, q), up to the first whose gap is below ``tol`` (relative)."""
    for k in range(max_iter + 1):
        yield p, q
        gap = float(np.linalg.norm(q - p))
        if gap <= tol * max(1.0, float(np.linalg.norm(p))):
            return
        if k < max_iter:
            p, q = _step(p, q)
    raise RuntimeError(f"mean iteration did not converge in {max_iter} steps (gap {gap:.3e})")


def _mean(p: np.ndarray, q: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Limit of the unchecked mean iteration from an SPD pair."""
    for p, q in _iterates(p, q, tol, max_iter):
        pass
    return 0.5 * (p + q)


def ahm_step(pair: AhmPair) -> AhmPair:
    """One step of the arithmetic-harmonic recursion."""
    p, q = _step(pair.P, pair.Q)
    return AhmPair(P=p, Q=q, iteration=pair.iteration + 1)


def ahm_sequence(p0: np.ndarray, q0: np.ndarray, tol: float = AHM_TOL, max_iter: int = AHM_MAX_ITER) -> list[AhmPair]:
    """All iterates from (p0, q0) until the gap falls below ``tol`` (relative), each one checked."""
    first = AhmPair(P=p0, Q=q0)
    return [AhmPair(P=p, Q=q, iteration=k) for k, (p, q) in enumerate(_iterates(first.P, first.Q, tol, max_iter))]


def ahm_midpoint(p0: np.ndarray, q0: np.ndarray, tol: float = AHM_TOL, max_iter: int = AHM_MAX_ITER) -> np.ndarray:
    """Geodesic midpoint (matrix geometric mean) of an SPD pair; the inputs are checked once, the iterates not."""
    return _mean(require_spd(p0, name="P"), require_spd(q0, name="Q"), tol, max_iter)


def direct_midpoint(p0: np.ndarray, q0: np.ndarray) -> np.ndarray:
    """Closed-form geometric mean, the independent reference for the iteration."""
    root = spd_sqrt(require_spd(p0, name="P0"))
    inner = spd_sqrt(sym(np.linalg.solve(root, np.linalg.solve(root, q0).T).T))
    return sym(root @ inner @ root)


def midpoint_N(p: GaussianPoint, q: GaussianPoint, tol: float = AHM_TOL, max_iter: int = AHM_MAX_ITER) -> GaussianPoint:
    """Midpoint of the geodesic segment between two normal distributions.

    Pipeline: normalize ``p`` to the identity, shoot the connecting tangent,
    lift the endpoints to the identity matrix and the exponential of the
    generator, run the mean iteration upstairs, verify the limit kept the
    exchange symmetry, project, and denormalize.  The result is
    cross-checked against the halved exponential of the same tangent; the
    two routes are independent computations of one point.  This is the
    interior point of :func:`interpolate` at depth 1.
    """
    return interpolate(p, q, 1, tol=tol, max_iter=max_iter)[1]


def interpolate(
    p: GaussianPoint, q: GaussianPoint, depth: int, tol: float = AHM_TOL, max_iter: int = AHM_MAX_ITER
) -> list[GaussianPoint]:
    """Dyadic geodesic interpolation: 2**depth + 1 points from ``p`` to ``q``.

    Endpoints are returned exactly.  Interior points come from one shared
    solve: the connecting tangent is shot once, the endpoints are lifted to
    the identity and the exponential of its generator, and each dyadic point
    is the mean-iteration midpoint of its two lifted neighbours (points of
    one one-parameter group, so their geometric mean sits at the mean
    time).  Each interior point is projected through the submersion, whose
    membership check verifies that it kept the exchange symmetry, and
    cross-checked against one batched trajectory of the same tangent, an
    independent computation; a failure of either is an ``ArithmeticError``.
    """
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    count = 2 ** depth
    if p.close_to(q):
        return [p] * count + [q]
    xi = log_map(p, q)
    lifted = [None] * (count + 1)
    lifted[0], lifted[count] = np.eye(2 * xi.n + 1), sym_exp(horizontal_lift(xi))
    span = count
    while span > 1:
        for lo in range(0, count, span):
            lifted[lo + span // 2] = _mean(lifted[lo], lifted[lo + span], tol, max_iter)
        span //= 2
    try:
        projected = [submersion_project(g) for g in lifted[1:count]]
    except ValueError as exc:
        raise ArithmeticError(f"mean iteration limit does not project: {exc}") from exc
    denorm = normalize_to_identity(p).inverse()
    inner = [denorm.apply(unembed(g)) for g in projected]
    reference = trajectory(xi, np.arange(1, count) / count, basepoint=p)
    deviation = np.linalg.norm(np.array([pt.sigma for pt in inner]) - reference.sigmas, axis=(1, 2))
    deviation += np.linalg.norm(np.array([pt.mu for pt in inner]) - reference.mus, axis=1)
    scale = np.maximum(1.0, np.linalg.norm(reference.sigmas, axis=(1, 2)))
    k = int(np.argmax(deviation / scale))
    if deviation[k] > MIDPOINT_CROSSCHECK_TOL * scale[k]:
        raise ArithmeticError(f"mean-iteration point at t={reference.ts[k]:g} disagrees with the exponential by {deviation[k]:.3e}")
    return [p, *inner, q]
