"""Arithmetic-harmonic mean iteration and geodesic midpoints.

For SPD matrices the simultaneous recursion

    P' = (P + Q) / 2,        Q' = 2 (P^{-1} + Q^{-1})^{-1} = 2 P (P + Q)^{-1} Q

converges quadratically, from both sides in the definite order, to the
matrix geometric mean of the initial pair, which is the midpoint of the
connecting geodesic in the affine-invariant geometry.  The harmonic mean is
formed as ``H + H^T`` with ``H = P solve(P + Q, Q)``, one solve and no
inverse.  One step contracts the gap exactly by

    Q' - P' = -1/2 (Q - P) (P + Q)^{-1} (Q - P),

a negative semidefinite quantity (the scalar pair (4, 1) maps to
(2.5, 1.6), so the sign is forced).  Two conserved structures matter for
the lifted geodesics: the product det(P) det(Q) is invariant step to step,
and once both initial matrices satisfy the exchange symmetry
``J X^{-1} J = X`` the involution swaps the iterates pairwise
(``J P_k^{-1} J = Q_k`` for k >= 1), so the common limit satisfies the
symmetry and projects back onto the normal manifold.  Individual iterates
drift off the symmetric slice (and off determinant one) by an amount of the
order of the current gap; only the limit restores both exactly.  The state
is the plain pair ``(P, Q)`` or a stack of them; only the inputs are checked.

Midpoints of normal distributions are computed by lifting the endpoints to
the identity and the exponential of the connecting generator, running the
mean iteration upstairs, projecting, and undoing the normalization.  Dyadic
interpolation shares one such solve: each interior point is the
mean-iteration midpoint of its two lifted neighbours.  The work runs one
dyadic level at a time on stacked arrays: the iteration takes a leading
stack axis and runs a level's pairs together, each member stopping at its
own convergence (so it takes exactly the steps, and gives the bits, of a
run on its pair alone); the interior points are slice-checked, projected
and read out as one stack, with one corner test per point, and the
points' constructor checks run once over the stacked covariances and
means.  The log solve hands over its chart at ``p``, the eigenpair of the
connecting generator from its last accepted trial and the ``exp(V)`` it
validated: the chart denormalizes the points, ``exp(V)`` is the lifted
endpoint, and the eigenpair gives the trajectory that cross-checks them.
"""

from __future__ import annotations

import numpy as np

from .matcore import _first_failure, _frobenius, _require_count, _require_iteration, _require_memory, require_spd
from .manifold import GaussianPoint, _apply_stacked, _points, read_embedded
from .geodesic import LOG_MAX_ITER, LOG_TOL, _log_solve, _sampled
from .sympair import _projected

AHM_TOL = 1e-12
AHM_MAX_ITER = 60
MIDPOINT_CROSSCHECK_TOL = 1e-8


def _step(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One arithmetic-harmonic step on plain arrays (or stacks of them), with the harmonic mean in its one-solve form.

    The harmonic mean is ``h + h^T`` with ``h = P solve(P + Q, Q)``: the bits
    of ``sym(2 h)``, because scaling by 2 and by 1/2 is exact.
    """
    s = p + q
    h = p @ np.linalg.solve(s, q)
    return 0.5 * s, h + h.swapaxes(-1, -2)


def _mean(p: np.ndarray, q: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Limits of the unchecked mean iteration from a stack of SPD pairs ``(m, d, d)``, member by member.

    A member stops at its first gap below ``tol`` (relative), so it takes the
    steps it takes alone (the gaps round like ``np.linalg.norm`` of each
    matrix); one still apart after ``max_iter`` steps raises ``RuntimeError`` with its gap.
    """
    out, live = np.empty_like(p), np.arange(len(p))
    for k in range(max_iter + 1):
        gaps = _frobenius(q - p)
        done = gaps <= tol * np.maximum(1.0, _frobenius(p))
        if done.any():
            out[live[done]] = 0.5 * (p[done] + q[done])
            if done.all():
                return out
            keep = ~done
            live, p, q = live[keep], p[keep], q[keep]
        if k < max_iter:
            p, q = _step(p, q)
    raise RuntimeError(f"mean iteration did not converge in {max_iter} steps (gap {gaps[np.argmin(done)]:.3e})")


def ahm_midpoint(p0: np.ndarray, q0: np.ndarray, tol: float = AHM_TOL, max_iter: int = AHM_MAX_ITER) -> np.ndarray:
    """Geodesic midpoint (matrix geometric mean) of an SPD pair; the inputs are checked once, the iterates not."""
    _require_iteration(tol, max_iter)
    p, q = require_spd(p0, name="P"), require_spd(q0, name="Q")
    if p.shape != q.shape:
        raise ValueError(f"P and Q must share a shape, got {p.shape} and {q.shape}")
    return _mean(p[None], q[None], tol, max_iter)[0]


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
    solve: the connecting tangent is shot once (with :func:`log_map`'s
    defaults), and the endpoints lift to the identity and the exponential of
    its generator that the solve validated; the solve's chart at ``p``
    undoes the normalization.  Each dyadic point is
    the mean-iteration midpoint of its two lifted neighbours (points of one
    one-parameter group, so their geometric mean sits at the mean time);
    each level runs as one stacked iteration.  The interior points are then
    projected through the submersion as one stack, whose membership check
    verifies that each kept the exchange symmetry, read off (one corner test
    per point serves the projection and the read-out), and cross-checked
    against the trajectory of the same tangent sampled from the same
    eigendecomposition, an independent computation.  A failure of either
    check is an ``ArithmeticError`` naming the first point that fails.  The
    returned points are checked as one stack, like their constructor would
    check each.  A ``depth`` or ``max_iter`` that is not a positive integer
    (a bool is not), a ``tol`` that is not a positive finite number, and a
    depth whose lifted points could not fit in physical memory are
    ``ValueError``, raised first.
    """
    _require_iteration(tol, max_iter)
    _require_count(depth, "depth")
    order = 2 * p.n + 1
    # per point (none past depth 64 fits an address space): about five lifted stacks and the point (tracemalloc)
    _require_memory(2 ** min(depth, 64) + 1, 6 * order * order + 32, f"interpolation to depth {depth}")
    count = 2 ** depth
    if p.close_to(q):
        return [p] * count + [q]
    # log_map's defaults; its chart at p, its generator's eigenpair and its validated exp(V) serve the rest
    _, chart, w, u, g = _log_solve(p, q, LOG_TOL, LOG_MAX_ITER)
    lifted = np.empty((count + 1, order, order))
    lifted[0], lifted[count] = np.eye(order), g
    span = count
    while span > 1:
        # the level's pairs are (lifted[k], lifted[k + span]) at k = 0, span, ...; their midpoints land half-way
        half = span // 2
        lifted[half::span] = _mean(lifted[0:count:span], lifted[span::span], tol, max_iter)
        span = half
    try:
        projected, corner = _projected(lifted[1:count])
    except ValueError as exc:
        raise ArithmeticError(f"mean iteration limit does not project: {exc}") from exc
    denorm = chart.inverse()
    sigmas, mus = _apply_stacked(denorm, *read_embedded(projected, residual=corner))
    reference = _sampled(w, u, np.arange(1, count) / count, denorm)
    deviation = np.linalg.norm(sigmas - reference.sigmas, axis=(1, 2)) + np.linalg.norm(mus - reference.mus, axis=1)
    scale = np.maximum(1.0, np.linalg.norm(reference.sigmas, axis=(1, 2)))
    k = _first_failure(deviation <= MIDPOINT_CROSSCHECK_TOL * scale)
    if k is not None:
        raise ArithmeticError(f"mean-iteration point at t={reference.ts[k]:g} disagrees with the exponential by {deviation[k]:.3e}")
    return [p, *_points(sigmas, mus), q]
