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
mean-iteration midpoint of its two lifted neighbours.  The work runs one
dyadic level at a time on stacked arrays: the iteration takes a leading
stack axis and runs a level's pairs together, each member stopping at its
own convergence (so it takes exactly the steps, and gives the bits, of a
run on its pair alone); the interior points are slice-checked, projected
and read out as one stack; and one eigendecomposition of the connecting
generator gives both the lifted endpoint and the trajectory that
cross-checks every point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import _first_failure, _frobenius, _require_count, _require_iteration, _require_memory, _spectral, require_spd, sym, sym_eigen
from .manifold import GaussianPoint, _apply_stacked, normalize_to_identity, read_embedded
from .geodesic import _sampled, log_map
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
        if self.P.shape != self.Q.shape:
            raise ValueError(f"P and Q must share a shape, got {self.P.shape} and {self.Q.shape}")

    def gap(self) -> float:
        return float(np.linalg.norm(self.Q - self.P))


def _step(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One arithmetic-harmonic step on plain arrays (or stacks of them), with the harmonic mean in its one-solve form."""
    s = p + q
    return 0.5 * s, sym(2.0 * p @ np.linalg.solve(s, q))


def _iterates(p: np.ndarray, q: np.ndarray, tol: float, max_iter: int):
    """Unchecked iterates of a stack of pairs ``(m, d, d)``, each member run to its first gap below ``tol`` (relative).

    Yields ``(p, q, done)`` for the members still running, with the list
    ``done`` marking those that stop at this iterate; they take no further
    step, so each member takes exactly the steps it would take alone (the
    gaps round like ``np.linalg.norm`` of each matrix).  A member still
    apart after ``max_iter`` steps raises ``RuntimeError`` with its gap.
    """
    for k in range(max_iter + 1):
        gaps = _frobenius(q - p).tolist()
        done = [gap <= tol * max(1.0, norm) for gap, norm in zip(gaps, _frobenius(p).tolist())]
        yield p, q, done
        if all(done):
            return
        if k < max_iter:
            if any(done):
                keep = np.logical_not(done)
                p, q = p[keep], q[keep]
            p, q = _step(p, q)
    raise RuntimeError(f"mean iteration did not converge in {max_iter} steps (gap {gaps[done.index(False)]:.3e})")


def _mean(p: np.ndarray, q: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Limits of the unchecked mean iteration from a stack of SPD pairs ``(m, d, d)``, member by member."""
    out, live = np.empty_like(p), np.arange(len(p))
    for p, q, done in _iterates(p, q, tol, max_iter):
        if any(done):
            stop = np.array(done)
            out[live[stop]] = 0.5 * (p[stop] + q[stop])
            live = live[~stop]
    return out


def ahm_sequence(p0: np.ndarray, q0: np.ndarray, tol: float = AHM_TOL, max_iter: int = AHM_MAX_ITER) -> list[AhmPair]:
    """All iterates from (p0, q0) until the gap falls below ``tol`` (relative), each one checked."""
    _require_iteration(tol, max_iter)
    first = AhmPair(P=p0, Q=q0)
    iterates = _iterates(first.P[None], first.Q[None], tol, max_iter)
    return [AhmPair(P=p[0], Q=q[0], iteration=k) for k, (p, q, _) in enumerate(iterates)]


def ahm_midpoint(p0: np.ndarray, q0: np.ndarray, tol: float = AHM_TOL, max_iter: int = AHM_MAX_ITER) -> np.ndarray:
    """Geodesic midpoint (matrix geometric mean) of an SPD pair; the inputs are checked once, the iterates not."""
    _require_iteration(tol, max_iter)
    pair = AhmPair(P=p0, Q=q0)
    return _mean(pair.P[None], pair.Q[None], tol, max_iter)[0]


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
    solve: the connecting tangent is shot once, and one eigendecomposition
    of its generator lifts the endpoints to the identity and its
    exponential.  Each dyadic point is the mean-iteration midpoint of its
    two lifted neighbours (points of one one-parameter group, so their
    geometric mean sits at the mean time); each level runs as one stacked
    iteration.  The interior points are then projected through the
    submersion as one stack, whose membership check verifies that each kept
    the exchange symmetry, read off, and cross-checked against the
    trajectory of the same tangent sampled from the same eigendecomposition,
    an independent computation.  A failure of either check is an
    ``ArithmeticError`` naming the first point that fails.  A ``depth`` or
    ``max_iter`` that is not a positive integer (a bool is not), a ``tol``
    that is not a positive finite number, and a depth whose lifted points
    could not fit in physical memory are ``ValueError``, raised first.
    """
    _require_iteration(tol, max_iter)
    _require_count(depth, "depth")
    order = 2 * p.n + 1
    # past depth 64 no address space holds the points
    _require_memory(8 * order * order * (2 ** min(depth, 64) + 1), f"interpolation to depth {depth}")
    count = 2 ** depth
    if p.close_to(q):
        return [p] * count + [q]
    xi = log_map(p, q)
    w, u = sym_eigen(horizontal_lift(xi))
    lifted = np.empty((count + 1, order, order))
    lifted[0], lifted[count] = np.eye(order), _spectral(u, np.exp(w))
    span = count
    while span > 1:
        # the level's pairs are (lifted[k], lifted[k + span]) at k = 0, span, ...; their midpoints land half-way
        half = span // 2
        lifted[half::span] = _mean(lifted[0:count:span], lifted[span::span], tol, max_iter)
        span = half
    try:
        projected = submersion_project(lifted[1:count])
    except ValueError as exc:
        raise ArithmeticError(f"mean iteration limit does not project: {exc}") from exc
    denorm = normalize_to_identity(p).inverse()
    sigmas, mus = _apply_stacked(denorm, *read_embedded(projected))
    reference = _sampled(w, u, np.arange(1, count) / count, denorm)
    deviation = np.linalg.norm(sigmas - reference.sigmas, axis=(1, 2)) + np.linalg.norm(mus - reference.mus, axis=1)
    scale = np.maximum(1.0, np.linalg.norm(reference.sigmas, axis=(1, 2)))
    k = _first_failure(deviation <= MIDPOINT_CROSSCHECK_TOL * scale)
    if k is not None:
        raise ArithmeticError(f"mean-iteration point at t={reference.ts[k]:g} disagrees with the exponential by {deviation[k]:.3e}")
    return [p, *map(GaussianPoint, sigmas, mus), q]
