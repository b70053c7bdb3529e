"""Isospectral (Toda-type) Lax flow attached to the lifted geodesics.

Factoring the lifted geodesic ``G(t) = exp(t V)`` into its block
lower/upper parts ``G = G1 G2`` and conjugating the generator,
``L(t) = G1(t)^{-1} V G1(t)``, produces a curve in the split orthogonal
algebra of the sparse form

    L = [ -Q    r    0  ]       M = [ -Q    0    0  ]
        [ a0^T  0  -r^T ]           [ a0^T  0    0  ]
        [  0   -a0  Q^T ]           [  0   -a0  Q^T ]

with ``M`` the block lower-triangular projection of ``L``.  The curve
solves the Lax equation ``L_dot = [L, M]``, which block by block is the
explicit system

    Q_dot = -r a0^T,  r_dot = Q r          (bilinear form)

from ``Q(0) = A0``, ``r(0) = a0``; conversely every solution with that
initial value is the conjugated curve above.  Along it ``Q_ddot = Q Q_dot``,
so ``d/dt (2 Q_dot - Q^2) = [Q, Q_dot]`` and

    2 Q_dot - Q^2 + A0^2 + 2 a0 a0^T = int_0^t [Q, Q_dot] ds.

The quadratic system

    2 Q_dot = Q^2 - A0^2 - 2 a0 a0^T,  r_dot = Q r   (Riccati form)

therefore matches the Lax flow exactly when ``[Q, Q_dot]`` vanishes, that
is when ``a0`` is zero or an eigenvector of ``A0`` (always for n = 1).
For other multivariate data its solutions leave the Lax orbit.

The flow preserves the spectrum of ``L``, monitored here through traces of
powers (similarity invariants that need no nonsymmetric eigensolver).  For
scalar data with ``A0 = 0`` the Riccati form integrates to
``Q(t) = -sqrt(2) a tanh(a t / sqrt(2))``, the classic saturating front of
the open Toda chain.

:func:`integrate` runs classical RK4 on the explicit system, sample k at
``k * dt`` (the last at ``t_end``), over preallocated buffers: the right
sides read fixed ``(Q, r)`` views of the state (updated in place) or stage
buffer and write into fixed views of the slope buffers, and each state is
copied into one row of a single array.  It returns the stacks
(:class:`LaxSamples`), which :func:`verify_lax` reads in blocks of
``matcore.VERIFY_BLOCK_BYTES`` per Lax stack, so its working set stays in
cache and does not grow with the sample count.  :func:`verify_checks` runs
all nine checks of ``gaussgeo verify`` (geodesic equations, first
integrals, the lift's exchange symmetry and block structure, the Lax
equation, isospectrality and the closed form) on a geodesic and flow that
the caller samples on that grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .matcore import _block_ldl, _require_memory, check_special_symmetry, special_structure_residuals, sym
from .manifold import Tangent
from .geodesic import GeodesicTrajectory, _blocks, _geodesic_checks, _stencil_offset, ambient_exponentials, lifted_exponential
from .sympair import horizontal_lift, split_orthogonal

DEFAULT_DT = 1e-3
CONSISTENCY_TOL = 1e-10
# integrate looks at the newest state for a blow-up once per this many steps
FINITE_CHECK_STEPS = 256
# 0.5 as a 0-d array, so rhs_riccati converts no float per call
_HALF = np.array(0.5)
_HALF.flags.writeable = False


def build_L(state: tuple[np.ndarray, np.ndarray], a0: np.ndarray) -> np.ndarray:
    """Lax matrix ``[[-Q, r, 0], [a0^T, 0, -r^T], [0, -a0, Q^T]]`` of the state ``(Q, r)``; stacked states give one per state."""
    return split_orthogonal(*state, a0, 0.0, 0.0)


def rhs_bilinear(q: np.ndarray, r: np.ndarray, neg_a0: np.ndarray, dq: np.ndarray, dr: np.ndarray) -> None:
    """Right side of the bilinear form, (-r a0^T, Q r), into C-contiguous ``dq`` and ``dr``; ``r``, ``dr`` are ``(n, 1)`` columns; takes ``-a0`` as a ``(1, n)`` row.

    ``Q r`` goes through the method ``ndarray.dot``: the same C product and
    BLAS call as ``np.dot``, without its Python-level dispatcher.
    """
    np.multiply(r, neg_a0, dq)
    q.dot(r, dr)


def rhs_riccati(
    q: np.ndarray, r: np.ndarray, a0_sq: np.ndarray, two_a0a0: np.ndarray, scratch: np.ndarray, dq: np.ndarray, dr: np.ndarray
) -> None:
    """Right side of the Riccati form, ((Q^2 - A0^2 - 2 a0 a0^T)/2, Q r), into C-contiguous ``dq``, ``dr``; ``r``, ``dr`` are ``(n, 1)`` columns; takes A0^2, 2 a0 a0^T.

    The terms pass between ``dq`` and the ``(n, n)`` buffer ``scratch``, so
    no ufunc writes into one of its inputs: numpy runs an aliased ufunc on a
    one-element array about twice as slowly.  The products go through the
    method ``ndarray.dot``, as in :func:`rhs_bilinear`.
    """
    q.dot(q, scratch)
    np.subtract(scratch, a0_sq, dq)
    np.subtract(dq, two_a0a0, scratch)
    np.multiply(scratch, _HALF, dq)
    q.dot(r, dr)


@dataclass(frozen=True)
class LaxSamples:
    """Integrated flow: times ``ts (T,)``, blocks ``Qs (T, n, n)``, vectors ``rs (T, n)``.

    ``len`` and ``[i]`` (giving ``(t, (Q, r))``) remain only for ``perfbench/``, which reads one sample; the package reads the stacks.
    """

    ts: np.ndarray
    Qs: np.ndarray
    rs: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, i: int) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
        return float(self.ts[i]), (self.Qs[i], self.rs[i])


def integrate(rhs: str, xi: Tangent, t_end: float, dt: float = DEFAULT_DT) -> LaxSamples:
    """Fixed-step classical Runge-Kutta integration of the flow.

    ``rhs`` selects the explicit system (``"bilinear"`` or ``"riccati"``);
    the initial state is ``(A0, a0)`` from the tangent.  ``"riccati"``
    follows the Lax flow only for commuting data (``a0`` zero or an
    eigenvector of ``A0``); otherwise it departs from the bilinear solution
    (see the commutator identity in the module docstring).  Sample ``k`` is
    at ``k * dt``, after ``k`` steps of exactly ``dt``; the last one is at
    ``t_end``, after a shorter step when more than ``1e-12 * max(1, t_end)``
    is left past the whole steps.
    Returns the stacked samples: the state is one fixed buffer, updated in
    place from preallocated stage and slope buffers and copied into one row
    of a single array per step; ``Qs`` and ``rs`` are views of its columns.
    The right sides take ``r`` and write ``dr`` as ``(n, 1)`` column views,
    and ``-a0`` as a ``(1, n)`` row.  Each step adds the slopes in turn,
    ``((k1 + 2 k2) + 2 k3) + k4``, so the samples have the bits of textbook
    RK4, signed zeros included.

    Raises
    ------
    ArithmeticError
        If the state stops being finite (step size too large for the
        front's stiffness); the message reports the first such time.
    ValueError
        For a non-finite or negative time, a nonpositive step, an unknown
        right side, or a step count whose state array could not fit in
        physical memory (raised before it is allocated).
    """
    if not (math.isfinite(t_end) and math.isfinite(dt)):
        raise ValueError(f"t_end and dt must be finite, got {t_end} and {dt}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if rhs == "bilinear":
        right, coeffs = rhs_bilinear, (-xi.a0[None, :],)
    elif rhs == "riccati":
        right, coeffs = rhs_riccati, (xi.A0 @ xi.A0, 2.0 * np.outer(xi.a0, xi.a0), np.empty((xi.n, xi.n)))
    else:
        raise ValueError(f"unknown right side {rhs!r}; expected 'bilinear' or 'riccati'")
    n = xi.n
    nn = n * n
    _require_memory(t_end / dt + 2.0, nn + n + 1, f"integrating to t_end = {t_end:g} at dt = {dt:g}")
    # full steps of dt, then a shorter last one unless what is left is a rounding sliver
    full = math.floor(t_end / dt)
    steps = full + (t_end - full * dt > 1e-12 * max(1.0, t_end))
    ys = np.empty((steps + 1, nn + n))
    ts = np.arange(steps + 1, dtype=float)
    ts *= dt
    ts[-1] = t_end
    ys[0] = y = np.concatenate((xi.A0, xi.a0), axis=None)
    stage = np.empty(nn + n)
    ks = np.empty((4, nn + n))
    k1, k2, k3, k4 = ks
    mid = ks[1:3]
    # the right sides read fixed (Q, r) views of the state (stage 1) or of the
    # stage buffer (stages 2-4) and write into fixed views of the slope rows,
    # with r as an (n, 1) column, so every stage's arguments are one prebuilt tuple
    first, second, third, fourth = (
        (x[:nn].reshape(n, n), x[nn:].reshape(n, 1), *coeffs, k[:nn].reshape(n, n), k[nn:].reshape(n, 1))
        for x, k in zip((y, stage, stage, stage), ks)
    )
    add, multiply = np.add, np.multiply
    # each step's fractions (h/2, h, h/6) as 0-d arrays, so no step converts a float
    full_step, last_step = ((np.array(0.5 * h), np.array(h), np.array(h / 6.0)) for h in (dt, t_end - full * dt))
    schedule = chain(repeat(full_step, full), repeat(last_step, steps - full))
    j = 0
    # overflow is handled by the finiteness checks, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (half, whole, sixth) in enumerate(schedule, 1):
            right(*first)
            add(y, multiply(k1, half, stage), stage)
            right(*second)
            add(y, multiply(k2, half, stage), stage)
            right(*third)
            add(y, multiply(k3, whole, stage), stage)
            right(*fourth)
            # y + (h/6) (((k1 + 2 k2) + 2 k3) + k4), added in turn as the textbook
            # writes it, so the bits (signed zeros included) match a stepper that
            # allocates every stage afresh; 2 k = k + k exactly
            add(mid, mid, mid)
            add(k1, k2, stage)
            add(stage, k3, stage)
            add(stage, k4, stage)
            multiply(stage, sixth, stage)
            add(y, stage, y)
            ys[j] = y
            # a non-finite entry stays non-finite in every later step, so the
            # newest state shows a blow-up and the steps after it can be skipped
            if j % FINITE_CHECK_STEPS == 0 and not np.isfinite(y).all():
                break
    # the rows up to the last check that passed are finite; only those after it can fail
    lo = max(0, j - FINITE_CHECK_STEPS)
    bad = ~np.isfinite(ys[lo:j + 1]).all(axis=1)
    if bad.any():
        raise ArithmeticError(f"flow stopped being finite at t = {ts[lo + int(np.argmax(bad))]:.6g}; reduce dt")
    return LaxSamples(ts=ts, Qs=ys[:, :nn].reshape(-1, n, n), rs=ys[:, nn:])


def lax_pattern_residual(l: np.ndarray, a0: np.ndarray) -> float:
    """Frobenius distance of a matrix from the sparse Lax form with constant borders: from :func:`build_L` of its own ``(Q, r)``."""
    n = (l.shape[0] - 1) // 2
    return float(np.linalg.norm(l - build_L((-l[:n, :n], l[:n, n]), a0)))


def lax_closed_form(xi: Tangent, t: float) -> np.ndarray:
    """Conjugated-generator solution of the Lax equation at time ``t``.

    Factors ``exp(t V) = G1 G2`` through the block LDL^T, conjugates the
    generator by ``G1^{-1}``, cross-checks against the (equivalent)
    conjugation by ``G2``, and validates the sparse form.
    """
    v = horizontal_lift(xi)
    m, d = _block_ldl(lifted_exponential(v, t))  # exactly symmetric, of odd order
    g1 = m @ d
    l = np.linalg.solve(g1, v @ g1)
    g2 = m.T
    l_alt = g2 @ v @ np.linalg.inv(g2)
    scale = max(1.0, float(np.linalg.norm(l)))
    if np.linalg.norm(l - l_alt) > CONSISTENCY_TOL * scale:
        raise ArithmeticError("the two conjugation routes disagree; factorization is inconsistent")
    if lax_pattern_residual(l, xi.a0) > CONSISTENCY_TOL * scale:
        raise ArithmeticError("conjugated generator lost the sparse Lax form")
    return l


def _lax_block(samples: LaxSamples, a0: np.ndarray, h: float, m: int, start: int, stop: int) -> tuple[float, np.ndarray]:
    """Worst commutator residual at the centres in ``[start, stop)`` (``-inf`` if none has a full stencil) and the ``(order, stop - start)`` traces of ``L^k`` there.

    ``L`` is built on the block and its halo of ``m`` samples a side, as far
    as they exist; ``M`` is its copy with ``+0.0`` in the r-column and
    ``-0.0`` in the r-row (as ``split_orthogonal`` writes them).  With reused
    buffers, at most five stacks of the block's size are live.
    """
    size, n = samples.Qs.shape[0], samples.Qs.shape[-1]
    lo = max(0, start - m)
    ls = build_L((samples.Qs[lo:stop + m], samples.rs[lo:stop + m]), a0)
    ms = ls.copy()
    ms[:, :n, n], ms[:, n, n + 1:] = 0.0, -0.0

    comm_residual = -np.inf
    first, last = max(start, m) - lo, min(stop, size - m) - lo  # the centres, as rows of ls
    if first < last:
        center_l, center_m = ls[first:last], ms[first:last]
        residual = np.subtract(ls[first + m:last + m], ls[first - m:last - m])
        np.divide(residual, 2.0 * h, out=residual)
        bracket = np.matmul(center_l, center_m)
        np.subtract(residual, np.subtract(bracket, np.matmul(center_m, center_l), out=bracket), out=residual)
        del bracket  # the norm takes two temporaries of this size
        comm_residual = np.max(np.linalg.norm(residual, axis=(1, 2)))

    # L^k = L^(k-1) L on the block's own samples, written into ms and one more buffer in turn
    own = ls[start - lo:stop - lo]
    powers, buffers = own, (ms[:len(own)], np.empty_like(own))
    traces = [own.trace(axis1=1, axis2=2)]
    for k in range(own.shape[1] - 1):
        powers = np.matmul(powers, own, out=buffers[k % 2])
        traces.append(powers.trace(axis1=1, axis2=2))
    return comm_residual, np.stack(traces)


def verify_lax(samples: LaxSamples, a0: np.ndarray, h: float) -> tuple[float, float]:
    """Commutator residual and spectral drift of an integrated flow.

    Central finite differences (step ``h``, a multiple of the sampling
    spacing) approximate ``L_dot``, compared against ``L M - M L``; the
    spectral drift is the worst deviation of ``trace(L^k)`` from its initial
    value for k up to the matrix order.  ``M`` is :func:`build_L`'s stack
    with the r-borders zeroed.  The samples are taken in blocks of
    ``matcore.VERIFY_BLOCK_BYTES`` per Lax stack (at least one sample), so
    the working set does not grow with the sample count; every per-sample
    value has the bits of one pass over all samples, and a NaN in any block
    is the result.
    """
    m = _stencil_offset(samples.ts, h)
    size, n = samples.Qs.shape[0], samples.Qs.shape[-1]
    comm_residual = drift = -np.inf
    for start, stop in _blocks(size, 8 * (2 * n + 1) ** 2):
        comm, traces = _lax_block(samples, a0, h, m, start, stop)
        if start == 0:
            initial = traces[:, :1]
        # np.maximum, unlike Python's max, keeps a NaN from any block
        comm_residual = np.maximum(comm_residual, comm)
        drift = np.maximum(drift, np.max(np.abs(traces - initial)))
    return float(comm_residual), float(drift)


def verify_checks(xi: Tangent, traj: GeodesicTrajectory, samples: LaxSamples, h: float) -> dict[str, float]:
    """The nine checks of ``gaussgeo verify`` on the geodesic ``traj`` and the flow ``samples`` of ``xi``, built (and perturbed) by the caller.

    Both are sampled on the flow's grid ``k * h``.  One walk over the central
    differences (step ``h``), in cache-sized blocks, gives the geodesic
    residual and both drifts; the lifted matrices at every
    ``(T - 1) // 40``-th grid time give the exchange symmetry, determinant
    and block-factor checks; :func:`verify_lax` and the closed form at the
    last grid time check the flow.
    """
    values = dict(zip(("geodesic_residual", "first_integral_drift_a", "first_integral_drift_A"), _geodesic_checks(traj, h)))
    ambient = ambient_exponentials(xi, traj.ts[:: max(1, (len(traj.ts) - 1) // 40)])
    values["exchange_symmetry"] = float(np.max(check_special_symmetry(ambient)))
    values["det_drift"] = float(np.max(np.abs(np.linalg.det(ambient) - 1.0)))
    # the symmetry and order checks of the factorization ran in check_special_symmetry
    values["block_structure"] = float(max(max(special_structure_residuals(*_block_ldl(g)).values()) for g in sym(ambient)))
    values["lax_commutator_residual"], values["lax_spectral_drift"] = verify_lax(samples, xi.a0, h)
    l_last = build_L((samples.Qs[-1], samples.rs[-1]), xi.a0)
    values["lax_closed_form_agreement"] = float(np.linalg.norm(l_last - lax_closed_form(xi, samples.ts[-1])))
    return values
