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

:func:`integrate` runs classical RK4 on the explicit system over
preallocated buffers: the right sides write into fixed ``(Q, r)`` views of
the stage and slope buffers, and every state is one row of a single array.
It returns the stacks (:class:`LaxSamples`), which :func:`verify_lax` reads
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import _require_memory, block_cholesky
from .manifold import Tangent
from .geodesic import _stencil_offset, lifted_exponential
from .sympair import horizontal_lift, split_orthogonal

DEFAULT_DT = 1e-3
CONSISTENCY_TOL = 1e-10
# integrate looks at the newest state for a blow-up once per this many steps
FINITE_CHECK_STEPS = 256


def build_L(state: tuple[np.ndarray, np.ndarray], a0: np.ndarray) -> np.ndarray:
    """Lax matrix ``[[-Q, r, 0], [a0^T, 0, -r^T], [0, -a0, Q^T]]`` of the state ``(Q, r)``; stacked states give one per state."""
    return split_orthogonal(*state, a0, 0.0, 0.0)


def build_M(state: tuple[np.ndarray, np.ndarray], a0: np.ndarray) -> np.ndarray:
    """Block lower-triangular projection of :func:`build_L` (the r-borders dropped)."""
    return split_orthogonal(state[0], 0.0, a0, 0.0, 0.0)


def rhs_bilinear(q: np.ndarray, r: np.ndarray, neg_a0: np.ndarray, dq: np.ndarray, dr: np.ndarray) -> None:
    """Right side of the bilinear form, (-r a0^T, Q r), written into C-contiguous ``dq`` and ``dr``; takes ``-a0``."""
    np.multiply(r[:, None], neg_a0, dq)
    np.dot(q, r, dr)


def rhs_riccati(q: np.ndarray, r: np.ndarray, a0_sq: np.ndarray, two_a0a0: np.ndarray, dq: np.ndarray, dr: np.ndarray) -> None:
    """Right side of the Riccati form, ((Q^2 - A0^2 - 2 a0 a0^T)/2, Q r), into C-contiguous ``dq``, ``dr``; takes A0^2, 2 a0 a0^T."""
    np.dot(q, q, dq)
    dq -= a0_sq
    dq -= two_a0a0
    dq *= 0.5
    np.dot(q, r, dr)


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
    (see the commutator identity in the module docstring).  The last sample
    lands on ``t_end`` exactly (a final partial step is allowed).  Returns
    the stacked samples: every state is one row of a single array, filled
    step by step from preallocated stage and slope buffers, and ``Qs`` and
    ``rs`` are views of its columns.

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
        right, coeffs = rhs_bilinear, (-xi.a0,)
    elif rhs == "riccati":
        right, coeffs = rhs_riccati, (xi.A0 @ xi.A0, 2.0 * np.outer(xi.a0, xi.a0))
    else:
        raise ValueError(f"unknown right side {rhs!r}; expected 'bilinear' or 'riccati'")
    n = xi.n
    nn = n * n
    _require_memory(8.0 * (t_end / dt + 2.0) * (nn + n), f"integrating to t_end = {t_end:g} at dt = {dt:g}")
    # every step but the last (a partial step, or a sliver left by rounding)
    # is a full dt, so the rows fit in this buffer; it is cut to the rows filled
    ys = np.empty((math.ceil(t_end / dt) + 2, nn + n))
    ys[0] = np.concatenate((xi.A0, xi.a0), axis=None)
    qs, rs = ys[:, :nn].reshape(-1, n, n), ys[:, nn:]
    times = [0.0]
    stage = np.empty(nn + n)
    ks = np.empty((4, nn + n))
    k1, k2, k3, _ = ks
    # the right sides write into fixed (Q, r) views of the slope rows; stages
    # 2-4 read fixed views of the stage buffer, so their arguments are fixed too
    first, *later = ((*coeffs, k[:nn].reshape(n, n), k[nn:]) for k in ks)
    second, third, fourth = ((stage[:nn].reshape(n, n), stage[nn:], *d) for d in later)
    t, stop = 0.0, t_end - 1e-12 * max(1.0, t_end)
    # overflow is handled by the finiteness checks, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while t < stop:
            h = min(dt, t_end - t)
            t = min(t + h, t_end)
            j = len(times) - 1
            y, y_next = ys[j], ys[j + 1]
            right(qs[j], rs[j], *first)
            np.add(y, np.multiply(k1, 0.5 * h, stage), stage)
            right(*second)
            np.add(y, np.multiply(k2, 0.5 * h, stage), stage)
            right(*third)
            np.add(y, np.multiply(k3, h, stage), stage)
            right(*fourth)
            # y + (h/6) (((k1 + 2 k2) + 2 k3) + k4): the textbook order (the reduce
            # adds the rows in turn), so the bits match a stepper that allocates
            # every stage afresh
            ks[1:3] *= 2.0
            np.add.reduce(ks, axis=0, out=y_next)
            y_next *= h / 6.0
            np.add(y, y_next, y_next)
            times.append(t)
            # a non-finite entry stays non-finite in every later step, so the
            # newest row shows a blow-up and the steps after it can be skipped
            if j % FINITE_CHECK_STEPS == FINITE_CHECK_STEPS - 1 and not np.isfinite(y_next).all():
                break
    size = len(times)
    bad = ~np.isfinite(ys[:size]).all(axis=1)
    if bad.any():
        raise ArithmeticError(f"flow stopped being finite at t = {times[int(np.argmax(bad))]:.6g}; reduce dt")
    return LaxSamples(ts=np.array(times), Qs=qs[:size], rs=rs[:size])


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
    m, d = block_cholesky(lifted_exponential(v, t))
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


def verify_lax(samples: LaxSamples, a0: np.ndarray, h: float) -> tuple[float, float]:
    """Commutator residual and spectral drift of an integrated flow.

    Central finite differences (step ``h``, a multiple of the sampling
    spacing) approximate ``L_dot``, compared against ``L M - M L``; the
    spectral drift is the worst deviation of ``trace(L^k)`` from its initial
    value for k up to the matrix order.
    """
    m = _stencil_offset(samples.ts, h)
    states = (samples.Qs, samples.rs)
    ls, ms = build_L(states, a0), build_M(states, a0)

    ldot = (ls[2 * m:] - ls[:-2 * m]) / (2.0 * h)
    center_l = ls[m:-m]
    center_m = ms[m:-m]
    bracket = center_l @ center_m - center_m @ center_l
    comm_residual = float(np.max(np.linalg.norm(ldot - bracket, axis=(1, 2))))

    order = ls.shape[1]
    powers = ls.copy()
    traces = [np.trace(powers, axis1=1, axis2=2)]
    for _ in range(order - 1):
        powers = powers @ ls
        traces.append(np.trace(powers, axis1=1, axis2=2))
    traces = np.stack(traces)  # (order, samples)
    drift = float(np.max(np.abs(traces - traces[:, :1])))
    return comm_residual, drift
