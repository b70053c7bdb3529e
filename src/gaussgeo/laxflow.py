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
preallocated buffers: the right sides write into their stage slots in
place, and every state is one row of a single stacked array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import block_cholesky
from .manifold import Tangent
from .geodesic import _stencil_offset, lifted_exponential
from .sympair import horizontal_lift, split_orthogonal

DEFAULT_DT = 1e-3
CONSISTENCY_TOL = 1e-10
# integrate looks at the newest state for a blow-up once per this many steps
FINITE_CHECK_STEPS = 256


@dataclass(frozen=True)
class LaxState:
    """Evolving data of the flow: a general square block and a vector."""

    Q: np.ndarray
    r: np.ndarray

    @property
    def n(self) -> int:
        return self.Q.shape[0]


def build_L(state: LaxState, a0: np.ndarray) -> np.ndarray:
    """Lax matrix ``[[-Q, r, 0], [a0^T, 0, -r^T], [0, -a0, Q^T]]``."""
    return split_orthogonal(state.Q, state.r, a0, 0.0, 0.0)


def build_M(state: LaxState, a0: np.ndarray) -> np.ndarray:
    """Block lower-triangular projection of :func:`build_L` (the r-borders dropped)."""
    return split_orthogonal(state.Q, 0.0, a0, 0.0, 0.0)


def state_from_L(l: np.ndarray) -> LaxState:
    n = (l.shape[0] - 1) // 2
    return LaxState(Q=-l[:n, :n].copy(), r=l[:n, n].copy())


def rhs_bilinear(state: LaxState, a0: np.ndarray, out: LaxState) -> LaxState:
    """Right side of the bilinear form, (-r a0^T, Q r), written into ``out``."""
    np.multiply(state.r[:, None], -a0, out=out.Q)
    np.matmul(state.Q, state.r, out=out.r)
    return out


def rhs_riccati(state: LaxState, A0: np.ndarray, a0: np.ndarray, out: LaxState) -> LaxState:
    """Right side of the Riccati form, ((Q^2 - A0^2 - 2 a0 a0^T)/2, Q r), written into ``out``."""
    dq = np.matmul(state.Q, state.Q, out=out.Q)
    dq -= A0 @ A0
    dq -= 2.0 * np.outer(a0, a0)
    dq *= 0.5
    np.matmul(state.Q, state.r, out=out.r)
    return out


def integrate(rhs: str, xi: Tangent, t_end: float, dt: float = DEFAULT_DT) -> list[tuple[float, LaxState]]:
    """Fixed-step classical Runge-Kutta integration of the flow.

    ``rhs`` selects the explicit system (``"bilinear"`` or ``"riccati"``);
    the initial state is ``(A0, a0)`` from the tangent.  ``"riccati"``
    follows the Lax flow only for commuting data (``a0`` zero or an
    eigenvector of ``A0``); otherwise it departs from the bilinear solution
    (see the commutator identity in the module docstring).  The last sample
    lands on ``t_end`` exactly (a final partial step is allowed).  All
    states live in one ``(samples, n*n + n)`` array, filled step by step
    from preallocated stage buffers; each sample's ``Q`` and ``r`` are views
    of its row.

    Raises
    ------
    ArithmeticError
        If the state stops being finite (step size too large for the
        front's stiffness); the message reports the first such time.
    """
    if not (math.isfinite(t_end) and math.isfinite(dt)):
        raise ValueError(f"t_end and dt must be finite, got {t_end} and {dt}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    rights = {"bilinear": (rhs_bilinear, (xi.a0,)), "riccati": (rhs_riccati, (xi.A0, xi.a0))}
    if rhs not in rights:
        raise ValueError(f"unknown right side {rhs!r}; expected 'bilinear' or 'riccati'")
    right, coeffs = rights[rhs]
    n = xi.n
    nn = n * n

    def view(y: np.ndarray) -> LaxState:
        return LaxState(Q=y[:nn].reshape(n, n), r=y[nn:])

    # every step but the last (a partial step, or a sliver left by rounding)
    # is a full dt, so the rows fit in this buffer; it is cut to the rows filled
    ys = np.empty((math.ceil(t_end / dt) + 2, nn + n))
    ys[0] = np.concatenate((xi.A0, xi.a0), axis=None)
    times = [0.0]
    states = []  # a view of each row, made when a step first reads it
    stage = np.empty(nn + n)
    ks = np.empty((4, nn + n))
    k1, k2, k3, k4 = ks
    at_stage = view(stage)
    d1, d2, d3, d4 = (view(k) for k in ks)
    t, stop = 0.0, t_end - 1e-12 * max(1.0, t_end)
    # overflow is handled by the finiteness checks, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while t < stop:
            h = min(dt, t_end - t)
            t = min(t + h, t_end)
            j = len(states)
            y, y_next = ys[j], ys[j + 1]
            states.append(view(y))
            right(states[j], *coeffs, d1)
            np.add(y, np.multiply(k1, 0.5 * h, out=stage), out=stage)
            right(at_stage, *coeffs, d2)
            np.add(y, np.multiply(k2, 0.5 * h, out=stage), out=stage)
            right(at_stage, *coeffs, d3)
            np.add(y, np.multiply(k3, h, out=stage), out=stage)
            right(at_stage, *coeffs, d4)
            # y + (h/6) (((k1 + 2 k2) + 2 k3) + k4): the textbook order, so the bits
            # match a stepper that allocates every stage afresh
            k2 *= 2.0
            k3 *= 2.0
            np.add(k1, k2, out=y_next)
            y_next += k3
            y_next += k4
            y_next *= h / 6.0
            np.add(y, y_next, out=y_next)
            times.append(t)
            # a non-finite entry stays non-finite in every later step, so the
            # newest row shows a blow-up and the steps after it can be skipped
            if j % FINITE_CHECK_STEPS == FINITE_CHECK_STEPS - 1 and not np.isfinite(y_next).all():
                break
    ys = ys[:len(times)]
    bad = ~np.isfinite(ys).all(axis=1)
    if bad.any():
        raise ArithmeticError(f"flow stopped being finite at t = {times[int(np.argmax(bad))]:.6g}; reduce dt")
    return list(zip(times, states + [view(ys[-1])]))


def lax_pattern_residual(l: np.ndarray, a0: np.ndarray) -> float:
    """Deviation of a matrix from the sparse Lax form with constant borders."""
    n = (l.shape[0] - 1) // 2
    parts = [
        np.linalg.norm(l[:n, n + 1:]),            # upper-right block vanishes
        np.linalg.norm(l[n + 1:, :n]),            # lower-left block vanishes
        abs(float(l[n, n])),                      # center entry vanishes
        np.linalg.norm(l[n, :n] - a0),            # constant border row
        np.linalg.norm(l[n + 1:, n] + a0),        # constant border column
        np.linalg.norm(l[n, n + 1:] + l[:n, n]),  # the two r-borders match
        np.linalg.norm(l[n + 1:, n + 1:] + l[:n, :n].T),  # trailing block is Q^T
    ]
    return float(max(parts))


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


def verify_lax(samples: list[tuple[float, LaxState]], a0: np.ndarray, h: float) -> tuple[float, float]:
    """Commutator residual and spectral drift of an integrated flow.

    Central finite differences (step ``h``, a multiple of the sampling
    spacing) approximate ``L_dot``, compared against ``L M - M L``; the
    spectral drift is the worst deviation of ``trace(L^k)`` from its initial
    value for k up to the matrix order.
    """
    m = _stencil_offset(np.array([t for t, _ in samples]), h)

    qs = np.stack([s.Q for _, s in samples])
    ls = split_orthogonal(qs, np.stack([s.r for _, s in samples]), a0, 0.0, 0.0)
    ms = split_orthogonal(qs, 0.0, a0, 0.0, 0.0)

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
