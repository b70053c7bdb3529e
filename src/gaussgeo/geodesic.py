"""Geodesics of the normal manifold via the lifted exponential construction.

The exponential map at the identity point shoots the one-parameter group
``G(t) = exp(t V)`` of the horizontal generator ``V`` built from the
tangent ``(A0, a0)``, confirms the block structure that the exchange
symmetry forces on its block LDL^T factors, and reads the normal point off
the leading (n+1)-block.  Along such a curve ``sigma^{-1} mu_dot`` and
``sigma^{-1} sigma_dot + a0 mu^T`` are conserved, which yields the
second-order equations

    sigma_ddot + mu_dot mu_dot^T - sigma_dot sigma^{-1} sigma_dot = 0,
    mu_ddot - sigma_dot sigma^{-1} mu_dot = 0,

used here as a finite-difference correctness oracle.

The inverse problem (log map) is solved by damped Gauss-Newton shooting on
the leading (n+1)-block of ``exp(V)``, falling back to recursive path
subdivision for distant targets.  The Jacobian is exact: the leading block
of the Frechet derivative of ``exp`` by the Daleckii-Krein formula.  Each
trial takes one eigendecomposition of the generator; one whose norm exceeds
``MAX_TRIAL_NORM`` (or is NaN) counts as a rejected step and halves the step
length.  Only the converged solution goes through the validated
:func:`exp_map`.  The solver returns the solution found in its shooting
basin; no claim of global minimality is made when the connecting geodesic
is not unique.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matcore import NotSpdError, block_cholesky, spd_log, special_structure_residuals, sym, sym_eigen, sym_exp
from .manifold import (
    GaussianPoint,
    Tangent,
    embed,
    normalize_to_identity,
    read_embedded,
    tangent_norm,
)
from .sympair import horizontal_lift

STRUCTURE_TOL = 1e-8
# Shooting trials whose generator has a larger Frobenius (= paper-metric)
# norm are rejected before exponentiation.  That norm bounds the spectrum, so
# exp stays below e^40 ~ 2e17, far from overflow; an exponential with
# condition number up to e^80 is beyond the block factorization anyway.
MAX_TRIAL_NORM = 40.0


class ShootingError(RuntimeError):
    """Log-map shooting failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class GeodesicTrajectory:
    """Samples of a geodesic: times ``ts (T,)``, covariances ``sigmas (T, n, n)``, means ``mus (T, n)``."""

    ts: np.ndarray
    sigmas: np.ndarray
    mus: np.ndarray


def lifted_exponential(v: np.ndarray, t: float) -> np.ndarray:
    """``exp(t v)``: ``ValueError`` for a non-finite ``t``, ``ArithmeticError`` (no numpy warning) on overflow."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        g = sym_exp(t * v)
        norm = float(np.linalg.norm(g))
    if not math.isfinite(norm):
        raise ArithmeticError(f"geodesic stopped being finite at t = {t:.6g}")
    return g


def exp_map(xi: Tangent, t: float) -> GaussianPoint:
    """Geodesic from the identity point with initial direction ``xi``, at time ``t``.

    Exponentiates the horizontal generator, verifies the block structure of
    the factorization (determinant-one middle pivot, reciprocal corner
    blocks), and reads off the normal point from the verified pivot (1,1).
    """
    n = xi.n
    if t == 0.0:
        return GaussianPoint.identity(n)
    g = lifted_exponential(horizontal_lift(xi), t)
    m, d = block_cholesky(g)
    worst = max(special_structure_residuals(m, d).values())
    if worst > STRUCTURE_TOL * max(1.0, float(np.linalg.norm(g))):
        raise ArithmeticError(f"lifted geodesic lost its block structure: residual {worst:.3e}")
    return read_embedded(g[: n + 1, : n + 1])


def exp_map_from(p: GaussianPoint, xi: Tangent, t: float) -> GaussianPoint:
    """Geodesic from base point ``p``; ``xi`` lives in the normalized chart at ``p``."""
    chart = normalize_to_identity(p)
    return chart.inverse().apply(exp_map(xi, t))


def ambient_exponentials(xi: Tangent, ts: np.ndarray) -> np.ndarray:
    """Stack of lifted geodesic matrices ``exp(t V)`` for each t (one shared eigenbasis)."""
    v = horizontal_lift(xi)
    w, u = sym_eigen(v)
    ts = np.asarray(ts, dtype=float)
    return np.einsum("ik,tk,jk->tij", u, np.exp(np.outer(ts, w)), u)


def trajectory(xi: Tangent, ts, basepoint: GaussianPoint | None = None) -> GeodesicTrajectory:
    """Sample the geodesic with direction ``xi`` at the given times.

    Equivalent to calling :func:`exp_map` (or :func:`exp_map_from`) per
    sample, computed through one shared eigendecomposition and one batched
    inverse.  Every sample is checked to be finite and positive definite.

    Raises
    ------
    ArithmeticError
        If a sample overflows (the times reach too far along the geodesic).
    NotSpdError
        If a sampled covariance is not positive definite.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    n = xi.n
    # A leading block that roundoff left singular fails like a covariance
    # that is not positive definite; overflow fails the finiteness check,
    # without numpy warnings.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            gs = ambient_exponentials(xi, ts)
            sigmas = sym(np.linalg.inv(sym(gs[:, :n, :n])))
            mus = (sigmas @ gs[:, :n, n, None])[..., 0]
            if basepoint is not None:
                denorm = normalize_to_identity(basepoint).inverse()
                sigmas = sym(denorm.A @ sigmas @ denorm.A.T)
                mus = (denorm.A @ mus[..., None])[..., 0] + denorm.b
        finite = np.isfinite(sigmas).all(axis=(1, 2)) & np.isfinite(mus).all(axis=1)
        if not finite.all():
            raise ArithmeticError(f"geodesic stopped being finite at t = {ts[np.argmin(finite)]:.6g}")
        np.linalg.cholesky(sigmas)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError("sigma is not positive definite") from exc
    return GeodesicTrajectory(ts=ts, sigmas=sigmas, mus=mus)


def _stencil_offset(ts: np.ndarray, h: float) -> int:
    """Sample offset of the central difference with step ``h`` on the grid ``ts``.

    Raises ``ValueError`` unless ``ts`` is a uniform increasing grid of at
    least three samples and ``h`` a positive multiple of its spacing that
    fits inside the grid on both sides of some sample.
    """
    if ts.size < 3:
        raise ValueError("need at least three samples")
    deltas = np.diff(ts)
    spacing = float(deltas[0])
    if spacing <= 0 or np.max(np.abs(deltas - spacing)) > 1e-9 * max(spacing, 1e-30):
        raise ValueError("samples must lie on a uniform increasing grid")
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    m = int(round(h / spacing))
    if m < 1:
        raise ValueError(f"grid too coarse relative to h: spacing {spacing:.3e} exceeds step {h:.3e}")
    if abs(m * spacing - h) > 1e-9 * h:
        raise ValueError(f"step {h:.3e} is not a multiple of the grid spacing {spacing:.3e}")
    if ts.size < 2 * m + 1:
        raise ValueError("sampled range too short for the requested finite-difference step")
    return m


def geodesic_residual(traj: GeodesicTrajectory, h: float) -> float:
    """Max finite-difference residual of the geodesic equations over the grid.

    Central differences with step ``h`` (a multiple of the grid spacing)
    approximate first and second derivatives from the stored samples; the
    returned value is the max over interior samples of the Frobenius norm of
    the covariance equation plus the norm of the mean equation.
    """
    m = _stencil_offset(traj.ts, h)
    sigmas, mus = traj.sigmas, traj.mus
    lo, hi = m, len(traj.ts) - m
    s0, sm, sp = sigmas[lo:hi], sigmas[lo - m:hi - m], sigmas[lo + m:hi + m]
    mu0, mum, mup = mus[lo:hi], mus[lo - m:hi - m], mus[lo + m:hi + m]
    sd = (sp - sm) / (2.0 * h)
    sdd = (sp - 2.0 * s0 + sm) / (h * h)
    mud = (mup - mum) / (2.0 * h)
    mudd = (mup - 2.0 * mu0 + mum) / (h * h)
    sinv_sd = np.linalg.solve(s0, sd)
    sinv_mud = np.linalg.solve(s0, mud[..., None])[..., 0]
    res_sigma = sdd + np.einsum("ti,tj->tij", mud, mud) - np.einsum("tik,tkj->tij", sd, sinv_sd)
    res_mu = mudd - np.einsum("tik,tk->ti", sd, sinv_mud)
    per_t = np.linalg.norm(res_sigma, axis=(1, 2)) + np.linalg.norm(res_mu, axis=1)
    return float(np.max(per_t))


def _recovered_series(traj: GeodesicTrajectory, h: float) -> tuple[np.ndarray, np.ndarray]:
    m = _stencil_offset(traj.ts, h)
    sigmas, mus = traj.sigmas, traj.mus
    lo, hi = m, len(traj.ts) - m
    s0 = sigmas[lo:hi]
    sd = (sigmas[lo + m:hi + m] - sigmas[lo - m:hi - m]) / (2.0 * h)
    mud = (mus[lo + m:hi + m] - mus[lo - m:hi - m]) / (2.0 * h)
    a_series = np.linalg.solve(s0, mud[..., None])[..., 0]
    big_a = np.linalg.solve(s0, sd) + np.einsum("i,tj->tij", a_series[0], mus[lo:hi])
    return a_series, big_a


def first_integrals(traj: GeodesicTrajectory, h: float) -> tuple[float, float]:
    """Max drift of the two conserved quantities along the trajectory.

    ``sigma^{-1} mu_dot`` and ``sigma^{-1} sigma_dot + a mu^T`` (with ``a``
    the first recovered value) are constant on geodesics; returns their max
    deviations from the values at the earliest usable sample.
    """
    a_series, big_a = _recovered_series(traj, h)
    drift_a = float(np.max(np.linalg.norm(a_series - a_series[0], axis=1)))
    drift_big_a = float(np.max(np.linalg.norm(big_a - big_a[0], axis=(1, 2))))
    return drift_a, drift_big_a


def recovered_initial_direction(traj: GeodesicTrajectory, h: float) -> Tangent:
    """Finite-difference estimate of the generating tangent, for cross-checks."""
    a_series, big_a = _recovered_series(traj, h)
    return Tangent(A0=sym(big_a[0]), a0=a_series[0])


def _pack(xi: Tangent) -> np.ndarray:
    n = xi.n
    iu = np.triu_indices(n)
    return np.concatenate([xi.A0[iu], xi.a0])


def _unpack(vec: np.ndarray, n: int) -> Tangent:
    iu = np.triu_indices(n)
    a = np.zeros((n, n))
    k = iu[0].size
    a[iu] = vec[:k]
    a = a + a.T - np.diag(np.diag(a))
    return Tangent(A0=a, a0=vec[k:])


@lru_cache(maxsize=8)
def _generator_basis(n: int) -> np.ndarray:
    """Horizontal generators of the packed basis tangents, stacked (read-only)."""
    k = n * (n + 1) // 2 + n
    basis = np.stack([horizontal_lift(_unpack(e, n)) for e in np.eye(k)])
    basis.flags.writeable = False
    return basis


def _lifted(vec: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``(w, u)`` = eigh of the generator of ``vec``, and the unchecked leading block ``h`` of its exponential.

    ``None`` when the generator's Frobenius (= paper-metric) norm is NaN or exceeds ``MAX_TRIAL_NORM``.
    """
    v = np.tensordot(vec, _generator_basis(n), axes=1)
    if not np.linalg.norm(v) <= MAX_TRIAL_NORM:
        return None
    w, u = np.linalg.eigh(v)
    return w, u, (u[: n + 1] * np.exp(w)) @ u[: n + 1].T


def _residual_jacobian(w: np.ndarray, u: np.ndarray, n: int) -> np.ndarray:
    """Exact Jacobian of the shooting residual by the Daleckii-Krein formula.

    With ``V = U diag(w) U^T`` the Frechet derivative of ``exp`` at ``V`` in
    direction ``E`` is ``U (Phi o U^T E U) U^T``, where ``Phi_ij`` is the
    divided difference ``(e^{w_i} - e^{w_j}) / (w_i - w_j)`` (``e^{w_i}``
    when the eigenvalues coincide), written as
    ``e^{(w_i + w_j)/2} sinh(h) / h`` with ``h = (w_i - w_j)/2`` so that
    near-equal eigenvalues lose no digits.  Column j is the leading
    (n+1)-block of that derivative in the direction of the j-th basis
    generator; all columns come from the one eigendecomposition of :func:`_lifted`.
    """
    basis = _generator_basis(n)
    half = 0.5 * (w[:, None] - w[None, :])
    safe = np.where(half == 0.0, 1.0, half)
    phi = np.exp(0.5 * (w[:, None] + w[None, :])) * np.where(half == 0.0, 1.0, np.sinh(safe) / safe)
    lead = u[: n + 1]
    derivs = lead @ (phi * (u.T @ basis @ u)) @ lead.T
    return derivs.reshape(len(derivs), -1).T


def _shoot(target: np.ndarray, vec: np.ndarray, n: int, tol: float, max_iter: int) -> Tangent:
    scale = max(1.0, float(np.linalg.norm(target)))
    lifted = _lifted(vec, n)
    if lifted is None:
        raise ShootingError("shooting guess exceeds the exponent cap", residual=float("inf"))
    w, u, h = lifted
    f = (h - target).ravel()
    res = float(np.linalg.norm(f))
    for _ in range(max_iter):
        if res <= tol * scale:
            break
        step, *_ = np.linalg.lstsq(_residual_jacobian(w, u, n), -f, rcond=None)
        alpha = 1.0
        while alpha > 2.0 ** -20:
            trial = vec + alpha * step
            lifted = _lifted(trial, n)  # None: a rejected trial, beyond the exponent cap
            if lifted is not None:
                f_trial = (lifted[2] - target).ravel()
                res_trial = float(np.linalg.norm(f_trial))
                if res_trial < res:
                    vec, f, res = trial, f_trial, res_trial
                    w, u, _ = lifted
                    break
            alpha *= 0.5
        else:
            break  # no descent direction left; let the caller subdivide
    if res > tol * scale:
        raise ShootingError(f"shooting stalled at residual {res:.3e}", residual=res)
    xi = _unpack(vec, n)
    try:
        exp_map(xi, 1.0)
    except (ArithmeticError, ValueError) as exc:
        raise ShootingError(f"shooting solution failed validation: {exc}", residual=res) from exc
    return xi


def _log_normalized(qn: GaussianPoint, tol: float, max_iter: int, depth: int = 8) -> Tangent:
    target = embed(qn)
    try:
        return _shoot(target, _pack(Tangent(A0=spd_log(qn.sigma), a0=qn.mu)), qn.n, tol, max_iter)
    except ShootingError:
        if depth <= 0:
            raise
    # Path subdivision: solve toward a halfway target on a cheap connecting
    # curve, then retry the full problem from the doubled tangent.
    half = GaussianPoint(sym_exp(0.5 * spd_log(qn.sigma)), 0.5 * qn.mu)
    xi_half = _log_normalized(half, tol, max_iter, depth - 1)
    return _shoot(target, 2.0 * _pack(xi_half), qn.n, tol, max_iter)


def log_map(
    p: GaussianPoint,
    q: GaussianPoint,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> Tangent:
    """Initial direction (in the normalized chart at ``p``) of the geodesic reaching ``q`` at time 1.

    Damped Gauss-Newton shooting on the lifted residual with the
    Daleckii-Krein Jacobian; converged when the Frobenius residual drops
    below ``tol`` times the target scale.  A line-search trial beyond
    ``MAX_TRIAL_NORM`` is rejected like a non-descent step.  Distant targets,
    guesses beyond the cap and solutions that fail :func:`exp_map`'s
    validation are handled by recursive path subdivision.

    Raises
    ------
    ShootingError
        If the iteration stalls or its solution fails validation; carries
        the last residual (``inf`` when even the initial guess was beyond the cap).
    """
    if p.n != q.n:
        raise ValueError(f"points must share a dimension, got n = {p.n} and n = {q.n}")
    chart = normalize_to_identity(p)
    return _log_normalized(chart.apply(q), tol, max_iter)


def distance(p: GaussianPoint, q: GaussianPoint, convention: str = "paper", **opts) -> float:
    """Geodesic distance: the metric norm of the connecting log tangent."""
    if p.close_to(q):
        return 0.0
    return tangent_norm(log_map(p, q, **opts), convention)


def write_samples_csv(fh, names: tuple[str, str], samples) -> None:
    """Write ``(t, matrix, vector)`` samples as CSV: t, row-major matrix entries, vector entries.

    ``names`` label the matrix and the vector columns: ``("sigma", "mu")``
    gives the header ``t,sigma_11,...,sigma_nn,mu_1,...,mu_n``.
    """
    samples = list(samples)
    n = len(samples[0][2])
    mat, vec = names
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        ["t"] + [f"{mat}_{i + 1}{j + 1}" for i in range(n) for j in range(n)] + [f"{vec}_{i + 1}" for i in range(n)]
    )
    for t, matrix, vector in samples:
        writer.writerow([f"{v:.17g}" for v in (t, *matrix.ravel(), *vector)])
