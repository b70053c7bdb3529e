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

The inverse problem (log map) is solved in the fibre of the block-Cholesky
lift.  Every lifted point over the target ``(sigma, mu)`` is
``G(S) = M D M^T`` with ``D = diag(sigma^{-1}, 1, sigma)`` and ``M`` unit
block-lower, free only in a skew block ``S``; the connecting geodesic is
horizontal, so a damped Newton over ``S`` drives the vertical (skew ``R``)
block of ``log G(S)`` to zero, with the Daleckii-Krein Jacobian of ``log``
from one eigendecomposition of ``G(S)`` per iteration.  The horizontal part
of that logarithm seeds a polish: damped Gauss-Newton shooting on the
leading (n+1)-block of ``exp(V)``, whose Jacobian is the leading block of
the Frechet derivative of ``exp`` by the same formula.  Each shooting trial
takes one eigendecomposition of the generator; one whose norm exceeds
``MAX_TRIAL_NORM`` (or is NaN) counts as a rejected step and halves the step
length.  If the fibre route fails, shooting restarts from the chart guess
``(log sigma, mu)`` with recursive path subdivision; that happens beyond
paper norm about 20, where the explicitly formed ``G(S)`` spans more than
double precision resolves and its smallest eigenvalues are rounding noise,
while shooting exponentiates only the generator.  Only the converged
solution is validated, by :func:`exp_map`'s checks on the exponential
rebuilt from its last eigendecomposition.  The solver returns the
solution found in its basin; no claim of global minimality is made when the
connecting geodesic is not unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matcore import NotSpdError, _require_iteration, _spectral, block_cholesky, spd_inv, spd_log, special_structure_residuals, sym, sym_eigen, sym_exp
from .manifold import (
    AffineMap,
    GaussianPoint,
    Tangent,
    _apply_stacked,
    _metric_scale,
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
    blocks), and reads off the normal point from the verified pivot (1,1),
    whose inverse serves both the structure check and ``sigma``.
    """
    if t == 0.0:
        return GaussianPoint.identity(xi.n)
    return _lifted_point(lifted_exponential(horizontal_lift(xi), t))


def _lifted_point(g: np.ndarray) -> GaussianPoint:
    """The normal point of the lifted geodesic matrix ``g``, after :func:`exp_map`'s validation.

    Checks the block structure of the LDL^T factors of ``g`` and reads the
    point off the verified pivot (1,1), whose inverse serves both the
    structure check and ``sigma``.  :func:`exp_map` and the shooting
    solver's validation of its converged tangent share it.
    """
    n = (g.shape[0] - 1) // 2
    m, d = block_cholesky(g)
    sigma = spd_inv(d[:n, :n])
    worst = max(special_structure_residuals(m, d, sigma).values())
    if worst > STRUCTURE_TOL * max(1.0, float(np.linalg.norm(g))):
        raise ArithmeticError(f"lifted geodesic lost its block structure: residual {worst:.3e}")
    return GaussianPoint(*read_embedded(g[: n + 1, : n + 1], sigma))


def exp_map_from(p: GaussianPoint, xi: Tangent, t: float) -> GaussianPoint:
    """Geodesic from base point ``p``; ``xi`` lives in the normalized chart at ``p``."""
    chart = normalize_to_identity(p)
    return chart.inverse().apply(exp_map(xi, t))


def ambient_exponentials(xi: Tangent, ts: np.ndarray) -> np.ndarray:
    """Stack of lifted geodesic matrices ``exp(t V)`` for each t (one shared eigenbasis)."""
    w, u = sym_eigen(horizontal_lift(xi))
    return np.einsum("ik,tk,jk->tij", u, np.exp(np.outer(np.asarray(ts, dtype=float), w)), u)


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
    w, u = sym_eigen(horizontal_lift(xi))
    return _sampled(w, u, ts, None if basepoint is None else normalize_to_identity(basepoint).inverse())


def _sampled(w: np.ndarray, u: np.ndarray, ts, denorm: AffineMap | None) -> GeodesicTrajectory:
    """:func:`trajectory` from the eigenpair ``(w, u)`` of the horizontal generator and the denormalizing map."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    n = (len(w) - 1) // 2
    # A leading block that roundoff left singular fails like a covariance
    # that is not positive definite; overflow fails the finiteness check,
    # without numpy warnings.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(np.outer(ts, w))
            # the point is read off the leading (n+1) x (n+1) block of exp(t V) only
            gs = np.einsum("ik,tk,jk->tij", u[: n + 1], e, u[: n + 1])
            sigmas = sym(np.linalg.inv(sym(gs[:, :n, :n])))
            mus = (sigmas @ gs[:, :n, n, None])[..., 0]
            if denorm is not None:
                sigmas, mus = _apply_stacked(denorm, sigmas, mus)
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


def _central_differences(traj: GeodesicTrajectory, h: float):
    """Central differences with step ``h``: the sigma and mu samples at the interior points and ``m`` steps to each side,
    ``sigma_dot``, ``mu_dot``, ``sigma^{-1} sigma_dot`` and ``sigma^{-1} mu_dot`` (``NotSpdError`` for a singular sigma)."""
    m = _stencil_offset(traj.ts, h)
    lo, hi = m, len(traj.ts) - m
    (s0, sm, sp), (mu0, mum, mup) = ((x[lo:hi], x[lo - m:hi - m], x[lo + m:hi + m]) for x in (traj.sigmas, traj.mus))
    sd = (sp - sm) / (2.0 * h)
    mud = (mup - mum) / (2.0 * h)
    try:
        return (s0, sm, sp), (mu0, mum, mup), sd, mud, np.linalg.solve(s0, sd), np.linalg.solve(s0, mud[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NotSpdError("a sampled sigma is singular") from exc


def geodesic_residual(traj: GeodesicTrajectory, h: float) -> float:
    """Max finite-difference residual of the geodesic equations over the grid.

    Central differences with step ``h`` (a multiple of the grid spacing)
    approximate first and second derivatives from the stored samples; the
    returned value is the max over interior samples of the Frobenius norm of
    the covariance equation plus the norm of the mean equation.
    """
    (s0, sm, sp), (mu0, mum, mup), sd, mud, sinv_sd, sinv_mud = _central_differences(traj, h)
    sdd = (sp - 2.0 * s0 + sm) / (h * h)
    mudd = (mup - 2.0 * mu0 + mum) / (h * h)
    res_sigma = sdd + np.einsum("ti,tj->tij", mud, mud) - np.einsum("tik,tkj->tij", sd, sinv_sd)
    res_mu = mudd - np.einsum("tik,tk->ti", sd, sinv_mud)
    per_t = np.linalg.norm(res_sigma, axis=(1, 2)) + np.linalg.norm(res_mu, axis=1)
    return float(np.max(per_t))


def first_integrals(traj: GeodesicTrajectory, h: float) -> tuple[float, float]:
    """Max drift of the two conserved quantities along the trajectory.

    ``sigma^{-1} mu_dot`` and ``sigma^{-1} sigma_dot + a mu^T`` (with ``a``
    the first recovered value) are constant on geodesics; returns their max
    deviations from the values at the earliest usable sample.
    """
    _, (mu0, _, _), _, _, sinv_sd, a_series = _central_differences(traj, h)
    big_a = sinv_sd + np.einsum("i,tj->tij", a_series[0], mu0)
    drift_a = float(np.max(np.linalg.norm(a_series - a_series[0], axis=1)))
    drift_big_a = float(np.max(np.linalg.norm(big_a - big_a[0], axis=(1, 2))))
    return drift_a, drift_big_a


@lru_cache(maxsize=16)
def _triu(n: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k)``, cached: building them costs more than the small arrays they index."""
    iu = np.triu_indices(n, k)
    for index in iu:
        index.flags.writeable = False
    return iu


def _pack(xi: Tangent) -> np.ndarray:
    n = xi.n
    iu = _triu(n)
    return np.concatenate([xi.A0[iu], xi.a0])


def _unpack(vec: np.ndarray, n: int) -> Tangent:
    iu = _triu(n)
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


def _daleckii_krein(u: np.ndarray, phi: np.ndarray, e: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """Blocks ``[rows, cols]`` of ``U (Phi o U^T E U) U^T`` for each ``E`` of the stack ``e``.

    With ``X = U diag(w) U^T`` and ``Phi`` the divided differences of a scalar
    function ``f`` on ``w``, this is the Frechet derivative of ``f`` at ``X``
    in the direction ``E`` (the Daleckii-Krein formula; Bhatia, *Matrix
    Analysis*, ch. V).
    """
    return u[rows] @ (phi * (u.T @ e @ u)) @ u[cols].T


def _residual_jacobian(w: np.ndarray, u: np.ndarray, n: int) -> np.ndarray:
    """Exact Jacobian of the shooting residual by the Daleckii-Krein formula.

    With ``V = U diag(w) U^T`` the divided differences of ``exp`` are
    ``(e^{w_i} - e^{w_j}) / (w_i - w_j)`` (``e^{w_i}`` when the eigenvalues
    coincide), written as ``e^{(w_i + w_j)/2} sinh(h) / h`` with
    ``h = (w_i - w_j)/2`` so that near-equal eigenvalues lose no digits.
    Column j is the leading (n+1)-block of the derivative of ``exp`` in the
    direction of the j-th basis generator; all columns come from the one
    eigendecomposition of :func:`_lifted`.
    """
    half = 0.5 * (w[:, None] - w[None, :])
    safe = np.where(half == 0.0, 1.0, half)
    phi = np.exp(0.5 * (w[:, None] + w[None, :])) * np.where(half == 0.0, 1.0, np.sinh(safe) / safe)
    lead = slice(None, n + 1)
    derivs = _daleckii_krein(u, phi, _generator_basis(n), lead, lead)
    return derivs.reshape(len(derivs), -1).T


def _shoot(target: np.ndarray, vec: np.ndarray, n: int, tol: float, max_iter: int) -> Tangent:
    """Damped Gauss-Newton shooting from the packed guess ``vec`` to the embedded ``target``; the converged tangent.

    Each trial takes one eigendecomposition of its generator (:func:`_lifted`).
    The converged tangent is validated once, by :func:`exp_map`'s checks
    (:func:`_lifted_point`) on ``exp(V)`` rebuilt from the eigenpair of the
    last accepted trial, whose generator is the one ``exp_map(xi, 1)`` would
    exponentiate; no further eigendecomposition runs.  A stall, or a
    solution that fails the validation, is a ``ShootingError``.
    """
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
    try:
        # exp(V) of the last accepted trial, from its eigenpair: the generator is exp_map(xi, 1)'s
        _lifted_point(_spectral(u, np.exp(w)))
    except (ArithmeticError, ValueError) as exc:
        raise ShootingError(f"shooting solution failed validation: {exc}", residual=res) from exc
    return _unpack(vec, n)


def _fibre_point(sigma: np.ndarray, mu: np.ndarray, skew: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block LDL^T factors ``(M, D)`` of the lifted point ``G(S) = M D M^T`` over ``(sigma, mu)``.

    In :func:`block_cholesky`'s layout: ``D = diag(theta, 1, sigma)`` with
    ``theta = sigma^{-1}``, and ``M`` is unit block-lower with
    ``m21 = mu^T``, ``m32 = -mu`` and ``m31 = -mu mu^T / 2 + S``.  These are
    the constraints of :func:`special_structure_residuals`, so ``G(S)`` lies
    on the exchange-symmetric slice for every skew ``S``; its leading
    (n+1)-block is the embedding of ``(sigma, mu)``, and ``S`` moves it along
    the fibre of the submersion.
    """
    n = mu.shape[0]
    m = np.eye(2 * n + 1)
    m[n, :n] = mu
    m[n + 1:, n] = -mu
    m[n + 1:, :n] = skew - 0.5 * np.outer(mu, mu)
    d = np.zeros((2 * n + 1, 2 * n + 1))
    d[:n, :n] = theta
    d[n, n] = 1.0
    d[n + 1:, n + 1:] = sigma
    return m, d


@lru_cache(maxsize=8)
def _fibre_basis(n: int) -> np.ndarray:
    """Derivatives of the fibre point's ``M`` along the packed entries of ``S`` (read-only stack)."""
    eye = np.eye(n)
    units = []
    for i, j in zip(*_triu(n, 1)):
        e = np.zeros((n, n))
        e[i, j], e[j, i] = 1.0, -1.0
        units.append(_fibre_point(eye, np.zeros(n), e, eye)[0] - np.eye(2 * n + 1))
    basis = np.stack(units)
    basis.flags.writeable = False
    return basis


def _log_divided_differences(w: np.ndarray) -> np.ndarray:
    """Divided differences ``(log w_i - log w_j) / (w_i - w_j)`` of ``log`` on a positive spectrum.

    Near-equal eigenvalues (``|z| < 1/2`` with ``z = (w_i - w_j) / (w_i + w_j)``)
    use ``2 atanh(z) / (w_i - w_j)``, which loses no digits and tends to
    ``1 / w_i``; distant ones the plain quotient, where ``atanh`` would
    round ``z`` to ``+-1``.
    """
    diff = w[:, None] - w[None, :]
    total = w[:, None] + w[None, :]
    z = diff / total
    near = np.abs(z) < 0.5
    zs = np.where(near & (z != 0.0), z, 0.25)
    ratio = np.where(z == 0.0, 1.0, np.arctanh(zs) / zs)
    log_w = np.log(w)
    far = (log_w[:, None] - log_w[None, :]) / np.where(near, 1.0, diff)
    return np.where(near, 2.0 * ratio / total, far)


def _skew(s: np.ndarray, n: int) -> np.ndarray:
    """The skew n x n matrix with strictly upper entries ``s`` (row-major)."""
    a = np.zeros((n, n))
    a[_triu(n, 1)] = s
    return a - a.T


def _vertical_part(v: np.ndarray) -> np.ndarray:
    """Strictly upper entries of the skew ``R`` block of a lifted generator: its vertical part."""
    n = (v.shape[0] - 1) // 2
    return v[:n, n + 1:][_triu(n, 1)]


def _fibre_log(qn: GaussianPoint, theta: np.ndarray, s: np.ndarray):
    """``(M, D, w, u, V)`` at the packed skew ``s``: the fibre point's factors, eigh of ``G(S)`` and ``V = log G(S)``.

    ``None`` when the explicitly formed ``G(S)`` is not finite or has lost
    positivity (a rejected trial).
    """
    m, d = _fibre_point(qn.sigma, qn.mu, _skew(s, qn.n), theta)
    g = m @ d @ m.T
    if not np.all(np.isfinite(g)):
        return None
    w, u = np.linalg.eigh(g)
    if not w[0] > 0.0:
        return None
    return m, d, w, u, (u * np.log(w)) @ u.T


def _fibre_jacobian(m: np.ndarray, d: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Jacobian of ``_vertical_part(log G(S))`` in the packed ``S``, from the eigh ``(w, u)`` of ``G = M D M^T``.

    Column k is the vertical part of the derivative of ``log`` (Daleckii-Krein)
    in the direction ``dG = dM D M^T + M D dM^T``, with ``dM`` the k-th
    fibre basis matrix.
    """
    n = (m.shape[0] - 1) // 2
    iu = _triu(n, 1)
    dm = _fibre_basis(n) @ (d @ m.T)
    dg = dm + dm.swapaxes(-1, -2)
    derivs = _daleckii_krein(u, _log_divided_differences(w), dg, slice(None, n), slice(n + 1, None))
    return derivs[:, iu[0], iu[1]].T


def _fibre_newton(qn: GaussianPoint, theta: np.ndarray, tol: float, max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """``(s, V)``: the packed skew ``S`` where the vertical part of ``V = log G(S)`` vanishes, and that ``V``.

    Damped Newton over the n(n-1)/2 strictly upper entries of ``S`` from
    ``S = 0``, with the Jacobian of :func:`_fibre_jacobian`.  A trial is
    rejected like a non-descent step when its ``G(S)`` loses positivity, or
    when ``log G(S)`` is longer than ``log G(0)``: the horizontal point is
    the point of the fibre nearest the identity, and far from it the
    residual also decays as ``S`` runs off to infinity.  Stops at ``tol``
    (relative to the norm of ``log G(0)``), after ``max_iter`` steps or when
    the line search finds no descent; the polish makes the tangent exact.
    For n = 1 there is no unknown and ``V = log G(0)``.
    """
    s = np.zeros(qn.n * (qn.n - 1) // 2)
    lifted = _fibre_log(qn, theta, s)
    if lifted is None:
        raise ShootingError("fibre point lost positivity", residual=float("inf"))
    m, d, w, u, v = lifted
    f = _vertical_part(v)
    res = float(np.linalg.norm(f))
    length = float(np.linalg.norm(v))
    scale = max(1.0, length)
    for _ in range(max_iter):
        if res <= tol * scale:
            break
        try:
            step = np.linalg.solve(_fibre_jacobian(m, d, w, u), -f)
        except np.linalg.LinAlgError:
            break  # a singular Jacobian: the polish takes over from here
        alpha = 1.0
        while alpha > 2.0 ** -20:
            trial = s + alpha * step
            lifted = _fibre_log(qn, theta, trial)
            # rejected trials: G(S) lost positivity (None), or log G(S) grew longer than log G(0)
            if lifted is not None and np.linalg.norm(lifted[4]) <= length:
                f_trial = _vertical_part(lifted[4])
                res_trial = float(np.linalg.norm(f_trial))
                if res_trial < res:
                    s, f, res = trial, f_trial, res_trial
                    m, d, w, u, v = lifted
                    break
            alpha *= 0.5
        else:
            break  # no descent left; the polish takes over from here
    return s, v


def _log_normalized(qn: GaussianPoint, tol: float, max_iter: int) -> Tangent:
    """The fibre route: Newton on the skew block, then :func:`_shoot` from its horizontal part.

    On a ``ShootingError`` it falls back to :func:`_log_subdivided`, which
    never forms ``G(S)``: far targets whose ``G(S)`` is beyond double
    precision fail the fibre route by rounding, and the fallback solves many.
    """
    n = qn.n
    target = embed(qn)
    try:
        _, v = _fibre_newton(qn, target[:n, :n], tol, max_iter)
        return _shoot(target, _pack(Tangent(A0=sym(-v[:n, :n]), a0=v[:n, n])), n, tol, max_iter)
    except ShootingError:
        return _log_subdivided(qn, tol, max_iter)


def _log_subdivided(qn: GaussianPoint, tol: float, max_iter: int, depth: int = 8) -> Tangent:
    """Shooting from the chart guess ``(log sigma, mu)``, with recursive path subdivision on failure."""
    target = embed(qn)
    try:
        return _shoot(target, _pack(Tangent(A0=spd_log(qn.sigma), a0=qn.mu)), qn.n, tol, max_iter)
    except ShootingError:
        if depth <= 0:
            raise
    # Path subdivision: solve toward a halfway target on a cheap connecting
    # curve, then retry the full problem from the doubled tangent.
    half = GaussianPoint(sym_exp(0.5 * spd_log(qn.sigma)), 0.5 * qn.mu)
    xi_half = _log_subdivided(half, tol, max_iter, depth - 1)
    return _shoot(target, 2.0 * _pack(xi_half), qn.n, tol, max_iter)


def log_map(
    p: GaussianPoint,
    q: GaussianPoint,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> Tangent:
    """Initial direction (in the normalized chart at ``p``) of the geodesic reaching ``q`` at time 1.

    Damped Newton in the fibre of the lift over ``q`` (the skew block ``S``
    of ``G(S)``, until the vertical part of ``log G(S)`` vanishes), then
    damped Gauss-Newton shooting on the lifted residual from the horizontal
    part of that logarithm, both with Daleckii-Krein Jacobians; converged
    when the shooting residual drops below ``tol`` times the target scale.
    ``tol`` and ``max_iter`` govern both stages.  A shooting trial beyond
    ``MAX_TRIAL_NORM``, and a Newton trial whose ``G(S)`` loses positivity or
    whose logarithm grows longer than ``log G(0)``, are rejected like
    non-descent steps.  If the fibre route fails (a stall, or a solution
    that fails :func:`exp_map`'s validation), shooting restarts from
    ``(log sigma, mu)`` with recursive path subdivision.

    Raises
    ------
    ShootingError
        If the iteration stalls or its solution fails validation; carries
        the last residual (``inf`` when even the initial guess was beyond the cap).
    ValueError
        If the points differ in dimension, ``tol`` is not a positive finite
        number (an infinite one would accept the unconverged seed), or
        ``max_iter`` is not a positive integer.
    """
    if p.n != q.n:
        raise ValueError(f"points must share a dimension, got n = {p.n} and n = {q.n}")
    _require_iteration(tol, max_iter)
    chart = normalize_to_identity(p)
    return _log_normalized(chart.apply(q), tol, max_iter)


def distance(p: GaussianPoint, q: GaussianPoint, convention: str = "paper", **opts) -> float:
    """Geodesic distance: the metric norm of the connecting log tangent; an unknown convention fails before the solve."""
    _metric_scale(convention)
    if p.close_to(q):
        return 0.0
    return tangent_norm(log_map(p, q, **opts), convention)
