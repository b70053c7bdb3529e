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

used here as a finite-difference correctness oracle.  The sampled geodesic
and the oracle walk the samples in blocks of ``matcore.VERIFY_BLOCK_BYTES`` per
``(block, n, n)`` stack, so their temporaries stay in cache and do not grow
with the sample count.

The inverse problem (log map) is solved in the fibre of the block-Cholesky
lift.  Every lifted point over the target ``(sigma, mu)`` is
``G(S) = M D M^T`` with ``D = diag(sigma^{-1}, 1, sigma)`` and ``M`` unit
block-lower, free only in a skew block ``S``; the connecting geodesic is
horizontal, so a damped Newton over ``S`` drives the vertical (skew ``R``)
block of ``log G(S)`` to zero, with the Daleckii-Krein Jacobian of ``log``
from one eigendecomposition of ``G(S)`` per iteration.  It starts at the
closed-form third-order horizontal point ``S0 = [log sigma, mu mu^T] / 12``
(0 for n = 1, for equal means, and when the chart guess ``(log sigma, mu)``
is longer than ``SEED_REACH``).  The horizontal part of that logarithm
seeds a polish: a damped Newton step on the packed residual (the leading
(n+1)-block of ``exp(V)`` minus the target, its upper triangle less the
corner), whose square Jacobian comes by the same formula from one
eigendecomposition of the generator per trial.  Both stages share one step
and line search (:func:`_descend`), which halves the step from 1 to 2^-20; the
Newton rejects a trial whose ``G(S)`` loses positivity or whose logarithm
is longer than ``|log G(S0)| + |S0|``, the polish one whose generator norm
exceeds ``MAX_TRIAL_NORM`` (or is NaN).  If the fibre route fails, shooting
restarts from the chart guess ``(log sigma, mu)`` with recursive path
subdivision; that happens beyond paper norm about 20, where the explicitly
formed ``G(S)`` spans more than double precision resolves.  Input is checked
at the public boundary (points, dimensions, ``tol``, ``max_iter``); of the
solver's own arrays only what can fail is checked, once: the normalized
target (positive covariance, finite mean) and the converged solution, by
:func:`exp_map`'s checks on the exponential rebuilt from its last
eigendecomposition.  The solver returns the solution found in its basin; no
claim of global minimality is made when the connecting geodesic is not unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matcore import VERIFY_BLOCK_BYTES, NotSpdError, _block_ldl, _positive, _require_iteration, _spectral, spd_inv, special_structure_residuals, sym, sym_eigen, sym_exp
from .manifold import (
    AffineMap,
    GaussianPoint,
    Tangent,
    _apply_stacked,
    _embedded,
    _metric_scale,
    _own,
    _vectors,
    normalize_to_identity,
    read_embedded,
    tangent_norm,
)
from .sympair import horizontal_lift

LOG_TOL = 1e-12
LOG_MAX_ITER = 100
STRUCTURE_TOL = 1e-8
# Shooting trials whose generator has a larger Frobenius (= paper-metric)
# norm are rejected before exponentiation.  That norm bounds the spectrum, so
# exp stays below e^40 ~ 2e17, far from overflow; an exponential with
# condition number up to e^80 is beyond the block factorization anyway.
MAX_TRIAL_NORM = 40.0
# The fibre Newton starts at the closed-form third-order horizontal point only
# while the chart guess (log sigma, mu) has at most this paper norm, and at
# S = 0 beyond it: from paper norm 16 on, an ungated seed can steer the Newton
# away from the horizontal point (the README tabulates the reach against the gate).
SEED_REACH = 10.0


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
    return _own(object.__new__(GaussianPoint), *_lifted_point(lifted_exponential(horizontal_lift(xi), t)))


def _lifted_point(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sigma, mu)`` of the lifted geodesic matrix ``g``, an exactly symmetric ``exp(V)`` from ``_spectral``, after :func:`exp_map`'s validation.

    The point is read off the verified pivot (1,1), whose inverse serves both
    the structure check and ``sigma``.  :func:`exp_map` and the shooting
    solver's validation of its converged tangent share it.
    """
    n = (g.shape[0] - 1) // 2
    m, d = _block_ldl(g)
    sigma = spd_inv(d[:n, :n])
    worst = max(special_structure_residuals(m, d, sigma).values())
    # max() can skip a NaN residual; a NaN or inf norm of g fails the bound instead (np.maximum keeps a NaN)
    if not worst <= STRUCTURE_TOL * np.maximum(1.0, np.linalg.norm(g)) < math.inf:
        raise ArithmeticError(f"lifted geodesic lost its block structure: residual {worst:.3e}")
    sigma, mu = read_embedded(g[: n + 1, : n + 1], sigma)
    return _positive(sigma, "sigma"), _vectors(mu, sigma, "mu", "mean")


def exp_map_from(p: GaussianPoint, xi: Tangent, t: float) -> GaussianPoint:
    """Geodesic from base point ``p``; ``xi`` lives in the normalized chart at ``p``."""
    if xi.n != p.n:
        raise ValueError(f"tangent and base point must share a dimension, got n = {xi.n} and n = {p.n}")
    return normalize_to_identity(p).inverse().apply(exp_map(xi, t))


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
    ValueError
        If a time is not finite (naming the first such time).
    ArithmeticError
        If a sample overflows (the times reach too far along the geodesic).
    NotSpdError
        If a sampled covariance is not positive definite.
    """
    if basepoint is not None and xi.n != basepoint.n:
        raise ValueError(f"tangent and base point must share a dimension, got n = {xi.n} and n = {basepoint.n}")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    finite = np.isfinite(ts)
    if not finite.all():
        raise ValueError(f"t must be finite, got {ts[np.argmin(finite)]}")
    w, u = sym_eigen(horizontal_lift(xi))
    return _sampled(w, u, ts, None if basepoint is None else normalize_to_identity(basepoint).inverse())


def _blocks(size: int, sample_bytes: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of the blocks that cover ``range(size)``, each of ``VERIFY_BLOCK_BYTES // sample_bytes`` samples (at least one)."""
    step = max(1, VERIFY_BLOCK_BYTES // sample_bytes)
    return [(start, min(start + step, size)) for start in range(0, size, step)]


def _sampled(w: np.ndarray, u: np.ndarray, ts, denorm: AffineMap | None) -> GeodesicTrajectory:
    """:func:`trajectory` from the eigenpair ``(w, u)`` of the horizontal generator and the denormalizing map.

    The samples fill preallocated stacks in :func:`_blocks` of ``(block, n, n)``
    stacks.  As for one pass over all samples, a non-finite sample fails, at
    the first such time, before any Cholesky test.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    n = (len(w) - 1) // 2
    sigmas, mus = np.empty((ts.size, n, n)), np.empty((ts.size, n))
    blocks = _blocks(ts.size, 8 * n * n)
    failed = None
    # A leading block that roundoff left singular fails like a covariance
    # that is not positive definite; overflow fails the finiteness check,
    # without numpy warnings.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for start, stop in blocks:
                e = np.exp(np.outer(ts[start:stop], w))
                # the point is read off the first n rows of the leading (n+1)-block of exp(t V) only
                gs = np.einsum("ik,tk,jk->tij", u[:n], e, u[: n + 1])
                sigma = sym(np.linalg.inv(sym(gs[:, :, :n])))
                mu = (sigma @ gs[:, :, n, None])[..., 0]
                if denorm is not None:
                    sigma, mu = _apply_stacked(denorm, sigma, mu)
                sigmas[start:stop], mus[start:stop] = sigma, mu
                finite = np.isfinite(sigma).all(axis=(1, 2)) & np.isfinite(mu).all(axis=1)
                if failed is None and not finite.all():
                    failed = ts[start + np.argmin(finite)]
        if failed is not None:
            raise ArithmeticError(f"geodesic stopped being finite at t = {failed:.6g}")
        for start, stop in blocks:
            np.linalg.cholesky(sigmas[start:stop])
    except np.linalg.LinAlgError as exc:
        raise NotSpdError("sigma is not positive definite") from exc
    return GeodesicTrajectory(ts=ts, sigmas=sigmas, mus=mus)


def _stencil_offset(ts: np.ndarray, h: float) -> int:
    """Sample offset of the central difference with step ``h`` on the grid ``ts``.

    Raises ``ValueError`` unless ``ts`` is a uniform increasing grid of at
    least three samples and ``h`` a positive multiple of its spacing that
    fits inside the grid on both sides of some sample.  A non-finite time
    fails the uniformity test; a non-finite ``h`` is rejected too.
    """
    if ts.size < 3:
        raise ValueError("need at least three samples")
    # the spacings' deviations from the first, in the one array np.diff allocates; an infinite
    # time makes an inf - inf there, whose NaN fails the test below
    with np.errstate(invalid="ignore"):
        deviations = np.diff(ts)
        spacing = float(deviations[0])
        np.abs(np.subtract(deviations, spacing, out=deviations), out=deviations)
    # written as `not ... <=` so that a NaN deviation (from a non-finite time) fails
    if not (spacing > 0 and np.max(deviations) <= 1e-9 * max(spacing, 1e-30)):
        raise ValueError("samples must lie on a uniform increasing grid")
    if not math.isfinite(h):
        raise ValueError(f"finite-difference step must be finite, got {h}")
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
    return _geodesic_checks(traj, h, drifts=False)[0]


def first_integrals(traj: GeodesicTrajectory, h: float) -> tuple[float, float]:
    """Max drift of the two conserved quantities along the trajectory.

    ``sigma^{-1} mu_dot`` and ``sigma^{-1} sigma_dot + a mu^T`` (with ``a``
    the first recovered value) are constant on geodesics; returns their max
    deviations from the values at the earliest usable sample.
    """
    return tuple(_geodesic_checks(traj, h, residual=False)[1:])


def _geodesic_checks(traj: GeodesicTrajectory, h: float, residual: bool = True, drifts: bool = True) -> list[float]:
    """``[residual, drift_a, drift_A]`` of :func:`geodesic_residual` and :func:`first_integrals` from one walk (``-inf`` where not asked for).

    The interior samples are taken in :func:`_blocks` of ``(block, n, n)``
    stacks, each read with its ``m`` samples of stencil on both sides; the
    drifts are measured from the first centre's values, kept from the first
    block.  ``np.maximum``, unlike Python's ``max``, keeps a NaN from any
    block, and every value has the bits of one pass over all samples.  A
    singular sigma is a ``NotSpdError``.
    """
    m = _stencil_offset(traj.ts, h)
    worst = np.full(3, -np.inf)
    for start, stop in _blocks(len(traj.ts) - 2 * m, 8 * traj.mus.shape[1] ** 2):
        lo, hi = start + m, stop + m  # the block's centres
        (s0, sm, sp), (mu0, mum, mup) = ((x[lo:hi], x[lo - m:hi - m], x[lo + m:hi + m]) for x in (traj.sigmas, traj.mus))
        sd = (sp - sm) / (2.0 * h)
        mud = (mup - mum) / (2.0 * h)
        try:
            sinv_sd, sinv_mud = np.linalg.solve(s0, sd), np.linalg.solve(s0, mud[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NotSpdError("a sampled sigma is singular") from exc
        if residual:
            # (sp - 2 s0 + sm) / h^2 + mud mud^T - sd sinv_sd, operation by operation in place: same bits, fewer stacks live
            res_sigma = sp - 2.0 * s0
            res_sigma += sm
            res_sigma /= h * h
            res_sigma += np.einsum("ti,tj->tij", mud, mud)
            res_sigma -= np.einsum("tik,tkj->tij", sd, sinv_sd)
            res_mu = (mup - 2.0 * mu0 + mum) / (h * h) - np.einsum("tik,tk->ti", sd, sinv_mud)
            worst[0] = np.maximum(worst[0], np.max(np.linalg.norm(res_sigma, axis=(1, 2)) + np.linalg.norm(res_mu, axis=1)))
        if drifts:
            if start == 0:
                a = sinv_mud[0].copy()
                big_a0 = sinv_sd[0] + np.outer(a, mu0[0])
            big_a = sinv_sd + np.einsum("i,tj->tij", a, mu0)
            worst[1] = np.maximum(worst[1], np.max(np.linalg.norm(sinv_mud - a, axis=1)))
            worst[2] = np.maximum(worst[2], np.max(np.linalg.norm(big_a - big_a0, axis=(1, 2))))
    return worst.tolist()


@lru_cache(maxsize=16)
def _triu(n: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k)``, cached: building them costs more than the small arrays they index."""
    iu = np.triu_indices(n, k)
    for index in iu:
        index.flags.writeable = False
    return iu


def _pack(A0: np.ndarray, a0: np.ndarray) -> np.ndarray:
    """The packed vector of the tangent ``(A0, a0)``: the upper triangle of ``A0`` (row-major), then ``a0``."""
    return np.concatenate([A0[_triu(len(a0))], a0])


def _unpack(vec: np.ndarray, n: int) -> Tangent:
    """The tangent of the finite packed vector ``vec``, built unchecked: its ``A0`` is exactly symmetric."""
    iu = _triu(n)
    a = np.zeros((n, n))
    k = iu[0].size
    a[iu] = vec[:k]
    return _own(object.__new__(Tangent), a + a.T - np.diag(np.diag(a)), vec[k:].copy())


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


def _daleckii_krein(u: np.ndarray, phi: np.ndarray, e: np.ndarray, rows: slice, cols: slice, entries: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The ``entries`` of blocks ``[rows, cols]`` of ``U (Phi o U^T E U) U^T``, one column per ``E`` of the stack ``e``.

    With ``X = U diag(w) U^T`` and ``Phi`` the divided differences of a scalar
    function ``f`` on ``w``, this is the Frechet derivative of ``f`` at ``X``
    in the direction ``E`` (the Daleckii-Krein formula; Bhatia, *Matrix
    Analysis*, ch. V).
    """
    return (u[rows] @ (phi * (u.T @ e @ u)) @ u[cols].T)[:, entries[0], entries[1]].T


def _residual_jacobian(w: np.ndarray, u: np.ndarray, n: int) -> np.ndarray:
    """Exact Jacobian of the shooting residual by the Daleckii-Krein formula.

    With ``V = U diag(w) U^T`` the divided differences of ``exp`` are
    ``(e^{w_i} - e^{w_j}) / (w_i - w_j)`` (``e^{w_i}`` when the eigenvalues
    coincide), written as ``e^{(w_i + w_j)/2} sinh(h) / h`` with
    ``h = (w_i - w_j)/2`` so that near-equal eigenvalues lose no digits.
    Column j is the derivative of ``exp`` in the direction of the j-th basis
    generator, at the packed entries of the leading (n+1)-block: its upper
    triangle (row-major) without the corner, which the other entries fix on
    the manifold.  They are as many as the unknowns, so the Jacobian is
    square; all columns come from the one eigendecomposition of :func:`_lifted`.
    """
    half = 0.5 * (w[:, None] - w[None, :])
    safe = np.where(half == 0.0, 1.0, half)
    phi = np.exp(0.5 * (w[:, None] + w[None, :])) * np.where(half == 0.0, 1.0, np.sinh(safe) / safe)
    lead = slice(None, n + 1)
    return _daleckii_krein(u, phi, _generator_basis(n), lead, lead, tuple(index[:-1] for index in _triu(n + 1)))


def _descend(x: np.ndarray, start, evaluate, jacobian, limit: float, max_iter: int):
    """Damped Newton from ``x``, already evaluated as ``start = (f, state)``; ``(x, |f|, state)`` of the last accepted point.

    The step solves ``jacobian(state) step = -f[:x.size]`` (``f`` lists one
    equation per unknown first; its norm also counts any entries after them)
    and tries ``x + alpha step`` for ``alpha = 1, 1/2, ...`` down to ``2**-20``,
    taking the first trial that ``evaluate`` does not reject (``None``) and
    whose ``f`` of ``evaluate(trial) = (f, state)`` is shorter.  Stops at
    ``|f| <= limit``, after ``max_iter`` steps, when no trial descends, or at
    a singular Jacobian.
    """
    f, state = start
    res = float(np.linalg.norm(f))
    for _ in range(max_iter):
        if res <= limit:
            break
        try:
            step = np.linalg.solve(jacobian(state), -f[: x.size])
        except np.linalg.LinAlgError:
            break  # a singular Jacobian
        alpha = 1.0
        while alpha > 2.0 ** -20:
            trial = x + alpha * step
            evaluated = evaluate(trial)
            if evaluated is not None:
                f_trial, state_trial = evaluated
                res_trial = float(np.linalg.norm(f_trial))
                if res_trial < res:
                    x, f, res, state = trial, f_trial, res_trial, state_trial
                    break
            alpha *= 0.5
        else:
            break  # no descent left
    return x, res, state


def _shoot(target: np.ndarray, vec: np.ndarray, n: int, tol: float, max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton shooting on the packed residual from the packed guess ``vec`` to the embedded ``target``.

    Returns the converged tangent, packed, the eigenpair ``(w, u)`` of its
    generator, and the ``exp(V)`` that its validation checked.

    Each trial takes one eigendecomposition of its generator (:func:`_lifted`),
    and one beyond the exponent cap is rejected.  The converged tangent is
    validated once, by :func:`exp_map`'s checks (:func:`_lifted_point`) on
    ``exp(V)`` rebuilt from the eigenpair of the last accepted trial, the
    generator ``exp_map(xi, 1)`` would exponentiate.  A stall, or a solution
    that fails the validation, is a ``ShootingError``.
    """
    limit = tol * max(1.0, float(np.linalg.norm(target)))

    def evaluate(trial):
        lifted = _lifted(trial, n)
        if lifted is None:
            return None
        r = lifted[2] - target  # the packed entries (the equations), then the rest of the block, for the norm
        return np.concatenate([r[_triu(n + 1)], r.T[_triu(n + 1, 1)]]), lifted[:2]

    start = evaluate(vec)
    if start is None:
        raise ShootingError("shooting guess exceeds the exponent cap", residual=float("inf"))
    vec, res, (w, u) = _descend(vec, start, evaluate, lambda eigenpair: _residual_jacobian(*eigenpair, n), limit, max_iter)
    if res > limit:
        raise ShootingError(f"shooting stalled at residual {res:.3e}", residual=res)
    g = _spectral(u, np.exp(w))  # exp(V) of the last accepted trial: the generator is exp_map(xi, 1)'s
    try:
        _lifted_point(g)
    except (ArithmeticError, ValueError) as exc:
        raise ShootingError(f"shooting solution failed validation: {exc}", residual=res) from exc
    return vec, w, u, g


def _fibre_point(sigma: np.ndarray, mu: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block LDL^T factors ``(M, D)`` of the lifted point ``G(0) = M D M^T`` over ``(sigma, mu)``.

    In :func:`block_cholesky`'s layout: ``D = diag(theta, 1, sigma)`` with
    ``theta = sigma^{-1}``, and ``M`` is unit block-lower with
    ``m21 = mu^T``, ``m32 = -mu`` and ``m31 = -mu mu^T / 2``.  A skew ``S``
    added to ``m31`` (:func:`_fibre_log` adds it) keeps these the
    constraints of :func:`special_structure_residuals`, so ``G(S)`` lies on
    the exchange-symmetric slice for every skew ``S``; its leading
    (n+1)-block is the embedding of ``(sigma, mu)``, and ``S`` moves it along
    the fibre of the submersion.
    """
    n = mu.shape[0]
    m = np.eye(2 * n + 1)
    m[n, :n] = mu
    m[n + 1:, n] = -mu
    m[n + 1:, :n] = -0.5 * np.outer(mu, mu)
    d = np.zeros((2 * n + 1, 2 * n + 1))
    d[:n, :n] = theta
    d[n, n] = 1.0
    d[n + 1:, n + 1:] = sigma
    return m, d


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


def _fibre_log(fixed: tuple[np.ndarray, np.ndarray], s: np.ndarray):
    """``(M, D, w, u, V)`` at the packed skew ``s``: the fibre point's factors, eigh of ``G(S)`` and ``V = log G(S)``.

    ``fixed`` is :func:`_fibre_point`'s ``(M, D)`` at ``S = 0``, built once
    per solve; a trial adds ``S`` to a copy of that ``M``.  ``None`` when
    the explicitly formed ``G(S)`` is not finite or has lost positivity (a
    rejected trial).
    """
    m, d = fixed
    n = (m.shape[0] - 1) // 2
    m = m.copy()
    m[n + 1:, :n] += _skew(s, n)
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
    in the direction ``dG = dM D M^T + M D dM^T``, where ``dM``, the derivative
    of ``M`` along the k-th packed entry ``(i, j)`` of ``S``, is 1 at
    ``(n+1+i, j)`` and -1 at ``(n+1+j, i)``.  So ``dM D M^T`` has the two
    nonzero rows ``x[j]`` and ``-x[i]`` of ``x = D M^T``, written by indexing.
    """
    n = (m.shape[0] - 1) // 2
    x = d @ m.T
    i, j = _triu(n, 1)
    k = np.arange(i.size)
    dm = np.zeros((i.size, *x.shape))
    lower = dm[:, n + 1:]
    lower[k, i], lower[k, j] = x[j], -x[i]
    dg = dm + dm.swapaxes(-1, -2)
    return _daleckii_krein(u, _log_divided_differences(w), dg, slice(None, n), slice(n + 1, None), _triu(n, 1))


def _fibre_seed(log_sigma: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The packed third-order horizontal point ``([L, mu mu^T] / 12)`` of the normalized target ``(sigma, mu)``, ``L = log sigma``.

    The horizontal skew block is ``S* = [L, mu mu^T] / 12 + O(r^5)`` at paper
    norm ``r``.  The seed is 0 when the chart guess ``(L, mu)`` is longer than
    ``SEED_REACH``, for n = 1 (no unknowns) and for a zero mean (the
    commutator vanishes).
    """
    n = len(mu)
    s0 = np.zeros(n * (n - 1) // 2)
    if n == 1 or not mu.any():
        return s0
    if 2.0 * float(np.sum(log_sigma * log_sigma)) + 4.0 * float(mu @ mu) > SEED_REACH * SEED_REACH:
        return s0
    c = np.outer(log_sigma @ mu, mu)  # L mu mu^T; the commutator is c - c^T
    return ((c - c.T) / 12.0)[_triu(n, 1)]


def _fibre_newton(sigma: np.ndarray, mu: np.ndarray, theta: np.ndarray, log_sigma: np.ndarray, tol: float, max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """``(s, V)``: the packed skew ``S`` where the vertical part of ``V = log G(S)`` vanishes, and that ``V``.

    Damped Newton over the n(n-1)/2 strictly upper entries of ``S`` from the
    seed ``s0`` of :func:`_fibre_seed`, with the Jacobian of
    :func:`_fibre_jacobian`.  A trial is rejected like a non-descent step
    when its ``G(S)`` loses positivity, or when ``log G(S)`` is longer than
    ``|log G(s0)| + |s0|``: the horizontal point is the point of the fibre
    nearest the identity, and far from it the residual also decays as ``S``
    runs off to infinity.  The ``|s0|`` (of the packed seed) keeps a
    near-exact seed from rejecting the exact step, whose logarithm may
    round longer.  ``tol`` is relative to the norm of ``log G(s0)``; the
    polish makes the tangent exact.  For n = 1 there is no unknown and
    ``V = log G(0)``.
    """
    s = _fibre_seed(log_sigma, mu)
    fixed = _fibre_point(sigma, mu, theta)
    lifted = _fibre_log(fixed, s)
    if lifted is None:
        raise ShootingError("fibre point lost positivity", residual=float("inf"))
    length = float(np.linalg.norm(lifted[4]))
    bound = length + float(np.linalg.norm(s))

    def evaluate(trial):
        lifted = _fibre_log(fixed, trial)
        # rejected trials: G(S) lost positivity (None), or log G(S) grew longer than the bound
        if lifted is None or not np.linalg.norm(lifted[4]) <= bound:
            return None
        return _vertical_part(lifted[4]), lifted

    # a singular Jacobian ends the Newton: the polish takes over from there
    s, _, lifted = _descend(s, (_vertical_part(lifted[4]), lifted), evaluate, lambda state: _fibre_jacobian(*state[:4]), tol * max(1.0, length), max_iter)
    return s, lifted[4]


def _normalized(sigma: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bits of ``embed`` of ``(sigma, mu)`` and the matrix logarithm of ``sigma`` from one eigh of the exactly symmetric ``sigma``, after the point constructor's positivity (NaN fails it) and finite-mean tests."""
    w, v = sym_eigen(sigma)
    if not w[0] > 0.0:
        raise NotSpdError("sigma is not positive definite")
    _vectors(mu, sigma, "mu", "mean")
    return _embedded(_spectral(v, np.power(w, -1.0)), mu), _spectral(v, np.log(w))


def _log_subdivided(target: np.ndarray, log_sigma: np.ndarray, mu: np.ndarray, tol: float, max_iter: int, depth: int = 8) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shooting from the chart guess ``(log sigma, mu)`` to the embedded ``target``, with recursive path subdivision on failure; :func:`_shoot`'s result."""
    try:
        return _shoot(target, _pack(log_sigma, mu), len(mu), tol, max_iter)
    except ShootingError:
        if depth <= 0:
            raise
    # Path subdivision: solve toward a halfway target on a cheap connecting
    # curve, then retry the full problem from the doubled tangent.
    half = 0.5 * mu
    return _shoot(target, 2.0 * _log_subdivided(*_normalized(sym_exp(0.5 * log_sigma), half), half, tol, max_iter, depth - 1)[0], len(mu), tol, max_iter)


def _log_solve(p: GaussianPoint, q: GaussianPoint, tol: float, max_iter: int) -> tuple[np.ndarray, AffineMap, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`log_map`'s checks and solve: ``(vec, chart, w, u, g)``.

    ``vec`` is the tangent ``xi``, packed; ``chart`` is
    ``normalize_to_identity(p)``, the chart ``xi`` lives in, ``(w, u)``
    the eigenpair of the generator ``horizontal_lift(xi)`` from the last
    accepted trial, and ``g`` its ``exp(V)``, which the solve has validated.
    Callers that go on along the geodesic (the midpoint path) use these
    instead of building them again, and build no tangent.
    """
    if p.n != q.n:
        raise ValueError(f"points must share a dimension, got n = {p.n} and n = {q.n}")
    _require_iteration(tol, max_iter)
    chart = normalize_to_identity(p)
    sigma, mu = _apply_stacked(chart, q.sigma, q.mu)
    target, log_sigma = _normalized(sigma, mu)
    n = len(mu)
    try:
        _, v = _fibre_newton(sigma, mu, target[:n, :n], log_sigma, tol, max_iter)
        vec, w, u, g = _shoot(target, _pack(sym(-v[:n, :n]), v[:n, n]), n, tol, max_iter)
    except ShootingError:
        vec, w, u, g = _log_subdivided(target, log_sigma, mu, tol, max_iter)
    return vec, chart, w, u, g


def log_map(p: GaussianPoint, q: GaussianPoint, tol: float = LOG_TOL, max_iter: int = LOG_MAX_ITER) -> Tangent:
    """Initial direction (in the normalized chart at ``p``) of the geodesic reaching ``q`` at time 1.

    Damped Newton in the fibre of the lift over ``q`` (the skew block ``S``
    of ``G(S)``, until the vertical part of ``log G(S)`` vanishes), then
    damped Newton shooting on the packed lifted residual from the horizontal
    part of that logarithm, both through the line search and trial
    rejections of the module docstring; converged when the shooting residual
    drops below ``tol`` times the target scale.  ``tol`` and ``max_iter``
    govern both stages.  If the fibre route fails (a stall, or a solution
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
    return _unpack(_log_solve(p, q, tol, max_iter)[0], p.n)


def distance(p: GaussianPoint, q: GaussianPoint, convention: str = "paper", tol: float = LOG_TOL, max_iter: int = LOG_MAX_ITER) -> float:
    """Geodesic distance: the metric norm of :func:`log_map`'s tangent; bad options fail before the solve, also for ``p == q``."""
    _metric_scale(convention)
    _require_iteration(tol, max_iter)
    if p.close_to(q):
        return 0.0
    return tangent_norm(log_map(p, q, tol, max_iter), convention)
