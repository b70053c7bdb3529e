"""Shared generators and independent oracles for the test suite."""

import numpy as np

from gaussgeo import GaussianPoint, Tangent, embed, tangent_norm
from gaussgeo.ahm import _step
from gaussgeo.geodesic import GeodesicTrajectory, _stencil_offset
from gaussgeo.laxflow import build_L
from gaussgeo.manifold import _apply_stacked
from gaussgeo.matcore import NotSpdError, _spectral, spd_power, sym, sym_eigen
from gaussgeo.sympair import split_orthogonal


def spd_log(p):
    """Matrix logarithm of an SPD matrix; the result is symmetric."""
    w, v = sym_eigen(p)
    if w[0] <= 0.0:
        raise NotSpdError(f"log input has a nonpositive eigenvalue {w[0]:.3e}; not SPD")
    return _spectral(v, np.log(w))


def block_exchange(n):
    """Exchange matrix J of order 2n+1 swapping the outer n-blocks and fixing the middle coordinate."""
    m = 2 * n + 1
    j = np.zeros((m, m))
    j[:n, n + 1:] = np.eye(n)
    j[n, n] = 1.0
    j[n + 1:, :n] = np.eye(n)
    return j


def random_sym(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.T)


def random_spd(rng, n, scale=0.5):
    w, v = np.linalg.eigh(random_sym(rng, n, scale))
    return (v * np.exp(w)) @ v.T


def random_tangent(rng, n, norm=1.0):
    xi = Tangent(random_sym(rng, n), rng.standard_normal(n))
    return xi.scaled(norm / tangent_norm(xi))


def random_point(rng, n, spread=0.5):
    return GaussianPoint(random_spd(rng, n, spread), spread * rng.standard_normal(n))


def packed_rows(n):
    """Flat (row-major) indices of the packed entries of an (n+1) x (n+1) block: its upper triangle without the corner."""
    rows, cols = np.triu_indices(n + 1)
    return np.ravel_multi_index((rows[:-1], cols[:-1]), (n + 1, n + 1))


def random_algebra(n, rng, scale=1.0):
    """Random element of the split orthogonal algebra, in the layout of ``split_orthogonal``."""

    def skew(a):
        return 0.5 * (a - a.T)

    q = scale * rng.standard_normal((n, n))
    big_r = skew(scale * rng.standard_normal((n, n)))
    big_s = skew(scale * rng.standard_normal((n, n)))
    r = scale * rng.standard_normal(n)
    t = scale * rng.standard_normal(n)
    return split_orthogonal(q, r, t, big_r, big_s)


def ahm_step(p, q):
    """One step ``(P', Q')`` of the arithmetic-harmonic recursion on the plain pair ``(p, q)``."""
    return _step(p, q)


def ahm_gap(p, q):
    """Frobenius norm of the gap ``Q - P`` of a pair of the mean iteration."""
    return float(np.linalg.norm(q - p))


def ahm_iterates(p, q, tol=1e-12):
    """Every iterate ``(P_k, Q_k)`` from ``(p, q)`` up to the first whose gap is below ``tol`` (relative), the runtime's stop.

    Index ``k`` of the list is the number of steps taken.
    """
    iterates = [(p, q)]
    while ahm_gap(*iterates[-1]) > tol * max(1.0, float(np.linalg.norm(iterates[-1][0]))):
        assert len(iterates) <= 60, "mean iteration did not converge in 60 steps"
        iterates.append(_step(*iterates[-1]))
    return iterates


def direct_midpoint(p0, q0):
    """Closed-form geometric mean ``P^{1/2} (P^{-1/2} Q P^{-1/2})^{1/2} P^{1/2}``, the reference for the mean iteration."""
    root = spd_power(p0, 0.5)
    inner = spd_power(sym(np.linalg.solve(root, np.linalg.solve(root, q0).T).T), 0.5)
    return sym(root @ inner @ root)


def alt_embed_check(p):
    """Frobenius distance of :func:`embed` from its moment-matrix form.

    The inverse of ``[[sigma + mu mu^T, -mu], [-mu^T, 1]]`` equals the
    embedding of the same point.
    """
    n = p.n
    m = np.zeros((n + 1, n + 1))
    m[:n, :n] = p.sigma + np.outer(p.mu, p.mu)
    m[:n, n] = -p.mu
    m[n, :n] = -p.mu
    m[n, n] = 1.0
    return float(np.linalg.norm(sym(np.linalg.inv(m)) - embed(p)))


def recovered_initial_direction(traj, h):
    """Central-difference estimate of the generating tangent from a uniformly sampled trajectory.

    At the first sample ``k`` with a full stencil of step ``h``, the
    conserved ``sigma^{-1} mu_dot`` gives ``a0`` and
    ``sigma^{-1} sigma_dot + a0 mu^T`` gives ``A0``.
    """
    k = int(round(h / (traj.ts[1] - traj.ts[0])))
    sigma_dot = (traj.sigmas[2 * k] - traj.sigmas[0]) / (2.0 * h)
    mu_dot = (traj.mus[2 * k] - traj.mus[0]) / (2.0 * h)
    a0 = np.linalg.solve(traj.sigmas[k], mu_dot)
    a_mat = np.linalg.solve(traj.sigmas[k], sigma_dot) + np.outer(a0, traj.mus[k])
    return Tangent(A0=sym(a_mat), a0=a0)


def build_M(state, a0):
    """Block lower-triangular projection of ``build_L`` (the r-borders dropped): the reference for ``verify_lax``'s ``M``."""
    return split_orthogonal(state[0], 0.0, a0, 0.0, 0.0)


def reference_verify_lax(samples, a0, h):
    """``verify_lax`` as a sequence of fresh arrays: one ``build_L`` and one ``build_M`` stack, the commutator and each power allocated anew."""
    m = _stencil_offset(samples.ts, h)
    states = (samples.Qs, samples.rs)
    ls, ms = build_L(states, a0), build_M(states, a0)
    ldot = (ls[2 * m:] - ls[:-2 * m]) / (2.0 * h)
    center_l, center_m = ls[m:-m], ms[m:-m]
    bracket = center_l @ center_m - center_m @ center_l
    comm_residual = float(np.max(np.linalg.norm(ldot - bracket, axis=(1, 2))))
    powers = ls.copy()
    traces = [np.trace(powers, axis1=1, axis2=2)]
    for _ in range(ls.shape[1] - 1):
        powers = powers @ ls
        traces.append(np.trace(powers, axis1=1, axis2=2))
    traces = np.stack(traces)
    return comm_residual, float(np.max(np.abs(traces - traces[:, :1])))


def reference_geodesic_checks(traj, h):
    """``(geodesic_residual, *first_integrals)`` in one pass: every central difference over all interior samples at once, unblocked."""
    m = _stencil_offset(traj.ts, h)
    lo, hi = m, len(traj.ts) - m
    (s0, sm, sp), (mu0, mum, mup) = ((x[lo:hi], x[lo - m:hi - m], x[lo + m:hi + m]) for x in (traj.sigmas, traj.mus))
    sd = (sp - sm) / (2.0 * h)
    mud = (mup - mum) / (2.0 * h)
    sinv_sd, a_series = np.linalg.solve(s0, sd), np.linalg.solve(s0, mud[..., None])[..., 0]
    sdd = (sp - 2.0 * s0 + sm) / (h * h)
    mudd = (mup - 2.0 * mu0 + mum) / (h * h)
    res_sigma = sdd + np.einsum("ti,tj->tij", mud, mud) - np.einsum("tik,tkj->tij", sd, sinv_sd)
    res_mu = mudd - np.einsum("tik,tk->ti", sd, a_series)
    residual = float(np.max(np.linalg.norm(res_sigma, axis=(1, 2)) + np.linalg.norm(res_mu, axis=1)))
    big_a = sinv_sd + np.einsum("i,tj->tij", a_series[0], mu0)
    drift_a = float(np.max(np.linalg.norm(a_series - a_series[0], axis=1)))
    drift_big_a = float(np.max(np.linalg.norm(big_a - big_a[0], axis=(1, 2))))
    return residual, drift_a, drift_big_a


def reference_sampled(w, u, ts, denorm):
    """``geodesic._sampled`` from the whole leading (n+1)-block of ``exp(t V)``, with its checks."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    n = (len(w) - 1) // 2
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            gs = np.einsum("ik,tk,jk->tij", u[: n + 1], np.exp(np.outer(ts, w)), u[: n + 1])
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


def state_from_L(l):
    """The state ``(Q, r)`` read back off a Lax matrix ``[[-Q, r, 0], ...]``."""
    n = (l.shape[0] - 1) // 2
    return -l[:n, :n].copy(), l[:n, n].copy()


def gap_identity_residual(before, after):
    """Residual of the exact one-step contraction of the mean iteration's gap, ``Q' - P'``, between pairs ``(P, Q)``."""
    (p, q), (p1, q1) = before, after
    delta = q - p
    predicted = -0.5 * delta @ np.linalg.solve(p + q, delta)
    return float(np.linalg.norm((q1 - p1) - sym(predicted)))


def sigma_group(g):
    """Group involution ``g -> J g^{-T} J`` (fixed points: the split orthogonal group)."""
    j = block_exchange((g.shape[0] - 1) // 2)
    return j @ np.linalg.inv(g).T @ j


def sigma_algebra(x):
    """Algebra involution ``X -> -J X^T J`` (fixed points: the split orthogonal algebra)."""
    j = block_exchange((x.shape[0] - 1) // 2)
    return -j @ x.T @ j


def tau_algebra(x):
    """Cartan involution ``X -> -X^T`` (fixed points: the skew, isotropy part)."""
    return -x.T


def scalar_ldl(g):
    """Unblocked LDL^T by plain Gaussian elimination (oracle, no pivoting)."""
    g = np.array(g, dtype=float)
    size = g.shape[0]
    lower = np.eye(size)
    diag = np.zeros(size)
    for i in range(size):
        diag[i] = g[i, i] - np.sum(lower[i, :i] ** 2 * diag[:i])
        for j in range(i + 1, size):
            lower[j, i] = (g[j, i] - np.sum(lower[j, :i] * lower[i, :i] * diag[:i])) / diag[i]
    return lower, diag


def blocked_from_scalar(g, n):
    """Group the scalar LDL^T into the (n,1,n) block normalization."""
    lower, diag = scalar_ldl(g)
    b = np.zeros_like(lower)
    b[:n, :n] = lower[:n, :n]
    b[n, n] = lower[n, n]
    b[n + 1:, n + 1:] = lower[n + 1:, n + 1:]
    m = lower @ np.linalg.inv(b)
    d = b @ np.diag(diag) @ b.T
    return m, d


def expm_taylor(a, order=18, squarings=12):
    """General matrix exponential by scaled Taylor series (oracle-grade)."""
    a = np.array(a, dtype=float) / 2.0 ** squarings
    size = a.shape[0]
    out = np.eye(size)
    term = np.eye(size)
    for k in range(1, order + 1):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def rk4(f, y0, t_end, steps):
    """Classical fixed-step Runge-Kutta (oracle-grade integrator)."""
    y = np.array(y0, dtype=float)
    t = 0.0
    dt = t_end / steps
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + dt / 2, y + dt / 2 * k1)
        k3 = f(t + dt / 2, y + dt / 2 * k2)
        k4 = f(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return y


def integrate_geodesic_ode(A0, a0, t_end, steps=4000):
    """Independent oracle: integrate the second-order geodesic equations.

    State (sigma, sigma_dot, mu, mu_dot) from (id, A0, 0, a0), with
    sigma_ddot = sigma_dot sigma^{-1} sigma_dot - mu_dot mu_dot^T and
    mu_ddot = sigma_dot sigma^{-1} mu_dot.
    """
    n = len(a0)

    def pack(s, sd, m, md):
        return np.concatenate([s.ravel(), sd.ravel(), m, md])

    def unpack(y):
        k = n * n
        return (y[:k].reshape(n, n), y[k:2 * k].reshape(n, n), y[2 * k:2 * k + n], y[2 * k + n:])

    def f(_t, y):
        s, sd, _m, md = unpack(y)
        sinv_sd = np.linalg.solve(s, sd)
        sdd = sd @ sinv_sd - np.outer(md, md)
        mdd = sd @ np.linalg.solve(s, md)
        return pack(sd, sdd, md, mdd)

    y = rk4(f, pack(np.eye(n), np.array(A0, dtype=float), np.zeros(n), np.array(a0, dtype=float)), t_end, steps)
    s, _sd, m, _md = unpack(y)
    return s, m
