"""Shared generators and independent oracles for the test suite."""

import numpy as np

from gaussgeo import AhmPair, GaussianPoint, Tangent, embed, tangent_norm
from gaussgeo.ahm import _step
from gaussgeo.matcore import block_exchange, spd_sqrt, sym
from gaussgeo.sympair import split_orthogonal


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


def ahm_step(pair):
    """One step of the arithmetic-harmonic recursion, as a checked pair: the iteration shown step by step."""
    p, q = _step(pair.P, pair.Q)
    return AhmPair(P=p, Q=q, iteration=pair.iteration + 1)


def direct_midpoint(p0, q0):
    """Closed-form geometric mean ``P^{1/2} (P^{-1/2} Q P^{-1/2})^{1/2} P^{1/2}``, the reference for the mean iteration."""
    root = spd_sqrt(p0)
    inner = spd_sqrt(sym(np.linalg.solve(root, np.linalg.solve(root, q0).T).T))
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


def state_from_L(l):
    """The state ``(Q, r)`` read back off a Lax matrix ``[[-Q, r, 0], ...]``."""
    n = (l.shape[0] - 1) // 2
    return -l[:n, :n].copy(), l[:n, n].copy()


def gap_identity_residual(before, after):
    """Residual of the exact one-step contraction of the mean iteration's gap, ``Q' - P'``."""
    delta = before.Q - before.P
    predicted = -0.5 * delta @ np.linalg.solve(before.P + before.Q, delta)
    return float(np.linalg.norm((after.Q - after.P) - sym(predicted)))


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
