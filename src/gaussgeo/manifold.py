"""The manifold of multivariate normal distributions.

A point is a pair ``(sigma, mu)`` with ``sigma`` SPD of order n.  The
natural-parameter realization embeds the manifold into SPD matrices of
order n+1::

    H = [ theta     delta ]      theta = sigma^{-1}
        [ delta^T   1 + delta^T theta^{-1} delta ]      delta = sigma^{-1} mu

Tangent vectors at the identity point ``(id, 0)`` are pairs ``(A0, a0)``
of a symmetric matrix and a vector; they equal ``(sigma_dot(0), mu_dot(0))``
of the geodesic they generate.  The inner product at the identity is
``2 * trace(T(X) T(Y))`` on the embedded tangents
``T(X) = [[-A0, a0], [a0^T, 0]]`` ("paper" convention); the statistical
Fisher metric is exactly one quarter of that quadratic form, which the
Gauss-Hermite oracle :func:`fisher_numeric` pins down numerically.

Inner products at other base points are obtained by pulling back through
:func:`normalize_to_identity`; affine changes of variables are sufficient
statistics and hence isometries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import _first_failure, _frobenius, require_spd, require_symmetric, spd_inv, spd_power, spd_sqrt, sym

# unembed accepts inputs produced by iterative algorithms, whose corner
# entry carries accumulated error.
CONSISTENCY_TOL = 1e-8

FISHER_QUAD_MAX_DIM = 3


def _own_checked(obj, matrix_field: str, matrix: np.ndarray, vector_field: str, what: str) -> None:
    """Check the vector field of ``obj`` (finite, of the checked matrix's order); set read-only copies of both.

    Owning read-only arrays keeps the checks valid for the object's life.
    """
    vector = np.array(getattr(obj, vector_field), dtype=float, ndmin=1)
    if vector.ndim != 1 or vector.shape[0] != matrix.shape[0]:
        raise ValueError(f"{vector_field} must be a vector of length {matrix.shape[0]}, got shape {vector.shape}")
    if not np.isfinite(vector).all():
        raise ValueError(f"{what} must be finite, got {vector}")
    for field, a in ((matrix_field, matrix), (vector_field, vector)):
        a.flags.writeable = False
        object.__setattr__(obj, field, a)


@dataclass(frozen=True)
class GaussianPoint:
    """A normal distribution: covariance ``sigma`` (SPD) and mean ``mu``."""

    sigma: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        _own_checked(self, "sigma", require_spd(self.sigma, name="sigma"), "mu", "mean")

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    @staticmethod
    def identity(n: int) -> "GaussianPoint":
        return GaussianPoint(np.eye(n), np.zeros(n))

    def close_to(self, other: "GaussianPoint", tol: float = 1e-12) -> bool:
        scale = max(1.0, float(np.linalg.norm(self.sigma)), float(np.linalg.norm(self.mu)))
        return (
            other.n == self.n
            and np.linalg.norm(self.sigma - other.sigma) <= tol * scale
            and np.linalg.norm(self.mu - other.mu) <= tol * scale
        )


@dataclass(frozen=True)
class Tangent:
    """Tangent vector ``(A0, a0)`` at the identity point: symmetric matrix + vector."""

    A0: np.ndarray
    a0: np.ndarray

    def __post_init__(self):
        _own_checked(self, "A0", require_symmetric(self.A0, name="A0"), "a0", "a0")

    @property
    def n(self) -> int:
        return self.A0.shape[0]

    @staticmethod
    def zero(n: int) -> "Tangent":
        return Tangent(np.zeros((n, n)), np.zeros(n))

    def scaled(self, c: float) -> "Tangent":
        return Tangent(c * self.A0, c * self.a0)

    def embedded(self) -> np.ndarray:
        """The (n+1)-order symmetric matrix [[-A0, a0], [a0^T, 0]]."""
        n = self.n
        t = np.zeros((n + 1, n + 1))
        t[:n, :n] = -self.A0
        t[:n, n] = self.a0
        t[n, :n] = self.a0
        return t


def embed(p: GaussianPoint) -> np.ndarray:
    """Natural-parameter embedding into SPD matrices of order n+1.

    Leading block ``sigma^{-1}``, border ``sigma^{-1} mu``, corner
    ``1 + mu^T sigma^{-1} mu``.
    """
    n = p.n
    theta = spd_inv(p.sigma)
    delta = theta @ p.mu
    h = np.zeros((n + 1, n + 1))
    h[:n, :n] = theta
    h[:n, n] = delta
    h[n, :n] = delta
    h[n, n] = 1.0 + float(p.mu @ delta)
    return h


def corner_residual(h: np.ndarray):
    """Deviation of the corner entry from ``1 + delta^T theta^{-1} delta``, of a matrix or of each matrix of a stack.

    Unchecked: callers ensure ``h`` is symmetric with an SPD leading block.
    """
    n = h.shape[-1] - 1
    delta = h[..., :n, n]
    return np.abs(h[..., n, n] - 1.0 - np.vecdot(delta, np.linalg.solve(h[..., :n, :n], delta[..., None])[..., 0]))


def unembed(h: np.ndarray) -> GaussianPoint:
    """Invert :func:`embed`.

    Raises
    ------
    ValueError
        If ``h`` is not symmetric of order >= 2 with an SPD leading block, or
        its corner entry is inconsistent with the leading blocks beyond
        ``CONSISTENCY_TOL`` (scaled): the input does not represent a normal distribution.
    """
    h = require_symmetric(h, tol=1e-10, name="embedded point")
    if h.shape[0] < 2:
        raise ValueError(f"embedded point must have order >= 2, got {h.shape[0]}")
    require_spd(h[:-1, :-1], name="leading block")
    return GaussianPoint(*read_embedded(h))


def read_embedded(h: np.ndarray, sigma: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(sigma, mu)`` of :func:`unembed` after its corner check alone, for a matrix or a stack of them.

    Callers ensure ``h`` is symmetric with an SPD leading block, and build
    the points.  ``sigma`` is the inverse of the leading block, whose
    eigenvalues must be positive (``NotSpdError`` otherwise); a caller that
    already holds ``spd_inv(h[..., :n, :n])`` passes it as ``sigma``.  An
    error names the first matrix of a stack that fails.
    """
    n = h.shape[-1] - 1
    res = corner_residual(h)
    scale = np.maximum(1.0, _frobenius(h))
    k = _first_failure(res <= CONSISTENCY_TOL * scale)
    if k is not None:
        raise ValueError(
            f"corner entry inconsistent with leading blocks: residual {np.ravel(res)[k]:.3e} exceeds "
            f"{CONSISTENCY_TOL:.1e} * {np.ravel(scale)[k]:.3e}"
        )
    if sigma is None:
        sigma = spd_inv(h[..., :n, :n])
    return sigma, (sigma @ h[..., :n, n, None])[..., 0]


def metric_at_identity(x: Tangent, y: Tangent, convention: str = "paper") -> float:
    """Inner product of tangents at the identity point.

    ``paper``: ``2 * trace(T(x) T(y))`` on the embedded tangents, which is
    the pushed-forward ambient trace metric.  ``fisher``: the statistical
    Fisher metric, exactly one quarter of that value (pinned by the
    :func:`fisher_numeric` quadrature oracle).
    """
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {y.n}")
    return _metric_scale(convention) * (2.0 * float(np.trace(x.embedded() @ y.embedded())))


def _metric_scale(convention: str) -> float:
    """The factor of the ``convention``'s inner product on the paper one; ``ValueError`` for an unknown convention."""
    if convention == "paper":
        return 1.0
    if convention == "fisher":
        return 0.25
    raise ValueError(f"unknown metric convention {convention!r}")


def tangent_norm(x: Tangent, convention: str = "paper") -> float:
    return float(np.sqrt(max(0.0, metric_at_identity(x, x, convention))))


@dataclass(frozen=True)
class AffineMap:
    """Affine change of variables ``x -> A x + b`` acting on distributions."""

    A: np.ndarray
    b: np.ndarray

    def apply(self, q: GaussianPoint) -> GaussianPoint:
        return GaussianPoint(*_apply_stacked(self, q.sigma, q.mu))

    def inverse(self) -> "AffineMap":
        a_inv = np.linalg.inv(self.A)
        return AffineMap(A=a_inv, b=-a_inv @ self.b)


def _apply_stacked(f: AffineMap, sigmas: np.ndarray, mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`AffineMap.apply` on stacked covariances ``(T, n, n)`` and means ``(T, n)``, unchecked."""
    return sym(f.A @ sigmas @ f.A.T), (f.A @ mus[..., None])[..., 0] + f.b


def normalize_to_identity(p: GaussianPoint) -> AffineMap:
    """Affine map sending ``p`` to the identity point ``(id, 0)``.

    ``A = sigma_p^{-1/2}``, ``b = -sigma_p^{-1/2} mu_p``; such maps are
    sufficient statistics and therefore isometries of the metric.
    """
    a = spd_power(p.sigma, -0.5, name="sigma")
    return AffineMap(A=a, b=-a @ p.mu)


def _score(p: GaussianPoint, x: Tangent, pts: np.ndarray) -> np.ndarray:
    # Directional derivative of log-density along (sigma_dot, mu_dot) = (A0, a0),
    # evaluated at sample points (rows of pts).
    theta = spd_inv(p.sigma)
    u = (pts - p.mu) @ theta
    const = -0.5 * float(np.trace(theta @ x.A0))
    return const + u @ x.a0 + 0.5 * np.einsum("ij,ij->i", u @ x.A0, u)


def fisher_numeric(p: GaussianPoint, x: Tangent, y: Tangent, nodes: int = 20) -> float:
    """Quadrature oracle for the Fisher metric.

    Tensor-product Gauss-Hermite estimate of the expected product of the
    score functions along ``x`` and ``y`` under the distribution ``p``.
    Exact for the (polynomial) Gaussian scores once ``nodes`` exceeds the
    degree; restricted to n <= 3 by the tensorized cost.
    """
    n = p.n
    if n > FISHER_QUAD_MAX_DIM:
        raise ValueError(f"quadrature oracle supports n <= {FISHER_QUAD_MAX_DIM}, got n = {n}")
    if x.n != n or y.n != n:
        raise ValueError("tangent dimension does not match the base point")
    z, w = np.polynomial.hermite.hermgauss(nodes)
    grids = np.meshgrid(*([z] * n), indexing="ij")
    zpts = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.ones(zpts.shape[0])
    wgrids = np.meshgrid(*([w] * n), indexing="ij")
    for g in wgrids:
        weights = weights * g.ravel()
    weights /= np.pi ** (n / 2.0)
    pts = p.mu + np.sqrt(2.0) * zpts @ spd_sqrt(p.sigma).T
    return float(np.sum(weights * _score(p, x, pts) * _score(p, y, pts)))
