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

from .matcore import _first_failure, _frobenius, _positive, _require_memory, _symmetric, require_spd, require_symmetric, spd_inv, spd_power, sym

# unembed accepts inputs produced by iterative algorithms, whose corner
# entry carries accumulated error.
CONSISTENCY_TOL = 1e-8

# Nodes per axis of the default Gauss-Hermite rule: a product of two scores has degree 4, and 3 nodes are exact to degree 5.
FISHER_NODES = 3


def _vectors(vectors, matrices: np.ndarray, field: str, what: str) -> np.ndarray:
    """Float copy of ``vectors`` (one, or a stack like ``matrices``), once each is a finite vector of the matrices' order; an error names the first that fails."""
    vectors = np.array(vectors, dtype=float, ndmin=1)
    lead, n = matrices.shape[:-2], matrices.shape[-1]
    if vectors.shape != (*lead, n):
        raise ValueError(f"{field} must be a vector of length {n}, got shape {vectors.shape[len(lead):]}")
    k = _first_failure(np.isfinite(vectors).all(axis=-1))
    if k is not None:
        raise ValueError(f"{what} must be finite, got {vectors.reshape(-1, n)[k]}")
    return vectors


def _own(obj, *arrays: np.ndarray):
    """``obj`` (a ``GaussianPoint`` or ``Tangent``) with the checked ``arrays`` as its fields, in order, made read-only.

    Owning read-only arrays keeps the checks valid for the object's life.
    Code that checked the arrays itself builds ``_own(object.__new__(cls), ...)``.
    """
    for field, a in zip(obj.__dataclass_fields__, arrays):
        a.flags.writeable = False
        object.__setattr__(obj, field, a)
    return obj


@dataclass(frozen=True)
class GaussianPoint:
    """A normal distribution: covariance ``sigma`` (SPD) and mean ``mu``."""

    sigma: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        sigma = require_spd(self.sigma, name="sigma")
        _own(self, sigma, _vectors(self.mu, sigma, "mu", "mean"))

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    @staticmethod
    def identity(n: int) -> "GaussianPoint":
        return GaussianPoint(np.eye(n), np.zeros(n))

    def close_to(self, other: "GaussianPoint") -> bool:
        """Whether ``other`` is this point exactly (equal ``sigma`` and ``mu``): a tolerance scaled by the mean would take a narrow pair with a large mean, far apart in the metric, for one point."""
        return np.array_equal(self.sigma, other.sigma) and np.array_equal(self.mu, other.mu)


@dataclass(frozen=True)
class Tangent:
    """Tangent vector ``(A0, a0)`` at the identity point: symmetric matrix + vector."""

    A0: np.ndarray
    a0: np.ndarray

    def __post_init__(self):
        a = require_symmetric(self.A0, name="A0")
        _own(self, a, _vectors(self.a0, a, "a0", "a0"))

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


def _points(sigmas: np.ndarray, mus: np.ndarray) -> list[GaussianPoint]:
    """The points of stacked covariances ``(T, n, n)`` and means ``(T, n)``, after the constructor's checks run once per stack.

    The covariances are checked symmetric (at ``1e-10``) and positive
    definite, the means finite vectors of length n, with the constructor's
    error types and messages; an error names the first member that fails.
    The points keep read-only views of the checked stacks and are not
    checked again.
    """
    sigmas = _positive(_symmetric(sigmas, 1e-10, "sigma")[0], "sigma")
    mus = _vectors(mus, sigmas, "mu", "mean")
    sigmas.flags.writeable = mus.flags.writeable = False
    return [_own(object.__new__(GaussianPoint), sigma, mu) for sigma, mu in zip(sigmas, mus)]


def embed(p: GaussianPoint) -> np.ndarray:
    """Natural-parameter embedding into SPD matrices of order n+1.

    Leading block ``sigma^{-1}``, border ``sigma^{-1} mu``, corner
    ``1 + mu^T sigma^{-1} mu``.
    """
    return _embedded(spd_inv(p.sigma), p.mu)


def _embedded(theta: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """:func:`embed` of the point with mean ``mu`` from its precision ``theta = spd_inv(sigma)``, unchecked."""
    n = len(mu)
    delta = theta @ mu
    h = np.zeros((n + 1, n + 1))
    h[:n, :n] = theta
    h[:n, n] = delta
    h[n, :n] = delta
    h[n, n] = 1.0 + float(mu @ delta)
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
    if np.shape(h) in ((0, 0), (1, 1)):
        raise ValueError(f"embedded point must have order >= 2, got {len(h)}")
    h = require_symmetric(h, tol=1e-10, name="embedded point")
    require_spd(h[:-1, :-1], name="leading block")
    return GaussianPoint(*read_embedded(h))


def read_embedded(h: np.ndarray, sigma: np.ndarray | None = None, residual: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(sigma, mu)`` of :func:`unembed` after its corner check alone, for a matrix or a stack of them.

    Callers ensure ``h`` is symmetric with an SPD leading block, and build
    the points.  ``sigma`` is the inverse of the leading block, whose
    eigenvalues must be positive (``NotSpdError`` otherwise); a caller that
    already holds ``spd_inv(h[..., :n, :n])`` passes it as ``sigma``, and
    one that holds ``corner_residual(h)`` passes it as ``residual``.  An
    error names the first matrix of a stack that fails.
    """
    n = h.shape[-1] - 1
    res = corner_residual(h) if residual is None else residual
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


def _hermite_rule(n: int, nodes: int, columns: int) -> tuple[np.ndarray, np.ndarray]:
    """The tensor Gauss-Hermite rule of ``nodes`` nodes per axis for expectations under ``N(0, I_n)``: points ``z`` (rows) and weights.

    ``ValueError`` first unless it and ``columns`` score columns (for as many
    tangents) fit in physical memory, and the rule in double precision.
    """
    # a row per point (or entry of hermgauss's (nodes, nodes) companion matrix): its scores, weighted scores, node and
    # sample; five per tangent, for fisher-check's basis and closed form (tracemalloc); counts capped where refused anyway
    rows = min(max(nodes**2, nodes ** min(n, 64)) + 5 * columns, 2**64)
    _require_memory(rows, min(2 * columns + 3 * n + 16, 2**64), f"quadrature with {nodes} nodes in {n} dimensions")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            z, w = np.polynomial.hermite.hermgauss(nodes)
    except FloatingPointError as exc:
        raise ValueError(f"the Gauss-Hermite rule with {nodes} nodes is not representable in double precision") from exc
    index = np.indices((nodes,) * n).reshape(n, -1).T
    return z[index], np.prod(w[index], axis=1) / np.pi ** (n / 2.0)


def _fisher_gram(p: GaussianPoint, tangents: list[Tangent], rule: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``S^T diag(w) S``, the Fisher metric of ``p`` on each pair of ``tangents`` by the rule ``(z, w)`` of :func:`_hermite_rule`.

    ``S`` has a row per point and a column per tangent ``(A0, a0)``: the score
    ``-trace(theta A0) / 2 + u^T a0 + u^T A0 u / 2`` at ``x = mu + sqrt(2) sigma^{1/2} z``,
    with ``theta = sigma^{-1}`` and ``u = theta (x - mu) = sqrt(2) sigma^{-1/2} z``.
    """
    z, w = rule
    a_mats = np.stack([x.A0 for x in tangents])
    u = np.sqrt(2.0) * z @ spd_power(p.sigma, -0.5, name="sigma")
    scores = u @ np.stack([x.a0 for x in tangents]).T
    scores += 0.5 * np.einsum("pi,kij,pj->pk", u, a_mats, u)
    scores -= 0.5 * np.einsum("ij,kji->k", spd_inv(p.sigma), a_mats)
    return scores.T @ (w[:, None] * scores)


def fisher_numeric(p: GaussianPoint, x: Tangent, y: Tangent, nodes: int = FISHER_NODES) -> float:
    """Quadrature oracle for the Fisher metric, in any dimension: the tensor Gauss-Hermite estimate of the expected product of the scores along ``x`` and ``y`` under ``p``.

    The scores are quadratic in the sample, so the default 3 nodes per axis
    are exact up to rounding.  The ``nodes**n`` points must fit in physical
    memory, and the rule in double precision (to 370 nodes); else ``ValueError``.
    """
    if x.n != p.n or y.n != p.n:
        raise ValueError("tangent dimension does not match the base point")
    return float(_fisher_gram(p, [x, y], _hermite_rule(p.n, nodes, 2))[0, 1])
