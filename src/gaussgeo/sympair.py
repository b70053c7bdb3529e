"""Symmetric-space lift: ambient space, involutions, and the submersion.

The ambient space is the determinant-one SPD matrices of order 2n+1.  The
exchange matrix ``J`` (block anti-identity) defines an involution whose
fixed submanifold ``{G : J G^{-1} J = G}`` is totally geodesic; projecting
a member onto its leading (n+1)-by-(n+1) block is a Riemannian submersion
onto the embedded normal manifold.

On the Lie-algebra side, the fixed points of ``X -> -J X^T J`` form the
split orthogonal algebra of signature (n+1, n), parametrized by blocks::

    [ -Q    r    R  ]      Q general n-by-n, R, S skew, r, t vectors.
    [ t^T   0  -r^T ]
    [  S   -t   Q^T ]

``X -> -X^T`` splits it into the skew (isotropy) part and the symmetric
part; inside the symmetric part, the R-block spans the kernel of the
submersion differential (the vertical directions) and the (Q, r) data the
horizontal ones.  The horizontal generator built from a tangent ``(A0, a0)``
is the traceless symmetric matrix whose one-parameter group solves the
geodesic equation downstairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import SYM_TOL, block_exchange, check_special_symmetry, require_spd, sym
from .manifold import Tangent, corner_residual


def sigma_group(g: np.ndarray) -> np.ndarray:
    """Group involution ``g -> J g^{-T} J`` (fixed points: the split orthogonal group)."""
    n = (g.shape[0] - 1) // 2
    j = block_exchange(n)
    return j @ np.linalg.inv(g).T @ j


def sigma_algebra(x: np.ndarray) -> np.ndarray:
    """Algebra involution ``X -> -J X^T J`` (fixed points: the split orthogonal algebra)."""
    n = (x.shape[0] - 1) // 2
    j = block_exchange(n)
    return -j @ x.T @ j


def tau_algebra(x: np.ndarray) -> np.ndarray:
    """Cartan involution ``X -> -X^T``."""
    return -x.T


def split_orthogonal(Q: np.ndarray, r, t, R, S) -> np.ndarray:
    """The block layout ``[[-Q, r, R], [t^T, 0, -r^T], [S, -t, Q^T]]`` of order 2n+1.

    The one writer of the split orthogonal layout: the horizontal generator,
    :class:`LieAlgebraElement` and the Lax pair all assemble through it.  A
    block or vector given as the scalar 0.0 is written as zeros.  Leading
    axes of ``Q`` stack the result; the other arguments broadcast against
    them.
    """
    n = Q.shape[-1]
    x = np.zeros(Q.shape[:-2] + (2 * n + 1, 2 * n + 1))
    x[..., :n, :n] = -Q
    x[..., :n, n] = r
    x[..., :n, n + 1:] = R
    x[..., n, :n] = t
    x[..., n, n + 1:] = -r
    x[..., n + 1:, :n] = S
    x[..., n + 1:, n] = -t
    x[..., n + 1:, n + 1:] = np.swapaxes(Q, -1, -2)
    return x


def _blocks(x: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    m = x.shape[0]
    if x.ndim != 2 or x.shape[1] != m or m % 2 == 0 or m < 3:
        raise ValueError(f"expected a square matrix of odd order >= 3, got shape {x.shape}")
    n = (m - 1) // 2
    return n, -x[:n, :n], x[:n, n], x[:n, n + 1:], x[n + 1:, :n], x[n, :n]


@dataclass(frozen=True)
class LieAlgebraElement:
    """Element of the split orthogonal algebra in block coordinates (Q, R, S, r, t)."""

    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray
    r: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        n = self.Q.shape[0]
        for name in ("R", "S"):
            blk = np.asarray(getattr(self, name), dtype=float)
            if blk.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}")
            if np.linalg.norm(blk + blk.T) > 1e-10 * max(1.0, np.linalg.norm(blk)):
                raise ValueError(f"{name} block must be skew-symmetric")
        for name in ("r", "t"):
            vec = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if vec.shape != (n,):
                raise ValueError(f"{name} must be a vector of length {n}")

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    def assemble(self) -> np.ndarray:
        return split_orthogonal(self.Q, self.r, self.t, self.R, self.S)

    @staticmethod
    def from_matrix(x: np.ndarray, tol: float = 1e-10) -> "LieAlgebraElement":
        """Extract block coordinates, validating membership within ``tol``."""
        x = np.asarray(x, dtype=float)
        n, q, r, rr, ss, t = _blocks(x)
        elem = LieAlgebraElement(Q=q, R=0.5 * (rr - rr.T), S=0.5 * (ss - ss.T), r=r, t=t)
        scale = max(1.0, float(np.linalg.norm(x)))
        if np.linalg.norm(elem.assemble() - x) > tol * scale:
            raise ValueError("matrix is not in the split orthogonal algebra (shape residual too large)")
        return elem

    @staticmethod
    def random(n: int, rng: np.random.Generator, scale: float = 1.0) -> "LieAlgebraElement":
        def skew(a):
            return 0.5 * (a - a.T)

        return LieAlgebraElement(
            Q=scale * rng.standard_normal((n, n)),
            R=skew(scale * rng.standard_normal((n, n))),
            S=skew(scale * rng.standard_normal((n, n))),
            r=scale * rng.standard_normal(n),
            t=scale * rng.standard_normal(n),
        )


def horizontal_lift(xi: Tangent) -> np.ndarray:
    """Lift a tangent at the identity to its horizontal generator upstairs.

    Returns the traceless symmetric array ``[[-A0, a0, 0], [a0^T, 0, -a0^T],
    [0, -a0, A0]]`` of order 2n+1.
    """
    return split_orthogonal(xi.A0, xi.a0, xi.a0, 0.0, 0.0)


def decompose_km(x: LieAlgebraElement) -> tuple[LieAlgebraElement, LieAlgebraElement]:
    """Cartan decomposition: skew part (isotropy algebra) + symmetric part."""
    full = x.assemble()
    k_mat = 0.5 * (full - full.T)
    m_mat = 0.5 * (full + full.T)
    return LieAlgebraElement.from_matrix(k_mat), LieAlgebraElement.from_matrix(m_mat)


def _require_m_shaped(x: LieAlgebraElement, tol: float = 1e-10) -> None:
    scale = max(1.0, float(np.linalg.norm(x.assemble())))
    bad = (
        np.linalg.norm(x.Q - x.Q.T) > tol * scale
        or np.linalg.norm(x.t - x.r) > tol * scale
        or np.linalg.norm(x.S + x.R) > tol * scale
    )
    if bad:
        raise ValueError("element is not in the symmetric part (Q symmetric, t = r, S = -R required)")


def horizontal_vertical_split(xm: LieAlgebraElement) -> tuple[Tangent, LieAlgebraElement]:
    """Split a symmetric-part element into horizontal (Q, r) and vertical (R) data.

    The horizontal part is returned as the tangent whose :func:`horizontal_lift`
    it is.  The two parts are trace-orthogonal; the vertical part is the
    kernel of the submersion differential at the identity.
    """
    _require_m_shaped(xm)
    n = xm.n
    h = Tangent(A0=sym(xm.Q), a0=xm.r)
    v = LieAlgebraElement(Q=np.zeros((n, n)), R=xm.R, S=-xm.R, r=np.zeros(n), t=np.zeros(n))
    return h, v


def submersion_project(g: np.ndarray) -> np.ndarray:
    """Project a lifted point onto the leading (n+1)-block (the submersion).

    Validates membership of the SPD array ``g`` in the submanifold and the
    corner identity of the projected block.
    """
    g = require_spd(g, name="lifted point")
    order = g.shape[0]
    if order % 2 == 0 or order < 3:
        raise ValueError(f"order must be odd and >= 3, got {order}")
    n = (order - 1) // 2
    scale = max(1.0, float(np.linalg.norm(g)))
    res = check_special_symmetry(g)
    if res > SYM_TOL * scale:
        raise ValueError(f"input is not in the lifted submanifold: symmetry residual {res:.3e}")
    h = g[: n + 1, : n + 1]
    require_spd(h[:n, :n], name="leading block")
    corner = corner_residual(h)
    if corner > SYM_TOL * scale:
        raise ValueError(f"projected block violates the corner identity: residual {corner:.3e}")
    return h


def submersion_differential(x) -> Tangent:
    """Differential of the submersion at the identity: keep the (Q, r) data.

    Accepts a symmetric-part :class:`LieAlgebraElement` or its assembled
    matrix; the R-block (vertical directions) is annihilated.
    """
    if not isinstance(x, LieAlgebraElement):
        x = LieAlgebraElement.from_matrix(np.asarray(x, dtype=float))
    return horizontal_vertical_split(x)[0]
