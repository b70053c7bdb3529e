"""Symmetric-space lift: the split orthogonal layout, the horizontal lift, and the submersion.

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

import numpy as np

from .matcore import SYM_TOL, _first_failure, _special_symmetry, sym
from .manifold import Tangent, corner_residual


def split_orthogonal(Q: np.ndarray, r, t, R, S) -> np.ndarray:
    """The block layout ``[[-Q, r, R], [t^T, 0, -r^T], [S, -t, Q^T]]`` of order 2n+1.

    The one writer of the split orthogonal layout: the horizontal generator
    and the Lax pair assemble through it.  A block or vector given as the
    scalar 0.0 is written as zeros.  Leading axes of ``Q`` stack the result;
    the other arguments broadcast against them.
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


def horizontal_lift(xi: Tangent) -> np.ndarray:
    """Lift a tangent at the identity to its horizontal generator upstairs.

    Returns the traceless symmetric array ``[[-A0, a0, 0], [a0^T, 0, -a0^T],
    [0, -a0, A0]]`` of order 2n+1.
    """
    return split_orthogonal(xi.A0, xi.a0, xi.a0, 0.0, 0.0)


def submersion_project(g: np.ndarray) -> np.ndarray:
    """Project a lifted point, or each of a stack of them, onto the leading (n+1)-block (the submersion).

    Validates membership of the SPD array ``g`` in the submanifold (one
    :func:`check_special_symmetry`) and the corner identity of the projected
    block.  An error names the first point of a stack that fails either.
    """
    return _projected(g)[0]


def _projected(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`submersion_project` and the corner residual of its projection, which :func:`read_embedded` takes."""
    res, norm = _special_symmetry(g)
    g = np.asarray(g, dtype=float)
    n = (g.shape[-1] - 1) // 2
    scale = np.maximum(1.0, norm)
    h = sym(g[..., : n + 1, : n + 1])
    corner = corner_residual(h)
    on_slice = res <= SYM_TOL * scale
    k = _first_failure(on_slice & (corner <= SYM_TOL * scale))
    if k is not None:
        if not np.ravel(on_slice)[k]:
            raise ValueError(f"input is not in the lifted submanifold: symmetry residual {np.ravel(res)[k]:.3e}")
        raise ValueError(f"projected block violates the corner identity: residual {np.ravel(corner)[k]:.3e}")
    return h, corner
