"""Dense symmetric/SPD matrix kernel.

Everything downstream (manifold embedding, geodesics, mean iteration, Lax
flow) reduces to a handful of operations on real symmetric matrices:
eigendecomposition, spectral functions (exp, log, sqrt, powers), the
3-block unit-LDL^T factorization with block sizes (n, 1, n), and the
residual of the exchange symmetry J G^{-1} J = G that cuts out the totally
geodesic submanifold used by the lift.

All functions are pure and operate on plain ``numpy.ndarray`` values;
results of nominally symmetric computations are re-symmetrized by averaging
with the transpose so that roundoff drift never contaminates positivity
checks.
"""

from __future__ import annotations

import math

import numpy as np

# Relative Frobenius tolerance of membership in the symmetric slice (double
# precision, O(n^3) error growth, matrix orders <= ~50).
SYM_TOL = 1e-10


class EigenError(RuntimeError):
    """Symmetric eigendecomposition failed to converge."""


class NotSpdError(ValueError):
    """Input expected to be symmetric positive definite is not."""


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetrize by averaging with the transpose (of each matrix of a stack)."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def require_symmetric(a: np.ndarray, tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """Validate finiteness and symmetry within ``tol`` (relative); return the symmetrized copy."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    norm = float(np.linalg.norm(a))
    if not math.isfinite(norm):
        raise ValueError(f"{name} has a non-finite Frobenius norm ({norm})")
    scale = max(1.0, norm)
    skew = float(np.linalg.norm(a - a.T))
    if skew > tol * scale:
        raise ValueError(f"{name} is not symmetric: asymmetry {skew:.3e} exceeds {tol:.1e} * {scale:.3e}")
    return sym(a)


def require_spd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate symmetric positive definiteness; return the symmetrized copy."""
    a = require_symmetric(a, tol=1e-10, name=name)
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"{name} is not positive definite") from exc
    return a


def sym_eigen(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns eigenvalues in ascending order and an orthogonal frame ``v`` with
    ``v @ diag(w) @ v.T`` reconstructing the input within 1e-12
    (relative Frobenius).

    Raises
    ------
    EigenError
        If the backend iteration fails to converge; the message carries the
        off-diagonal norm of the offending matrix as a diagnostic.
    """
    s = require_symmetric(s, name="eigen input")
    try:
        w, v = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        off = float(np.linalg.norm(s - np.diag(np.diag(s))))
        raise EigenError(f"symmetric eigensolver did not converge (off-diagonal norm {off:.3e})") from exc
    return w, v


def sym_apply(s: np.ndarray, fn) -> np.ndarray:
    """Apply a scalar function to a symmetric matrix through its spectrum."""
    w, v = sym_eigen(s)
    return sym(v @ (fn(w)[:, None] * v.T))


def sym_exp(s: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix; the result is SPD."""
    return sym_apply(s, np.exp)


def spd_power(p: np.ndarray, alpha: float, name: str = "matrix") -> np.ndarray:
    """Real matrix power of an SPD matrix (covers sqrt, inverse, inverse sqrt)."""
    w, v = sym_eigen(p)
    if w[0] <= 0.0:
        raise NotSpdError(f"{name} has a nonpositive eigenvalue {w[0]:.3e}; not SPD")
    return sym(v @ (np.power(w, alpha)[:, None] * v.T))


def spd_sqrt(p: np.ndarray) -> np.ndarray:
    """Principal square root of an SPD matrix."""
    return spd_power(p, 0.5, name="sqrt input")


def spd_inv(p: np.ndarray) -> np.ndarray:
    """Symmetric inverse of an SPD matrix."""
    return spd_power(p, -1.0, name="inverse input")


def spd_log(p: np.ndarray) -> np.ndarray:
    """Matrix logarithm of an SPD matrix; the result is symmetric."""
    w, v = sym_eigen(p)
    if w[0] <= 0.0:
        raise NotSpdError(f"log input has a nonpositive eigenvalue {w[0]:.3e}; not SPD")
    return sym(v @ (np.log(w)[:, None] * v.T))


def block_exchange(n: int) -> np.ndarray:
    """Exchange matrix of order 2n+1 swapping the outer n-blocks and fixing the middle coordinate."""
    m = 2 * n + 1
    j = np.zeros((m, m))
    j[:n, n + 1:] = np.eye(n)
    j[n, n] = 1.0
    j[n + 1:, :n] = np.eye(n)
    return j


def check_special_symmetry(g: np.ndarray) -> float:
    """Frobenius residual of the exchange symmetry ``J g^{-1} J = g``.

    Zero (up to ``SYM_TOL``) exactly when ``g`` lies in the totally geodesic
    submanifold realized inside the determinant-one SPD matrices of order
    2n+1.
    """
    g = require_spd(g, name="symmetry-check input")
    m = g.shape[0]
    if m % 2 == 0 or m < 3:
        raise ValueError(f"order must be odd and >= 3, got {m}")
    n = (m - 1) // 2
    j = block_exchange(n)
    return float(np.linalg.norm(j @ spd_inv(g) @ j - g))


def block_cholesky(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block LDL^T factorization ``g = M D M.T`` with block sizes (n, 1, n).

    Returns the assembled arrays::

        M = [ id_n   0    0   ]        D = [ d11   0    0  ]
            [ m21    1    0   ]            [  0   d22   0  ]
            [ m31   m32  id_n ]            [  0    0   d33 ]

    ``M`` is unit block-lower triangular, ``D`` block diagonal with SPD
    blocks; both are unique.  Computed by two-stage Schur complementation;
    no symmetry beyond ``g = g.T`` is assumed.

    Raises
    ------
    NotSpdError
        If a pivot block loses positivity; the message identifies the block.
    """
    g = require_symmetric(g, tol=1e-10, name="block factorization input")
    m = g.shape[0]
    if m % 2 == 0 or m < 3:
        raise ValueError(f"order must be odd and >= 3, got {m}")
    n = (m - 1) // 2

    a = g[:n, :n]
    b = g[:n, n]
    c = g[:n, n + 1:]
    try:
        np.linalg.cholesky(sym(a))
    except np.linalg.LinAlgError as exc:
        raise NotSpdError("pivot block (1,1) is not positive definite") from exc

    # First Schur complement: eliminate the leading n-by-n pivot.
    ainv_b = np.linalg.solve(a, b)
    ainv_c = np.linalg.solve(a, c)
    s11 = float(g[n, n] - b @ ainv_b)
    s12 = g[n, n + 1:] - b @ ainv_c
    s22 = sym(g[n + 1:, n + 1:] - c.T @ ainv_c)
    if s11 <= 0.0:
        raise NotSpdError(f"pivot block (2,2) lost positivity: {s11:.3e}")

    # Second stage: eliminate the scalar pivot of the trailing Schur block.
    d33 = sym(s22 - np.outer(s12, s12) / s11)
    try:
        np.linalg.cholesky(d33)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError("pivot block (3,3) is not positive definite") from exc

    lower = np.eye(m)
    lower[n, :n] = ainv_b
    lower[n + 1:, :n] = ainv_c.T
    lower[n + 1:, n] = s12 / s11
    diag = np.zeros((m, m))
    diag[:n, :n] = sym(a)
    diag[n, n] = s11
    diag[n + 1:, n + 1:] = d33
    return lower, diag


def special_structure_residuals(m: np.ndarray, d: np.ndarray) -> dict[str, float]:
    """Residuals of the structure forced on :func:`block_cholesky`'s (M, D) by the exchange symmetry.

    For a factored matrix with ``J g^{-1} J = g`` all four values vanish:
    ``d22`` is 1, ``d33`` is the inverse of ``d11``, ``m32`` is ``-m21``,
    and ``m31 + m31.T + outer(m21, m21)`` is zero.
    """
    n = (m.shape[0] - 1) // 2
    m21, m31 = m[n, :n], m[n + 1:, :n]
    d11_inv = spd_inv(d[:n, :n])
    return {
        "d22_minus_one": abs(float(d[n, n]) - 1.0),
        "d33_vs_d11_inv": float(np.linalg.norm(d[n + 1:, n + 1:] - d11_inv) / max(1.0, np.linalg.norm(d11_inv))),
        "m32_vs_minus_m21": float(np.linalg.norm(m[n + 1:, n] + m21)),
        "m31_symmetry_relation": float(np.linalg.norm(m31 + m31.T + np.outer(m21, m21))),
    }
