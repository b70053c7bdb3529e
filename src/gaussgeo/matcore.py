"""Dense symmetric/SPD matrix kernel.

Everything downstream (manifold embedding, geodesics, mean iteration, Lax
flow) reduces to a handful of operations on real symmetric matrices:
eigendecomposition, spectral functions (exp, log, sqrt, powers), the
3-block unit-LDL^T factorization with block sizes (n, 1, n), and the
residual of the exchange symmetry J G^{-1} J = G that cuts out the totally
geodesic submanifold used by the lift.

All functions are pure and operate on plain ``numpy.ndarray`` values.  Input
is checked by ``require_symmetric``, ``require_spd``, ``block_cholesky`` and
``check_special_symmetry`` only; the spectral kernels trust their caller.
Nominally symmetric results are re-symmetrized by averaging with the
transpose so that roundoff drift never contaminates positivity checks.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache

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


def _frobenius(a: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix of a stack, rounded like ``np.linalg.norm`` of each one.

    On the row-major arrays the package forms, both sum the squares with one
    BLAS dot in the same order; ``norm(a, axis=(1, 2))`` rounds differently.
    """
    flat = a.reshape(a.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat))


def _first_failure(ok) -> int | None:
    """Index of the first matrix that fails a check, from its pass flags: one flag, or one per matrix of a stack.

    ``None`` when every matrix passes.  A single matrix is index 0.
    """
    if not ok.ndim:
        return None if ok else 0
    flags = ok.tolist()
    return None if all(flags) else flags.index(False)


def _require_memory(nbytes: float, what: str) -> None:
    """``ValueError`` when ``what`` needs more bytes than the machine's physical memory.

    Callers check before they allocate, so an impossible request is an input
    error, not a ``MemoryError`` (or an overflow of the index size) part way in.
    """
    try:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        limit = sys.maxsize
    if nbytes > limit:
        raise ValueError(f"{what} needs {nbytes:.3g} bytes, more than the {limit:.3g} bytes of physical memory")


def _require_count(value, name: str) -> None:
    """``ValueError`` unless ``value`` is an integer >= 1 (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _require_iteration(tol: float, max_iter: int) -> None:
    """``ValueError`` unless ``tol`` is a positive finite number (``inf`` accepts the start) and ``max_iter`` a positive integer."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    _require_count(max_iter, "max_iter")


def _matrices(a, name: str, ndim: int = 2) -> np.ndarray:
    """``a`` as a float array of square matrices: one matrix, or (``ndim`` 3) a stack of them."""
    a = np.asarray(a, dtype=float)
    if not 2 <= a.ndim <= ndim or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def _symmetric(a: np.ndarray, tol: float, name: str) -> np.ndarray:
    """:func:`require_symmetric` of a matrix, or of each matrix of a stack; an error names the first that fails."""
    norm = _frobenius(a)
    k = _first_failure(norm < np.inf)
    if k is not None:
        raise ValueError(f"{name} has a non-finite Frobenius norm ({np.ravel(norm)[k]})")
    skew = _frobenius(a - a.swapaxes(-1, -2))
    # skew <= tol * max(1, norm) as two comparisons, which cost less than a maximum on one matrix
    k = _first_failure((skew <= tol) | (skew <= tol * norm))
    if k is not None:
        scale = max(1.0, float(np.ravel(norm)[k]))
        raise ValueError(f"{name} is not symmetric: asymmetry {np.ravel(skew)[k]:.3e} exceeds {tol:.1e} * {scale:.3e}")
    return sym(a)


def _positive(a: np.ndarray, name: str) -> np.ndarray:
    """The symmetric matrix (or stack) ``a``, once a Cholesky test of each matrix passes; ``NotSpdError`` otherwise."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"{name} is not positive definite") from exc
    return a


def require_symmetric(a: np.ndarray, tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """Validate finiteness and symmetry within ``tol`` (relative); return the symmetrized copy."""
    return _symmetric(_matrices(a, name), tol, name)


def require_spd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate symmetric positive definiteness; return the symmetrized copy."""
    return _positive(require_symmetric(a, tol=1e-10, name=name), name)


def sym_eigen(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (unchecked: the caller vouches for a finite symmetric ``s``).

    Returns eigenvalues in ascending order and an orthogonal frame ``v`` with
    ``v @ diag(w) @ v.T`` reconstructing the input within 1e-12
    (relative Frobenius).

    Raises
    ------
    EigenError
        If the backend iteration fails to converge; the message carries the
        off-diagonal norm of the offending matrix as a diagnostic.
    """
    try:
        w, v = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        off = float(np.linalg.norm(s - s * np.eye(s.shape[-1])))
        raise EigenError(f"symmetric eigensolver did not converge (off-diagonal norm {off:.3e})") from exc
    return w, v


def _spectral(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``sym(v diag(values) v^T)``: the symmetric matrix (or stack) with eigenvectors ``v`` and eigenvalues ``values``."""
    return sym(v @ (values[..., None] * v.mT))


def sym_apply(s: np.ndarray, fn) -> np.ndarray:
    """Apply a scalar function to a symmetric matrix through its spectrum."""
    w, v = sym_eigen(s)
    return _spectral(v, fn(w))


def sym_exp(s: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix; the result is SPD."""
    return sym_apply(s, np.exp)


def spd_power(p: np.ndarray, alpha: float, name: str = "matrix") -> np.ndarray:
    """Real matrix power of an SPD matrix, or of each matrix of a stack (covers sqrt, inverse, inverse sqrt)."""
    w, v = sym_eigen(p)
    k = _first_failure(w[..., 0] > 0.0)
    if k is not None:
        raise NotSpdError(f"{name} has a nonpositive eigenvalue {np.ravel(w[..., 0])[k]:.3e}; not SPD")
    return _spectral(v, np.power(w, alpha))


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
    return _spectral(v, np.log(w))


def block_exchange(n: int) -> np.ndarray:
    """Exchange matrix of order 2n+1 swapping the outer n-blocks and fixing the middle coordinate."""
    m = 2 * n + 1
    j = np.zeros((m, m))
    j[:n, n + 1:] = np.eye(n)
    j[n, n] = 1.0
    j[n + 1:, :n] = np.eye(n)
    return j


@lru_cache(maxsize=16)
def _exchange_order(n: int) -> np.ndarray:
    """The permutation :func:`block_exchange` applies, ``J X J = X[order][:, order]`` (read-only)."""
    order = block_exchange(n).argmax(axis=1)
    order.flags.writeable = False
    return order


def check_special_symmetry(g: np.ndarray):
    """Frobenius residual of the exchange symmetry ``J g^{-1} J = g``.

    Zero (up to ``SYM_TOL``) exactly when ``g`` lies in the totally geodesic
    submanifold realized inside the determinant-one SPD matrices of order
    2n+1.  A stack of matrices (leading axis) gives one residual per
    matrix, each with the bits of its own call; an error names the first
    matrix that fails.
    """
    name = "symmetry-check input"
    g = _positive(_symmetric(_matrices(g, name, ndim=3), 1e-10, name), name)
    m = g.shape[-1]
    if m % 2 == 0 or m < 3:
        raise ValueError(f"order must be odd and >= 3, got {m}")
    order = _exchange_order((m - 1) // 2)
    # J g^{-1} J by indexing: the products with the permutation J are exact, so the bits are the same
    return _frobenius(spd_inv(g)[..., order, :][..., order] - g)


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

    # First Schur complement: eliminate the leading n-by-n pivot.  Far along
    # a geodesic the pivot can pass its Cholesky test yet be singular to LU.
    try:
        ainv_b = np.linalg.solve(a, b)
        ainv_c = np.linalg.solve(a, c)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError("pivot block (1,1) is numerically singular") from exc
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


def special_structure_residuals(m: np.ndarray, d: np.ndarray, d11_inv: np.ndarray | None = None) -> dict[str, float]:
    """Residuals of the structure forced on :func:`block_cholesky`'s (M, D) by the exchange symmetry.

    For a factored matrix with ``J g^{-1} J = g`` all four values vanish:
    ``d22`` is 1, ``d33`` is the inverse of ``d11``, ``m32`` is ``-m21``,
    and ``m31 + m31.T + outer(m21, m21)`` is zero.  A caller that already
    holds ``spd_inv(d[:n, :n])`` passes it as ``d11_inv``.
    """
    n = (m.shape[0] - 1) // 2
    m21, m31 = m[n, :n], m[n + 1:, :n]
    if d11_inv is None:
        d11_inv = spd_inv(d[:n, :n])
    return {
        "d22_minus_one": abs(float(d[n, n]) - 1.0),
        "d33_vs_d11_inv": float(np.linalg.norm(d[n + 1:, n + 1:] - d11_inv) / max(1.0, np.linalg.norm(d11_inv))),
        "m32_vs_minus_m21": float(np.linalg.norm(m[n + 1:, n] + m21)),
        "m31_symmetry_relation": float(np.linalg.norm(m31 + m31.T + np.outer(m21, m21))),
    }
