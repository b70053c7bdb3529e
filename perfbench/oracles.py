"""Closed-form oracles that do not go through the symmetric-space lift.

Every formula here is plain numpy on the covariance and mean arrays, so a
defect in the lift, the shooting solver or the mean iteration cannot hide
itself by agreeing with its own output.

Distances are in the ``fisher`` convention; the package's default ``paper``
convention is exactly twice that.
"""

from __future__ import annotations

import numpy as np


def _spd_fn(a: np.ndarray, fn) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    return (v * fn(w)) @ v.T


def univariate_distance(sigma_p: float, mu_p: float, sigma_q: float, mu_q: float) -> float:
    """Fisher-Rao distance of two univariate normals given their variances.

    ``sqrt(2) * arccosh(1 + ((dmu)^2 / 2 + (ds)^2) / (2 s1 s2))`` with ``s``
    the standard deviations: the scaled hyperbolic half-plane distance.
    """
    s1, s2 = np.sqrt(sigma_p), np.sqrt(sigma_q)
    arg = 1.0 + (0.5 * (mu_q - mu_p) ** 2 + (s2 - s1) ** 2) / (2.0 * s1 * s2)
    return float(np.sqrt(2.0) * np.arccosh(arg))


def equal_mean_distance(sigma_p: np.ndarray, sigma_q: np.ndarray) -> float:
    """Fisher-Rao distance of two normals with one mean: ``sqrt(1/2 sum log^2 lambda_i)``.

    ``lambda_i`` are the eigenvalues of ``sigma_p^{-1} sigma_q``, taken from
    the congruent symmetric matrix ``sigma_p^{-1/2} sigma_q sigma_p^{-1/2}``.
    """
    root_inv = _spd_fn(sigma_p, lambda w: w ** -0.5)
    lam = np.linalg.eigvalsh(root_inv @ sigma_q @ root_inv)
    return float(np.sqrt(0.5 * np.sum(np.log(lam) ** 2)))


def equal_mean_geodesic(sigma_p: np.ndarray, sigma_q: np.ndarray, t: float) -> np.ndarray:
    """Covariance at time ``t`` on the equal-mean geodesic: ``sigma_p #_t sigma_q``."""
    root = _spd_fn(sigma_p, np.sqrt)
    root_inv = _spd_fn(sigma_p, lambda w: w ** -0.5)
    inner = _spd_fn(root_inv @ sigma_q @ root_inv, lambda w: w ** t)
    return root @ inner @ root


def paper_norm(a_mat: np.ndarray, a_vec: np.ndarray) -> float:
    """Paper-metric norm of the tangent ``(A0, a0)`` at the identity point.

    ``2 tr(T^2)`` for ``T = [[-A0, a0], [a0^T, 0]]`` equals
    ``2 |A0|_F^2 + 4 |a0|^2``.
    """
    return float(np.sqrt(2.0 * np.sum(a_mat * a_mat) + 4.0 * float(a_vec @ a_vec)))


def rel_err(value, reference) -> float:
    """Frobenius distance relative to ``max(1, |reference|)``."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.linalg.norm(value - reference) / max(1.0, float(np.linalg.norm(reference))))
