"""A bracket for the distance that goes neither through the lift nor through the solver.

* Lower bound (Calvo and Oller 1990): with
  ``S(sigma, mu) = [[sigma + mu mu^T, mu], [mu^T, 1]]`` the Fisher-Rao
  distance is at least ``sqrt(1/2 sum_i log^2 lambda_i)`` over the
  eigenvalues of ``S_p^-1 S_q``.
* Upper bound (Nielsen, arXiv:2302.08175): the distance is at most the
  square root of the Jeffreys divergence, so along any curve the sum of
  ``sqrt(J)`` over its segments bounds it too.  The curve here is the
  SPD(n+1) geodesic from ``S_p`` to ``S_q``, each point scaled to a unit
  corner and read as a normal.

Both are in the ``fisher`` convention.  A tangent whose length falls outside
the bracket is wrong (another basin, a wrong length), whatever a round trip
through the lift says.  The bracket is loose by up to about 25%, so a length
inside it is not proven right.
"""

import numpy as np
import pytest

from gaussgeo import GaussianPoint, distance, exp_map_from
from util import random_point, random_spd, random_tangent

NS = (1, 2, 3, 5, 8)
NORMS = (1.0, 4.0, 8.0, 12.0, 16.0)  # paper norms: the envelope's cells, and one near cell
PAIRS = 4  # per cell
SEGMENTS = 256
LOWER_MARGIN = 1e-10  # relative: the lower bound can sit within rounding of the distance


def augmented(p: GaussianPoint) -> np.ndarray:
    """``S(sigma, mu) = [[sigma + mu mu^T, mu], [mu^T, 1]]``."""
    n = p.n
    s = np.empty((n + 1, n + 1))
    s[:n, :n] = p.sigma + np.outer(p.mu, p.mu)
    s[:n, n] = s[n, :n] = p.mu
    s[n, n] = 1.0
    return s


def _congruence(p: GaussianPoint, q: GaussianPoint):
    """``(R, w, v)``: ``S_p = R R^T`` and the eigh ``(w, v)`` of ``R^-1 S_q R^-T``."""
    r = np.linalg.cholesky(augmented(p))
    c = np.linalg.solve(r, np.linalg.solve(r, augmented(q)).T)
    w, v = np.linalg.eigh(0.5 * (c + c.T))
    return r, w, v


def calvo_oller_lower(p: GaussianPoint, q: GaussianPoint) -> float:
    _, w, _ = _congruence(p, q)
    return float(np.sqrt(0.5 * np.sum(np.log(w) ** 2)))


def jeffreys(sigma1, mu1, sigma2, mu2) -> np.ndarray:
    """Jeffreys divergence ``KL(1 || 2) + KL(2 || 1)`` of stacks of normals."""
    n = sigma1.shape[-1]
    inv1, inv2 = np.linalg.inv(sigma1), np.linalg.inv(sigma2)
    dmu = mu2 - mu1
    traces = np.sum(inv2 * sigma1, axis=(-2, -1)) + np.sum(inv1 * sigma2, axis=(-2, -1))
    return 0.5 * (traces + np.einsum("ti,tij,tj->t", dmu, inv1 + inv2, dmu)) - n


def chained_jeffreys_upper(p: GaussianPoint, q: GaussianPoint, segments: int = SEGMENTS) -> float:
    r, w, v = _congruence(p, q)
    b = r @ v
    ts = np.linspace(0.0, 1.0, segments + 1)
    s = np.einsum("ik,tk,jk->tij", b, w[None, :] ** ts[:, None], b)  # R C^t R^T
    n = p.n
    s = s / s[:, n, n, None, None]
    mus = s[:, :n, n]
    sigmas = s[:, :n, :n] - np.einsum("ti,tj->tij", mus, mus)
    sigmas = 0.5 * (sigmas + sigmas.swapaxes(-1, -2))
    divergences = jeffreys(sigmas[:-1], mus[:-1], sigmas[1:], mus[1:])
    return float(np.sum(np.sqrt(np.maximum(divergences, 0.0))))


@pytest.mark.parametrize("n", NS)
def test_bounds_meet_the_equal_mean_closed_form(n):
    # with one mean both S matrices share the congruence by [[I, mu], [0, 1]], so the
    # lower bound is the closed form and the chained curve is the geodesic itself
    rng = np.random.default_rng(140 + n)
    for _ in range(4):
        mu = rng.standard_normal(n)
        p, q = GaussianPoint(random_spd(rng, n), mu), GaussianPoint(random_spd(rng, n), mu)
        d = distance(p, q, convention="fisher")
        assert abs(calvo_oller_lower(p, q) - d) <= 1e-12 * max(1.0, d)
        assert d <= chained_jeffreys_upper(p, q) <= (1.0 + 1e-4) * d


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("norm", NORMS)
def test_distance_lies_in_the_bracket(n, norm):
    rng = np.random.default_rng(150 + 10 * n + int(norm))
    for _ in range(PAIRS):
        p = random_point(rng, n)
        q = exp_map_from(p, random_tangent(rng, n, norm=norm), 1.0)
        d = distance(p, q, convention="fisher")
        lower, upper = calvo_oller_lower(p, q), chained_jeffreys_upper(p, q)
        assert lower <= d * (1.0 + LOWER_MARGIN), f"distance {d:.6g} below the Calvo-Oller bound {lower:.6g}"
        assert d <= upper, f"distance {d:.6g} above the chained Jeffreys bound {upper:.6g}"
