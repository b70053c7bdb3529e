"""scipy as an independent reference for the lifted shooting residual and its Jacobian.

``_lifted`` reads the leading (n+1)-block of ``exp(V)`` off one symmetric
eigendecomposition, and ``_residual_jacobian`` differentiates it by the
Daleckii-Krein formula.  Here ``scipy.linalg.expm`` (Pade with scaling and
squaring) and ``scipy.linalg.expm_frechet`` (its Frechet derivative) compute
the same quantities by a different method.  ``scipy.linalg.logm`` checks the
fibre route of the log map: the logarithm of the lifted point ``G(S*)`` at the
Newton solution is the horizontal generator of the returned tangent.  scipy
is a test dependency only.
"""

import warnings

import numpy as np
import pytest

from gaussgeo import GaussianPoint, exp_map, horizontal_lift, log_map
from gaussgeo.geodesic import _fibre_newton, _fibre_point, _generator_basis, _lifted, _pack, _residual_jacobian, _skew
from gaussgeo.matcore import spd_inv
from util import random_tangent

linalg = pytest.importorskip("scipy.linalg")

NS = (1, 2, 3, 5, 8)
NORMS = (0.5, 2.0, 6.0, 12.0)  # paper-metric norms of the tangents


def lifted_cases(seed, n):
    """(packed tangent, its generator V) over ``NORMS``."""
    rng = np.random.default_rng(seed)
    for norm in NORMS:
        xi = random_tangent(rng, n, norm=norm)
        yield _pack(xi), horizontal_lift(xi)


@pytest.mark.parametrize("n", NS)
def test_lifted_block_matches_expm(n):
    for vec, v in lifted_cases(90 + n, n):
        _, _, h = _lifted(vec, n)
        ref = linalg.expm(v)[: n + 1, : n + 1]
        assert np.linalg.norm(h - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", NS)
def test_jacobian_matches_expm_frechet(n):
    for vec, v in lifted_cases(95 + n, n):
        w, u, _ = _lifted(vec, n)
        jac = _residual_jacobian(w, u, n)
        ref = np.stack(
            [linalg.expm_frechet(v, e, compute_expm=False)[: n + 1, : n + 1].ravel() for e in _generator_basis(n)],
            axis=1,
        )
        assert np.linalg.norm(jac - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", NS)
def test_fibre_point_logm_is_the_horizontal_generator(n):
    rng = np.random.default_rng(100 + n)
    for norm in NORMS[:3]:
        q = exp_map(random_tangent(rng, n, norm=norm), 1.0)
        theta = spd_inv(q.sigma)
        s, _ = _fibre_newton(q, theta, 1e-12, 100)
        m, d = _fibre_point(q.sigma, q.mu, _skew(s, n), theta)
        ref = horizontal_lift(log_map(GaussianPoint.identity(n), q))
        with warnings.catch_warnings():
            # scipy's own advisory: its estimate ||expm(logm(G)) - G|| / ||G||
            # carries the roundoff of expm at an e^|V|-conditioned G; the
            # assertion below is the check.  The library calls stay outside.
            warnings.filterwarnings("ignore", "logm result may be inaccurate", RuntimeWarning)
            oracle = linalg.logm(m @ d @ m.T)
        assert np.linalg.norm(oracle - ref) <= 1e-9 * np.linalg.norm(ref)
