"""scipy as an independent reference for the lifted shooting residual and its Jacobian.

``_lifted`` reads the leading (n+1)-block of ``exp(V)`` off one symmetric
eigendecomposition, and ``_residual_jacobian`` differentiates it by the
Daleckii-Krein formula.  Here ``scipy.linalg.expm`` (Pade with scaling and
squaring) and ``scipy.linalg.expm_frechet`` (its Frechet derivative) compute
the same quantities by a different method.  scipy is a test dependency only.
"""

import numpy as np
import pytest

from gaussgeo import horizontal_lift
from gaussgeo.geodesic import _generator_basis, _lifted, _pack, _residual_jacobian
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
