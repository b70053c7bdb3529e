"""Distances against closed forms that do not go through the lift.

The formulas are the benchmark's own oracles (``perfbench/oracles.py``),
imported rather than copied, so the tests and the benchmark gate on one
definition.  Both are in the ``fisher`` convention.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gaussgeo import GaussianPoint, distance
from util import random_point, random_spd

_SPEC = importlib.util.spec_from_file_location("oracles", Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py")
oracles = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracles)


def test_univariate_distance():
    # the oracle's arccosh loses digits near 1, hence the 1e-10 bound
    rng = np.random.default_rng(80)
    for _ in range(40):
        p, q = random_point(rng, 1), random_point(rng, 1)
        oracle = oracles.univariate_distance(p.sigma[0, 0], p.mu[0], q.sigma[0, 0], q.mu[0])
        assert abs(distance(p, q, convention="fisher") - oracle) <= 1e-10 * oracle


def test_univariate_narrow_pair_with_large_mean():
    # distinct points are never taken for one: at a spread of 1e-6 a mean 5e-9 away is 5.0e-3 off. The bound
    # admits the chart's cancellation, about eps |sigma^{-1/2} mu| = 1e-6 of the normalized mean (2e-4 of the distance)
    p = GaussianPoint(np.array([[1e-12]]), np.array([1e4]))
    q = GaussianPoint(np.array([[1e-12]]), np.array([10000.000000005]))
    oracle = oracles.univariate_distance(1e-12, 1e4, 1e-12, 10000.000000005)
    assert abs(distance(p, q, convention="fisher") - oracle) <= 1e-3 * oracle


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_equal_mean_distance(n):
    rng = np.random.default_rng(81 + n)
    for _ in range(8):
        mu = rng.standard_normal(n)
        p, q = GaussianPoint(random_spd(rng, n), mu), GaussianPoint(random_spd(rng, n), mu)
        oracle = oracles.equal_mean_distance(p.sigma, q.sigma)
        assert abs(distance(p, q, convention="fisher") - oracle) <= 1e-12 * max(1.0, oracle)
