"""Kernel budgets: how often each op calls the decompositions and solves of ``numpy.linalg``.

Each op runs once on seeded inputs at n in {1, 3, 8} and paper norms 2 and
16, with ``eigh``, ``solve``, ``cholesky``, ``inv``, ``det``, ``svd`` and
``lstsq`` of ``numpy.linalg`` wrapped in counters.  The package calls them
through the ``np.linalg`` attribute, so the wrappers see every call.  The
counts are exact: a change that adds a kernel call to an op raises its
budget here and says why in CHANGES.md; one that removes a call lowers it.

The pairs are ``q = exp_map_from(p, xi, 1)``.  Their log maps take the fibre
Newton and the polish; at norm 16 the Newton runs longer at n = 3 and 8.
None of them reaches the chart-guess fallback, which starts beyond paper
norm about 20; the README's far-sweep targets at norm 28 that it solves have
budgets of their own.  At norm 16 ``midpoint_N`` (n = 1, 3) and ``interpolate``
stop with an ``ArithmeticError``, because the mean iteration's limit leaves
the slice (see ``test_envelope.py``), so those rows count the kernels up to
it.  ``interpolate`` and ``midpoint_N`` sample the geodesic at 7 and 1
times, in one block.  The flow ops run on 2001 samples over [0, 0.5], so at
n = 8 ``trajectory`` and the geodesic checks walk four blocks.
"""

import numpy as np
import pytest

import gaussgeo.geodesic as geodesic
import gaussgeo.laxflow as laxflow
from gaussgeo import GaussianPoint, distance, embed, exp_map, exp_map_from, integrate, interpolate, log_map, midpoint_N, trajectory
from util import random_point, random_tangent

KERNELS = ("eigh", "solve", "cholesky", "inv", "det", "svd", "lstsq")
NS = (1, 3, 8)
NORMS = (2.0, 16.0)
FLOW_DT = 2.5e-4

# (eigh, solve, cholesky, inv, det) of one call, per n at paper norm 2 and then 16; svd and lstsq are never called
BUDGETS = {
    "exp_map": {1: ((2, 3, 3, 0, 0), (2, 3, 3, 0, 0)), 3: ((2, 3, 3, 0, 0), (2, 3, 3, 0, 0)), 8: ((2, 3, 3, 0, 0), (2, 3, 3, 0, 0))},
    "log_map": {1: ((5, 3, 3, 0, 0), (6, 4, 3, 0, 0)), 3: ((7, 5, 3, 0, 0), (68, 16, 3, 0, 0)), 8: ((7, 5, 3, 0, 0), (54, 21, 3, 0, 0))},
    "distance": {1: ((5, 3, 3, 0, 0), (6, 4, 3, 0, 0)), 3: ((7, 5, 3, 0, 0), (68, 16, 3, 0, 0)), 8: ((7, 5, 3, 0, 0), (54, 21, 3, 0, 0))},
    "midpoint_N": {1: ((7, 9, 6, 2, 0), (7, 18, 4, 0, 0)), 3: ((9, 11, 6, 2, 0), (69, 29, 4, 0, 0)), 8: ((9, 11, 6, 2, 0), (56, 32, 6, 2, 0))},
    "interpolate": {1: ((7, 18, 6, 2, 0), (7, 32, 4, 0, 0)), 3: ((9, 19, 6, 2, 0), (69, 43, 4, 0, 0)), 8: ((9, 19, 6, 2, 0), (55, 45, 4, 0, 0))},
    "trajectory": {1: ((1, 0, 1, 1, 0), (1, 0, 1, 1, 0)), 3: ((1, 0, 1, 1, 0), (1, 0, 1, 1, 0)), 8: ((1, 0, 4, 4, 0), (1, 0, 4, 4, 0))},
    "integrate": {1: ((0, 0, 0, 0, 0), (0, 0, 0, 0, 0)), 3: ((0, 0, 0, 0, 0), (0, 0, 0, 0, 0)), 8: ((0, 0, 0, 0, 0), (0, 0, 0, 0, 0))},
    "verify_checks": {1: ((44, 87, 85, 1, 1), (44, 87, 85, 1, 1)), 3: ((44, 87, 85, 1, 1), (44, 87, 85, 1, 1)), 8: ((44, 93, 85, 1, 1), (44, 93, 85, 1, 1))},
}
# the ops that stop with an ArithmeticError on their inputs, as (op, n, norm)
RAISES = {("midpoint_N", 1, 16.0), ("midpoint_N", 3, 16.0), ("interpolate", 1, 16.0), ("interpolate", 3, 16.0), ("interpolate", 8, 16.0)}
# README far-sweep targets q = exp_map(xi, 1) from the identity point, xi the draw-th (from 0) of
# random_tangent at paper norm `norm` from default_rng(1000 + 10 norm + n), on which the fibre route
# fails and the chart-guess fallback solves: at n = 1 in one shooting solve, at n = 2 after one path
# subdivision (two _log_subdivided calls).  As (norm, n, draw): (eigh, solve, cholesky, inv, det) of
# log_map and its _log_subdivided calls.  Far solves are not stable under a 1e-12 change of the target,
# so these counts hold for these bits only.
FALLBACK_BUDGETS = {(28.0, 1, 8): ((34, 18, 3, 0, 0), 1), (28.0, 2, 8): ((942, 187, 6, 0, 0), 2)}


def calls(n, norm):
    """The ops, each a call without arguments, on the seeded inputs of (n, norm), built before any counting."""
    rng = np.random.default_rng(1000 * n + int(norm))
    p = random_point(rng, n)
    xi = random_tangent(rng, n, norm)
    q = exp_map_from(p, xi, 1.0)
    samples = integrate("bilinear", xi, 0.5, dt=FLOW_DT)
    traj = trajectory(xi, samples.ts)
    return {
        "exp_map": lambda: exp_map(xi, 1.0),
        "log_map": lambda: log_map(p, q),
        "distance": lambda: distance(p, q),
        "midpoint_N": lambda: midpoint_N(p, q),
        "interpolate": lambda: interpolate(p, q, 3),
        "trajectory": lambda: trajectory(xi, samples.ts),
        "integrate": lambda: integrate("bilinear", xi, 0.5, dt=FLOW_DT),
        "verify_checks": lambda: laxflow.verify_checks(xi, traj, samples, FLOW_DT),
    }


@pytest.fixture
def tally(monkeypatch):
    """Calls of each kernel, by name, since the test last zeroed them."""
    counts = dict.fromkeys(KERNELS, 0)

    def counting(name, kernel):
        def counted(*args, **kwargs):
            counts[name] += 1
            return kernel(*args, **kwargs)

        return counted

    for name in KERNELS:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return counts


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("n", NS)
def test_kernel_calls_match_the_budget(n, norm, tally):
    ops = calls(n, norm)
    got, want = {}, {}
    for op, call in ops.items():
        tally.update(dict.fromkeys(KERNELS, 0))
        raised = False
        try:
            call()
        except ArithmeticError:
            raised = True
        assert raised == ((op, n, norm) in RAISES), op
        got[op] = tuple(tally[name] for name in KERNELS)
        want[op] = BUDGETS[op][n][NORMS.index(norm)] + (0, 0)
    assert got == want


@pytest.mark.parametrize("norm, n, draw", FALLBACK_BUDGETS, ids=lambda v: str(v))
def test_fallback_kernel_calls_match_the_budget(norm, n, draw, tally, monkeypatch):
    rng = np.random.default_rng(1000 + int(10 * norm) + n)
    for _ in range(draw + 1):
        xi = random_tangent(rng, n, norm)
    p, q = GaussianPoint.identity(n), exp_map(xi, 1.0)
    fallbacks = []
    fallback = geodesic._log_subdivided

    def counted(*args):
        fallbacks.append(None)
        return fallback(*args)

    # the recursion looks the name up in the module, so the wrapper sees every level
    monkeypatch.setattr(geodesic, "_log_subdivided", counted)
    tally.update(dict.fromkeys(KERNELS, 0))
    rec = log_map(p, q)
    got = tuple(tally[name] for name in KERNELS), len(fallbacks)
    ref = embed(q)
    assert np.linalg.norm(embed(exp_map(rec, 1.0)) - ref) <= 1e-8 * np.linalg.norm(ref)
    budget, subdivided = FALLBACK_BUDGETS[norm, n, draw]
    assert got == (budget + (0, 0), subdivided)
