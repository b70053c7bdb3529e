"""Property tests (hypothesis): half-distance midpoints, symmetric and affine-invariant
distance, the triangle inequality over far legs, time reparametrisation of the
exponential, rank-one Lax flow.

Examples are derandomized and few, so the suite stays deterministic and fast;
each example draws a seed for the shared numpy generators of ``util``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from gaussgeo import AffineMap, distance, exp_map, exp_map_from, integrate, midpoint_N
from util import random_point, random_tangent

PROPERTY = settings(derandomize=True, max_examples=8, deadline=None, database=None)
seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 5)


@PROPERTY
@given(seed=seeds, n=dims, spread=st.floats(0.1, 1.0))
def test_midpoint_lies_at_half_the_distance(seed, n, spread):
    rng = np.random.default_rng(seed)
    p, q = random_point(rng, n, spread), random_point(rng, n, spread)
    m = midpoint_N(p, q)
    half = 0.5 * distance(p, q)
    assert abs(distance(p, m) - half) <= 1e-9
    assert abs(distance(m, q) - half) <= 1e-9


@PROPERTY
@given(seed=seeds, n=dims, spread=st.floats(0.1, 1.0))
def test_distance_is_symmetric(seed, n, spread):
    rng = np.random.default_rng(seed)
    p, q = random_point(rng, n, spread), random_point(rng, n, spread)
    d = distance(p, q)
    assert abs(d - distance(q, p)) <= 1e-9 * max(1.0, d)


@PROPERTY
@given(seed=seeds, n=dims, spread=st.floats(0.1, 1.0))
def test_distance_is_affine_invariant(seed, n, spread):
    # x -> A x + b is a sufficient statistic, hence an isometry
    rng = np.random.default_rng(seed)
    p, q = random_point(rng, n, spread), random_point(rng, n, spread)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    f = AffineMap(basis * np.exp(rng.uniform(-1.0, 1.0, n)), rng.standard_normal(n))
    d = distance(p, q)
    assert abs(distance(f.apply(p), f.apply(q)) - d) <= 1e-11 * max(1.0, d)


@PROPERTY
@given(seed=seeds, n=dims, legs=st.tuples(st.floats(0.5, 8.0), st.floats(0.5, 8.0)))
def test_triangle_inequality_over_far_legs(seed, n, legs):
    # r and q lie up to paper norm 8 along geodesics from p and from r
    rng = np.random.default_rng(seed)
    p = random_point(rng, n)
    r = exp_map_from(p, random_tangent(rng, n, norm=legs[0]), 1.0)
    q = exp_map_from(r, random_tangent(rng, n, norm=legs[1]), 1.0)
    dpr, drq = distance(p, r), distance(r, q)
    assert distance(p, q) <= dpr + drq + 1e-9 * (dpr + drq)


@PROPERTY
@given(seed=seeds, n=dims, s=st.floats(-2.0, 2.0), t=st.floats(-1.5, 1.5))
def test_exp_map_reparametrises_time(seed, n, s, t):
    xi = random_tangent(np.random.default_rng(seed), n)
    a, b = exp_map(xi, s * t), exp_map(xi.scaled(s), t)
    assert np.linalg.norm(a.sigma - b.sigma) <= 1e-12 * max(1.0, np.linalg.norm(a.sigma))
    assert np.linalg.norm(a.mu - b.mu) <= 1e-12 * max(1.0, np.linalg.norm(a.mu))


@PROPERTY
@given(seed=seeds, n=st.integers(1, 8), norm=st.floats(0.1, 2.0))
def test_bilinear_flow_moves_q_by_rank_one_rows(seed, n, norm):
    # Q_dot = -r a0^T, so Q(t) = A0 - s(t) a0^T: each row of Q(t) - A0 is a multiple of a0^T
    xi = random_tangent(np.random.default_rng(seed), n, norm=norm)
    a0 = xi.a0 / np.linalg.norm(xi.a0)
    qs = integrate("bilinear", xi, 2.0, dt=1e-3).Qs
    drift = qs - xi.A0
    off_line = np.linalg.norm(drift - (drift @ a0)[..., None] * a0, axis=(1, 2))
    assert np.all(off_line <= 1e-13 * np.maximum(1.0, np.linalg.norm(drift, axis=(1, 2))))
