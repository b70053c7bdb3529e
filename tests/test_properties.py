"""Property tests (hypothesis): half-distance midpoints, symmetric distance, rank-one Lax flow.

Examples are derandomized and few, so the suite stays deterministic and fast;
each example draws a seed for the shared numpy generators of ``util``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from gaussgeo import distance, integrate, midpoint_N
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
@given(seed=seeds, n=dims, norm=st.floats(0.1, 2.0))
def test_bilinear_flow_moves_q_by_rank_one_rows(seed, n, norm):
    # Q_dot = -r a0^T, so Q(t) = A0 - s(t) a0^T: each row of Q(t) - A0 is a multiple of a0^T
    xi = random_tangent(np.random.default_rng(seed), n, norm=norm)
    a0 = xi.a0 / np.linalg.norm(xi.a0)
    off_line = np.eye(n) - np.outer(a0, a0)
    for _, state in integrate("bilinear", xi, 1.0, dt=1e-2):
        drift = state.Q - xi.A0
        assert np.linalg.norm(drift @ off_line) <= 1e-13 * max(1.0, np.linalg.norm(state.Q))
