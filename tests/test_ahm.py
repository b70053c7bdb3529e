import math

import numpy as np
import pytest

from gaussgeo import (
    GaussianPoint,
    ahm_midpoint,
    ahm_step,
    check_special_symmetry,
    direct_midpoint,
    distance,
    exp_map,
    exp_map_from,
    horizontal_lift,
    interpolate,
    log_map,
    midpoint_N,
    sym_exp,
)
import gaussgeo.ahm as ahm_mod
import gaussgeo.geodesic as geodesic
import gaussgeo.sympair as sympair
from gaussgeo.ahm import AhmPair, ahm_sequence
from gaussgeo.matcore import NotSpdError, block_exchange
from util import gap_identity_residual, random_point, random_spd, random_tangent


def scalar_pair(p, q):
    return AhmPair(P=np.array([[float(p)]]), Q=np.array([[float(q)]]))


class TestAhmStep:
    def test_fixed_point(self):
        rng = np.random.default_rng(30)
        p = random_spd(rng, 3)
        stepped = ahm_step(AhmPair(P=p, Q=p.copy()))
        assert np.linalg.norm(stepped.P - p) <= 1e-13 * np.linalg.norm(p)
        assert np.linalg.norm(stepped.Q - p) <= 1e-13 * np.linalg.norm(p)

    def test_scalar_hand_values(self):
        s1 = ahm_step(scalar_pair(4.0, 1.0))
        assert s1.P[0, 0] == 2.5 and abs(s1.Q[0, 0] - 1.6) <= 1e-15
        s2 = ahm_step(s1)
        assert abs(s2.P[0, 0] - 2.05) <= 1e-15
        assert abs(s2.Q[0, 0] - 2.0 / (1.0 / 2.5 + 1.0 / 1.6)) <= 1e-15
        assert abs(s2.Q[0, 0] - 1.951219512195122) <= 1e-12

    def test_gap_identity(self):
        rng = np.random.default_rng(31)
        for n in (2, 5):
            pair = AhmPair(P=random_spd(rng, n), Q=random_spd(rng, n))
            nxt = ahm_step(pair)
            assert gap_identity_residual(pair, nxt) <= 1e-9 * pair.gap() ** 2

    def test_iteration_counter(self):
        pair = scalar_pair(4.0, 1.0)
        assert ahm_step(ahm_step(pair)).iteration == 2


class TestAhmPair:
    @pytest.mark.parametrize("which", ["P", "Q"])
    def test_rejects_non_spd(self, which):
        arrays = {"P": np.eye(2), "Q": np.eye(2)}
        arrays[which] = np.diag([1.0, -1.0])
        with pytest.raises(NotSpdError, match=f"^{which} is not positive definite$"):
            AhmPair(**arrays)

    def test_keeps_read_only_copies(self):
        p = np.diag([4.0, 1.0])
        pair = AhmPair(P=p, Q=np.eye(2))
        p[0, 0] = -1.0
        assert pair.P[0, 0] == 4.0
        for a in (pair.P, pair.Q):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.0


class TestConvergence:
    def test_scalar_reaches_geometric_mean_fast(self):
        seq = ahm_sequence(np.array([[4.0]]), np.array([[1.0]]))
        assert seq[-1].iteration <= 6
        assert seq[-1].gap() < 1e-12 * max(1.0, np.linalg.norm(seq[-1].P))
        mid = 0.5 * (seq[-1].P + seq[-1].Q)
        assert abs(mid[0, 0] - 2.0) <= 1e-12

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(32)
        for n in (2, 4):
            p0, q0 = random_spd(rng, n), random_spd(rng, n)
            iterated = ahm_midpoint(p0, q0, tol=1e-12)
            reference = direct_midpoint(p0, q0)
            assert np.linalg.norm(iterated - reference) <= 1e-11 * max(1.0, np.linalg.norm(reference))

    def test_identity_base_reduces_to_square_root(self):
        rng = np.random.default_rng(33)
        v = horizontal_lift(random_tangent(rng, 2))
        q0 = sym_exp(v)
        mid = ahm_midpoint(np.eye(5), q0)
        assert np.linalg.norm(mid - sym_exp(0.5 * v)) <= 1e-10 * max(1.0, np.linalg.norm(mid))

    def test_monotone_ordering_after_first_step(self):
        rng = np.random.default_rng(34)
        seq = ahm_sequence(random_spd(rng, 3), random_spd(rng, 3))
        for prev, nxt in zip(seq[1:], seq[2:]):
            # Q_k <= Q_{k+1} <= P_{k+1} <= P_k in the definite order
            assert np.linalg.eigvalsh(nxt.Q - prev.Q).min() >= -1e-12
            assert np.linalg.eigvalsh(nxt.P - nxt.Q).min() >= -1e-12
            assert np.linalg.eigvalsh(prev.P - nxt.P).min() >= -1e-12

    def test_lifted_midpoint_sweep(self):
        # n x paper norm, 5 tangents per cell: the upstairs midpoint of (I, exp V) is exp(V/2)
        rng = np.random.default_rng(52)
        worst_mid = worst_step = 0.0
        for n in (1, 2, 3, 5, 8):
            for norm in (0.5, 1.0, 2.0, 4.0, 8.0):
                for _ in range(5):
                    v = horizontal_lift(random_tangent(rng, n, norm=norm))
                    p0, q0 = np.eye(2 * n + 1), sym_exp(v)
                    ref = sym_exp(0.5 * v)
                    worst_mid = max(worst_mid, np.linalg.norm(ahm_midpoint(p0, q0) - ref) / np.linalg.norm(ref))
                    # the three-inverse harmonic mean is the oracle of the one-solve step
                    harmonic = 2.0 * np.linalg.inv(np.linalg.inv(p0) + np.linalg.inv(q0))
                    step = ahm_step(AhmPair(P=p0, Q=q0)).Q
                    worst_step = max(worst_step, np.linalg.norm(step - harmonic) / np.linalg.norm(harmonic))
        assert worst_mid <= 1e-14
        assert worst_step <= 1e-13

    def test_quadratic_gap_contraction(self):
        rng = np.random.default_rng(35)
        seq = ahm_sequence(random_spd(rng, 3), random_spd(rng, 3))
        for prev, nxt in zip(seq, seq[1:]):
            if prev.gap() < 1e-7:
                break
            bound = 0.5 * np.linalg.norm(np.linalg.inv(prev.P + prev.Q), ord=2) * prev.gap() ** 2
            assert nxt.gap() <= 2.0 * bound


class TestLiftedInvariants:
    def _lifted_pair(self, seed, n=2, t=1.0):
        rng = np.random.default_rng(seed)
        v = horizontal_lift(random_tangent(rng, n))
        return np.eye(2 * n + 1), sym_exp(t * v), n

    def test_determinant_product_is_conserved(self):
        p0, q0, _ = self._lifted_pair(36)
        for pair in ahm_sequence(p0, q0):
            assert abs(np.linalg.det(pair.P) * np.linalg.det(pair.Q) - 1.0) <= 1e-9

    def test_limit_returns_to_determinant_one(self):
        p0, q0, _ = self._lifted_pair(37)
        mid = ahm_midpoint(p0, q0)
        assert abs(np.linalg.det(mid) - 1.0) <= 1e-9

    def test_involution_swaps_the_iterates(self):
        p0, q0, n = self._lifted_pair(38)
        j = block_exchange(n)
        for pair in ahm_sequence(p0, q0)[1:]:
            swap = np.linalg.norm(j @ np.linalg.inv(pair.P) @ j - pair.Q)
            assert swap <= 1e-9 * max(1.0, np.linalg.norm(pair.Q))

    def test_individual_iterates_leave_the_slice_by_gap_order(self):
        # membership residual of P_1 equals the gap, not zero: only the
        # limit lies back on the symmetric slice
        p0, q0, _ = self._lifted_pair(39)
        seq = ahm_sequence(p0, q0)
        first = seq[1]
        res = check_special_symmetry(first.P)
        assert abs(res - first.gap()) <= 1e-9 * max(1.0, first.gap())

    def test_limit_membership(self):
        p0, q0, _ = self._lifted_pair(40)
        mid = ahm_midpoint(p0, q0)
        assert check_special_symmetry(mid) <= 1e-10 * max(1.0, np.linalg.norm(mid))


class TestMidpointN:
    def test_coincident_points(self):
        rng = np.random.default_rng(41)
        p = random_point(rng, 2)
        mid = midpoint_N(p, p)
        assert np.array_equal(mid.sigma, p.sigma) and np.array_equal(mid.mu, p.mu)

    def test_scalar_fixed_mean(self):
        p = GaussianPoint(np.array([[1.0]]), np.array([0.0]))
        q = GaussianPoint(np.array([[math.e ** 2]]), np.array([0.0]))
        mid = midpoint_N(p, q)
        assert abs(mid.sigma[0, 0] - math.e) <= 1e-10
        assert abs(mid.mu[0]) <= 1e-10

    def test_agrees_with_halved_exponential(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            p, q = random_point(rng, 2), random_point(rng, 2)
            mid = midpoint_N(p, q)
            ref = exp_map_from(p, log_map(p, q), 0.5)
            dev = np.linalg.norm(mid.sigma - ref.sigma) + np.linalg.norm(mid.mu - ref.mu)
            assert dev <= 1e-8 * max(1.0, np.linalg.norm(ref.sigma))

    def test_equidistance(self):
        rng = np.random.default_rng(43)
        p, q = random_point(rng, 2), random_point(rng, 2)
        mid = midpoint_N(p, q)
        assert abs(distance(mid, p) - distance(mid, q)) <= 1e-6


class TestInterpolate:
    def test_depth_one_definition(self):
        rng = np.random.default_rng(44)
        p, q = random_point(rng, 2), random_point(rng, 2)
        pts = interpolate(p, q, 1)
        assert len(pts) == 3
        assert pts[0] is p and pts[2] is q
        mid = midpoint_N(p, q)
        assert np.array_equal(pts[1].sigma, mid.sigma)
        assert np.array_equal(pts[1].mu, mid.mu)

    def test_depth_two_scalar_closed_form(self):
        p = GaussianPoint(np.array([[1.0]]), np.array([0.0]))
        q = GaussianPoint(np.array([[math.e ** 2]]), np.array([0.0]))
        pts = interpolate(p, q, 2)
        expected = [1.0, math.e ** 0.5, math.e, math.e ** 1.5, math.e ** 2]
        assert len(pts) == 5
        for pt, val in zip(pts, expected):
            assert abs(pt.sigma[0, 0] - val) <= 1e-9 * val

    def test_points_lie_on_the_geodesic(self):
        rng = np.random.default_rng(45)
        p, q = random_point(rng, 2), random_point(rng, 2)
        depth = 2
        pts = interpolate(p, q, depth)
        xi = log_map(p, q)
        for k, pt in enumerate(pts):
            ref = exp_map_from(p, xi, k / 2 ** depth)
            dev = np.linalg.norm(pt.sigma - ref.sigma) + np.linalg.norm(pt.mu - ref.mu)
            assert dev <= 1e-7 * max(1.0, np.linalg.norm(ref.sigma))

    def test_uniform_speed(self):
        rng = np.random.default_rng(46)
        p, q = random_point(rng, 2), random_point(rng, 2)
        pts = interpolate(p, q, 2)
        gaps = [distance(a, b) for a, b in zip(pts, pts[1:])]
        assert max(gaps) - min(gaps) <= 1e-6

    def test_one_shared_solve(self, monkeypatch):
        calls = []

        def counting_log_map(*args, **kwargs):
            calls.append(args)
            return log_map(*args, **kwargs)

        monkeypatch.setattr(ahm_mod, "log_map", counting_log_map)
        rng = np.random.default_rng(48)
        for n in (1, 2, 3):
            p, q = random_point(rng, n), random_point(rng, n)
            depth = 3
            calls.clear()
            pts = interpolate(p, q, depth)
            assert len(calls) == 1
            xi = log_map(p, q)
            for k, pt in enumerate(pts):
                ref = exp_map_from(p, xi, k / 2 ** depth)
                dev = np.linalg.norm(pt.sigma - ref.sigma) + np.linalg.norm(pt.mu - ref.mu)
                assert dev <= 1e-10 * max(1.0, np.linalg.norm(ref.sigma))

    def test_coincident_points(self):
        rng = np.random.default_rng(49)
        p = random_point(rng, 2)
        q = GaussianPoint(p.sigma.copy(), p.mu.copy())
        pts = interpolate(p, q, 2)
        assert pts[:-1] == [p] * 4 and pts[-1] is q

    def test_each_point_is_slice_checked_once(self, monkeypatch):
        calls = []

        def counting_check(g):
            calls.append(None)
            return check_special_symmetry(g)

        # every module that could run the slice test on a projected point
        for module in (ahm_mod, sympair):
            monkeypatch.setattr(module, "check_special_symmetry", counting_check, raising=False)
        rng = np.random.default_rng(50)
        p, q = random_point(rng, 2), random_point(rng, 2)
        midpoint_N(p, q)
        assert len(calls) == 1
        calls.clear()
        interpolate(p, q, 3)
        assert len(calls) == 7

    @pytest.mark.parametrize("which", ["P", "Q"])
    def test_midpoint_checks_its_inputs(self, which):
        arrays = {"P": np.eye(2), "Q": np.eye(2)}
        arrays[which] = np.diag([1.0, -1.0])
        with pytest.raises(NotSpdError, match=f"^{which} is not positive definite$"):
            ahm_midpoint(arrays["P"], arrays["Q"])

    def test_one_batched_crosscheck(self, monkeypatch):
        trajectories, stray_exps, inside_log = [], [], []

        def counting_trajectory(*args, **kwargs):
            trajectories.append(None)
            return geodesic.trajectory(*args, **kwargs)

        def counting_exp_map(*args, **kwargs):
            if not inside_log:
                stray_exps.append(None)
            return exp_map(*args, **kwargs)

        def flagged_log_map(*args, **kwargs):
            inside_log.append(None)
            try:
                return log_map(*args, **kwargs)
            finally:
                inside_log.pop()

        monkeypatch.setattr(ahm_mod, "trajectory", counting_trajectory)
        monkeypatch.setattr(ahm_mod, "log_map", flagged_log_map)
        for module in (ahm_mod, geodesic):
            monkeypatch.setattr(module, "exp_map", counting_exp_map, raising=False)
        rng = np.random.default_rng(53)
        p, q = random_point(rng, 2), random_point(rng, 2)
        assert len(interpolate(p, q, 3)) == 9
        assert len(trajectories) == 1
        assert not stray_exps

    def test_rejects_nonpositive_depth(self):
        rng = np.random.default_rng(47)
        p = random_point(rng, 1)
        with pytest.raises(ValueError):
            interpolate(p, p, 0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("op", ["distance", "midpoint_N", "interpolate"])
def test_public_operations_reject_non_finite_mean(op, bad):
    call = {"distance": distance, "midpoint_N": midpoint_N, "interpolate": lambda a, b: interpolate(a, b, 2)}[op]
    rng = np.random.default_rng(51)
    p = random_point(rng, 2)
    for first in (True, False):
        with pytest.raises(ValueError, match="mean must be finite"):
            q = GaussianPoint(p.sigma, np.array([bad, 0.0]))
            call(*((p, q) if first else (q, p)))
    # Nor can a point be given a non-finite mean after construction.
    mu = np.zeros(2)
    q = GaussianPoint(p.sigma, mu)
    mu[0] = bad
    assert np.all(np.isfinite(q.mu))
    with pytest.raises(ValueError, match="read-only"):
        q.mu[0] = bad
    with pytest.raises(ValueError, match="read-only"):
        q.sigma[0, 0] = bad
    for a, b in ((p, q), (q, p)):
        call(a, b)
