import dataclasses
import math

import numpy as np
import pytest

from gaussgeo import (
    GaussianPoint,
    ahm_midpoint,
    check_special_symmetry,
    distance,
    embed,
    exp_map,
    exp_map_from,
    horizontal_lift,
    interpolate,
    log_map,
    midpoint_N,
)
import gaussgeo.ahm as ahm_mod
import gaussgeo.geodesic as geodesic
import gaussgeo.laxflow as laxflow
import gaussgeo.manifold as manifold
import gaussgeo.matcore as matcore
import gaussgeo.sympair as sympair
from gaussgeo.matcore import NotSpdError, sym, sym_exp
from util import ahm_gap, ahm_iterates, ahm_step, block_exchange, direct_midpoint, gap_identity_residual, random_point, random_spd, random_tangent


def matrices_in(a) -> int:
    """Number of matrices in a matrix (1) or in a stack of them."""
    return len(a) if np.ndim(a) == 3 else 1


def count_everywhere(monkeypatch, home, name):
    """Wrap ``home.<name>`` in every gaussgeo module that binds it; returns, per call, the matrices its first argument holds."""
    calls, real = [], getattr(home, name)

    def counting(*args, **kwargs):
        calls.append(matrices_in(args[0]))
        return real(*args, **kwargs)

    for module in (matcore, manifold, sympair, geodesic, ahm_mod, laxflow):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return calls


def scalar_pair(p, q):
    return np.array([[float(p)]]), np.array([[float(q)]])


class TestAhmStep:
    def test_fixed_point(self):
        rng = np.random.default_rng(30)
        p = random_spd(rng, 3)
        p1, q1 = ahm_step(p, p.copy())
        assert np.linalg.norm(p1 - p) <= 1e-13 * np.linalg.norm(p)
        assert np.linalg.norm(q1 - p) <= 1e-13 * np.linalg.norm(p)

    def test_scalar_hand_values(self):
        p1, q1 = ahm_step(*scalar_pair(4.0, 1.0))
        assert p1[0, 0] == 2.5 and abs(q1[0, 0] - 1.6) <= 1e-15
        p2, q2 = ahm_step(p1, q1)
        assert abs(p2[0, 0] - 2.05) <= 1e-15
        assert abs(q2[0, 0] - 2.0 / (1.0 / 2.5 + 1.0 / 1.6)) <= 1e-15
        assert abs(q2[0, 0] - 1.951219512195122) <= 1e-12

    def test_gap_identity(self):
        rng = np.random.default_rng(31)
        for n in (2, 5):
            pair = random_spd(rng, n), random_spd(rng, n)
            assert gap_identity_residual(pair, ahm_step(*pair)) <= 1e-9 * ahm_gap(*pair) ** 2

    def test_iteration_counter(self):
        # the runtime takes exactly the oracle's steps: max_iter = k gives the bits of the k-th
        # iterate's mean, and one step fewer is not enough
        rng = np.random.default_rng(58)
        # symmetric to the bit, as the runtime's input check leaves them
        for p0, q0 in [scalar_pair(4.0, 1.0), *((sym(random_spd(rng, n)), sym(random_spd(rng, n))) for n in (2, 3, 5))]:
            seq = ahm_iterates(p0, q0)
            steps, (p, q) = len(seq) - 1, seq[-1]
            assert np.array_equal(ahm_midpoint(p0, q0, max_iter=steps), 0.5 * (p + q))
            with pytest.raises(RuntimeError, match=f"^mean iteration did not converge in {steps - 1} steps"):
                ahm_midpoint(p0, q0, max_iter=steps - 1)


class TestAhmPair:
    """The pair ``(P, Q)`` that :func:`ahm_midpoint` takes: checked once where it enters, and left alone."""

    @pytest.mark.parametrize("which", ["P", "Q"])
    def test_rejects_non_spd(self, which):
        arrays = {"P": np.eye(2), "Q": np.eye(2)}
        arrays[which] = np.diag([1.0, -1.0])
        with pytest.raises(NotSpdError, match=f"^{which} is not positive definite$"):
            ahm_midpoint(arrays["P"], arrays["Q"])

    @pytest.mark.parametrize("call", [ahm_midpoint], ids=["ahm_midpoint"])
    def test_rejects_order_zero(self, call):
        empty = np.zeros((0, 0))
        with pytest.raises(ValueError, match=r"^P must have order >= 1, got shape \(0, 0\)$"):
            call(empty, empty)

    def test_leaves_its_inputs_alone(self):
        p, q = np.diag([4.0, 1.0]), np.eye(2)
        mid = ahm_midpoint(p, q)
        assert np.array_equal(p, np.diag([4.0, 1.0])) and np.array_equal(q, np.eye(2))
        assert p.flags.writeable and q.flags.writeable
        assert not (np.shares_memory(mid, p) or np.shares_memory(mid, q))
        assert np.allclose(mid, np.diag([2.0, 1.0]), rtol=0.0, atol=1e-15)


class TestConvergence:
    def test_scalar_reaches_geometric_mean_fast(self):
        seq = ahm_iterates(*scalar_pair(4.0, 1.0))
        p, q = seq[-1]
        assert len(seq) - 1 <= 6
        assert ahm_gap(p, q) < 1e-12 * max(1.0, np.linalg.norm(p))
        mid = 0.5 * (p + q)
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
        seq = ahm_iterates(random_spd(rng, 3), random_spd(rng, 3))
        for (p, q), (p1, q1) in zip(seq[1:], seq[2:]):
            # Q_k <= Q_{k+1} <= P_{k+1} <= P_k in the definite order
            assert np.linalg.eigvalsh(q1 - q).min() >= -1e-12
            assert np.linalg.eigvalsh(p1 - q1).min() >= -1e-12
            assert np.linalg.eigvalsh(p - p1).min() >= -1e-12

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
                    step = ahm_step(p0, q0)[1]
                    worst_step = max(worst_step, np.linalg.norm(step - harmonic) / np.linalg.norm(harmonic))
        assert worst_mid <= 1e-14
        assert worst_step <= 1e-13

    def test_quadratic_gap_contraction(self):
        rng = np.random.default_rng(35)
        seq = ahm_iterates(random_spd(rng, 3), random_spd(rng, 3))
        for (p, q), nxt in zip(seq, seq[1:]):
            if ahm_gap(p, q) < 1e-7:
                break
            bound = 0.5 * np.linalg.norm(np.linalg.inv(p + q), ord=2) * ahm_gap(p, q) ** 2
            assert ahm_gap(*nxt) <= 2.0 * bound


class TestStackedMean:
    def test_members_match_their_own_midpoints(self):
        # each member of a stack takes exactly the steps it takes alone, so the bits agree
        rng = np.random.default_rng(56)
        for n in (1, 2, 3, 5):
            ps, qs = [], []
            for norm in (0.25, 1.0, 4.0, 8.0):
                v = horizontal_lift(random_tangent(rng, n, norm=norm))
                ps.append(sym_exp(-0.5 * v))
                qs.append(sym_exp(v))
            ps.append(sym(random_spd(rng, 2 * n + 1)))
            qs.append(ps[-1].copy())  # converges at once, before any step
            stacked = ahm_mod._mean(np.array(ps), np.array(qs), ahm_mod.AHM_TOL, ahm_mod.AHM_MAX_ITER)
            for k, (p0, q0) in enumerate(zip(ps, qs)):
                assert np.array_equal(stacked[k], ahm_midpoint(p0, q0))

    def test_unconverged_member_raises_with_its_gap(self):
        rng = np.random.default_rng(57)
        v = horizontal_lift(random_tangent(rng, 2, norm=4.0))
        p0, q0 = np.eye(5), sym_exp(v)
        with pytest.raises(RuntimeError) as alone:
            ahm_midpoint(p0, q0, max_iter=2)
        assert str(alone.value).startswith("mean iteration did not converge in 2 steps (gap ")
        with pytest.raises(RuntimeError) as stacked:
            ahm_mod._mean(np.array([p0, p0, p0]), np.array([p0, q0, q0]), ahm_mod.AHM_TOL, 2)
        assert str(stacked.value) == str(alone.value)


class TestLiftedInvariants:
    def _lifted_pair(self, seed, n=2, t=1.0):
        rng = np.random.default_rng(seed)
        v = horizontal_lift(random_tangent(rng, n))
        return np.eye(2 * n + 1), sym_exp(t * v), n

    def test_determinant_product_is_conserved(self):
        p0, q0, _ = self._lifted_pair(36)
        for p, q in ahm_iterates(p0, q0):
            assert abs(np.linalg.det(p) * np.linalg.det(q) - 1.0) <= 1e-9

    def test_limit_returns_to_determinant_one(self):
        p0, q0, _ = self._lifted_pair(37)
        mid = ahm_midpoint(p0, q0)
        assert abs(np.linalg.det(mid) - 1.0) <= 1e-9

    def test_involution_swaps_the_iterates(self):
        p0, q0, n = self._lifted_pair(38)
        j = block_exchange(n)
        for p, q in ahm_iterates(p0, q0)[1:]:
            swap = np.linalg.norm(j @ np.linalg.inv(p) @ j - q)
            assert swap <= 1e-9 * max(1.0, np.linalg.norm(q))

    def test_individual_iterates_leave_the_slice_by_gap_order(self):
        # membership residual of P_1 equals the gap, not zero: only the
        # limit lies back on the symmetric slice
        p0, q0, _ = self._lifted_pair(39)
        p1, q1 = ahm_iterates(p0, q0)[1]
        res = check_special_symmetry(p1)
        assert abs(res - ahm_gap(p1, q1)) <= 1e-9 * max(1.0, ahm_gap(p1, q1))

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

        def counting_solve(*args, **kwargs):
            calls.append(args)
            return geodesic._log_solve(*args, **kwargs)

        monkeypatch.setattr(ahm_mod, "_log_solve", counting_solve)
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

    def test_one_chart(self, monkeypatch):
        # the solve's chart at p also denormalizes the interior points
        charts = count_everywhere(monkeypatch, manifold, "normalize_to_identity")
        rng = np.random.default_rng(56)
        p, q = random_point(rng, 2), random_point(rng, 2)
        midpoint_N(p, q)
        assert len(charts) == 1
        charts.clear()
        interpolate(p, q, 3)
        assert len(charts) == 1

    def test_coincident_points(self):
        rng = np.random.default_rng(49)
        p = random_point(rng, 2)
        q = GaussianPoint(p.sigma.copy(), p.mu.copy())
        pts = interpolate(p, q, 2)
        assert pts[:-1] == [p] * 4 and pts[-1] is q

    def test_each_point_is_slice_checked_once(self, monkeypatch):
        # counts matrices checked: the interior points go through one stacked check; the
        # slice test's core runs under check_special_symmetry and under the projection
        calls = count_everywhere(monkeypatch, matcore, "_special_symmetry")
        rng = np.random.default_rng(50)
        p, q = random_point(rng, 2), random_point(rng, 2)
        midpoint_N(p, q)
        assert sum(calls) == 1
        calls.clear()
        interpolate(p, q, 3)
        assert calls == [7]

    def test_lifted_points_are_read_without_unembed(self, monkeypatch):
        rng = np.random.default_rng(53)
        xi = random_tangent(rng, 2)
        p, q = random_point(rng, 2), random_point(rng, 2)
        unembeds = count_everywhere(monkeypatch, manifold, "unembed")
        slice_checks = count_everywhere(monkeypatch, matcore, "_special_symmetry")
        symmetry_checks = count_everywhere(monkeypatch, matcore, "require_symmetric")
        exp_map(xi, 1.0)
        # the factorization's input and the new point's covariance come from _spectral, so neither is checked for symmetry
        assert (len(unembeds), len(symmetry_checks)) == (0, 0)
        interpolate(p, q, 3)
        assert (len(unembeds), sum(slice_checks)) == (0, 7)

    @pytest.mark.parametrize("which", ["P", "Q"])
    def test_midpoint_checks_its_inputs(self, which):
        arrays = {"P": np.eye(2), "Q": np.eye(2)}
        arrays[which] = np.diag([1.0, -1.0])
        with pytest.raises(NotSpdError, match=f"^{which} is not positive definite$"):
            ahm_midpoint(arrays["P"], arrays["Q"])

    def test_crosscheck_failure_names_the_point(self, monkeypatch):
        # the sampled reference moved by 1e-6 in the mean: the mean iteration's point no longer agrees with it
        sampled = ahm_mod._sampled

        def shifted(*args):
            reference = sampled(*args)
            return dataclasses.replace(reference, mus=reference.mus + 1e-6)

        monkeypatch.setattr(ahm_mod, "_sampled", shifted)
        p, q = GaussianPoint(np.eye(1), np.zeros(1)), GaussianPoint(np.array([[math.e ** 2]]), np.zeros(1))
        with pytest.raises(ArithmeticError, match=r"^mean-iteration point at t=0\.5 disagrees with the exponential by 1\.000e-06$"):
            interpolate(p, q, 1)

    def test_one_batched_crosscheck(self, monkeypatch):
        # the cross-check samples the trajectory once, from interpolate's own eigendecomposition
        trajectories, stray_exps, inside_log = [], [], []

        def counting_sampled(*args, **kwargs):
            trajectories.append(None)
            return geodesic._sampled(*args, **kwargs)

        def counting_exp_map(*args, **kwargs):
            if not inside_log:
                stray_exps.append(None)
            return exp_map(*args, **kwargs)

        def flagged_solve(*args, **kwargs):
            inside_log.append(None)
            try:
                return geodesic._log_solve(*args, **kwargs)
            finally:
                inside_log.pop()

        monkeypatch.setattr(ahm_mod, "_sampled", counting_sampled)
        monkeypatch.setattr(ahm_mod, "_log_solve", flagged_solve)
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

    @pytest.mark.parametrize("depth", [40, 64, 1000])
    @pytest.mark.parametrize("coincident", [False, True])
    def test_depth_beyond_memory_is_rejected_before_allocating(self, depth, coincident):
        # 2**40 + 1 lifted 3 x 3 matrices need 79 TB; past 63 no address space holds them
        rng = np.random.default_rng(47)
        p = random_point(rng, 1)
        q = p if coincident else random_point(rng, 1)
        with pytest.raises(ValueError, match=f"^interpolation to depth {depth} needs .* bytes, more than the .* of physical memory$"):
            interpolate(p, q, depth)

    def test_one_eigendecomposition_of_the_generator(self, monkeypatch):
        # outside its solve, interpolate eigendecomposes the generator not at all: the eigenpair
        # of the solve's last accepted trial gives the lifted endpoint and the cross-check's trajectory
        rng = np.random.default_rng(54)
        p, q = random_point(rng, 2), random_point(rng, 2)
        generator = horizontal_lift(log_map(p, q))
        generator_eighs, inside_log = [], []
        real_eigh = np.linalg.eigh

        def counting_eigh(a):
            if not inside_log and np.shape(a) == generator.shape and np.allclose(a, generator, rtol=0.0, atol=1e-12):
                generator_eighs.append(None)
            return real_eigh(a)

        def flagged_solve(*args, **kwargs):
            inside_log.append(None)
            try:
                return geodesic._log_solve(*args, **kwargs)
            finally:
                inside_log.pop()

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(ahm_mod, "_log_solve", flagged_solve)
        for depth in (1, 3):
            generator_eighs.clear()
            interpolate(p, q, depth)
            assert len(generator_eighs) == 0

    @pytest.mark.parametrize("k", range(1, 8))
    def test_every_point_is_checked_on_the_slice(self, monkeypatch, k):
        # push lifted point k off the slice (a determinant change keeps it SPD): the stacked check catches it
        depth, levels = 3, ([4], [2, 6], [1, 3, 5, 7])
        calls = []
        real = ahm_mod._mean

        def pushing_mean(p, q, tol, max_iter):
            out = real(p, q, tol, max_iter)
            indices = levels[len(calls)]
            calls.append(None)
            if k in indices:
                out[indices.index(k)] *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(ahm_mod, "_mean", pushing_mean)
        rng = np.random.default_rng(55)
        p, q = random_point(rng, 2), random_point(rng, 2)
        with pytest.raises(ArithmeticError, match="^mean iteration limit does not project: input is not in the lifted submanifold: symmetry residual"):
            interpolate(p, q, depth)
        assert len(calls) == depth


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


@pytest.mark.parametrize("op", ["distance", "log_map", "midpoint_N", "interpolate"])
def test_points_of_different_dimension_are_rejected(op):
    call = {"distance": distance, "log_map": log_map, "midpoint_N": midpoint_N, "interpolate": lambda a, b: interpolate(a, b, 2)}[op]
    p, q = GaussianPoint.identity(2), GaussianPoint(2.0 * np.eye(3), np.ones(3))
    with pytest.raises(ValueError, match="^points must share a dimension, got n = 2 and n = 3$"):
        call(p, q)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-12])
def test_log_tolerance_must_be_positive_and_finite(tol):
    p, q = GaussianPoint.identity(2), GaussianPoint(2.0 * np.eye(2), np.ones(2))
    with pytest.raises(ValueError, match=f"^tol must be a positive finite number, got {tol!r}$"):
        log_map(p, q, tol=tol)
    with pytest.raises(ValueError, match="^tol must be a positive finite number"):
        distance(p, q, tol=tol)
    # coincident points take distance's shortcut, after the same check
    with pytest.raises(ValueError, match=f"^tol must be a positive finite number, got {tol!r}$"):
        distance(p, p, tol=tol)


ITERATIONS = {
    "log_map": log_map,
    "ahm_midpoint": lambda p, q, **opts: ahm_midpoint(embed(p), embed(q), **opts),
    "interpolate": lambda p, q, **opts: interpolate(p, q, 2, **opts),
    "midpoint_N": midpoint_N,
    "distance": distance,
    "distance-coincident": lambda p, q, **opts: distance(p, p, **opts),
}


# log_map's and distance's: the test above
@pytest.mark.parametrize("op", sorted(set(ITERATIONS) - {"log_map", "distance", "distance-coincident"}))
@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_iteration_tolerance_must_be_positive_and_finite(op, tol):
    # an infinite tol would accept the first iterate (the arithmetic mean at ahm_midpoint),
    # and a NaN or negative one would report a converged pair as stalled
    p, q = GaussianPoint.identity(2), GaussianPoint(np.diag([4.0, 1.0]), np.ones(2))
    with pytest.raises(ValueError, match=f"^tol must be a positive finite number, got {tol!r}$"):
        ITERATIONS[op](p, q, tol=tol)


@pytest.mark.parametrize("op", sorted(ITERATIONS))
@pytest.mark.parametrize("max_iter", [2.5, 2.0, True, 0, -3])
def test_iteration_cap_must_be_a_positive_integer(op, max_iter):
    p, q = GaussianPoint.identity(2), GaussianPoint(np.diag([4.0, 1.0]), np.ones(2))
    with pytest.raises(ValueError, match=f"^max_iter must be a positive integer, got {max_iter!r}$"):
        ITERATIONS[op](p, q, max_iter=max_iter)


@pytest.mark.parametrize("coincident", [False, True])
def test_distance_rejects_unknown_options(coincident):
    p = GaussianPoint.identity(2)
    q = p if coincident else GaussianPoint(np.diag([4.0, 1.0]), np.ones(2))
    with pytest.raises(TypeError, match="unexpected keyword argument 'foo'"):
        distance(p, q, foo=1)


def test_iteration_cap_takes_numpy_integers():
    p0, q0 = np.diag([4.0, 1.0]), np.eye(2)
    assert np.array_equal(ahm_midpoint(p0, q0, max_iter=np.int64(60)), ahm_midpoint(p0, q0))


@pytest.mark.parametrize("depth", [True, 2.0, 1.5, 0, -1])
@pytest.mark.parametrize("coincident", [False, True])
def test_interpolation_depth_must_be_a_positive_integer(depth, coincident):
    p = GaussianPoint.identity(2)
    q = p if coincident else GaussianPoint(np.diag([4.0, 1.0]), np.ones(2))
    with pytest.raises(ValueError, match=f"^depth must be a positive integer, got {depth!r}$"):
        interpolate(p, q, depth)


@pytest.mark.parametrize("coincident", [False, True])
def test_unknown_convention_fails_before_the_solve(coincident, monkeypatch):
    solves = []
    monkeypatch.setattr(geodesic, "log_map", lambda *args, **opts: solves.append(args))
    p = GaussianPoint.identity(2)
    q = p if coincident else GaussianPoint(np.diag([4.0, 1.0]), np.ones(2))
    with pytest.raises(ValueError, match="^unknown metric convention 'nonsense'$"):
        distance(p, q, convention="nonsense")
    assert solves == []


@pytest.mark.parametrize("call", [ahm_midpoint], ids=["ahm_midpoint"])
def test_pairs_of_different_shape_are_rejected(call):
    with pytest.raises(ValueError, match=r"^P and Q must share a shape, got \(2, 2\) and \(3, 3\)$"):
        call(np.eye(2), np.eye(3))
