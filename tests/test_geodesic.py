import io
import math
import re
import warnings

import numpy as np
import pytest

import gaussgeo.geodesic as geodesic
import gaussgeo.matcore as matcore
from gaussgeo import (
    GaussianPoint,
    NotSpdError,
    ShootingError,
    Tangent,
    distance,
    embed,
    exp_map,
    exp_map_from,
    first_integrals,
    geodesic_residual,
    horizontal_lift,
    log_map,
    normalize_to_identity,
    submersion_project,
    trajectory,
)
from gaussgeo.geodesic import (
    _fibre_jacobian,
    _fibre_log,
    _fibre_newton,
    _fibre_point,
    _lifted,
    _log_divided_differences,
    _pack,
    _residual_jacobian,
    _skew,
    _unpack,
    _vertical_part,
    ambient_exponentials,
    recovered_initial_direction,
    write_samples_csv,
)
from gaussgeo.matcore import block_cholesky, check_special_symmetry, spd_inv, sym_exp
from util import integrate_geodesic_ode, random_point, random_tangent


class TestExpMap:
    def test_time_zero(self):
        rng = np.random.default_rng(1)
        xi = random_tangent(rng, 3)
        p = exp_map(xi, 0.0)
        assert np.array_equal(p.sigma, np.eye(3)) and np.array_equal(p.mu, np.zeros(3))

    def test_fixed_mean_closed_form(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3):
            a_mat = random_tangent(rng, n).A0
            xi = Tangent(a_mat, np.zeros(n))
            for t in (0.25, 1.0, 1.7):
                p = exp_map(xi, t)
                assert np.linalg.norm(p.mu) <= 1e-12
                expected = sym_exp(t * a_mat)
                assert np.linalg.norm(p.sigma - expected) <= 1e-10 * max(1.0, np.linalg.norm(expected))

    def test_scalar_mean_direction_closed_form(self):
        # sigma(t) = sech^2(t/sqrt2), mu(t) = sqrt2 tanh(t/sqrt2)
        xi = Tangent(np.zeros((1, 1)), np.array([1.0]))
        for t in (0.5, 1.0, 2.0):
            p = exp_map(xi, t)
            u = t / math.sqrt(2.0)
            assert abs(p.sigma[0, 0] - 1.0 / math.cosh(u) ** 2) <= 1e-12
            assert abs(p.mu[0] - math.sqrt(2.0) * math.tanh(u)) <= 1e-12

    def test_against_ode_oracle(self):
        # independent integration of the second-order geodesic equations
        xi = Tangent(np.zeros((1, 1)), np.array([1.0]))
        sigma_ref, mu_ref = integrate_geodesic_ode(xi.A0, xi.a0, 1.0)
        p = exp_map(xi, 1.0)
        assert np.linalg.norm(p.sigma - sigma_ref) <= 1e-8
        assert np.linalg.norm(p.mu - mu_ref) <= 1e-8

    def test_against_ode_oracle_multivariate(self):
        rng = np.random.default_rng(3)
        xi = random_tangent(rng, 2)
        sigma_ref, mu_ref = integrate_geodesic_ode(xi.A0, xi.a0, 1.0)
        p = exp_map(xi, 1.0)
        assert np.linalg.norm(p.sigma - sigma_ref) <= 1e-8
        assert np.linalg.norm(p.mu - mu_ref) <= 1e-8

    def test_one_parameter_group_property(self):
        rng = np.random.default_rng(4)
        xi = random_tangent(rng, 2)
        v = horizontal_lift(xi)
        for s, t in ((0.3, 0.9), (-0.5, 1.2)):
            lhs = sym_exp((s + t) * v)
            rhs = sym_exp(s * v) @ sym_exp(t * v)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(lhs))


class TestExpMapTime:
    XI = Tangent(np.array([[0.3, 0.1], [0.1, -0.2]]), np.array([0.4, 0.2]))
    CALLS = {"exp_map": exp_map, "exp_map_from": lambda xi, t: exp_map_from(GaussianPoint.identity(2), xi, t)}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_rejects_non_finite_time(self, call, t):
        with pytest.raises(ValueError, match="^t must be finite"):
            self.CALLS[call](self.XI, t)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t", [1e3, -1e3, 1e308])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_overflow_is_arithmetic_error(self, call, t):
        with pytest.raises(ArithmeticError, match=f"^geodesic stopped being finite at t = {re.escape(f'{t:.6g}')}$"):
            self.CALLS[call](self.XI, t)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_unit_geodesics_raise_typed_errors(self):
        # Far along unit geodesics the leading pivot can pass its Cholesky
        # test yet be singular to the LU solve of the block factorization;
        # that is a NotSpdError naming pivot (1,1), not a bare LinAlgError.
        rng = np.random.default_rng(5)
        ts = np.logspace(0.0, 3.2, 20)
        errors = []
        for n in (1, 2, 3, 5, 8):
            for _ in range(4):
                xi = random_tangent(rng, n)
                for t in (*ts, *-ts):
                    try:
                        exp_map(xi, float(t))
                    except (NotSpdError, ArithmeticError) as exc:
                        errors.append(exc)
        assert errors
        assert any("pivot block (1,1) is numerically singular" in str(exc) for exc in errors)

    def test_one_leading_block_inverse(self, monkeypatch):
        # one eigendecomposition for the exponential, one for the inverse of
        # pivot (1,1), which serves the structure check and sigma alike
        calls = []
        real = matcore.sym_eigen

        def counting(s):
            calls.append(s.shape)
            return real(s)

        monkeypatch.setattr(matcore, "sym_eigen", counting)
        exp_map(random_tangent(np.random.default_rng(9), 3), 1.0)
        assert calls == [(7, 7), (3, 3)]


class TestExpMapFrom:
    def test_zero_tangent_fixes_point(self):
        rng = np.random.default_rng(5)
        p = random_point(rng, 2)
        for t in (0.0, 0.7, 2.0):
            q = exp_map_from(p, Tangent.zero(2), t)
            assert np.linalg.norm(q.sigma - p.sigma) <= 1e-12
            assert np.linalg.norm(q.mu - p.mu) <= 1e-12

    def test_identity_base_matches_exp_map(self):
        rng = np.random.default_rng(6)
        xi = random_tangent(rng, 2)
        a = exp_map_from(GaussianPoint.identity(2), xi, 0.8)
        b = exp_map(xi, 0.8)
        assert np.linalg.norm(a.sigma - b.sigma) <= 1e-13
        assert np.linalg.norm(a.mu - b.mu) <= 1e-13

    def test_scalar_conjugation(self):
        p = GaussianPoint(np.array([[4.0]]), np.array([0.0]))
        xi = Tangent(np.array([[1.0]]), np.array([0.0]))
        q = exp_map_from(p, xi, 1.0)
        assert abs(q.sigma[0, 0] - 4.0 * math.e) <= 1e-12 * 4.0 * math.e
        assert abs(q.mu[0]) <= 1e-14


class TestSubmersionCommutes:
    def test_projection_of_lifted_curve(self):
        rng = np.random.default_rng(7)
        xi = random_tangent(rng, 2)
        for t in (0.4, 1.1):
            g = sym_exp(t * horizontal_lift(xi))
            h_up = submersion_project(g)
            h_down = embed(exp_map(xi, t))
            assert np.linalg.norm(h_up - h_down) <= 1e-12 * max(1.0, np.linalg.norm(h_up))

    def test_first_order_equation_of_natural_blocks(self):
        # d/dt (theta, delta) = (-A0, a0) H(t) under central differences
        rng = np.random.default_rng(8)
        xi = random_tangent(rng, 2)
        n = xi.n
        h_step = 1e-3
        ts = np.arange(0.0, 1.0 + h_step / 2, h_step)
        gs = ambient_exponentials(xi, ts)
        hs = gs[:, : n + 1, : n + 1]
        worst = 0.0
        for i in range(1, len(ts) - 1):
            dh = (hs[i + 1] - hs[i - 1]) / (2.0 * h_step)
            rate = np.hstack([-xi.A0, xi.a0[:, None]]) @ hs[i]
            worst = max(worst, float(np.linalg.norm(dh[:n, :] - rate)))
        assert worst <= 1e-6


class TestResiduals:
    def test_constant_trajectory_is_flat(self):
        traj = trajectory(Tangent.zero(2), np.linspace(0.0, 1.0, 101))
        assert geodesic_residual(traj, 1e-2) == 0.0
        drifts = first_integrals(traj, 1e-2)
        assert drifts == (0.0, 0.0)

    def test_exp_trajectory_satisfies_equations(self):
        rng = np.random.default_rng(9)
        xi = random_tangent(rng, 2)
        traj = trajectory(xi, np.linspace(0.0, 2.0, 2001))
        assert geodesic_residual(traj, 1e-3) <= 1e-6

    def test_detector_fires_on_corruption(self):
        rng = np.random.default_rng(10)
        xi = random_tangent(rng, 2)
        traj = trajectory(xi, np.linspace(0.0, 1.0, 1001))
        traj.mus[500] += 1e-2
        assert geodesic_residual(traj, 1e-3) > 1e-3

    def test_grid_preconditions(self):
        rng = np.random.default_rng(11)
        xi = random_tangent(rng, 1)
        traj = trajectory(xi, np.linspace(0.0, 1.0, 11))
        with pytest.raises(ValueError, match="too coarse"):
            geodesic_residual(traj, 1e-3)  # spacing 0.1 >> h
        with pytest.raises(ValueError, match="multiple"):
            geodesic_residual(traj, 0.15)
        ragged = trajectory(xi, np.array([0.0, 0.1, 0.3, 0.35, 0.7]))
        with pytest.raises(ValueError, match="uniform"):
            geodesic_residual(ragged, 0.1)

    def test_first_integrals_fixed_mean(self):
        rng = np.random.default_rng(12)
        a_mat = random_tangent(rng, 2).A0
        traj = trajectory(Tangent(a_mat, np.zeros(2)), np.linspace(0.0, 1.0, 1001))
        drift_a, drift_big = first_integrals(traj, 1e-3)
        assert drift_a <= 1e-10
        assert drift_big <= 1e-8
        rec = recovered_initial_direction(traj, 1e-3)
        assert np.linalg.norm(rec.a0) <= 1e-10
        assert np.linalg.norm(rec.A0 - a_mat) <= 1e-6

    def test_recovered_direction_matches_source(self):
        rng = np.random.default_rng(13)
        xi = random_tangent(rng, 2)
        traj = trajectory(xi, np.linspace(0.0, 1.0, 1001))
        rec = recovered_initial_direction(traj, 1e-3)
        assert np.linalg.norm(rec.A0 - xi.A0) <= 1e-6
        assert np.linalg.norm(rec.a0 - xi.a0) <= 1e-6

    def test_regeneration_matches_stored_points(self):
        rng = np.random.default_rng(14)
        xi = random_tangent(rng, 2)
        ts = np.linspace(0.0, 1.5, 7)
        traj = trajectory(xi, ts)
        for t, sigma, mu in zip(ts, traj.sigmas, traj.mus):
            fresh = exp_map(xi, float(t))
            assert np.linalg.norm(fresh.sigma - sigma) <= 1e-12 * max(1.0, np.linalg.norm(sigma))
            assert np.linalg.norm(fresh.mu - mu) <= 1e-12 * max(1.0, np.linalg.norm(mu))

    @pytest.mark.parametrize(
        "t_far, error, message",
        [(1000.0, ArithmeticError, "stopped being finite"), (200.0, NotSpdError, "not positive definite")],
        ids=["overflow", "not-spd"],
    )
    def test_far_samples_raise_typed_errors(self, t_far, error, message):
        xi = Tangent(np.array([[0.5, 0.1], [0.1, -0.3]]), np.array([0.4, 0.2]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(error, match=message):
                trajectory(xi, [0.0, 1.0, t_far])


class TestLogMap:
    def test_same_point_gives_zero(self):
        rng = np.random.default_rng(15)
        p = random_point(rng, 2)
        xi = log_map(p, p)
        assert np.linalg.norm(xi.A0) <= 1e-9
        assert np.linalg.norm(xi.a0) <= 1e-9

    def test_scalar_closed_form(self):
        p = GaussianPoint(np.array([[1.0]]), np.array([0.0]))
        q = GaussianPoint(np.array([[math.e ** 2]]), np.array([0.0]))
        xi = log_map(p, q)
        assert abs(xi.A0[0, 0] - 2.0) <= 1e-8
        assert abs(xi.a0[0]) <= 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip(self, n):
        rng = np.random.default_rng(16 + n)
        for _ in range(5):
            xi = random_tangent(rng, n, norm=float(rng.uniform(0.2, 1.0)))
            q = exp_map(xi, 1.0)
            rec = log_map(GaussianPoint.identity(n), q)
            err = np.linalg.norm(rec.A0 - xi.A0) + np.linalg.norm(rec.a0 - xi.a0)
            assert err <= 1e-6

    def test_reaches_target_from_general_base(self):
        rng = np.random.default_rng(20)
        p = random_point(rng, 2)
        q = random_point(rng, 2)
        xi = log_map(p, q)
        hit = exp_map_from(p, xi, 1.0)
        assert np.linalg.norm(embed(hit) - embed(q)) <= 1e-8

    def test_distant_target_uses_subdivision(self, monkeypatch):
        # The chart-guess fallback on op71: its first solve stalls, and the
        # halfway target plus the full retry are two levels of subdivision.
        p, q = FAR_PAIRS["op71-n2"]
        qn = normalize_to_identity(p).apply(q)
        solves = count_calls(monkeypatch, "_log_subdivided")
        xi = geodesic._log_subdivided(qn, 1e-12, 100)
        assert len(solves) == 2
        ref = embed(qn)
        assert np.linalg.norm(embed(exp_map(xi, 1.0)) - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_fallback_solves_where_the_fibre_route_fails(self, monkeypatch):
        # At paper norm 28 the lifted point G(S) spans about e^{+-28}: formed
        # explicitly, its smallest eigenvalues are rounding noise, so on a
        # share of targets the fibre route loses positivity or its polish
        # stalls.  The chart guess exponentiates only the generator, and
        # log_map falls back to it and solves them.
        fallbacks = count_calls(monkeypatch, "_log_subdivided")
        rng = np.random.default_rng(30)
        rescued = 0
        for _ in range(32):
            xi = random_tangent(rng, 1, norm=28.0)
            try:
                q = exp_map(xi, 1.0)
            except (ArithmeticError, ValueError):
                continue  # the target itself is beyond the block factorization
            before = len(fallbacks)
            try:
                rec = log_map(GaussianPoint.identity(1), q)
            except ShootingError:
                continue
            if len(fallbacks) > before:
                rescued += 1
                ref = embed(q)
                assert np.linalg.norm(embed(exp_map(rec, 1.0)) - ref) <= 1e-8 * np.linalg.norm(ref)
        assert rescued >= 3

    def test_nonconvergence_error_carries_residual(self):
        # n = 2: at n = 1 the fibre is a point and its guess is exact
        p = GaussianPoint.identity(2)
        q = GaussianPoint(np.array([[2.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0]))
        with pytest.raises(ShootingError) as excinfo:
            log_map(p, q, max_iter=1)
        assert excinfo.value.residual > 0


def central_difference_jacobian(vec, n, h=1e-5):
    """Oracle: central differences of the embedded shooting residual."""
    cols = []
    for j in range(vec.size):
        bump = np.zeros(vec.size)
        bump[j] = h
        plus = embed(exp_map(_unpack(vec + bump, n), 1.0))
        minus = embed(exp_map(_unpack(vec - bump, n), 1.0))
        cols.append((plus - minus).ravel() / (2.0 * h))
    return np.array(cols).T


# Far pairs of the benchmark (seed 1, paper norm 4-8) on which shooting
# from the chart guess ``(log sigma, mu)`` overshoots: ops 71 (n = 2), whose
# trials keep exceeding the exponent cap until the first solve stalls and
# subdivision takes over (two solves), and 12 (n = 3), whose first full step
# exceeds the cap, so the halved step is taken and one solve converges.  The
# fibre route solves both without a rejected trial, so the tests of the cap,
# the rejected trials and the subdivision call the chart-guess fallback,
# ``_log_subdivided``, on them directly.
FAR_PAIRS = {
    "op71-n2": (
        GaussianPoint(
            np.array([[1.1417781432608998, 0.45853474532795374], [0.45853474532795374, 1.4578205540623477]]),
            np.array([-0.2669546437526993, 0.21241819174534207]),
        ),
        GaussianPoint(
            np.array([[12.53073043728552, 2.4637090470755223], [2.4637090470755223, 0.7502014462013217]]),
            np.array([1.3165514087562988, -1.820710627986607]),
        ),
    ),
    "op12-n3": (
        GaussianPoint(
            np.array([
                [1.2615579107013783, -0.051155897353088994, -0.1369845901924137],
                [-0.051155897353088994, 0.7251043660048354, -0.20487667373898039],
                [-0.1369845901924137, -0.20487667373898039, 0.9809443698507774],
            ]),
            np.array([0.7272999020487253, -1.8275862457309329, 0.7838677215294181]),
        ),
        GaussianPoint(
            np.array([
                [0.6411148633404579, -1.192710876112848, -0.35071756063829745],
                [-1.192710876112848, 2.9678594642620992, 1.6230131848253617],
                [-0.35071756063829745, 1.6230131848253617, 1.61022319381599],
            ]),
            np.array([-0.7079545883113293, -2.2989387186735337, 0.19171379080867157]),
        ),
    ),
}


class TestShootingJacobian:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_central_differences(self, n):
        rng = np.random.default_rng(60 + n)
        for norm in (0.5, 2.0, 6.0):
            vec = _pack(random_tangent(rng, n, norm=norm))
            exact = _residual_jacobian(*_lifted(vec, n)[:2], n)
            oracle = central_difference_jacobian(vec, n)
            assert exact.shape == oracle.shape == ((n + 1) ** 2, vec.size)
            assert np.linalg.norm(exact - oracle) <= 1e-7 * np.linalg.norm(exact)

    def test_repeated_eigenvalues(self):
        # A scalar-variance direction with a0 = 0 has a triply repeated
        # spectrum; the divided differences must take their limit there.
        vec = _pack(Tangent(np.eye(2), np.zeros(2)))
        exact = _residual_jacobian(*_lifted(vec, 2)[:2], 2)
        assert np.all(np.isfinite(exact))
        assert np.linalg.norm(exact - central_difference_jacobian(vec, 2)) <= 1e-7 * np.linalg.norm(exact)

    @pytest.mark.parametrize("pair", sorted(FAR_PAIRS))
    def test_overshooting_trials_are_rejected_steps(self, monkeypatch, pair):
        # shooting from the chart guess (the fallback) steps beyond the cap on both pairs
        p, q = FAR_PAIRS[pair]
        qn = normalize_to_identity(p).apply(q)
        trials = count_calls(monkeypatch, "_lifted")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            xi = geodesic._log_subdivided(qn, 1e-12, 100)
        assert any(trial is None for trial in trials)
        ref = embed(qn)
        assert np.linalg.norm(embed(exp_map(xi, 1.0)) - ref) <= 1e-8 * np.linalg.norm(ref)
        assert 4.0 <= distance(p, q) <= 8.0


def fibre_case(seed, n, norm=2.0):
    """A normalized target ``q = exp_map(xi, 1)``, its ``theta = sigma^{-1}`` and a random packed skew."""
    rng = np.random.default_rng(seed)
    q = exp_map(random_tangent(rng, n, norm=norm), 1.0)
    return q, spd_inv(q.sigma), 0.3 * rng.standard_normal(n * (n - 1) // 2)


def central_difference_fibre_jacobian(q, theta, s, h=1e-6):
    """Oracle: central differences of the vertical part of ``log G(S)``."""
    cols = []
    for j in range(s.size):
        bump = np.zeros(s.size)
        bump[j] = h
        plus = _vertical_part(_fibre_log(q, theta, s + bump)[4])
        minus = _vertical_part(_fibre_log(q, theta, s - bump)[4])
        cols.append((plus - minus) / (2.0 * h))
    return np.array(cols).T


class TestFibre:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_fibre_point_is_the_block_factorization(self, n):
        q, theta, s = fibre_case(80 + n, n)
        m, d = _fibre_point(q.sigma, q.mu, _skew(s, n), theta)
        g = m @ d @ m.T
        m2, d2 = block_cholesky(g)
        assert np.linalg.norm(m2 - m) <= 1e-10 * np.linalg.norm(m)
        assert np.linalg.norm(d2 - d) <= 1e-10 * np.linalg.norm(d)
        assert check_special_symmetry(g) <= 1e-10 * np.linalg.norm(g)
        ref = embed(q)
        assert np.linalg.norm(g[: n + 1, : n + 1] - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_jacobian_matches_central_differences(self, n):
        for norm in (0.5, 2.0, 6.0):
            q, theta, s = fibre_case(85 + n, n, norm)
            exact = _fibre_jacobian(*_fibre_log(q, theta, s)[:4])
            oracle = central_difference_fibre_jacobian(q, theta, s)
            assert exact.shape == oracle.shape == (s.size, s.size)
            assert np.linalg.norm(exact - oracle) <= 1e-7 * np.linalg.norm(exact)

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_jacobian_on_repeated_spectrum(self, scale):
        # sigma = scale * id with mu = 0 and S = 0: G = diag(id / scale, 1, scale * id)
        q = GaussianPoint(scale * np.eye(3), np.zeros(3))
        theta, s = np.eye(3) / scale, np.zeros(3)
        exact = _fibre_jacobian(*_fibre_log(q, theta, s)[:4])
        assert np.all(np.isfinite(exact))
        oracle = central_difference_fibre_jacobian(q, theta, s)
        assert np.linalg.norm(exact - oracle) <= 1e-7 * np.linalg.norm(exact)

    def test_log_divided_differences_across_scales(self):
        # the spread of a norm-16 lifted point: z = (w_i - w_j) / (w_i + w_j) rounds to +-1
        w = np.array([1e-14, 1e-14 * (1.0 + 1e-9), 0.5, 1.0, 1.0, 3.0, 1e14])
        phi = _log_divided_differences(w)
        for i in range(w.size):
            for j in range(w.size):
                if w[i] == w[j]:
                    expected = 1.0 / w[i]
                elif abs(w[i] - w[j]) < 1e-6 * w[i]:
                    expected = 2.0 / (w[i] + w[j])
                else:
                    expected = (math.log(w[i]) - math.log(w[j])) / (w[i] - w[j])
                assert abs(phi[i, j] - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_newton_zeroes_the_vertical_part(self, n):
        q, theta, _ = fibre_case(90 + n, n, norm=6.0)
        s, v = _fibre_newton(q, theta, 1e-12, 100)
        assert np.linalg.norm(_vertical_part(v)) <= 1e-12 * np.linalg.norm(v)
        assert np.linalg.norm(_skew(s, n)) > 0.0


def count_calls(monkeypatch, name):
    """Replace ``geodesic.<name>`` by a wrapper; returns the list of its successful results."""
    results = []
    real = getattr(geodesic, name)

    def counting(*args):
        out = real(*args)
        results.append(out)
        return out

    monkeypatch.setattr(geodesic, name, counting)
    return results


class TestLiftedShooting:
    def test_near_pair_validates_once(self, monkeypatch):
        rng = np.random.default_rng(70)
        p = random_point(rng, 3)
        q = exp_map_from(p, random_tangent(rng, 3, norm=1.0), 1.0)
        exp_calls = count_calls(monkeypatch, "exp_map")
        log_map(p, q)
        assert len(exp_calls) == 1

    def test_far_pair_validates_once_per_solve(self, monkeypatch):
        p, q = FAR_PAIRS["op12-n3"]
        exp_calls = count_calls(monkeypatch, "exp_map")
        solves = count_calls(monkeypatch, "_shoot")
        log_map(p, q)
        assert len(solves) >= 1
        assert len(exp_calls) == len(solves)

    def test_lifted_rejects_nan_and_beyond_cap(self):
        rng = np.random.default_rng(71)
        vec = _pack(random_tangent(rng, 2, norm=1.0))
        assert _lifted(np.full_like(vec, np.nan), 2) is None
        assert _lifted(40.5 * vec, 2) is None
        assert _lifted(39.5 * vec, 2) is not None


class TestDistance:
    def test_coincident_points(self):
        rng = np.random.default_rng(21)
        p = random_point(rng, 2)
        assert distance(p, p) == 0.0

    def test_scalar_fixed_mean_values(self):
        p = GaussianPoint(np.array([[1.0]]), np.array([0.0]))
        q = GaussianPoint(np.array([[math.e ** 2]]), np.array([0.0]))
        assert abs(distance(p, q, "paper") - 2.0 * math.sqrt(2.0)) <= 1e-8
        assert abs(distance(p, q, "fisher") - math.sqrt(2.0)) <= 1e-8

    def test_symmetry(self):
        rng = np.random.default_rng(22)
        p = random_point(rng, 2)
        q = random_point(rng, 2)
        assert abs(distance(p, q) - distance(q, p)) <= 1e-8

    def test_triangle_inequality(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            p, q, r = (random_point(rng, 2, spread=0.4) for _ in range(3))
            dpq = distance(p, q)
            dpr = distance(p, r)
            drq = distance(r, q)
            assert dpq <= dpr + drq + 1e-8


class TestTrajectoryCsv:
    def test_round_trip_full_precision(self):
        rng = np.random.default_rng(24)
        xi = random_tangent(rng, 2)
        traj = trajectory(xi, np.linspace(0.0, 1.0, 5), basepoint=random_point(rng, 2))
        buf = io.StringIO()
        write_samples_csv(buf, ("sigma", "mu"), zip(traj.ts, traj.sigmas, traj.mus))
        buf.seek(0)
        table = np.loadtxt(buf, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], traj.ts)
        assert np.array_equal(table[:, 1:5].reshape(-1, 2, 2), traj.sigmas)
        assert np.array_equal(table[:, 5:], traj.mus)

    def test_header_layout(self):
        xi = Tangent.zero(2)
        traj = trajectory(xi, [0.0, 1.0])
        buf = io.StringIO()
        write_samples_csv(buf, ("sigma", "mu"), zip(traj.ts, traj.sigmas, traj.mus))
        header = buf.getvalue().splitlines()[0]
        assert header == "t,sigma_11,sigma_12,sigma_21,sigma_22,mu_1,mu_2"
