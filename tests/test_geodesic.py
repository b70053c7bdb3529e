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
    midpoint_N,
    normalize_to_identity,
    submersion_project,
    tangent_norm,
    trajectory,
)
import gaussgeo.ahm as ahm_mod
import gaussgeo.manifold as manifold
from gaussgeo.geodesic import (
    GeodesicTrajectory,
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
)
from gaussgeo.ahm import interpolate
from gaussgeo.manifold import _apply_stacked
from gaussgeo.matcore import _spectral, block_cholesky, check_special_symmetry, spd_inv, sym, sym_exp
from gaussgeo.cli import write_samples_csv
from util import (
    integrate_geodesic_ode,
    packed_rows,
    random_point,
    random_tangent,
    recovered_initial_direction,
    reference_geodesic_checks,
    reference_sampled,
    spd_log,
)


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
    # trajectory checks its times at its boundary too; far along, its samples stop being positive definite before they overflow
    TIME_CALLS = {
        **CALLS,
        "trajectory": lambda xi, t: trajectory(xi, [0.0, t]),
        "trajectory_from": lambda xi, t: trajectory(xi, [0.0, t], basepoint=GaussianPoint.identity(2)),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", sorted(TIME_CALLS))
    def test_rejects_non_finite_time(self, call, t):
        with pytest.raises(ValueError, match=f"^t must be finite, got {t}$"):
            self.TIME_CALLS[call](self.XI, t)

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

    @pytest.mark.parametrize("call", ["exp_map_from", "trajectory"])
    def test_rejects_a_tangent_of_another_dimension(self, call):
        p, xi = GaussianPoint.identity(3), Tangent.zero(2)
        run = {"exp_map_from": lambda: exp_map_from(p, xi, 1.0), "trajectory": lambda: trajectory(xi, [0.0, 1.0], basepoint=p)}
        with pytest.raises(ValueError, match="^tangent and base point must share a dimension, got n = 2 and n = 3$"):
            run[call]()

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", [0, 5, -1], ids=["first", "inside", "last"])
    def test_non_finite_time_fails_the_grid_check(self, where, bad):
        # a NaN deviation from the spacing compares False with any bound, so a check written
        # as `deviation > bound` let a NaN time through
        traj = trajectory(random_tangent(np.random.default_rng(11), 1), np.linspace(0.0, 1.0, 11))
        ts = traj.ts.copy()
        ts[where] = bad
        broken = GeodesicTrajectory(ts, traj.sigmas, traj.mus)
        for check in (geodesic_residual, first_integrals):
            with pytest.raises(ValueError, match="^samples must lie on a uniform increasing grid$"):
                check(broken, 0.1)

    @pytest.mark.parametrize(
        "h, message",
        [
            pytest.param(math.nan, "finite-difference step must be finite, got nan", id="nan"),
            pytest.param(math.inf, "finite-difference step must be finite, got inf", id="inf"),
            pytest.param(-math.inf, "finite-difference step must be finite, got -inf", id="-inf"),
            pytest.param(0.0, "finite-difference step must be positive", id="zero"),
            pytest.param(-0.1, "finite-difference step must be positive", id="negative"),
        ],
    )
    def test_non_finite_step_rejected(self, h, message):
        traj = trajectory(random_tangent(np.random.default_rng(11), 1), np.linspace(0.0, 1.0, 11))
        for check in (geodesic_residual, first_integrals):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check(traj, h)

    @pytest.mark.parametrize(
        "samples, h, message",
        [(2, 0.1, "need at least three samples"), (3, 0.2, "sampled range too short for the requested finite-difference step")],
        ids=["two-samples", "shorter-than-the-stencil"],
    )
    def test_short_grid_rejected(self, samples, h, message):
        # spacing 0.1: a step of 0.2 takes two samples on each side, five in all
        traj = trajectory(random_tangent(np.random.default_rng(11), 1), 0.1 * np.arange(samples))
        for check in (geodesic_residual, first_integrals):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check(traj, h)

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

    @pytest.mark.parametrize("based", [False, True], ids=["identity", "basepoint"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_bit_identical_to_full_stack_read_out(self, n, based):
        # trajectory exponentiates only the leading (n+1) x (n+1) block; the
        # reference reads the same block off the full exp(t V) stack
        rng = np.random.default_rng(30 + n)
        xi = random_tangent(rng, n)
        basepoint = random_point(rng, n) if based else None
        for ts in (np.linspace(0.0, 2.0, 2001), np.array([-0.7, 0.0, 0.1, 0.35, 1.3])):
            gs = ambient_exponentials(xi, ts)
            sigmas = matcore.sym(np.linalg.inv(matcore.sym(gs[:, :n, :n])))
            mus = (sigmas @ gs[:, :n, n, None])[..., 0]
            if based:
                denorm = normalize_to_identity(basepoint).inverse()
                sigmas = matcore.sym(denorm.A @ sigmas @ denorm.A.T)
                mus = (denorm.A @ mus[..., None])[..., 0] + denorm.b
            traj = trajectory(xi, ts, basepoint=basepoint)
            assert np.array_equal(traj.sigmas, sigmas)
            assert np.array_equal(traj.mus, mus)

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
        # The chart-guess fallback on the norm-24 target: its first solve
        # stalls, and the halfway target plus the full retry are two levels
        # of subdivision.
        qn = FAR_PAIRS["norm24-n8"][1]  # from the identity point: already normalized
        solves = count_calls(monkeypatch, "_log_subdivided")
        xi = _unpack(geodesic._log_subdivided(*solver_arrays(qn), 1e-12, 100)[0], qn.n)
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
        # n = 2 at paper norm 8: at n = 1 the fibre is a point and its guess
        # is exact, and nearer targets the seeded fibre Newton finishes in one step
        p = GaussianPoint.identity(2)
        q = exp_map(random_tangent(np.random.default_rng(0), 2, norm=8.0), 1.0)
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


def far_target(norm, n, draw):
    """The ``draw``-th (from 1) target ``exp_map(xi, 1)`` of a far sweep cell: ``xi`` of paper norm ``norm`` from ``default_rng(1000 + 10 norm + n)``."""
    rng = np.random.default_rng(1000 + int(10 * norm) + n)
    for _ in range(draw):
        xi = random_tangent(rng, n, norm=norm)
    return exp_map(xi, 1.0)


# Far-sweep targets ``(norm, n, draw)`` on which shooting from the chart guess
# ``(log sigma, mu)`` (the fallback, ``_log_subdivided``, called directly)
# tries a step beyond the exponent cap and still solves: the n = 2 one by path
# subdivision (three solves), the n = 3 one in one solve.
OVERSHOOTING_TARGETS = {"norm12-n2": (12.0, 2, 8), "norm12-n3": (12.0, 3, 8)}

# Far pairs of the benchmark (seed 1, paper norm 4-8), ops 71 (n = 2) and 12
# (n = 3).  The fibre route solves both, and so does shooting from the chart
# guess with no rejected trial, so the tests of the fallback call
# ``_log_subdivided`` on them directly.
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
# A far-sweep target that log_map hands to the fallback, where the first
# chart-guess solve stalls and path subdivision solves it, so the fallback
# tests over FAR_PAIRS also see a halfway target.
FAR_PAIRS["norm24-n8"] = (GaussianPoint.identity(8), far_target(24.0, 8, 2))


class TestShootingJacobian:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_central_differences(self, n):
        rng = np.random.default_rng(60 + n)
        for norm in (0.5, 2.0, 6.0):
            xi = random_tangent(rng, n, norm=norm)
            vec = _pack(xi.A0, xi.a0)
            exact = _residual_jacobian(*_lifted(vec, n)[:2], n)
            oracle = central_difference_jacobian(vec, n)[packed_rows(n)]
            assert exact.shape == oracle.shape == (vec.size, vec.size) == (n * (n + 3) // 2,) * 2
            assert np.linalg.norm(exact - oracle) <= 1e-7 * np.linalg.norm(exact)

    def test_repeated_eigenvalues(self):
        # A scalar-variance direction with a0 = 0 has a triply repeated
        # spectrum; the divided differences must take their limit there.
        vec = _pack(np.eye(2), np.zeros(2))
        exact = _residual_jacobian(*_lifted(vec, 2)[:2], 2)
        assert exact.shape == (5, 5)
        assert np.all(np.isfinite(exact))
        assert np.linalg.norm(exact - central_difference_jacobian(vec, 2)[packed_rows(2)]) <= 1e-7 * np.linalg.norm(exact)

    def test_singular_polish_jacobian_stalls(self, monkeypatch):
        # a singular Jacobian ends the polish's Newton: a ShootingError with its residual, no LinAlgError
        qn = exp_map(random_tangent(np.random.default_rng(73), 3, norm=2.0), 1.0)
        target, log_sigma, mu = solver_arrays(qn)
        monkeypatch.setattr(geodesic, "_residual_jacobian", lambda w, u, n: np.zeros((n * (n + 3) // 2,) * 2))
        with pytest.raises(ShootingError, match="stalled") as excinfo:
            geodesic._shoot(target, _pack(log_sigma, mu), 3, 1e-12, 100)
        assert excinfo.value.residual > 1e-12 * np.linalg.norm(target)

    def test_singular_fibre_jacobian_hands_over_to_the_polish(self, monkeypatch):
        # the same exit ends the fibre Newton at its seed, and the polish solves from there
        qn = exp_map(random_tangent(np.random.default_rng(74), 3, norm=2.0), 1.0)
        newton_steps = []

        def singular(m, d, w, u):
            newton_steps.append(None)
            return np.zeros((3, 3))

        monkeypatch.setattr(geodesic, "_fibre_jacobian", singular)
        polish_steps = count_calls(monkeypatch, "_residual_jacobian")
        rec = log_map(GaussianPoint.identity(3), qn)
        assert len(newton_steps) == 1 and polish_steps
        ref = embed(qn)
        assert np.linalg.norm(embed(exp_map(rec, 1.0)) - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("target", sorted(OVERSHOOTING_TARGETS))
    def test_overshooting_trials_are_rejected_steps(self, monkeypatch, target):
        # shooting from the chart guess (the fallback) steps beyond the cap on both targets
        norm, n, draw = OVERSHOOTING_TARGETS[target]
        qn = far_target(norm, n, draw)
        trials = count_calls(monkeypatch, "_lifted")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            xi = _unpack(geodesic._log_subdivided(*solver_arrays(qn), 1e-12, 100)[0], qn.n)
        assert any(trial is None for trial in trials)
        ref = embed(qn)
        assert np.linalg.norm(embed(exp_map(xi, 1.0)) - ref) <= 1e-8 * np.linalg.norm(ref)
        assert distance(GaussianPoint.identity(n), qn) == pytest.approx(norm, rel=1e-8)


def fibre_case(seed, n, norm=2.0):
    """A normalized target ``q = exp_map(xi, 1)``, its ``theta = sigma^{-1}`` and a random packed skew."""
    rng = np.random.default_rng(seed)
    q = exp_map(random_tangent(rng, n, norm=norm), 1.0)
    return q, spd_inv(q.sigma), 0.3 * rng.standard_normal(n * (n - 1) // 2)


def central_difference_fibre_jacobian(q, theta, s, h=1e-6):
    """Oracle: central differences of the vertical part of ``log G(S)``."""
    fixed = _fibre_point(q.sigma, q.mu, theta)
    cols = []
    for j in range(s.size):
        bump = np.zeros(s.size)
        bump[j] = h
        plus = _vertical_part(_fibre_log(fixed, s + bump)[4])
        minus = _vertical_part(_fibre_log(fixed, s - bump)[4])
        cols.append((plus - minus) / (2.0 * h))
    return np.array(cols).T


class TestFibre:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_fibre_point_is_the_block_factorization(self, n):
        q, theta, s = fibre_case(80 + n, n)
        m, d = _fibre_log(_fibre_point(q.sigma, q.mu, theta), s)[:2]
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
            exact = _fibre_jacobian(*_fibre_log(_fibre_point(q.sigma, q.mu, theta), s)[:4])
            oracle = central_difference_fibre_jacobian(q, theta, s)
            assert exact.shape == oracle.shape == (s.size, s.size)
            assert np.linalg.norm(exact - oracle) <= 1e-7 * np.linalg.norm(exact)

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_jacobian_on_repeated_spectrum(self, scale):
        # sigma = scale * id with mu = 0 and S = 0: G = diag(id / scale, 1, scale * id)
        q = GaussianPoint(scale * np.eye(3), np.zeros(3))
        theta, s = np.eye(3) / scale, np.zeros(3)
        exact = _fibre_jacobian(*_fibre_log(_fibre_point(q.sigma, q.mu, theta), s)[:4])
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
        s, v = _fibre_newton(q.sigma, q.mu, theta, spd_log(q.sigma), 1e-12, 100)
        assert np.linalg.norm(_vertical_part(v)) <= 1e-12 * np.linalg.norm(v)
        assert np.linalg.norm(_skew(s, n)) > 0.0


def solver_arrays(qn):
    """The plain arrays the solve keeps for the normalized target ``qn``: ``(embed(qn), log sigma, mu)``."""
    return embed(qn), spd_log(qn.sigma), qn.mu


def seed_of(qn):
    """:func:`geodesic._fibre_seed` of the normalized target ``qn``."""
    return geodesic._fibre_seed(spd_log(qn.sigma), qn.mu)


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


class TestFibreSeed:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("norm", [0.05, 0.1])
    def test_seed_is_the_third_order_horizontal_point(self, n, norm):
        # S* = [log sigma, mu mu^T] / 12 + O(r^5): at small norms the seed is S* to a relative O(r^2)
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            q = exp_map(random_tangent(rng, n, norm=norm), 1.0)
            exact, _ = _fibre_newton(q.sigma, q.mu, spd_inv(q.sigma), spd_log(q.sigma), 1e-12, 100)
            seed = seed_of(q)
            assert np.linalg.norm(seed - exact) <= 1e-3 * np.linalg.norm(exact)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_seed_is_zero_for_equal_means_and_n1(self, n):
        rng = np.random.default_rng(110 + n)
        mu = rng.standard_normal(n)
        p, q = GaussianPoint(random_point(rng, n).sigma, mu), GaussianPoint(random_point(rng, n).sigma, mu)
        seed = seed_of(normalize_to_identity(p).apply(q))
        assert seed.shape == (n * (n - 1) // 2,) and not seed.any()
        assert not seed_of(random_point(rng, 1)).any()

    def test_seed_is_zero_beyond_its_reach(self, monkeypatch):
        # the chart guess (log sigma, mu) of this target has paper norm sqrt(108), above SEED_REACH
        q = GaussianPoint(np.array([[math.e ** 5, 0.0], [0.0, math.e ** -5]]), np.array([1.0, 1.0]))
        assert not seed_of(q).any()
        monkeypatch.setattr(geodesic, "SEED_REACH", 11.0)
        assert seed_of(q).any()

    @pytest.mark.parametrize("norms", [(0.25, 2.0), (4.0, 8.0)])
    def test_seed_saves_newton_steps(self, monkeypatch, norms):
        rng = np.random.default_rng(120 + int(norms[0]))
        pairs = []
        for n in (2, 3, 5, 8) * 5:
            p = random_point(rng, n)
            pairs.append((p, exp_map_from(p, random_tangent(rng, n, norm=float(rng.uniform(*norms))), 1.0)))
        jacobians = count_calls(monkeypatch, "_fibre_jacobian")
        seeded = [log_map(p, q) for p, q in pairs]
        with_seed = len(jacobians)
        monkeypatch.setattr(geodesic, "SEED_REACH", 0.0)
        unseeded = [log_map(p, q) for p, q in pairs]
        assert with_seed < len(jacobians) - with_seed
        for a, b in zip(seeded, unseeded):
            assert np.linalg.norm(a.A0 - b.A0) + np.linalg.norm(a.a0 - b.a0) <= 1e-9 * max(1.0, np.linalg.norm(b.A0))

    @pytest.mark.parametrize("norm", [1e-3, 1e-2, 0.05, 0.1, 0.25])
    def test_small_norms_reject_no_trial(self, monkeypatch, norm):
        # every Newton step takes its full step (one evaluation per Jacobian, plus
        # the seed's), and the polish takes no step: a near-exact seed must not
        # make the exact step look longer than the bound by rounding
        evaluations = count_calls(monkeypatch, "_fibre_log")
        jacobians = count_calls(monkeypatch, "_fibre_jacobian")
        polish = count_calls(monkeypatch, "_residual_jacobian")
        rng = np.random.default_rng(130)
        for n in (1, 2, 3, 5, 8):
            for _ in range(8):
                p = random_point(rng, n)
                q = exp_map_from(p, random_tangent(rng, n, norm=norm), 1.0)
                before = len(evaluations), len(jacobians)
                log_map(p, q)
                assert len(evaluations) - before[0] == len(jacobians) - before[1] + 1
        assert len(polish) == 0


class TestLiftedShooting:
    def test_near_pair_validates_once(self, monkeypatch):
        # exp_map's validation runs once, on exp(V) rebuilt from the last trial's eigenpair, not through exp_map
        rng = np.random.default_rng(70)
        p = random_point(rng, 3)
        q = exp_map_from(p, random_tangent(rng, 3, norm=1.0), 1.0)
        validations = count_calls(monkeypatch, "_lifted_point")
        exp_calls = count_calls(monkeypatch, "exp_map")
        xi = log_map(p, q)
        assert (len(validations), len(exp_calls)) == (1, 0)
        # it validated the point exp_map reaches with the returned tangent
        (checked_sigma, checked_mu), reached = validations[0], exp_map(xi, 1.0)
        assert np.linalg.norm(checked_sigma - reached.sigma) <= 1e-14 * np.linalg.norm(reached.sigma)
        assert np.linalg.norm(checked_mu - reached.mu) <= 1e-14 * max(1.0, np.linalg.norm(reached.mu))

    def test_far_pair_validates_once_per_solve(self, monkeypatch):
        p, q = FAR_PAIRS["op12-n3"]
        validations = count_calls(monkeypatch, "_lifted_point")
        solves = count_calls(monkeypatch, "_shoot")
        log_map(p, q)
        assert len(solves) >= 1
        assert len(validations) == len(solves)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("norm", [1.0, 6.0])
    def test_solve_returns_the_generator_eigenpair(self, n, norm):
        # the midpoint path builds its lifted endpoint and cross-check from this eigenpair and
        # chart, so they must have the bits of the ones it would otherwise build again
        rng = np.random.default_rng(72 + n)
        for _ in range(4):
            p = random_point(rng, n)
            q = exp_map_from(p, random_tangent(rng, n, norm=norm), 1.0)
            vec, chart, w, u, _ = geodesic._log_solve(p, q, 1e-12, 100)
            xi = _unpack(vec, n)
            w_ref, u_ref = matcore.sym_eigen(horizontal_lift(xi))
            assert (w.tobytes(), u.tobytes()) == (w_ref.tobytes(), u_ref.tobytes())
            reference = normalize_to_identity(p)
            assert (chart.A.tobytes(), chart.b.tobytes()) == (reference.A.tobytes(), reference.b.tobytes())
            solved = log_map(p, q)
            assert (xi.A0.tobytes(), xi.a0.tobytes()) == (solved.A0.tobytes(), solved.a0.tobytes())

    @pytest.mark.parametrize("pair", sorted(FAR_PAIRS))
    def test_fallback_returns_the_generator_eigenpair(self, pair):
        p, q = FAR_PAIRS[pair]
        vec, w, u, _ = geodesic._log_subdivided(*solver_arrays(normalize_to_identity(p).apply(q)), 1e-12, 100)
        xi = _unpack(vec, p.n)
        w_ref, u_ref = matcore.sym_eigen(horizontal_lift(xi))
        assert (w.tobytes(), u.tobytes()) == (w_ref.tobytes(), u_ref.tobytes())

    def test_lifted_rejects_nan_and_beyond_cap(self):
        rng = np.random.default_rng(71)
        xi = random_tangent(rng, 2, norm=1.0)
        vec = _pack(xi.A0, xi.a0)
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


class TestSampledRows:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_bit_identical_to_whole_block_reference(self, n):
        # the first n rows of the leading block give every bit of the point, on the verify grid,
        # on a grid whose end is not a multiple of its step, and with a base point
        rng = np.random.default_rng(180 + n)
        w, u = matcore.sym_eigen(horizontal_lift(random_tangent(rng, n)))
        denorm = normalize_to_identity(random_point(rng, n)).inverse()
        grids = (np.linspace(0.0, 2.0, 2001), np.append(np.linspace(0.0, 1.037, 1038), 1.0375), 0.7)
        for ts in grids:
            for base in (None, denorm):
                got, want = geodesic._sampled(w, u, ts, base), reference_sampled(w, u, ts, base)
                assert got.ts.tobytes() == want.ts.tobytes()
                assert got.sigmas.tobytes() == want.sigmas.tobytes()
                assert got.mus.tobytes() == want.mus.tobytes()


BLOCK_BUDGETS = pytest.mark.parametrize("samples_per_block", [1, 7, None], ids=["one-sample", "seven-samples", "default"])


def block_budget(monkeypatch, samples_per_block, n):
    """Set the walks' block budget to ``samples_per_block`` (n, n) stacks (``None``: keep the default); the samples per block."""
    if samples_per_block is not None:
        monkeypatch.setattr(geodesic, "VERIFY_BLOCK_BYTES", samples_per_block * 8 * n * n)
    return max(1, geodesic.VERIFY_BLOCK_BYTES // (8 * n * n))


class TestBlockWalks:
    @BLOCK_BUDGETS
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_checks_keep_the_bits_of_one_pass(self, n, samples_per_block, monkeypatch):
        # a fault at the middle sample, or at the first centre of the second block, reaches the
        # blocks beside it through their halos; at h = 2e-3 the halo is two samples, wider than one block
        block = block_budget(monkeypatch, samples_per_block, n)
        size = 2001 if samples_per_block is None else 201  # the default makes 2 blocks at n = 5, 4 at n = 8
        clean = trajectory(random_tangent(np.random.default_rng(190 + n), n), np.arange(size) * 1e-3)
        for h, m in ((1e-3, 1), (2e-3, 2)):
            for fault in (None, size // 2, min(m + block, size - 1)):
                traj = GeodesicTrajectory(clean.ts, clean.sigmas.copy(), clean.mus.copy())
                if fault is not None:
                    traj.sigmas[fault] += 1e-3 * np.eye(n)
                    traj.mus[fault] += 1e-3
                got = (geodesic_residual(traj, h), *first_integrals(traj, h))
                assert np.array(got).tobytes() == np.array(reference_geodesic_checks(traj, h)).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_non_finite_sample_in_the_last_block_is_reported(self, n, bad, monkeypatch):
        # the blocks' maxima are combined with np.maximum: Python's max would drop a NaN that
        # the last block reports, and a broken geodesic would pass
        block_budget(monkeypatch, 7, n)
        clean = trajectory(random_tangent(np.random.default_rng(200 + n), n), np.arange(2001) * 1e-3)
        for sample in (1999, 2000):
            traj = GeodesicTrajectory(clean.ts, clean.sigmas.copy(), clean.mus.copy())
            traj.sigmas[sample, 0, 0] = bad
            traj.mus[sample, 0] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                got = (geodesic_residual(traj, 1e-3), *first_integrals(traj, 1e-3))
                want = reference_geodesic_checks(traj, 1e-3)
            assert np.isnan(want[0]) and not np.isfinite(want).any()
            # a NaN's sign bit follows the SIMD path numpy takes for a stack's shape, so NaNs compare as NaNs
            assert np.array_equal(got, want, equal_nan=True)

    @BLOCK_BUDGETS
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_sampled_keeps_the_bits_of_one_pass(self, n, samples_per_block, monkeypatch):
        # the 2001-sample verify grid, the 7 and 1 samples of interpolate and midpoint_N, with and without a base point
        block_budget(monkeypatch, samples_per_block, n)
        rng = np.random.default_rng(210 + n)
        w, u = matcore.sym_eigen(horizontal_lift(random_tangent(rng, n)))
        denorm = normalize_to_identity(random_point(rng, n)).inverse()
        for ts in (np.arange(2001) * 1e-3, np.linspace(0.0, 1.0, 7), 0.5):
            for base in (None, denorm):
                got, want = geodesic._sampled(w, u, ts, base), reference_sampled(w, u, ts, base)
                assert got.ts.tobytes() == want.ts.tobytes()
                assert got.sigmas.tobytes() == want.sigmas.tobytes()
                assert got.mus.tobytes() == want.mus.tobytes()

    @BLOCK_BUDGETS
    def test_sampled_fails_at_the_first_non_finite_time(self, samples_per_block, monkeypatch):
        # t = 200 is finite but not positive definite and t = 1000 overflows: as for the whole
        # stack, the finiteness check of every block comes before any Cholesky test
        block_budget(monkeypatch, samples_per_block, 2)
        w, u = matcore.sym_eigen(horizontal_lift(Tangent(np.array([[0.5, 0.1], [0.1, -0.3]]), np.array([0.4, 0.2]))))
        ts = [0.0, 200.0, 1000.0]
        for sampled in (geodesic._sampled, reference_sampled):
            with pytest.raises(ArithmeticError, match="^geodesic stopped being finite at t = 1000$"):
                sampled(w, u, ts, None)
        with pytest.raises(NotSpdError):
            geodesic._sampled(w, u, ts[:2], None)


class TestTrajectoryCsv:
    def test_round_trip_full_precision(self):
        rng = np.random.default_rng(24)
        xi = random_tangent(rng, 2)
        traj = trajectory(xi, np.linspace(0.0, 1.0, 5), basepoint=random_point(rng, 2))
        buf = io.StringIO()
        write_samples_csv(buf, ("sigma", "mu"), traj.ts, traj.sigmas, traj.mus)
        buf.seek(0)
        table = np.loadtxt(buf, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], traj.ts)
        assert np.array_equal(table[:, 1:5].reshape(-1, 2, 2), traj.sigmas)
        assert np.array_equal(table[:, 5:], traj.mus)

    def test_header_layout(self):
        xi = Tangent.zero(2)
        traj = trajectory(xi, [0.0, 1.0])
        buf = io.StringIO()
        write_samples_csv(buf, ("sigma", "mu"), traj.ts, traj.sigmas, traj.mus)
        header = buf.getvalue().splitlines()[0]
        assert header == "t,sigma_11,sigma_12,sigma_21,sigma_22,mu_1,mu_2"


def lifted_case(seed, n, norm=1.0):
    """A lifted geodesic matrix ``exp(V)``, exactly symmetric like the ones the solver validates."""
    xi = random_tangent(np.random.default_rng(seed), n, norm=norm)
    return geodesic.lifted_exponential(horizontal_lift(xi), 1.0)


def bypassed_point(sigma, mu):
    """A ``GaussianPoint`` whose constructor checks never ran."""
    point = object.__new__(GaussianPoint)
    object.__setattr__(point, "sigma", np.asarray(sigma, dtype=float))
    object.__setattr__(point, "mu", np.asarray(mu, dtype=float))
    return point


class TestLiftedPointChecks:
    # _lifted_point factors without block_cholesky's input checks; the checks that can fail still run

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_returns_the_arrays_exp_map_reads(self, n):
        g = lifted_case(200 + n, n)
        sigma, mu = geodesic._lifted_point(g)
        reached = exp_map(random_tangent(np.random.default_rng(200 + n), n), 1.0)
        assert (sigma.tobytes(), mu.tobytes()) == (reached.sigma.tobytes(), reached.mu.tobytes())
        assert not (reached.sigma.flags.writeable or reached.mu.flags.writeable)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matrix_off_the_slice_loses_its_block_structure(self, n):
        g = lifted_case(210 + n, n)
        rng = np.random.default_rng(220 + n)
        bump = sym(rng.standard_normal(g.shape))
        moved = g + 1e-6 * np.linalg.norm(g) / np.linalg.norm(bump) * bump
        block_cholesky(moved)  # still a valid block factorization input
        with pytest.raises(ArithmeticError, match="^lifted geodesic lost its block structure: residual "):
            geodesic._lifted_point(moved)

    @pytest.mark.parametrize("where", ["leading", "middle", "trailing", "border", "corner"])
    def test_nan_entry_is_rejected(self, where):
        n = 2
        g = lifted_case(230, n).copy()
        i, j = {"leading": (0, 1), "middle": (n, n), "trailing": (n + 1, n + 2), "border": (0, n + 1), "corner": (n, n + 1)}[where]
        g[i, j] = g[j, i] = np.nan
        with pytest.raises((ArithmeticError, ValueError)):
            geodesic._lifted_point(g)

    @pytest.mark.parametrize("value, i, j", [(np.nan, 4, 5), (np.inf, 3, 3), (np.inf, 6, 6)], ids=["nan-trailing", "inf-middle", "inf-trailing"])
    def test_non_finite_entry_fails_the_structure_test(self, value, i, j):
        # the factorization's pivot tests pass these entries (n = 3), and max() skips a NaN residual
        g = lifted_case(231, 3).copy()
        g[i, j] = g[j, i] = value
        with pytest.raises(ArithmeticError, match="^lifted geodesic lost its block structure: residual "):
            geodesic._lifted_point(g)

    def test_non_spd_leading_pivot_is_not_spd(self):
        n = 2
        g = lifted_case(232, n).copy()
        g[:n, :n] = -g[:n, :n]
        with pytest.raises(NotSpdError, match=r"^pivot block \(1,1\) is not positive definite$"):
            geodesic._lifted_point(g)

    def test_read_out_gets_the_point_checks(self, monkeypatch):
        # the constructor's tests of the point run on the read-out: a Cholesky test of sigma, a finite mean
        g = lifted_case(233, 2)
        real = geodesic.read_embedded
        monkeypatch.setattr(geodesic, "read_embedded", lambda h, sigma: (-real(h, sigma)[0], real(h, sigma)[1]))
        with pytest.raises(NotSpdError, match="^sigma is not positive definite$"):
            geodesic._lifted_point(g)
        monkeypatch.setattr(geodesic, "read_embedded", lambda h, sigma: (real(h, sigma)[0], np.full(2, np.nan)))
        with pytest.raises(ValueError, match=r"^mean must be finite, got \[nan nan\]$"):
            geodesic._lifted_point(g)

    def test_singular_leading_pivot_is_not_spd(self):
        # the far n = 2 matrix of the CLI test: pivot (1,1) passes its Cholesky test yet is singular to LU
        rng = np.random.default_rng(5)
        for _ in range(4):
            random_tangent(rng, 1)
        far = geodesic.lifted_exponential(horizontal_lift(random_tangent(rng, 2)), float(np.logspace(0.0, 3.2, 20)[12]))
        with pytest.raises(NotSpdError, match=r"^pivot block \(1,1\) is numerically singular$"):
            geodesic._lifted_point(far)


BOUNDARY_CALLS = {"log_map": log_map, "distance": distance, "midpoint_N": midpoint_N}


class TestPairBoundary:
    # a target that skipped the constructor fails the solve's own checks with the constructor's errors

    @pytest.mark.parametrize("call", sorted(BOUNDARY_CALLS))
    def test_non_spd_sigma(self, call):
        good = GaussianPoint(np.eye(2), np.zeros(2))
        with pytest.raises(NotSpdError, match="^sigma is not positive definite$"):
            BOUNDARY_CALLS[call](good, GaussianPoint(np.diag([1.0, -1.0]), np.zeros(2)))
        # a target that never passed the constructor fails the solve's positivity test with the same error
        with pytest.raises(NotSpdError, match="^sigma is not positive definite$"):
            BOUNDARY_CALLS[call](good, bypassed_point(np.diag([1.0, -1.0]), np.zeros(2)))
        with pytest.raises(NotSpdError, match="^sigma is not positive definite$"):
            BOUNDARY_CALLS[call](good, bypassed_point(np.diag([1.0, np.nan]), np.zeros(2)))

    @pytest.mark.parametrize("call", sorted(BOUNDARY_CALLS))
    def test_non_finite_mean(self, call):
        good = GaussianPoint(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match=r"^mean must be finite, got \[nan  0\.\]$"):
            BOUNDARY_CALLS[call](good, GaussianPoint(np.eye(2), np.array([np.nan, 0.0])))
        # a target that never passed the constructor fails the solve's finite-mean test, on its normalized mean
        with pytest.raises(ValueError, match=r"^mean must be finite, got \[nan nan\]$"):
            BOUNDARY_CALLS[call](good, bypassed_point(np.eye(2), np.array([np.nan, 0.0])))


def seeded_pairs(seed, n, norms=(0.5, 2.0, 6.0)):
    rng = np.random.default_rng(seed)
    pairs = []
    for norm in norms:
        p = random_point(rng, n)
        pairs.append((p, exp_map_from(p, random_tangent(rng, n, norm=norm), 1.0)))
    return pairs


def capture_args(monkeypatch, name):
    """Replace ``geodesic.<name>`` by a wrapper; returns the list of its argument tuples."""
    calls, real = [], getattr(geodesic, name)

    def capturing(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geodesic, name, capturing)
    return calls


def same_bits(*pairs):
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes() and np.shape(a) == np.shape(b) for a, b in pairs)


class TestSolveArrays:
    # the solve keeps the normalized target as plain arrays from one eigendecomposition, with the bits of the point route

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_target_and_seed_have_the_point_route_bits(self, monkeypatch, n):
        newtons = capture_args(monkeypatch, "_fibre_newton")
        shots = capture_args(monkeypatch, "_shoot")
        for p, q in seeded_pairs(250 + n, n):
            del newtons[:], shots[:]
            geodesic._log_solve(p, q, 1e-12, 100)
            qn = normalize_to_identity(p).apply(q)
            sigma, mu, theta, log_sigma, _, _ = newtons[0]
            target = shots[0][0]
            assert same_bits((sigma, qn.sigma), (mu, qn.mu), (theta, spd_inv(qn.sigma)), (target, embed(qn)))
            assert same_bits((log_sigma, spd_log(qn.sigma)))
            # the seed from the plain arrays against the closed form on the point's spd_log
            ref = np.zeros(n * (n - 1) // 2)
            if n > 1 and qn.mu.any():
                big_l = spd_log(qn.sigma)
                if 2.0 * float(np.sum(big_l * big_l)) + 4.0 * float(qn.mu @ qn.mu) <= geodesic.SEED_REACH ** 2:
                    c = np.outer(big_l @ qn.mu, qn.mu)
                    ref = ((c - c.T) / 12.0)[np.triu_indices(n, 1)]
            assert same_bits((geodesic._fibre_seed(log_sigma, mu), ref))

    @pytest.mark.parametrize("pair", sorted(FAR_PAIRS))
    def test_fallback_targets_have_the_point_route_bits(self, monkeypatch, pair):
        # the chart-guess fallback and its halfway targets, read off one eigendecomposition each
        p, q = FAR_PAIRS[pair]
        qn = normalize_to_identity(p).apply(q)
        calls = capture_args(monkeypatch, "_log_subdivided")
        geodesic._log_subdivided(*solver_arrays(qn), 1e-12, 100)
        point = qn
        for target, log_sigma, mu, *_ in calls:
            assert same_bits((target, embed(point)), (log_sigma, spd_log(point.sigma)), (mu, point.mu))
            point = GaussianPoint(sym_exp(0.5 * spd_log(point.sigma)), 0.5 * point.mu)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_distance_is_the_norm_of_log_map(self, n):
        for p, q in seeded_pairs(260 + n, n):
            xi = log_map(p, q)
            for convention in ("paper", "fisher"):
                assert distance(p, q, convention) == tangent_norm(xi, convention)
            # log_map's unchecked tangent passes the constructor's checks, which leave its bits, and is read-only
            checked = Tangent(xi.A0, xi.a0)
            assert same_bits((xi.A0, checked.A0), (xi.a0, checked.a0))
            assert not (xi.A0.flags.writeable or xi.a0.flags.writeable)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_solve_hands_over_the_validated_exponential(self, n):
        for p, q in seeded_pairs(270 + n, n):
            vec, _, w, u, g = geodesic._log_solve(p, q, 1e-12, 100)
            assert same_bits((g, _spectral(u, np.exp(w))))
            reached = exp_map(_unpack(vec, n), 1.0)
            assert same_bits(*zip(geodesic._lifted_point(g), (reached.sigma, reached.mu)))

    @pytest.mark.parametrize("op", ["log_map", "distance", "midpoint_N", "interpolate"])
    def test_pair_ops_run_no_constructor_checks(self, monkeypatch, op):
        calls = {"log_map": log_map, "distance": distance, "midpoint_N": midpoint_N, "interpolate": lambda p, q: interpolate(p, q, 3)}
        pairs = seeded_pairs(280, 3) + seeded_pairs(281, 5)
        constructed, inside, solving, normalized = [], [], [], []
        for cls in (GaussianPoint, Tangent):
            real_init = cls.__post_init__

            def counting_init(self, _real=real_init):
                constructed.append(type(self).__name__)
                _real(self)

            monkeypatch.setattr(cls, "__post_init__", counting_init)
        real_symmetric, real_solve, real_eigen = matcore._symmetric, geodesic._log_solve, matcore.sym_eigen

        def counting_symmetric(*args):
            if solving:
                inside.append(args[0].shape)
            return real_symmetric(*args)

        def flagged_solve(p, q, *args):
            normalized.append(_apply_stacked(normalize_to_identity(p), q.sigma, q.mu)[0].tobytes())
            solving.append(None)
            try:
                return real_solve(p, q, *args)
            finally:
                solving.pop()

        decompositions = []

        def counting_eigen(s):
            decompositions.append(s.tobytes())
            return real_eigen(s)

        for module in (matcore, manifold):
            monkeypatch.setattr(module, "_symmetric", counting_symmetric)
        for module in (matcore, geodesic):
            monkeypatch.setattr(module, "sym_eigen", counting_eigen)
        monkeypatch.setattr(geodesic, "_log_solve", flagged_solve)
        monkeypatch.setattr(ahm_mod, "_log_solve", flagged_solve)
        for p, q in pairs:
            del normalized[:], decompositions[:]
            calls[op](p, q)
            # no point or tangent is constructed, no symmetric check runs inside the solve,
            # and the normalized covariance is decomposed once
            assert (constructed, inside) == ([], [])
            assert decompositions.count(normalized[0]) == 1
