import io
import math
import warnings

import numpy as np
import pytest

import gaussgeo.laxflow as laxflow
from gaussgeo import Tangent, horizontal_lift, integrate, lax_closed_form, verify_lax
from gaussgeo.laxflow import (
    LaxState,
    build_L,
    build_M,
    lax_pattern_residual,
    rhs_bilinear,
    rhs_riccati,
)
from gaussgeo.cli import _random_unit_tangent, write_samples_csv
from gaussgeo.sympair import split_orthogonal
from util import random_sym, random_tangent, sigma_algebra, state_from_L


def scalar_tangent(alpha=0.0, beta=1.0):
    return Tangent(np.array([[alpha]]), np.array([beta]))


def _rhs(right, state, *coeffs):
    """Right side at ``state``, written into a fresh state."""
    out = LaxState(Q=np.empty_like(state.Q), r=np.empty_like(state.r))
    right(state.Q, state.r, *coeffs, out.Q, out.r)
    return out


def _bilinear(state, a0):
    return _rhs(rhs_bilinear, state, -a0)


def _riccati(state, a_mat, a0):
    return _rhs(rhs_riccati, state, a_mat @ a_mat, 2.0 * np.outer(a0, a0))


def _textbook_rk4(rhs, xi, t_end, dt):
    """Classical RK4 on the packed state, one fresh array per stage: the reference for ``integrate``."""
    n, A0, a0 = xi.n, xi.A0, xi.a0

    def f(y):
        q, r = y[: n * n].reshape(n, n), y[n * n:]
        if rhs == "bilinear":
            dq = -np.outer(r, a0)
        else:
            dq = 0.5 * (q @ q - A0 @ A0 - 2.0 * np.outer(a0, a0))
        return np.concatenate((dq, q @ r), axis=None)

    y = np.concatenate((A0, a0), axis=None)
    t = 0.0
    out = [(t, y)]
    while t < t_end - 1e-12 * max(1.0, t_end):
        step = min(dt, t_end - t)
        k1 = f(y)
        k2 = f(y + 0.5 * step * k1)
        k3 = f(y + 0.5 * step * k2)
        k4 = f(y + step * k3)
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = min(t + step, t_end)
        out.append((t, y))
    return out


class TestRightSides:
    def test_bilinear_stationary_without_coupling(self):
        d = _bilinear(LaxState(Q=np.array([[2.0]]), r=np.zeros(1)), np.zeros(1))
        assert np.array_equal(d.Q, np.zeros((1, 1))) and np.array_equal(d.r, np.zeros(1))

    def test_bilinear_scalar_values(self):
        d = _bilinear(LaxState(Q=np.zeros((1, 1)), r=np.array([1.0])), np.array([1.0]))
        assert d.Q[0, 0] == -1.0 and d.r[0] == 0.0

    def test_bilinear_trace_rate(self):
        rng = np.random.default_rng(110)
        n = 3
        state = LaxState(Q=rng.standard_normal((n, n)), r=rng.standard_normal(n))
        a0 = rng.standard_normal(n)
        d = _bilinear(state, a0)
        assert abs(np.trace(d.Q) + state.r @ a0) <= 1e-14

    def test_riccati_equilibrium_at_start_without_coupling(self):
        a_mat = random_sym(np.random.default_rng(111), 2)
        d = _riccati(LaxState(Q=a_mat, r=np.zeros(2)), a_mat, np.zeros(2))
        assert np.linalg.norm(d.Q) <= 1e-14 and np.linalg.norm(d.r) <= 1e-14

    def test_riccati_matches_bilinear_at_shared_start(self):
        d1 = _bilinear(LaxState(Q=np.zeros((1, 1)), r=np.array([1.0])), np.array([1.0]))
        d2 = _riccati(LaxState(Q=np.zeros((1, 1)), r=np.array([1.0])), np.zeros((1, 1)), np.array([1.0]))
        assert abs(d1.Q[0, 0] - d2.Q[0, 0]) <= 1e-15
        assert abs(d1.r[0] - d2.r[0]) <= 1e-15


class TestIntegrate:
    def test_no_coupling_gives_constant_flow(self):
        rng = np.random.default_rng(112)
        a_mat = random_sym(rng, 2)
        samples = integrate("bilinear", Tangent(a_mat, np.zeros(2)), 1.0, dt=1e-2)
        assert np.array_equal(samples.Qs, np.broadcast_to(a_mat, samples.Qs.shape))
        assert np.array_equal(samples.rs, np.zeros_like(samples.rs))

    def test_scalar_riccati_closed_form(self):
        samples = integrate("riccati", scalar_tangent(), 1.0, dt=1e-3)
        expected = -math.sqrt(2.0) * np.tanh(samples.ts / math.sqrt(2.0))
        assert np.max(np.abs(samples.Qs[:, 0, 0] - expected)) <= 1e-8

    def test_step_halving_fourth_order(self):
        xi = scalar_tangent(beta=1.3)
        exact = -math.sqrt(2.0) * 1.3 * math.tanh(1.3 / math.sqrt(2.0))
        errs = []
        for dt in (0.1, 0.05):
            _, s = integrate("riccati", xi, 1.0, dt=dt)[-1]
            errs.append(abs(s.Q[0, 0] - exact))
        assert errs[0] / errs[1] >= 12.0  # nominal 16 for a 4th-order scheme

    def test_final_sample_lands_on_t_end(self):
        samples = integrate("bilinear", scalar_tangent(), 0.55, dt=0.1)
        assert samples[-1][0] == 0.55

    def test_blowup_detection(self):
        # the reported time is the first at which the state is not finite,
        # and the overflow on the way raises no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ArithmeticError, match=r"^flow stopped being finite at t = 2; reduce dt$"):
                integrate("riccati", scalar_tangent(beta=80.0), 10.0, dt=1.0)

    def test_blowup_stops_the_integration(self, monkeypatch):
        # 20,000 steps are asked for; the state is non-finite from t = 0.2 on,
        # and the integration stops within a few hundred steps of that
        calls = []

        def counting_rhs(*args):
            calls.append(None)
            return rhs_riccati(*args)

        monkeypatch.setattr(laxflow, "rhs_riccati", counting_rhs)
        with pytest.raises(ArithmeticError, match=r"^flow stopped being finite at t = 0.2; reduce dt$"):
            integrate("riccati", scalar_tangent(beta=80.0), 1000.0, dt=0.05)
        assert len(calls) <= 2048  # 80,000 if every step ran

    @pytest.mark.parametrize("rhs", ["bilinear", "riccati"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("t_end, dt", [(0.55, 0.1), (2.0, 0.01)])
    def test_bit_identical_to_textbook_rk4(self, rhs, n, t_end, dt):
        xi = random_tangent(np.random.default_rng(130 + n), n)
        samples = integrate(rhs, xi, t_end, dt=dt)
        reference = _textbook_rk4(rhs, xi, t_end, dt)
        assert len(samples) == len(reference)
        for t, q, r, (t_ref, y_ref) in zip(samples.ts, samples.Qs, samples.rs, reference):
            assert t == t_ref
            assert np.array_equal(q, y_ref[: n * n].reshape(n, n))
            assert np.array_equal(r, y_ref[n * n:])

    @pytest.mark.parametrize("rhs", ["bilinear", "riccati"])
    def test_result_reports_the_steps_run(self, rhs, monkeypatch):
        # a benchmark tracer counts calls of the module's right sides and
        # reads len(result) and result[-1]; 0.55 at dt 0.1 takes 5 full steps
        # and one partial step
        calls = []
        right = getattr(laxflow, f"rhs_{rhs}")

        def counting_rhs(*args):
            calls.append(None)
            return right(*args)

        monkeypatch.setattr(laxflow, f"rhs_{rhs}", counting_rhs)
        xi = random_tangent(np.random.default_rng(150), 3)
        samples = integrate(rhs, xi, 0.55, dt=0.1)
        steps = 6
        assert len(samples) == steps + 1
        assert len(calls) == 4 * steps
        t, state = samples[-1]
        assert t == 0.55
        assert np.array_equal(build_L(state, xi.a0), split_orthogonal(samples.Qs, samples.rs, xi.a0, 0.0, 0.0)[-1])

    @pytest.mark.parametrize("t_end, dt", [(math.nan, 0.1), (1.0, math.inf), (1.0, math.nan)])
    def test_non_finite_times_rejected(self, t_end, dt):
        with pytest.raises(ValueError, match="must be finite"):
            integrate("bilinear", scalar_tangent(), t_end, dt=dt)

    @pytest.mark.parametrize("t_end, dt", [(1e12, 1e-3), (1e300, 1e-300)])
    def test_grid_beyond_memory_rejected_before_allocating(self, t_end, dt):
        with pytest.raises(ValueError, match=r"^integrating to t_end = .* needs .* bytes, more than the .* of physical memory$"):
            integrate("bilinear", scalar_tangent(), t_end, dt=dt)

    def test_unknown_rhs_rejected(self):
        with pytest.raises(ValueError):
            integrate("v3", scalar_tangent(), 1.0)

    @staticmethod
    def _route_disagreement(xi, dt=1e-3):
        s1 = integrate("bilinear", xi, 1.0, dt=dt)
        s2 = integrate("riccati", xi, 1.0, dt=dt)
        gap = np.linalg.norm(s1.Qs - s2.Qs, axis=(1, 2)) + np.linalg.norm(s1.rs - s2.rs, axis=1)
        return float(np.max(gap[::100]))

    def test_bilinear_riccati_agree_for_scalars(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            assert self._route_disagreement(random_tangent(rng, 1)) <= 1e-6

    def test_bilinear_riccati_agree_for_commuting_data(self):
        # the quadratic form integrates the bilinear one exactly when Q and
        # Q-dot commute, that is when a0 is zero or an eigenvector of A0 (r
        # then stays parallel to a0); no coupling and scalar A0 are such cases
        rng = np.random.default_rng(114)
        assert self._route_disagreement(Tangent(random_sym(rng, 2), np.zeros(2))) <= 1e-12
        assert self._route_disagreement(Tangent(0.7 * np.eye(3), rng.standard_normal(3))) <= 1e-10

    def test_riccati_form_breaks_for_noncommuting_data(self):
        # Q-ddot = Q Q-dot only integrates to 2 Q-dot = Q^2 + const when
        # [Q, Q-dot] = 0; for generic multivariate data the two routes
        # genuinely diverge and only the bilinear one stays on the Lax orbit
        rng = np.random.default_rng(115)
        xi = random_tangent(rng, 2)
        assert self._route_disagreement(xi) > 1e-5
        comm_v1, drift_v1 = verify_lax(integrate("bilinear", xi, 1.0, dt=1e-3), xi.a0, 1e-3)
        comm_v2, drift_v2 = verify_lax(integrate("riccati", xi, 1.0, dt=1e-3), xi.a0, 1e-3)
        assert comm_v1 <= 1e-5 and drift_v1 <= 1e-7
        assert comm_v2 > 1e-3 and drift_v2 > 1e-6


class TestAssembly:
    def test_lax_pair_layout_and_membership(self):
        rng = np.random.default_rng(114)
        n = 2
        state = LaxState(Q=rng.standard_normal((n, n)), r=rng.standard_normal(n))
        a0 = rng.standard_normal(n)
        l_mat, m_mat = build_L(state, a0), build_M(state, a0)
        assert np.array_equal(l_mat[:n, :n], -state.Q)
        assert np.array_equal(l_mat[:n, n], state.r)
        assert np.array_equal(m_mat[:n, n], np.zeros(n))
        # both lie in the split orthogonal algebra exactly
        assert np.array_equal(sigma_algebra(l_mat), l_mat)
        assert np.array_equal(sigma_algebra(m_mat), m_mat)
        back = state_from_L(l_mat)
        assert np.array_equal(back.Q, state.Q) and np.array_equal(back.r, state.r)

    def test_trace_free(self):
        rng = np.random.default_rng(115)
        state = LaxState(Q=rng.standard_normal((3, 3)), r=rng.standard_normal(3))
        l_mat = build_L(state, rng.standard_normal(3))
        assert abs(np.trace(l_mat)) <= 1e-14 * max(1.0, np.linalg.norm(l_mat))


class TestClosedForm:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "t, error, message",
        [(math.nan, ValueError, "^t must be finite"), (math.inf, ValueError, "^t must be finite"),
         (1e3, ArithmeticError, "^geodesic stopped being finite at t = 1000$")],
        ids=["nan", "inf", "overflow"],
    )
    def test_time_is_checked_at_entry(self, t, error, message):
        with pytest.raises(error, match=message):
            lax_closed_form(scalar_tangent(0.3, 0.4), t)

    def test_time_zero_is_the_generator(self):
        rng = np.random.default_rng(116)
        xi = random_tangent(rng, 2)
        l0 = lax_closed_form(xi, 0.0)
        assert np.linalg.norm(l0 - horizontal_lift(xi)) <= 1e-12

    def test_constant_without_coupling(self):
        rng = np.random.default_rng(117)
        a_mat = random_sym(rng, 2)
        xi = Tangent(a_mat, np.zeros(2))
        v = horizontal_lift(xi)
        for t in (0.5, 1.5):
            assert np.linalg.norm(lax_closed_form(xi, t) - v) <= 1e-10 * max(1.0, np.linalg.norm(v))

    def test_matches_integrated_flow_scalar(self):
        xi = scalar_tangent()
        samples = integrate("bilinear", xi, 0.5, dt=1e-3)
        t, state = samples[-1]
        assert np.linalg.norm(build_L(state, xi.a0) - lax_closed_form(xi, t)) <= 1e-7

    def test_matches_integrated_flow_random(self):
        rng = np.random.default_rng(118)
        for n in (1, 2, 3):
            xi = random_tangent(rng, n)
            samples = integrate("bilinear", xi, 1.0, dt=1e-3)
            for t, state in (samples[i] for i in range(0, len(samples), 250)):
                dev = np.linalg.norm(build_L(state, xi.a0) - lax_closed_form(xi, t))
                assert dev <= 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_matches_integrated_flow_over_whole_interval(self, n):
        xi = _random_unit_tangent(n, np.random.default_rng(140 + n))
        samples = integrate("bilinear", xi, 2.0)
        assert len(samples) == 2001
        worst = max(
            np.linalg.norm(build_L(state, xi.a0) - lax_closed_form(xi, t))
            for t, state in (samples[i] for i in range(len(samples)))
        )
        print(f"n = {n}: RK4 vs closed form, worst over all {len(samples)} samples {worst:.3e}")
        assert worst <= 1e-10

    def test_pattern_residual_flags_junk(self):
        rng = np.random.default_rng(119)
        noise = rng.standard_normal((5, 5))
        assert lax_pattern_residual(noise, rng.standard_normal(2)) > 0.1

    def test_pattern_holds_along_both_routes(self):
        rng = np.random.default_rng(120)
        xi = random_tangent(rng, 2)
        samples = integrate("bilinear", xi, 1.0, dt=1e-3)
        for t, state in (samples[i] for i in range(0, len(samples), 250)):
            assert lax_pattern_residual(build_L(state, xi.a0), xi.a0) <= 1e-8
            closed = lax_closed_form(xi, t)
            assert lax_pattern_residual(closed, xi.a0) <= 1e-8
            assert np.linalg.norm(sigma_algebra(closed) - closed) <= 1e-10


class TestVerifyLax:
    def test_uncoupled_flow_has_zero_residuals(self):
        rng = np.random.default_rng(121)
        xi = Tangent(random_sym(rng, 2), np.zeros(2))
        samples = integrate("bilinear", xi, 1.0, dt=1e-2)
        comm, drift = verify_lax(samples, xi.a0, 1e-2)
        assert comm <= 1e-14
        assert drift <= 1e-12

    def test_scalar_thresholds(self):
        xi = Tangent(np.array([[1.0]]), np.array([1.0]))
        samples = integrate("bilinear", xi, 1.0, dt=1e-3)
        comm, drift = verify_lax(samples, xi.a0, 1e-3)
        assert comm <= 1e-5
        assert drift <= 1e-7

    def test_grid_preconditions(self):
        xi = scalar_tangent()
        samples = integrate("bilinear", xi, 1.0, dt=1e-2)
        with pytest.raises(ValueError, match="too coarse"):
            verify_lax(samples, xi.a0, 1e-3)
        with pytest.raises(ValueError, match="multiple"):
            verify_lax(samples, xi.a0, 0.015)


class TestCsv:
    def test_header_and_round_trip_values(self):
        xi = scalar_tangent()
        samples = integrate("bilinear", xi, 0.2, dt=0.1)
        buf = io.StringIO()
        write_samples_csv(buf, ("Q", "r"), samples.ts, samples.Qs, samples.rs)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,Q_11,r_1"
        buf = io.StringIO()
        write_samples_csv(buf, ("Q", "r"), np.zeros(1), np.zeros((1, 2, 2)), np.zeros((1, 2)))
        assert buf.getvalue().splitlines()[0] == "t,Q_11,Q_12,Q_21,Q_22,r_1,r_2"
        parsed = [float(x) for x in lines[-1].split(",")]
        assert parsed[0] == 0.2
        assert parsed[1] == samples.Qs[-1, 0, 0]
