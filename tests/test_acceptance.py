"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 7 is split in two.  The first test checks the closed form,
the commutator and isospectrality of the Lax flow.  The second checks the
two explicit systems in their true relation: along the bilinear flow
``Q_ddot = Q Q_dot``, so ``2 Q_dot - Q^2 + A0^2 + 2 a0 a0^T`` is the time
integral of ``[Q, Q_dot]``.  The quadratic (Riccati) form is therefore
equivalent to the bilinear one exactly when ``[Q, Q_dot] = 0``, that is
when ``a0`` is zero or an eigenvector of ``A0`` (always for n = 1).  The
test asserts the equivalence there, the commutator identity on every
datum, and a real gap between the two forms on noncommuting data, which
its PASS line prints.  See tests/test_laxflow.py for the targeted
demonstration of the divergence.
"""

import math

import numpy as np

from gaussgeo import (
    GaussianPoint,
    Tangent,
    ahm_midpoint,
    check_special_symmetry,
    distance,
    exp_map,
    exp_map_from,
    first_integrals,
    fisher_numeric,
    geodesic_residual,
    horizontal_lift,
    integrate,
    lax_closed_form,
    log_map,
    metric_at_identity,
    midpoint_N,
    tangent_norm,
    trajectory,
    verify_lax,
)
from gaussgeo.geodesic import ambient_exponentials
from gaussgeo.laxflow import build_L
from gaussgeo.matcore import block_cholesky, special_structure_residuals, sym_exp
from util import ahm_gap, ahm_iterates, ahm_step, gap_identity_residual, random_point, random_sym, random_tangent, state_from_L

DIMS = (1, 2, 3, 5)


def _tangent_sweep(seed, count=50, dims=DIMS):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = dims[k % len(dims)]
        out.append(random_tangent(rng, n, norm=float(rng.uniform(0.2, 1.0))))
    return out


def _report(num, label, worst, threshold, ok=None, kind="worst"):
    ok = bool(worst <= threshold) if ok is None else ok
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}: {kind} {worst:.3e} (threshold {threshold:.1e})")
    return ok


def test_criterion_1_geodesic_equations_and_first_integrals():
    ts = np.linspace(0.0, 2.0, 2001)
    worst = 0.0
    for xi in _tangent_sweep(1001):
        traj = trajectory(xi, ts)
        worst = max(worst, geodesic_residual(traj, 1e-3), *first_integrals(traj, 1e-3))
    assert _report(1, "geodesic residual and first-integral drift, 50 tangents", worst, 1e-6)


def test_criterion_2_symmetric_space_membership():
    ts = np.linspace(0.0, 2.0, 41)
    worst_sym, worst_det = 0.0, 0.0
    for xi in _tangent_sweep(1001):
        ambient = ambient_exponentials(xi, ts)
        worst_sym = max(worst_sym, max(check_special_symmetry(g) for g in ambient))
        worst_det = max(worst_det, float(np.max(np.abs(np.linalg.det(ambient) - 1.0))))
    ok = worst_sym <= 1e-10 and worst_det <= 1e-9
    assert _report(2, f"exchange symmetry {worst_sym:.2e} and determinant drift", worst_det, 1e-9, ok)


def test_criterion_3_block_factor_structure():
    ts = np.linspace(0.0, 2.0, 21)
    worst = 0.0
    for xi in _tangent_sweep(1001):
        for g in ambient_exponentials(xi, ts):
            res = special_structure_residuals(*block_cholesky(g))
            worst = max(worst, res["d22_minus_one"], res["d33_vs_d11_inv"], res["m31_symmetry_relation"])
    assert _report(3, "unit pivot, reciprocal corner blocks, (3,1)-relation", worst, 1e-10)


def test_criterion_4_exp_log_round_trip():
    worst = 0.0
    for xi in _tangent_sweep(1004):
        rec = log_map(GaussianPoint.identity(xi.n), exp_map(xi, 1.0))
        diff = Tangent(rec.A0 - xi.A0, rec.a0 - xi.a0)
        worst = max(worst, tangent_norm(diff))
    scalar = log_map(
        GaussianPoint(np.array([[1.0]]), np.array([0.0])),
        GaussianPoint(np.array([[math.e ** 2]]), np.array([0.0])),
    )
    scalar_err = abs(scalar.A0[0, 0] - 2.0) + abs(scalar.a0[0])
    ok = worst <= 1e-6 and scalar_err <= 1e-8
    assert _report(4, f"50 round trips (closed-form case err {scalar_err:.2e})", worst, 1e-6, ok)


def test_criterion_5_mean_iteration():
    four, one = np.array([[4.0]]), np.array([[1.0]])
    seq = ahm_iterates(four, one)
    (p1, q1), (p2, q2) = seq[1], seq[2]
    hand = abs(p1[0, 0] - 2.5) + abs(q1[0, 0] - 1.6)
    hand += abs(p2[0, 0] - 2.05) + abs(q2[0, 0] - 1.951219512195122)
    # the runtime's own step count: five steps reach the mean, four do not
    five_steps = abs(ahm_midpoint(four, one, max_iter=5)[0, 0] - 2.0)
    try:
        ahm_midpoint(four, one, max_iter=4)
        four_steps_short = False
    except RuntimeError:
        four_steps_short = True
    scalar_ok = ahm_gap(*seq[-1]) < 1e-12 and hand <= 1e-12 and five_steps <= 1e-12 and four_steps_short

    rng = np.random.default_rng(1005)
    worst_matrix, worst_gap, worst_det = 0.0, 0.0, 0.0
    for n in (1, 2, 3):
        v = horizontal_lift(random_tangent(rng, n))
        p0, q0 = np.eye(2 * n + 1), sym_exp(v)
        mid = ahm_midpoint(p0, q0)
        worst_matrix = max(worst_matrix, float(np.linalg.norm(mid - sym_exp(0.5 * v))))
        pair = p0, q0
        for _ in range(5):
            nxt = ahm_step(*pair)
            # the quadratic bound is only resolvable while 1e-9 * gap^2 sits
            # above the roundoff floor of the subtraction
            if ahm_gap(*pair) >= 1e-2:
                worst_gap = max(worst_gap, gap_identity_residual(pair, nxt) / ahm_gap(*pair) ** 2)
            pair = nxt
        for p, q in ahm_iterates(p0, q0):
            worst_det = max(worst_det, abs(np.linalg.det(p) * np.linalg.det(q) - 1.0))
        worst_det = max(worst_det, abs(np.linalg.det(mid) - 1.0))
    ok = scalar_ok and worst_matrix <= 1e-10 and worst_gap <= 1e-9 and worst_det <= 1e-9
    assert _report(
        5,
        f"hand iterates (err {hand:.1e}), 5 steps for (4, 1), halved exponential {worst_matrix:.1e}, "
        f"gap identity {worst_gap:.1e}, conserved determinant",
        worst_det,
        1e-9,
        ok,
    )


def test_criterion_6_midpoint_end_to_end():
    rng = np.random.default_rng(1006)
    worst_dev, worst_equi = 0.0, 0.0
    for k in range(30):
        n = (1, 2, 3)[k % 3]
        p, q = random_point(rng, n), random_point(rng, n)
        mid = midpoint_N(p, q)
        ref = exp_map_from(p, log_map(p, q), 0.5)
        dev = float(np.linalg.norm(mid.sigma - ref.sigma) + np.linalg.norm(mid.mu - ref.mu))
        worst_dev = max(worst_dev, dev)
        worst_equi = max(worst_equi, abs(distance(mid, p) - distance(mid, q)))
    ok = worst_dev <= 1e-8 and worst_equi <= 1e-6
    assert _report(6, f"30 pairs: AHM vs halved exponential {worst_dev:.2e}, equidistance", worst_equi, 1e-6, ok)


def _lax_sweep(seed, count=6):
    rng = np.random.default_rng(seed)
    sweep = [random_tangent(rng, (1, 2, 3)[k % 3]) for k in range(count)]
    return sweep


def test_criterion_7_lax_flow_core():
    worst_closed, worst_comm, worst_drift = 0.0, 0.0, 0.0
    for xi in _lax_sweep(1007):
        samples = integrate("bilinear", xi, 1.0, dt=1e-3)
        ls = build_L((samples.Qs, samples.rs), xi.a0)
        for t, l_mat in zip(samples.ts[::200], ls[::200]):
            worst_closed = max(worst_closed, float(np.linalg.norm(l_mat - lax_closed_form(xi, t))))
        comm, drift = verify_lax(samples, xi.a0, 1e-3)
        worst_comm = max(worst_comm, comm)
        worst_drift = max(worst_drift, drift)
    # no coupling: the flow is constant bit for bit
    rng = np.random.default_rng(1070)
    a_mat = random_sym(rng, 2)
    uncoupled = integrate("bilinear", Tangent(a_mat, np.zeros(2)), 1.0, dt=1e-2)
    constant = np.array_equal(uncoupled.Qs, np.broadcast_to(a_mat, uncoupled.Qs.shape)) and not uncoupled.rs.any()
    ok = worst_closed <= 1e-6 and worst_comm <= 1e-5 and worst_drift <= 1e-7 and constant
    assert _report(
        7,
        f"adjoint orbit match {worst_closed:.2e}, commutator {worst_comm:.2e}, "
        f"isospectrality {worst_drift:.2e}, uncoupled flow constant={constant}",
        worst_closed,
        1e-6,
        ok,
    )


def _riccati_hypothesis_holds(xi):
    # [Q, Q_dot] at t = 0 is -[A0, a0 a0^T], which vanishes exactly when a0
    # is zero or an eigenvector of A0; the flow then keeps it zero
    coupling = np.outer(xi.a0, xi.a0)
    return float(np.linalg.norm(xi.A0 @ coupling - coupling @ xi.A0)) <= 1e-12


def _eigenvector_tangents(seed, dims=(2, 3, 5)):
    rng = np.random.default_rng(seed)
    out = []
    for n in dims:
        a_mat = random_sym(rng, n)
        vecs = np.linalg.eigh(a_mat)[1]
        xi = Tangent(a_mat, float(rng.standard_normal()) * vecs[:, rng.integers(n)])
        out.append(xi.scaled(1.0 / tangent_norm(xi)))
    return out


def _commutator_identity_residual(xi, samples):
    """Worst deviation from ``2 Q_dot - Q^2 + A0^2 + 2 a0 a0^T = int_0^t [Q, Q_dot]``.

    ``Q_dot = -r a0^T`` is the bilinear form; the integral is the cumulative
    trapezoid rule on the sample grid.
    """
    ts, q = samples.ts, samples.Qs
    q_dot = -(samples.rs[:, :, None] * xi.a0)
    bracket = q @ q_dot - q_dot @ q
    steps = 0.5 * np.diff(ts)[:, None, None] * (bracket[1:] + bracket[:-1])
    integral = np.concatenate([np.zeros_like(bracket[:1]), np.cumsum(steps, axis=0)])
    lhs = 2.0 * q_dot - q @ q + xi.A0 @ xi.A0 + 2.0 * np.outer(xi.a0, xi.a0)
    return float(np.max(np.linalg.norm(lhs - integral, axis=(1, 2))))


def test_criterion_7_explicit_system_equivalence():
    # The quadratic form follows from the bilinear one only where
    # [Q, Q_dot] = 0: check the equivalence there, the exact commutator
    # identity on every datum, and that elsewhere the two forms really differ.
    # The eigenvector tangents come from their own generator so that the
    # seed-1071 sweep stays as it was.
    rng = np.random.default_rng(1071)
    sweep = [random_tangent(rng, (1, 2, 3)[k % 3]) for k in range(20)]
    worst_equiv, worst_identity, gaps, commuting = 0.0, 0.0, [], 0
    for xi in sweep + _eigenvector_tangents(1072):
        s1 = integrate("bilinear", xi, 1.0, dt=1e-3)
        s2 = integrate("riccati", xi, 1.0, dt=1e-3)
        gap = max(
            float(np.linalg.norm(s1.Qs[i] - s2.Qs[i]) + np.linalg.norm(s1.rs[i] - s2.rs[i]))
            for i in range(0, len(s1), 100)
        )
        if _riccati_hypothesis_holds(xi):
            commuting += 1
            worst_equiv = max(worst_equiv, gap)
        else:
            gaps.append(gap)
        worst_identity = max(worst_identity, _commutator_identity_residual(xi, s1))
    ok = worst_equiv <= 1e-6 and worst_identity <= 1e-8 and min(gaps, default=0.0) > 1e-5
    assert _report(
        7,
        f"bilinear vs quadratic systems on {commuting} commuting data, commutator identity "
        f"{worst_identity:.2e} on all {commuting + len(gaps)}, noncommuting gap "
        f"{max(gaps, default=0.0):.2e} (least {min(gaps, default=0.0):.1e}, must exceed 1e-5)",
        worst_equiv,
        1e-6,
        ok,
    )


def test_criterion_8_scalar_closed_forms():
    samples = integrate("riccati", Tangent(np.zeros((1, 1)), np.array([1.0])), 1.0, dt=1e-3)
    worst_riccati = max(
        abs(q[0, 0] + math.sqrt(2.0) * math.tanh(t / math.sqrt(2.0))) for t, q in zip(samples.ts, samples.Qs)
    )
    p = GaussianPoint(np.array([[1.0]]), np.array([0.0]))
    q = GaussianPoint(np.array([[math.e ** 2]]), np.array([0.0]))
    err_paper = abs(distance(p, q, "paper") - 2.0 * math.sqrt(2.0))
    err_fisher = abs(distance(p, q, "fisher") - math.sqrt(2.0))
    ok = worst_riccati <= 1e-7 and err_paper <= 1e-8 and err_fisher <= 1e-8
    assert _report(
        8,
        f"saturating-front solution {worst_riccati:.2e}, hyperbolic distances "
        f"({err_paper:.1e}, {err_fisher:.1e})",
        worst_riccati,
        1e-7,
        ok,
    )


def test_criterion_9_metric_normalization_oracle():
    worst = 0.0
    for n in (1, 2):
        identity = GaussianPoint.identity(n)
        basis = []
        for i in range(n):
            for j in range(i, n):
                a_mat = np.zeros((n, n))
                a_mat[i, j] = a_mat[j, i] = 1.0
                basis.append(Tangent(a_mat, np.zeros(n)))
        for i in range(n):
            vec = np.zeros(n)
            vec[i] = 1.0
            basis.append(Tangent(np.zeros((n, n)), vec))
        for x in basis:
            for y in basis:
                dev = abs(fisher_numeric(identity, x, y, nodes=20) - metric_at_identity(x, y, "fisher"))
                worst = max(worst, dev)
    assert _report(9, "quadrature oracle pins the fisher normalization, n in {1,2}", worst, 1e-6)


def test_criterion_10_integrator_order():
    rng = np.random.default_rng(1010)
    min_ratio = math.inf
    for k in range(10):
        n = (1, 2)[k % 2]
        xi = random_tangent(rng, n)
        q_exact, r_exact = state_from_L(lax_closed_form(xi, 1.0))
        errs = []
        for dt in (0.05, 0.025):
            samples = integrate("bilinear", xi, 1.0, dt=dt)
            errs.append(float(np.linalg.norm(samples.Qs[-1] - q_exact) + np.linalg.norm(samples.rs[-1] - r_exact)))
        min_ratio = min(min_ratio, errs[0] / errs[1])
    ok = min_ratio >= 12.0
    assert _report(10, "step halving shrinks the error by >= 12x (nominal 16x)", min_ratio, 12.0, ok, kind="min ratio")
