import numpy as np
import pytest

from gaussgeo import (
    GaussianPoint,
    Tangent,
    block_exchange,
    check_special_symmetry,
    decompose_km,
    embed,
    horizontal_lift,
    horizontal_vertical_split,
    metric_at_identity,
    submersion_differential,
    submersion_project,
    sym_exp,
    unembed,
)
from gaussgeo.sympair import LieAlgebraElement, sigma_algebra, sigma_group, tau_algebra
from util import expm_taylor, random_tangent


def test_exchange_matrix_is_involution():
    for n in (1, 2, 4):
        j = block_exchange(n)
        assert np.array_equal(j @ j, np.eye(2 * n + 1))


class TestHorizontalLift:
    def test_zero(self):
        assert np.array_equal(horizontal_lift(Tangent.zero(2)), np.zeros((5, 5)))

    def test_scalar_layout(self):
        alpha, beta = 0.3, -1.2
        v = horizontal_lift(Tangent(np.array([[alpha]]), np.array([beta])))
        expected = np.array([[-alpha, beta, 0.0], [beta, 0.0, -beta], [0.0, -beta, alpha]])
        assert np.array_equal(v, expected)

    def test_structural_invariants(self):
        rng = np.random.default_rng(90)
        for n in (1, 2, 3):
            v = horizontal_lift(random_tangent(rng, n))
            j = block_exchange(n)
            assert np.array_equal(v, v.T)
            # diagonal entries cancel in exact pairs; only summation-order
            # roundoff remains
            assert abs(np.trace(v)) <= 1e-15 * max(1.0, np.linalg.norm(v))
            assert np.array_equal(-j @ v @ j, v)


class TestLieAlgebra:
    def test_assemble_round_trip(self):
        rng = np.random.default_rng(91)
        x = LieAlgebraElement.random(3, rng)
        back = LieAlgebraElement.from_matrix(x.assemble())
        assert np.allclose(back.assemble(), x.assemble())

    def test_members_are_fixed_by_involution(self):
        rng = np.random.default_rng(92)
        for n in (1, 2, 3):
            x = LieAlgebraElement.random(n, rng).assemble()
            assert np.allclose(sigma_algebra(x), x, atol=1e-14)

    def test_non_member_rejected(self):
        bad = np.zeros((3, 3))
        bad[0, 0] = 1.0  # trailing block must then be -1, not 0
        with pytest.raises(ValueError):
            LieAlgebraElement.from_matrix(bad)

    def test_decompose_symmetric_input(self):
        rng = np.random.default_rng(93)
        x = LieAlgebraElement.random(2, rng)
        m_full = 0.5 * (x.assemble() + x.assemble().T)
        k_part, m_part = decompose_km(LieAlgebraElement.from_matrix(m_full))
        assert np.allclose(k_part.assemble(), 0.0, atol=1e-14)
        assert np.allclose(m_part.assemble(), m_full)

    def test_decompose_skew_input(self):
        rng = np.random.default_rng(94)
        x = LieAlgebraElement.random(2, rng)
        k_full = 0.5 * (x.assemble() - x.assemble().T)
        k_part, m_part = decompose_km(LieAlgebraElement.from_matrix(k_full))
        assert np.allclose(m_part.assemble(), 0.0, atol=1e-14)
        assert np.allclose(k_part.assemble(), k_full)
        assert np.allclose(tau_algebra(k_full), k_full)

    def test_bracket_relations(self):
        rng = np.random.default_rng(95)
        n = 2
        for _ in range(10):
            xk = decompose_km(LieAlgebraElement.random(n, rng))[0].assemble()
            yk = decompose_km(LieAlgebraElement.random(n, rng))[0].assemble()
            xm = decompose_km(LieAlgebraElement.random(n, rng))[1].assemble()
            ym = decompose_km(LieAlgebraElement.random(n, rng))[1].assemble()

            def bracket(a, b):
                return a @ b - b @ a

            kk = bracket(xk, yk)
            mm = bracket(xm, ym)
            mk = bracket(xm, yk)
            # closure in the algebra plus the right symmetry class
            for mat in (kk, mm, mk):
                assert np.linalg.norm(sigma_algebra(mat) - mat) <= 1e-12 * max(1.0, np.linalg.norm(mat))
            assert np.linalg.norm(kk + kk.T) <= 1e-12 * max(1.0, np.linalg.norm(kk))
            assert np.linalg.norm(mm + mm.T) <= 1e-12 * max(1.0, np.linalg.norm(mm))
            assert np.linalg.norm(mk - mk.T) <= 1e-12 * max(1.0, np.linalg.norm(mk))


class TestHorizontalVerticalSplit:
    def _random_m_part(self, rng, n):
        return decompose_km(LieAlgebraElement.random(n, rng))[1]

    def test_no_vertical_component(self):
        rng = np.random.default_rng(96)
        xm = self._random_m_part(rng, 2)
        no_r = LieAlgebraElement(Q=xm.Q, R=np.zeros((2, 2)), S=np.zeros((2, 2)), r=xm.r, t=xm.t)
        _h, v = horizontal_vertical_split(no_r)
        assert np.allclose(v.assemble(), 0.0)

    def test_no_horizontal_component(self):
        rng = np.random.default_rng(97)
        xm = self._random_m_part(rng, 2)
        only_r = LieAlgebraElement(Q=np.zeros((2, 2)), R=xm.R, S=-xm.R, r=np.zeros(2), t=np.zeros(2))
        h, _v = horizontal_vertical_split(only_r)
        assert np.allclose(horizontal_lift(h), 0.0)

    def test_trace_orthogonality(self):
        rng = np.random.default_rng(98)
        for n in (2, 3):
            xm = self._random_m_part(rng, n)
            h, v = horizontal_vertical_split(xm)
            assert abs(np.trace(horizontal_lift(h) @ v.assemble())) <= 1e-12
            assert np.allclose(horizontal_lift(h) + v.assemble(), xm.assemble())

    def test_rejects_non_m_shaped(self):
        rng = np.random.default_rng(99)
        k_part = decompose_km(LieAlgebraElement.random(2, rng))[0]
        with pytest.raises(ValueError, match="symmetric part"):
            horizontal_vertical_split(k_part)


class TestSubmersion:
    def test_identity(self):
        assert np.allclose(submersion_project(np.eye(5)), np.eye(3))

    def test_scalar_mean_direction(self):
        xi = Tangent(np.zeros((1, 1)), np.array([1.0]))
        g = sym_exp(horizontal_lift(xi))
        h = submersion_project(g)
        assert np.allclose(h, g[:2, :2])
        # consistency of the corner identity on the projection
        p = unembed(h)
        assert np.linalg.norm(embed(p) - h) <= 1e-12

    def test_projection_is_spd(self):
        rng = np.random.default_rng(101)
        for n in (1, 2, 3):
            g = sym_exp(horizontal_lift(random_tangent(rng, n)))
            h = submersion_project(g)
            assert np.all(np.linalg.eigvalsh(h) > 0)

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="symmetry"):
            submersion_project(np.diag([2.0, 1.0, 1.0]))


class TestSubmersionDifferential:
    def test_zero(self):
        xi = submersion_differential(np.zeros((5, 5)))
        assert np.allclose(xi.A0, 0.0) and np.allclose(xi.a0, 0.0)

    def test_inverts_horizontal_lift(self):
        rng = np.random.default_rng(103)
        xi = random_tangent(rng, 3)
        back = submersion_differential(horizontal_lift(xi))
        assert np.allclose(back.A0, xi.A0) and np.allclose(back.a0, xi.a0)

    def test_isometry_on_horizontal_subspace(self):
        rng = np.random.default_rng(104)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            xi = random_tangent(rng, n, norm=float(rng.uniform(0.1, 3.0)))
            v = horizontal_lift(xi)
            upstairs = float(np.trace(v @ v))
            downstairs = metric_at_identity(submersion_differential(v), submersion_differential(v), "paper")
            assert abs(upstairs - downstairs) <= 1e-12 * upstairs


class TestGeodesicStaysOnSlice:
    def test_symmetry_and_determinant_along_curve(self):
        rng = np.random.default_rng(105)
        for n in (1, 2, 3):
            v = horizontal_lift(random_tangent(rng, n))
            for t in np.linspace(-2.0, 2.0, 9):
                g = sym_exp(t * v)
                assert check_special_symmetry(g) <= 1e-10
                assert abs(np.linalg.det(g) - 1.0) <= 1e-9

    def test_group_involution_fixes_isotropy_exponentials(self):
        rng = np.random.default_rng(106)
        for n in (1, 2, 3):
            k_part = decompose_km(LieAlgebraElement.random(n, rng, scale=0.5))[0].assemble()
            g = expm_taylor(k_part)
            assert np.linalg.norm(sigma_group(g) - g) <= 1e-10 * max(1.0, np.linalg.norm(g))
            # exponentials of the full algebra are fixed as well
            x = LieAlgebraElement.random(n, rng, scale=0.4).assemble()
            gx = expm_taylor(x)
            assert np.linalg.norm(sigma_group(gx) - gx) <= 1e-10 * max(1.0, np.linalg.norm(gx))


def test_projected_point_matches_unembed_route():
    rng = np.random.default_rng(107)
    xi = random_tangent(rng, 2)
    g = sym_exp(horizontal_lift(xi))
    via_projection = unembed(submersion_project(g))
    assert isinstance(via_projection, GaussianPoint)
    h = embed(via_projection)
    assert np.linalg.norm(h - g[:3, :3]) <= 1e-12 * max(1.0, np.linalg.norm(h))
