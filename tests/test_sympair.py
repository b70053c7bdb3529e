import numpy as np
import pytest

from gaussgeo import (
    GaussianPoint,
    Tangent,
    check_special_symmetry,
    embed,
    horizontal_lift,
    submersion_project,
    unembed,
)
from gaussgeo.manifold import corner_residual, read_embedded
from gaussgeo.matcore import sym, sym_exp
from gaussgeo.sympair import split_orthogonal
from util import block_exchange, expm_taylor, random_algebra, random_tangent, sigma_algebra, sigma_group, tau_algebra


def cartan_parts(x):
    """The skew (isotropy) and symmetric parts of an algebra element."""
    return 0.5 * (x - x.T), 0.5 * (x + x.T)


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
    def test_members_are_fixed_by_involution(self):
        rng = np.random.default_rng(92)
        for n in (1, 2, 3):
            x = random_algebra(n, rng)
            assert np.allclose(sigma_algebra(x), x, atol=1e-14)

    def test_decompose_symmetric_input(self):
        rng = np.random.default_rng(93)
        _k_part, m_part = cartan_parts(random_algebra(2, rng))
        assert np.allclose(sigma_algebra(m_part), m_part, atol=1e-14)
        assert np.array_equal(tau_algebra(m_part), -m_part)
        assert np.allclose(cartan_parts(m_part)[0], 0.0, atol=1e-14)

    def test_decompose_skew_input(self):
        rng = np.random.default_rng(94)
        k_part, _m_part = cartan_parts(random_algebra(2, rng))
        assert np.allclose(sigma_algebra(k_part), k_part, atol=1e-14)
        assert np.array_equal(tau_algebra(k_part), k_part)
        assert np.allclose(cartan_parts(k_part)[1], 0.0, atol=1e-14)

    def test_bracket_relations(self):
        rng = np.random.default_rng(95)
        n = 2
        for _ in range(10):
            xk = cartan_parts(random_algebra(n, rng))[0]
            yk = cartan_parts(random_algebra(n, rng))[0]
            xm = cartan_parts(random_algebra(n, rng))[1]
            ym = cartan_parts(random_algebra(n, rng))[1]

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
    """A symmetric-part element is the horizontal lift of its (Q, r) data plus its R-block."""

    def _random_m_part(self, rng, n):
        return cartan_parts(random_algebra(n, rng))[1]

    def _split(self, xm):
        n = (xm.shape[0] - 1) // 2
        big_r = xm[:n, n + 1:]
        horizontal = horizontal_lift(Tangent(A0=-xm[:n, :n], a0=xm[:n, n]))
        return horizontal, split_orthogonal(np.zeros((n, n)), 0.0, 0.0, big_r, -big_r)

    def test_no_vertical_component(self):
        rng = np.random.default_rng(96)
        xm = self._random_m_part(rng, 2)
        xm[:2, 3:] = xm[3:, :2] = 0.0
        h, v = self._split(xm)
        assert np.allclose(v, 0.0)
        assert np.allclose(h, xm)

    def test_no_horizontal_component(self):
        rng = np.random.default_rng(97)
        xm = self._random_m_part(rng, 2)
        xm[:, 2] = xm[2, :] = 0.0
        xm[:2, :2] = xm[3:, 3:] = 0.0
        h, v = self._split(xm)
        assert np.allclose(h, 0.0)
        assert np.allclose(v, xm)

    def test_trace_orthogonality(self):
        rng = np.random.default_rng(98)
        for n in (2, 3):
            xm = self._random_m_part(rng, n)
            h, v = self._split(xm)
            assert abs(np.trace(h @ v)) <= 1e-12
            assert np.allclose(h + v, xm)


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
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_central_difference_of_projection(self, n):
        """The differential at the identity inverts the horizontal lift and kills the R-block."""
        rng = np.random.default_rng(103)
        step = 1e-5

        def differential(x):
            ahead = submersion_project(sym_exp(step * x))
            behind = submersion_project(sym_exp(-step * x))
            return (ahead - behind) / (2.0 * step)

        xi = random_tangent(rng, n)
        assert np.linalg.norm(differential(horizontal_lift(xi)) - xi.embedded()) <= 1e-7
        a = rng.standard_normal((n, n))
        big_r = 0.5 * (a - a.T)
        assert np.linalg.norm(differential(split_orthogonal(np.zeros((n, n)), 0.0, 0.0, big_r, -big_r))) <= 1e-7


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
            k_part = cartan_parts(random_algebra(n, rng, scale=0.5))[0]
            g = expm_taylor(k_part)
            assert np.linalg.norm(sigma_group(g) - g) <= 1e-10 * max(1.0, np.linalg.norm(g))
            # exponentials of the full algebra are fixed as well
            x = random_algebra(n, rng, scale=0.4)
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


def _spd_inv_formula(a):
    """The inverse as ``spd_inv`` of a single matrix computes it (test-local copy)."""
    w, v = np.linalg.eigh(a)
    return sym(v @ (np.power(w, -1.0)[:, None] * v.T))


def _slice_residual_formula(g):
    g = sym(g)
    j = block_exchange((g.shape[0] - 1) // 2)
    return float(np.linalg.norm(j @ _spd_inv_formula(g) @ j - g))


def _corner_formula(h):
    n = h.shape[0] - 1
    delta = h[:n, n]
    return abs(float(h[n, n]) - 1.0 - float(delta @ np.linalg.solve(h[:n, :n], delta)))


class TestStackedChecks:
    """The slice check, projection and read-out on a stack give each point the bits of its own call."""

    def _stacks(self):
        rng = np.random.default_rng(108)
        for n in (1, 2, 3, 5):
            v = horizontal_lift(random_tangent(rng, n, norm=2.0))
            on_slice = np.array([sym_exp(t * v) for t in (0.125, 0.5, 0.75, 1.0)])
            # off the slice, but SPD: nonzero residuals with every digit in play
            off_slice = np.array([sym(g * (1.0 + 1e-3 * k)) for k, g in enumerate(on_slice, 1)])
            yield on_slice, off_slice

    def test_stacked_calls_match_single_calls(self):
        for on_slice, off_slice in self._stacks():
            for g in (on_slice, off_slice):
                residuals = check_special_symmetry(g)
                assert residuals.shape == (len(g),)
                assert all(residuals[k] == check_special_symmetry(g[k]) for k in range(len(g)))
            h = submersion_project(on_slice)
            assert all(np.array_equal(h[k], submersion_project(on_slice[k])) for k in range(len(h)))
            corner = corner_residual(h)
            assert all(corner[k] == corner_residual(h[k]) for k in range(len(h)))
            sigmas, mus = read_embedded(h)
            for k in range(len(h)):
                sigma, mu = read_embedded(h[k])
                assert np.array_equal(sigmas[k], sigma) and np.array_equal(mus[k], mu)

    def test_single_calls_match_the_formulas(self):
        for on_slice, off_slice in self._stacks():
            for g in (*on_slice, *off_slice):
                assert check_special_symmetry(g) == _slice_residual_formula(g)
            for g in on_slice:
                n = (g.shape[0] - 1) // 2
                h = submersion_project(g)
                assert np.array_equal(h, sym(g[: n + 1, : n + 1]))
                assert corner_residual(h) == _corner_formula(h)
                sigma, mu = read_embedded(h)
                expected = _spd_inv_formula(h[:n, :n])
                assert np.array_equal(sigma, expected) and np.array_equal(mu, expected @ h[:n, n])

    def test_errors_name_the_first_point_that_fails(self):
        on_slice, off_slice = next(self._stacks())
        mixed = np.array([on_slice[0], off_slice[1], on_slice[2], off_slice[3]])
        with pytest.raises(ValueError) as single:
            submersion_project(mixed[1])
        with pytest.raises(ValueError) as stacked:
            submersion_project(mixed)
        assert str(stacked.value) == str(single.value)
        h = submersion_project(on_slice)
        h[1:, -1, -1] += 1e-6 * np.arange(1, len(h))  # corners off from the second point on
        with pytest.raises(ValueError, match="^corner entry inconsistent") as single:
            read_embedded(h[1])
        with pytest.raises(ValueError) as stacked:
            read_embedded(h)
        assert str(stacked.value) == str(single.value)

    def test_slice_check_takes_one_stack_axis(self):
        with pytest.raises(ValueError, match="must be square"):
            check_special_symmetry(np.eye(3)[None, None])
