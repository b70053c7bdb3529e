import re

import numpy as np
import pytest

from gaussgeo import (
    GaussianPoint,
    Tangent,
    embed,
    fisher_numeric,
    metric_at_identity,
    normalize_to_identity,
    unembed,
)
from gaussgeo.manifold import _points
from util import alt_embed_check, random_point, random_sym, random_tangent


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gaussian_point_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        GaussianPoint(np.array([[bad, 0.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="mean must be finite"):
        GaussianPoint(np.eye(2), np.array([bad, 0.0]))


@pytest.mark.parametrize("cls, name", [(GaussianPoint, "sigma"), (Tangent, "A0")])
def test_constructors_reject_order_zero(cls, name):
    with pytest.raises(ValueError, match=rf"^{name} must have order >= 1, got shape \(0, 0\)$"):
        cls(np.zeros((0, 0)), np.zeros(0))


class TestStackedPoints:
    """``manifold._points``: the constructor's checks, run once over stacked covariances and means."""

    def stacks(self, seed=57, count=5, n=3):
        rng = np.random.default_rng(seed)
        points = [random_point(rng, n) for _ in range(count)]
        return np.stack([x.sigma for x in points]), np.stack([x.mu for x in points])

    def test_points_have_the_constructor_bits(self):
        sigmas, mus = self.stacks()
        built = _points(sigmas, mus)
        for point, sigma, mu in zip(built, sigmas, mus):
            reference = GaussianPoint(sigma, mu)
            assert (point.sigma.tobytes(), point.mu.tobytes()) == (reference.sigma.tobytes(), reference.mu.tobytes())
            assert not (point.sigma.flags.writeable or point.mu.flags.writeable)

    @pytest.mark.parametrize("kind", ["indefinite", "asymmetric", "nan-sigma", "inf-mean", "nan-mean"])
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_bad_member_raises_the_constructor_error(self, kind, k):
        # each check runs over the whole stack, in the constructor's order; a later member
        # failing the same check with other values does not take over the message
        sigmas, mus = self.stacks()
        for member, size in ((4, 2.0), (k, 1.0)):
            if kind == "indefinite":
                sigmas[member] = np.diag([1.0, -size, 2.0])
            elif kind == "asymmetric":
                sigmas[member, 0, 1] += 1e-3 * size
            elif kind == "nan-sigma":
                sigmas[member, 1, 1] = np.nan if member == k else np.inf
            else:
                mus[member, 1] = np.inf if kind == "inf-mean" else np.nan
                mus[member, 0] = mus[member, 0] if member == k else np.nan
        with pytest.raises(ValueError) as expected:
            GaussianPoint(sigmas[k], mus[k])
        with pytest.raises(type(expected.value), match="^" + re.escape(str(expected.value)) + "$"):
            _points(sigmas, mus)


class TestTangentBoundary:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_a0(self, bad):
        with pytest.raises(ValueError, match="a0 must be finite"):
            Tangent(np.eye(2), np.array([bad, 0.0]))

    def test_rejects_column_a0(self):
        a_mat = np.array([[0.3, 0.1], [0.1, -0.2]])
        with pytest.raises(ValueError, match="a0 must be a vector of length 2"):
            Tangent(a_mat, np.array([0.5, -0.4])[:, None])

    def test_keeps_read_only_copies(self):
        a_mat, a_vec = np.eye(2), np.array([0.5, -0.4])
        x = Tangent(a_mat, a_vec)
        a_mat[0, 0] = a_vec[0] = np.nan
        assert np.all(np.isfinite(x.A0)) and np.all(np.isfinite(x.a0))
        with pytest.raises(ValueError, match="read-only"):
            x.a0[0] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            x.A0[0, 0] = np.nan


class TestEmbed:
    def test_identity_point(self):
        assert np.allclose(embed(GaussianPoint.identity(3)), np.eye(4))

    def test_scalar_example(self):
        p = GaussianPoint(np.array([[2.0]]), np.array([1.0]))
        assert np.allclose(embed(p), np.array([[0.5, 0.5], [0.5, 1.5]]), atol=1e-14)

    def test_unit_mean(self):
        n = 3
        mu = np.zeros(n)
        mu[0] = 1.0
        h = embed(GaussianPoint(np.eye(n), mu))
        assert np.allclose(h[:n, :n], np.eye(n))
        assert np.allclose(h[:n, n], mu)
        assert abs(h[n, n] - 2.0) <= 1e-14


class TestUnembed:
    def test_identity(self):
        p = unembed(np.eye(4))
        assert np.allclose(p.sigma, np.eye(3)) and np.allclose(p.mu, np.zeros(3))

    def test_scalar_example(self):
        p = unembed(np.array([[0.5, 0.5], [0.5, 1.5]]))
        assert abs(p.sigma[0, 0] - 2.0) <= 1e-14
        assert abs(p.mu[0] - 1.0) <= 1e-14

    @pytest.mark.parametrize("order", [0, 1])
    def test_rejects_order_below_two(self, order):
        with pytest.raises(ValueError, match="^embedded point must have order >= 2"):
            unembed(np.eye(order))

    def test_rejects_inconsistent_corner(self):
        with pytest.raises(ValueError, match="corner"):
            unembed(np.array([[1.0, 0.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_round_trips(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(10):
            p = random_point(rng, n)
            back = unembed(embed(p))
            scale = max(1.0, np.linalg.norm(p.sigma))
            assert np.linalg.norm(back.sigma - p.sigma) <= 1e-10 * scale
            assert np.linalg.norm(back.mu - p.mu) <= 1e-10 * scale


class TestAltEmbed:
    def test_identity(self):
        assert alt_embed_check(GaussianPoint.identity(2)) <= 1e-15

    def test_scalar_by_hand(self):
        # inverse of [[3,-1],[-1,1]] is [[0.5,0.5],[0.5,1.5]]
        assert alt_embed_check(GaussianPoint(np.array([[2.0]]), np.array([1.0]))) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_random_points(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(25):
            assert alt_embed_check(random_point(rng, n)) <= 1e-10


class TestMetric:
    def test_zero(self):
        z = Tangent.zero(2)
        assert metric_at_identity(z, z) == 0.0

    def test_variance_direction_scalar(self):
        for c in (0.5, 1.0, 2.0):
            x = Tangent(np.array([[c]]), np.array([0.0]))
            assert abs(metric_at_identity(x, x, "paper") - 2.0 * c * c) <= 1e-14

    def test_mean_direction(self):
        x = Tangent(np.zeros((2, 2)), np.array([1.0, 0.0]))
        assert abs(metric_at_identity(x, x, "paper") - 4.0) <= 1e-14

    def test_fisher_is_quarter(self):
        rng = np.random.default_rng(75)
        x = random_tangent(rng, 3)
        y = random_tangent(rng, 3)
        assert abs(metric_at_identity(x, y, "fisher") - 0.25 * metric_at_identity(x, y, "paper")) <= 1e-14

    def test_bilinear_symmetric_positive(self):
        rng = np.random.default_rng(76)
        n = 2
        x, y, z = (random_tangent(rng, n) for _ in range(3))
        a, b = 0.7, -1.3
        combo = Tangent(a * x.A0 + b * y.A0, a * x.a0 + b * y.a0)
        lhs = metric_at_identity(combo, z)
        rhs = a * metric_at_identity(x, z) + b * metric_at_identity(y, z)
        assert abs(lhs - rhs) <= 1e-12
        assert abs(metric_at_identity(x, y) - metric_at_identity(y, x)) <= 1e-14
        assert metric_at_identity(x, x) > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            metric_at_identity(Tangent.zero(2), Tangent.zero(3))


class TestNormalize:
    def test_identity_point_gives_identity_map(self):
        m = normalize_to_identity(GaussianPoint.identity(3))
        assert np.allclose(m.A, np.eye(3)) and np.allclose(m.b, np.zeros(3))

    def test_scalar_example(self):
        m = normalize_to_identity(GaussianPoint(np.array([[4.0]]), np.array([2.0])))
        assert abs(m.A[0, 0] - 0.5) <= 1e-14
        assert abs(m.b[0] + 1.0) <= 1e-14
        moved = m.apply(GaussianPoint(np.array([[4.0]]), np.array([2.0])))
        assert np.allclose(moved.sigma, np.eye(1), atol=1e-14)
        assert np.allclose(moved.mu, np.zeros(1), atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(80)
        p = random_point(rng, 3)
        q = random_point(rng, 3)
        m = normalize_to_identity(p)
        back = m.inverse().apply(m.apply(q))
        scale = max(1.0, np.linalg.norm(q.sigma))
        assert np.linalg.norm(back.sigma - q.sigma) <= 1e-12 * scale
        assert np.linalg.norm(back.mu - q.mu) <= 1e-12 * scale

    def test_sends_base_to_identity(self):
        rng = np.random.default_rng(81)
        p = random_point(rng, 4)
        moved = normalize_to_identity(p).apply(p)
        assert np.linalg.norm(moved.sigma - np.eye(4)) <= 1e-12
        assert np.linalg.norm(moved.mu) <= 1e-12


class TestFisherNumeric:
    def test_mean_direction_classical(self):
        p = GaussianPoint.identity(1)
        x = Tangent(np.zeros((1, 1)), np.array([1.0]))
        assert abs(fisher_numeric(p, x, x) - 1.0) <= 1e-12

    def test_variance_direction_classical(self):
        p = GaussianPoint.identity(1)
        x = Tangent(np.array([[1.0]]), np.array([0.0]))
        assert abs(fisher_numeric(p, x, x) - 0.5) <= 1e-12

    def test_mixed_vanishes(self):
        p = GaussianPoint.identity(1)
        x = Tangent(np.zeros((1, 1)), np.array([1.0]))
        y = Tangent(np.array([[1.0]]), np.array([0.0]))
        assert abs(fisher_numeric(p, x, y)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_pins_fisher_convention(self, n):
        rng = np.random.default_rng(85 + n)
        p = GaussianPoint.identity(n)
        for _ in range(6):
            x = Tangent(random_sym(rng, n), rng.standard_normal(n))
            y = Tangent(random_sym(rng, n), rng.standard_normal(n))
            numeric = fisher_numeric(p, x, y, nodes=20)
            closed = metric_at_identity(x, y, "fisher")
            assert abs(numeric - closed) <= 1e-6 * max(1.0, abs(closed))

    def test_rejects_large_dimension(self):
        p = GaussianPoint.identity(4)
        x = Tangent.zero(4)
        with pytest.raises(ValueError, match="n <= 3"):
            fisher_numeric(p, x, x)

    def test_rejects_tangent_of_another_dimension(self):
        with pytest.raises(ValueError, match="^tangent dimension does not match the base point$"):
            fisher_numeric(GaussianPoint.identity(2), Tangent.zero(2), Tangent.zero(1))

    @pytest.mark.parametrize("nodes", [371, 400])
    def test_rule_beyond_double_precision_rejected(self, nodes):
        # numpy's rule overflows from 371 nodes on and has NaN weights from 372; 370 nodes are exact
        p = GaussianPoint.identity(1)
        x = Tangent(np.zeros((1, 1)), np.array([1.0]))
        assert abs(fisher_numeric(p, x, x, nodes=370) - 1.0) <= 1e-12
        with pytest.raises(ValueError, match=f"^the Gauss-Hermite rule with {nodes} nodes is not representable in double precision$"):
            fisher_numeric(p, x, x, nodes=nodes)

    def test_nonidentity_point_scaling(self):
        # univariate N(mu, s^2): info for mu is 1/s^2, for s^2 it is 1/(2 s^4)
        p = GaussianPoint(np.array([[4.0]]), np.array([0.7]))
        mean_dir = Tangent(np.zeros((1, 1)), np.array([1.0]))
        var_dir = Tangent(np.array([[1.0]]), np.array([0.0]))
        assert abs(fisher_numeric(p, mean_dir, mean_dir) - 0.25) <= 1e-10
        assert abs(fisher_numeric(p, var_dir, var_dir) - 1.0 / 32.0) <= 1e-10
