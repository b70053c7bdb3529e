import ast
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from gaussgeo.matcore import (
    NotSpdError,
    block_cholesky,
    check_special_symmetry,
    require_spd,
    require_symmetric,
    spd_inv,
    spd_log,
    spd_sqrt,
    special_structure_residuals,
    sym_eigen,
    sym_exp,
)
import gaussgeo
import gaussgeo.matcore as matcore
from gaussgeo.ahm import AhmPair, ahm_midpoint, ahm_sequence
from gaussgeo.cli import parse_point, parse_tangent
from gaussgeo.sympair import horizontal_lift, submersion_project
from gaussgeo.manifold import GaussianPoint, Tangent, unembed
from util import blocked_from_scalar, random_spd, random_sym, random_tangent


class TestSymEigen:
    def test_identity(self):
        w, v = sym_eigen(np.eye(3))
        assert np.allclose(w, np.ones(3))
        assert np.allclose(v @ v.T, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        w, _ = sym_eigen(np.diag([2.0, -1.0]))
        assert np.allclose(w, [-1.0, 2.0])

    def test_offdiagonal_two_by_two(self):
        # characteristic polynomial of [[0,1],[1,0]] is t^2 - 1
        w, _ = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_reconstruction_and_orthogonality(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            s = random_sym(rng, n, scale=2.0)
            w, v = sym_eigen(s)
            scale = max(1.0, np.linalg.norm(s))
            assert np.linalg.norm(v @ np.diag(w) @ v.T - s) <= 1e-12 * scale
            assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-12
            assert np.all(np.diff(w) >= -1e-14)


def _bad(order, kind):
    """An order-``order`` SPD-looking matrix made asymmetric, or given a non-finite entry."""
    a = np.eye(order)
    if kind == "asymmetric":
        a[0, 1] = 0.5
    else:
        a[0, 0] = {"nan": math.nan, "inf": math.inf}[kind]
    return a


# Every public entry that takes a raw matrix, with a call that feeds it the bad one.
PUBLIC_ENTRIES = {
    "GaussianPoint": lambda kind: GaussianPoint(_bad(2, kind), np.zeros(2)),
    "Tangent": lambda kind: Tangent(_bad(2, kind), np.zeros(2)),
    "AhmPair": lambda kind: AhmPair(P=np.eye(2), Q=_bad(2, kind)),
    "parse_point": lambda kind: parse_point({"n": 2, "sigma": _bad(2, kind).tolist(), "mu": [0.0, 0.0]}),
    "parse_tangent": lambda kind: parse_tangent({"n": 2, "A0": _bad(2, kind).tolist(), "a0": [0.0, 0.0]}),
    "block_cholesky": lambda kind: block_cholesky(_bad(3, kind)),
    "check_special_symmetry": lambda kind: check_special_symmetry(_bad(3, kind)),
    "check_special_symmetry-stack": lambda kind: check_special_symmetry(np.array([np.eye(3), _bad(3, kind)])),
    "submersion_project": lambda kind: submersion_project(_bad(3, kind)),
    "submersion_project-stack": lambda kind: submersion_project(np.array([np.eye(3), _bad(3, kind)])),
    "unembed": lambda kind: unembed(_bad(2, kind)),
    "ahm_midpoint": lambda kind: ahm_midpoint(_bad(2, kind), np.eye(2)),
    "ahm_sequence": lambda kind: ahm_sequence(np.eye(2), _bad(2, kind)),
}


@pytest.mark.parametrize("kind", ["asymmetric", "nan", "inf"])
@pytest.mark.parametrize("entry", sorted(PUBLIC_ENTRIES))
def test_public_entries_reject_bad_matrices(entry, kind):
    # The kernels trust their caller; the check runs once, where the array enters.
    with pytest.raises(ValueError, match="symmetric|finite"):
        PUBLIC_ENTRIES[entry](kind)


MOVED_TO_MATCORE = ("spd_inv", "spd_log", "spd_sqrt", "sym", "sym_eigen", "sym_exp", "block_exchange")


def test_matrix_utilities_live_in_matcore_only():
    for name in MOVED_TO_MATCORE:
        assert not hasattr(gaussgeo, name) and name not in gaussgeo.__all__
        assert callable(getattr(matcore, name))


PACKAGE_DIR = Path(gaussgeo.__file__).parent
# test-only oracles, now in tests/util.py, and LaxState, now the plain pair (Q, r)
GONE_FROM_PACKAGE = ("ahm_step", "alt_embed_check", "direct_midpoint", "recovered_initial_direction", "state_from_L", "LaxState")


def _names_used(source: str) -> set[str]:
    """Every ``Name`` and ``Attribute`` referenced in a module's source."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_name_is_used_or_documented():
    # a public name that only the tests call belongs with the tests
    modules = sorted(path for path in PACKAGE_DIR.glob("*.py") if path.name != "__init__.py")
    used = set().union(*(_names_used(path.read_text(encoding="utf-8")) for path in modules))
    readme = (PACKAGE_DIR.parents[1] / "README.md").read_text(encoding="utf-8")
    orphans = [name for name in gaussgeo.__all__ if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert orphans == []
    for name in GONE_FROM_PACKAGE:
        for path in [PACKAGE_DIR / "__init__.py", *modules]:
            module = importlib.import_module("gaussgeo" if path.stem == "__init__" else f"gaussgeo.{path.stem}")
            assert not hasattr(module, name), f"{module.__name__}.{name}"


class TestSymExp:
    def test_zero(self):
        assert np.allclose(sym_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        assert np.allclose(sym_exp(np.diag([1.0, -1.0])), np.diag([math.e, 1.0 / math.e]), atol=1e-14)

    def test_exchange_two_by_two(self):
        # eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2 give cosh/sinh entries
        e = sym_exp(np.array([[0.0, 1.0], [1.0, 0.0]]))
        expected = np.array([[math.cosh(1.0), math.sinh(1.0)], [math.sinh(1.0), math.cosh(1.0)]])
        assert np.allclose(e, expected, atol=1e-14)

    def test_inverse_pairing(self):
        rng = np.random.default_rng(7)
        s = random_sym(rng, 4)
        assert np.allclose(sym_exp(s) @ sym_exp(-s), np.eye(4), atol=1e-12)

    def test_additivity_for_commuting(self):
        rng = np.random.default_rng(8)
        _, v = sym_eigen(random_sym(rng, 4))
        d1, d2 = rng.standard_normal(4), rng.standard_normal(4)
        s1 = v @ np.diag(d1) @ v.T
        s2 = v @ np.diag(d2) @ v.T
        lhs = sym_exp(0.5 * (s1 + s1.T) + 0.5 * (s2 + s2.T))
        rhs = sym_exp(0.5 * (s1 + s1.T)) @ sym_exp(0.5 * (s2 + s2.T))
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)

    def test_det_is_exp_trace(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 5):
            s = random_sym(rng, n)
            det = np.linalg.det(sym_exp(s))
            assert abs(det - math.exp(np.trace(s))) <= 1e-10 * abs(det)


class TestSpdFunctions:
    def test_sqrt_identity(self):
        assert np.allclose(spd_sqrt(np.eye(3)), np.eye(3))

    def test_sqrt_diagonal(self):
        assert np.allclose(spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    def test_sqrt_reconstruction(self):
        p = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = spd_sqrt(p)
        assert np.linalg.norm(r @ r - p) <= 1e-12

    def test_sqrt_rejects_indefinite(self):
        with pytest.raises(NotSpdError):
            spd_sqrt(np.diag([1.0, -1.0]))

    def test_inv_and_log(self):
        rng = np.random.default_rng(11)
        p = random_spd(rng, 4)
        assert np.linalg.norm(spd_inv(p) @ p - np.eye(4)) <= 1e-11
        assert np.linalg.norm(sym_exp(spd_log(p)) - p) <= 1e-11 * np.linalg.norm(p)

    def test_require_spd_rejects(self):
        with pytest.raises(NotSpdError):
            require_spd(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("validator", [require_symmetric, require_spd])
def test_validators_reject_non_finite(validator, bad):
    with pytest.raises(ValueError, match="non-finite"):
        validator(np.array([[bad, 0.0], [0.0, 1.0]]))


class TestBlockCholesky:
    def test_identity(self):
        m, d = block_cholesky(np.eye(5))
        assert np.allclose(m, np.eye(5))
        assert np.allclose(d, np.eye(5))

    def test_block_diagonal_input(self):
        g = np.diag([1.0 / math.e, 1.0, math.e])
        m, d = block_cholesky(g)
        assert np.allclose(m, np.eye(3))
        assert np.allclose(d, g)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reconstruction_random(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(10):
            g = random_spd(rng, 2 * n + 1, scale=0.8)
            m, d = block_cholesky(g)
            recon = m @ d @ m.T
            assert np.linalg.norm(recon - g) <= 1e-12 * np.linalg.norm(g)

    def test_against_scalar_elimination_oracle(self):
        rng = np.random.default_rng(43)
        n = 2
        g = random_spd(rng, 2 * n + 1, scale=0.8)
        m, d = block_cholesky(g)
        m_ref, d_ref = blocked_from_scalar(g, n)
        assert np.linalg.norm(m - m_ref) <= 1e-11 * max(1.0, np.linalg.norm(m_ref))
        assert np.linalg.norm(d - d_ref) <= 1e-11 * max(1.0, np.linalg.norm(d_ref))

    def test_pivot_failure_identifies_block(self):
        g = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(NotSpdError, match=r"\(2,2\)"):
            block_cholesky(g)
        g = np.diag([-1.0, 1.0, 1.0])
        with pytest.raises(NotSpdError, match=r"\(1,1\)"):
            block_cholesky(g)

    def test_even_order_rejected(self):
        with pytest.raises(ValueError):
            block_cholesky(np.eye(4))


class TestSpecialSymmetry:
    def test_identity_is_exact(self):
        assert check_special_symmetry(np.eye(5)) == 0.0

    def test_lifted_geodesics_satisfy_it(self):
        rng = np.random.default_rng(50)
        for n in (1, 2, 3):
            v = horizontal_lift(random_tangent(rng, n))
            for t in (-1.5, 0.3, 1.0):
                assert check_special_symmetry(sym_exp(t * v)) <= 1e-12

    def test_violating_matrix_detected(self):
        # JG^{-1}J - G = diag(-1, 0, -0.5) for G = diag(2, 1, 1)
        res = check_special_symmetry(np.diag([2.0, 1.0, 1.0]))
        assert abs(res - math.sqrt(1.25)) <= 1e-12

    def test_structure_residuals_vanish_on_symmetric_slice(self):
        rng = np.random.default_rng(51)
        for n in (1, 2, 3):
            xi = random_tangent(rng, n)
            g = sym_exp(horizontal_lift(xi))
            m, d = block_cholesky(g)
            res = special_structure_residuals(m, d)
            assert res["d22_minus_one"] <= 1e-10
            assert res["d33_vs_d11_inv"] <= 1e-10
            assert res["m32_vs_minus_m21"] <= 1e-10
            assert res["m31_symmetry_relation"] <= 1e-10

    def test_structure_residuals_nonzero_off_slice(self):
        g = np.diag([2.0, 1.0, 1.0])
        m, d = block_cholesky(g)
        res = special_structure_residuals(m, d)
        assert res["d33_vs_d11_inv"] > 1e-3


def test_tangent_norm_matches_generator_frobenius():
    # trace(V^2) = 2 tr(A0^2) + 4 |a0|^2, the squared metric norm
    rng = np.random.default_rng(52)
    for n in (1, 2, 4):
        xi = Tangent(random_sym(rng, n), rng.standard_normal(n))
        v = horizontal_lift(xi)
        from gaussgeo import metric_at_identity

        assert abs(np.trace(v @ v) - metric_at_identity(xi, xi, "paper")) <= 1e-12 * max(1.0, np.trace(v @ v))
