import json
import math
import warnings

import numpy as np
import pytest

import gaussgeo.laxflow as laxflow
from gaussgeo import horizontal_lift
from gaussgeo.cli import main
from gaussgeo.geodesic import lifted_exponential
from util import random_tangent


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def point_json(sigma, mu):
    sigma = np.atleast_2d(np.array(sigma, dtype=float))
    mu = np.atleast_1d(np.array(mu, dtype=float))
    return {"n": len(mu), "sigma": sigma.tolist(), "mu": mu.tolist()}


def tangent_json(a_mat, a_vec):
    a_mat = np.atleast_2d(np.array(a_mat, dtype=float))
    a_vec = np.atleast_1d(np.array(a_vec, dtype=float))
    return {"n": len(a_vec), "A0": a_mat.tolist(), "a0": a_vec.tolist()}


class TestErrorsAndExitCodes:
    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _out, err = run(capsys, ["dist", "--input", str(path)])
        assert code == 2
        assert "input error" in err

    def test_missing_keys_is_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", {"p": point_json([[1.0]], [0.0])})
        code, _out, err = run(capsys, ["dist", "--input", str(path)])
        assert code == 2
        assert "missing keys" in err

    def test_asymmetric_sigma_rejected(self, tmp_path, capsys):
        obj = {"p": point_json([[1.0]], [0.0]), "q": point_json([[1.0]], [0.0])}
        obj["q"]["sigma"] = [[1.0, 0.5], [0.0, 1.0]]
        obj["q"]["mu"] = [0.0, 0.0]
        obj["q"]["n"] = 2
        obj["p"] = point_json(np.eye(2), np.zeros(2))
        path = write_json(tmp_path, "in.json", obj)
        code, _out, err = run(capsys, ["dist", "--input", str(path)])
        assert code == 2
        assert "symmetric" in err

    def test_non_spd_sigma_rejected(self, tmp_path, capsys):
        obj = {"p": point_json([[-1.0]], [0.0]), "q": point_json([[1.0]], [0.0])}
        path = write_json(tmp_path, "in.json", obj)
        code, _out, err = run(capsys, ["dist", "--input", str(path)])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, obj",
        [
            (["dist"], {"p": point_json([[1.0]], [math.inf]), "q": point_json([[2.0]], [0.0])}),
            (["midpoint"], {"p": point_json([[1.0]], [math.inf]), "q": point_json([[2.0]], [0.0])}),
            (["dist"], {"p": point_json([[1.0]], [math.nan]), "q": point_json([[2.0]], [0.0])}),
            (["lax"], {"tangent": tangent_json([[0.1]], [0.2]), "t_end": math.nan}),
            (["lax"], {"tangent": tangent_json([[0.1]], [math.inf])}),
            (["shoot"], {"tangent": tangent_json([[0.1]], [0.2]), "t_grid": [0.0, math.inf]}),
            (["verify"], {"tangent": tangent_json([[0.1]], [0.2]), "t_end": math.inf}),
        ],
        ids=["dist-inf-mu", "midpoint-inf-mu", "dist-nan-mu", "lax-nan-t_end", "lax-inf-a0", "shoot-inf-t_grid", "verify-inf-t_end"],
    )
    def test_non_finite_input_is_input_error(self, tmp_path, capsys, argv, obj):
        path = write_json(tmp_path, "in.json", obj)
        code, out, err = run(capsys, [*argv, "--input", path])
        assert code == 2
        assert out == ""
        assert "input error" in err and "must be finite" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dist", "--tol", "0"], "tol must be positive"),
            (["log", "--max-iter", "0"], "max-iter must be positive"),
            (["lax", "--dt", "0"], "dt must be positive"),
        ],
    )
    def test_nonpositive_option_rejected(self, tmp_path, capsys, argv, message):
        obj = {"p": point_json([[1.0]], [0.0]), "q": point_json([[2.0]], [0.0]), "tangent": tangent_json([[0.1]], [0.2])}
        path = write_json(tmp_path, "in.json", obj)
        code, _out, err = run(capsys, [*argv, "--input", path])
        assert code == 2
        assert err == f"gaussgeo: input error: {message}\n"

    @pytest.mark.parametrize(
        "argv, obj",
        [
            (["shoot"], {"tangent": {**tangent_json([[0.1]], [0.2]), "n": math.inf}, "t_end": 1.0}),
            (["shoot"], {"tangent": {**tangent_json(np.eye(2), [0.2, 0.1]), "n": 2.7}, "t_end": 1.0}),
            (["dist"], {"p": {**point_json(np.eye(2), [0.0, 0.0]), "n": "2"}, "q": point_json(np.eye(2), [1.0, 0.0])}),
            (["dist"], {"p": {**point_json([[1.0]], [0.0]), "n": True}, "q": point_json([[2.0]], [0.0])}),
            (["dist"], {"p": {**point_json([[1.0]], [0.0]), "n": 1.5}, "q": point_json([[2.0]], [0.0])}),
            (["interp"], {"p": point_json([[1.0]], [0.0]), "q": point_json([[2.0]], [0.0]), "depth": 1.9}),
            (["interp"], {"p": point_json([[1.0]], [0.0]), "q": point_json([[2.0]], [0.0]), "depth": math.inf}),
            (["verify"], {"n": 0}),
            (["fisher-check"], {"n": 0}),
            (["fisher-check"], {"n": 1, "nodes": 2.5}),
        ],
        ids=[
            "tangent-inf-n", "tangent-fractional-n", "point-string-n", "point-bool-n", "pair-fractional-n",
            "fractional-depth", "inf-depth", "verify-zero-n", "fisher-zero-n", "fractional-nodes",
        ],
    )
    def test_counts_must_be_positive_integers(self, tmp_path, capsys, argv, obj):
        path = write_json(tmp_path, "in.json", obj)
        code, out, err = run(capsys, [*argv, "--input", path])
        assert code == 2
        assert out == ""
        assert "input error" in err and "must be a positive integer" in err

    def test_singular_leading_pivot_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # Far along a unit geodesic (n = 2, t ~ 105) the leading pivot of the
        # lifted exponential passes its Cholesky test yet is singular to LU.
        # verify's sampled trajectory stops such tangents before the Lax
        # closed form, so that far matrix is handed to the closed form here.
        rng = np.random.default_rng(5)
        for _ in range(4):
            random_tangent(rng, 1)
        xi = random_tangent(rng, 2)
        far = lifted_exponential(horizontal_lift(xi), float(np.logspace(0.0, 3.2, 20)[12]))
        monkeypatch.setattr(laxflow, "lifted_exponential", lambda v, t: far)
        obj = {"tangent": tangent_json(xi.A0, xi.a0), "t_end": 0.1}
        path = write_json(tmp_path, "in.json", obj)
        code, out, err = run(capsys, ["verify", "--input", path])
        assert code == 3
        assert out == ""
        assert "numerical failure: pivot block (1,1) is numerically singular" in err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # absurd step size blows up the flow
        obj = {"tangent": tangent_json([[0.0]], [80.0]), "t_end": 10.0}
        path = write_json(tmp_path, "in.json", obj)
        code, _out, err = run(capsys, ["lax", "--input", str(path), "--dt", "1.0", "--rhs", "riccati"])
        assert code == 3
        assert "numerical failure" in err


class TestShoot:
    def test_zero_tangent_identical_rows(self, tmp_path, capsys):
        obj = {"tangent": tangent_json([[0.0]], [0.0]), "t_grid": [0.0, 1.0]}
        path = write_json(tmp_path, "in.json", obj)
        code, out, _ = run(capsys, ["shoot", "--input", path])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,sigma_11,mu_1"
        assert lines[1].split(",")[1:] == lines[2].split(",")[1:]

    def test_fixed_mean_exponential_column(self, tmp_path, capsys):
        obj = {"tangent": tangent_json([[1.0]], [0.0]), "t_grid": [0.0, 0.5, 1.0]}
        path = write_json(tmp_path, "in.json", obj)
        code, out, _ = run(capsys, ["shoot", "--input", path])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for row in rows:
            t, sigma = float(row[0]), float(row[1])
            assert abs(sigma - math.exp(t)) <= 1e-12 * math.exp(t)
            assert float(row[2]) == 0.0

    def test_output_file(self, tmp_path, capsys):
        obj = {"tangent": tangent_json([[1.0]], [0.0]), "t_grid": [0.0, 1.0]}
        path = write_json(tmp_path, "in.json", obj)
        out_path = tmp_path / "traj.csv"
        code, out, _ = run(capsys, ["shoot", "--input", path, "--output", str(out_path)])
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("t,sigma_11,mu_1")

    def test_t_end_with_steps_builds_uniform_grid(self, tmp_path, capsys):
        obj = {"tangent": tangent_json([[1.0]], [0.0]), "t_end": 1.0}
        path = write_json(tmp_path, "in.json", obj)
        code, out, _ = run(capsys, ["shoot", "--input", path, "--steps", "4"])
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 5
        assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_nonpositive_steps_rejected(self, tmp_path, capsys):
        obj = {"tangent": tangent_json([[1.0]], [0.0]), "t_end": 1.0}
        path = write_json(tmp_path, "in.json", obj)
        code, _out, err = run(capsys, ["shoot", "--input", path, "--steps", "0"])
        assert code == 2
        assert err == "gaussgeo: input error: steps must be positive\n"

    def test_large_mean_basepoint(self, tmp_path, capsys):
        # The embedded corner 1 + mu^T sigma^{-1} mu is about 2e4 here, far
        # above |sigma|; roundoff in it is no reason to refuse the trajectory.
        sigma = [[0.22552908595028626, 0.41782815239847226], [0.41782815239847226, 0.7745811214215405]]
        mu = [86.28336918035048, -59.09169588398616]
        obj = {
            "tangent": tangent_json(np.diag([0.1, -0.05]), [0.02, 0.01]),
            "point": point_json(sigma, mu),
            "t_grid": [0.0, 0.5, 1.0],
        }
        path = write_json(tmp_path, "in.json", obj)
        code, out, err = run(capsys, ["shoot", "--input", path])
        assert code == 0 and err == ""
        rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
        assert len(rows) == 3
        assert np.allclose(rows[0][1:5], np.ravel(sigma), rtol=1e-12) and np.allclose(rows[0][5:], mu, rtol=1e-12)

    def test_basepoint_is_respected(self, tmp_path, capsys):
        obj = {
            "tangent": tangent_json([[1.0]], [0.0]),
            "point": point_json([[4.0]], [0.0]),
            "t_grid": [0.0, 1.0],
        }
        path = write_json(tmp_path, "in.json", obj)
        code, out, _ = run(capsys, ["shoot", "--input", path])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert abs(float(rows[0][1]) - 4.0) <= 1e-12
        assert abs(float(rows[1][1]) - 4.0 * math.e) <= 1e-11


    def test_overflowing_geodesic_is_numerical_failure(self, tmp_path, capsys):
        obj = {"tangent": tangent_json([[0.5, 0.1], [0.1, -0.3]], [0.4, 0.2]), "t_grid": [0.0, 1.0, 1000.0]}
        path = write_json(tmp_path, "in.json", obj)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, ["shoot", "--input", path])
        assert code == 3
        assert out == ""
        assert "numerical failure" in err and "finite" in err


class TestJsonCommands:
    def test_dist_identical_points_is_zero(self, tmp_path, capsys):
        p = point_json([[2.0]], [1.0])
        path = write_json(tmp_path, "in.json", {"p": p, "q": p})
        code, out, _ = run(capsys, ["dist", "--input", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "dist"
        assert payload["results"]["distance"] == 0.0

    def test_dist_closed_form_both_conventions(self, tmp_path, capsys):
        obj = {"p": point_json([[1.0]], [0.0]), "q": point_json([[math.e ** 2]], [0.0])}
        path = write_json(tmp_path, "in.json", obj)
        _, out_paper, _ = run(capsys, ["dist", "--input", path])
        _, out_fisher, _ = run(capsys, ["dist", "--input", path, "--metric", "fisher"])
        assert abs(json.loads(out_paper)["results"]["distance"] - 2.0 * math.sqrt(2.0)) <= 1e-8
        assert abs(json.loads(out_fisher)["results"]["distance"] - math.sqrt(2.0)) <= 1e-8

    def test_midpoint_scalar_example(self, tmp_path, capsys):
        obj = {"p": point_json([[1.0]], [0.0]), "q": point_json([[math.e ** 2]], [0.0])}
        path = write_json(tmp_path, "in.json", obj)
        code, out, _ = run(capsys, ["midpoint", "--input", path])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["results"]["sigma"][0][0] - math.e) <= 1e-10
        assert abs(payload["results"]["mu"][0]) <= 1e-10

    def test_log_round_trip(self, tmp_path, capsys):
        obj = {"p": point_json([[1.0]], [0.0]), "q": point_json([[math.e ** 2]], [0.0])}
        path = write_json(tmp_path, "in.json", obj)
        code, out, _ = run(capsys, ["log", "--input", path])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["results"]["tangent"]["A0"][0][0] - 2.0) <= 1e-8
        assert payload["results"]["residual"] <= 1e-10

    def test_interp_depth_two(self, tmp_path, capsys):
        obj = {"p": point_json([[1.0]], [0.0]), "q": point_json([[math.e ** 2]], [0.0]), "depth": 2}
        path = write_json(tmp_path, "in.json", obj)
        code, out, _ = run(capsys, ["interp", "--input", path])
        assert code == 0
        pts = json.loads(out)["results"]["points"]
        assert len(pts) == 5
        for pt, expected in zip(pts, [1.0, math.e ** 0.5, math.e, math.e ** 1.5, math.e ** 2]):
            assert abs(pt["sigma"][0][0] - expected) <= 1e-9 * expected


class TestLax:
    def test_no_coupling_constant_column(self, tmp_path, capsys):
        obj = {"tangent": tangent_json([[0.7]], [0.0]), "t_end": 0.5}
        path = write_json(tmp_path, "in.json", obj)
        code, out, _ = run(capsys, ["lax", "--input", path, "--dt", "0.1"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 6
        assert all(float(r[1]) == 0.7 for r in rows)
        assert all(float(r[2]) == 0.0 for r in rows)


class TestVerify:
    def test_zero_tangent_all_pass(self, tmp_path, capsys):
        obj = {"tangent": tangent_json([[0.0]], [0.0]), "t_end": 0.2}
        path = write_json(tmp_path, "in.json", obj)
        code, out, _ = run(capsys, ["verify", "--input", path, "--dt", "0.01"])
        assert code == 0
        checks = json.loads(out)["checks"]
        assert all(c["pass"] for c in checks.values())
        assert checks["geodesic_residual"]["value"] == 0.0

    def test_random_tangent_passes(self, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", {"n": 2, "t_end": 1.0})
        code, out, _ = run(capsys, ["verify", "--input", path, "--seed", "5"])
        assert code == 0
        payload = json.loads(out)
        assert all(c["pass"] for c in payload["checks"].values())
        assert payload["results"]["tangent"]["n"] == 2

    def test_perturbation_self_test_fails_checks(self, tmp_path, capsys):
        obj = {"tangent": tangent_json([[0.5]], [0.5]), "t_end": 0.5}
        path = write_json(tmp_path, "in.json", obj)
        code, out, _ = run(capsys, ["verify", "--input", path, "--perturb", "1e-3"])
        assert code == 1
        checks = json.loads(out)["checks"]
        assert not all(c["pass"] for c in checks.values())

    def test_determinism(self, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", {"n": 1, "t_end": 0.5})
        code1, out1, _ = run(capsys, ["verify", "--input", path, "--seed", "3"])
        code2, out2, _ = run(capsys, ["verify", "--input", path, "--seed", "3"])
        assert (code1, out1) == (code2, out2)


class TestFisherCheck:
    @pytest.mark.parametrize("n", [1, 2])
    def test_agreement(self, tmp_path, capsys, n):
        path = write_json(tmp_path, "in.json", {"n": n})
        code, out, _ = run(capsys, ["fisher-check", "--input", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"]["fisher_agreement"]["pass"]
        assert payload["results"]["max_deviation"] <= 1e-6

    @pytest.mark.parametrize("flag", ["--tol", "--max-iter"])
    @pytest.mark.parametrize("subcommand", ["fisher-check", "shoot", "lax", "verify"])
    def test_solver_options_not_offered(self, tmp_path, capsys, subcommand, flag):
        path = write_json(tmp_path, "in.json", {"n": 1})
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--input", path, flag, "5"])
        assert exc.value.code == 2
