import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import gaussgeo.ahm as ahm
import gaussgeo.cli as cli
import gaussgeo.laxflow as laxflow
import gaussgeo.manifold as manifold
from gaussgeo import horizontal_lift
from gaussgeo.cli import VERIFY_THRESHOLDS, main
from gaussgeo.geodesic import lifted_exponential
from gaussgeo.matcore import VERIFY_BLOCK_BYTES, _require_memory
from util import random_tangent


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def guarded_peak(tmp_path, capsys, monkeypatch, argv, obj, warm, modules):
    """``(tracemalloc peak, bytes each memory guard of ``modules`` counted)`` of one run of ``argv`` on ``obj``, which exits 0 or 1.

    ``modules`` are those whose binding of ``matcore._require_memory`` the command's guards call.  A
    first run on the small input ``warm`` takes the one-time imports out of the measure.  The output
    goes to a file, because ``capsys`` would hold the printed text, which the program does not.
    """
    argv = [*argv, "--output", str(tmp_path / "out")]
    run(capsys, [*argv, "--input", write_json(tmp_path, "warm.json", warm)])
    counted = []

    def counting_guard(samples, floats, what):
        counted.append(8.0 * floats * samples + 8 * VERIFY_BLOCK_BYTES)
        _require_memory(samples, floats, what)

    for module in modules:
        monkeypatch.setattr(module, "_require_memory", counting_guard)
    path = write_json(tmp_path, "in.json", obj)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = main([*argv, "--input", path])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code in (0, 1), capsys.readouterr().err
    return peak, counted


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
            (["shoot"], {"tangent": tangent_json([[0.1]], [0.2]), "t_grid": [0.0, math.inf, math.inf]}),
            (["verify"], {"tangent": tangent_json([[0.1]], [0.2]), "t_end": math.inf}),
        ],
        ids=[
            "dist-inf-mu", "midpoint-inf-mu", "dist-nan-mu", "lax-nan-t_end", "lax-inf-a0", "shoot-inf-t_grid",
            "shoot-repeated-inf-t_grid", "verify-inf-t_end",
        ],
    )
    def test_non_finite_input_is_input_error(self, tmp_path, capsys, argv, obj):
        path = write_json(tmp_path, "in.json", obj)
        code, out, err = run(capsys, [*argv, "--input", path])
        assert code == 2
        assert out == ""
        assert "input error" in err and "must be finite" in err

    @pytest.mark.parametrize("command", ["shoot", "lax", "verify"])
    @pytest.mark.parametrize(
        "t_end", [[1.0], None, {"t": 1.0}, True, "0.5"], ids=["list", "null", "object", "bool", "numeric-string"]
    )
    def test_non_numeric_t_end_is_input_error(self, tmp_path, capsys, command, t_end):
        path = write_json(tmp_path, "in.json", {"tangent": tangent_json([[0.1]], [0.2]), "t_end": t_end})
        code, out, err = run(capsys, [command, "--input", path])
        assert (code, out) == (2, "")
        assert err == f"gaussgeo: input error: t_end must be a number, got {t_end!r}\n"

    @pytest.mark.parametrize(
        "command, field, message",
        [
            ("dist", ("p", "sigma"), "p.sigma must be a nested numeric array"),
            ("dist", ("q", "mu"), "q.mu must be a numeric array"),
            ("lax", ("tangent", "A0"), "tangent.A0 must be a nested numeric array"),
            ("verify", ("tangent", "a0"), "tangent.a0 must be a numeric array"),
            ("shoot", ("t_grid",), "t_grid must be a numeric array"),
        ],
        ids=["sigma", "mu", "A0", "a0", "t_grid"],
    )
    @pytest.mark.parametrize("entry", [True, "2", None], ids=["bool", "numeric-string", "null"])
    def test_array_entries_must_be_json_numbers(self, tmp_path, capsys, command, field, message, entry):
        # numpy reads a bool, a numeric string and a null (as NaN) as a float; the schema takes JSON numbers only
        obj = {
            "p": point_json([[2.0]], [0.0]),
            "q": point_json([[1.0]], [0.5]),
            "tangent": tangent_json([[0.1]], [0.2]),
            "t_grid": [0.0, 0.5],
            "t_end": 1.0,
        }
        array = obj
        for key in field:
            array = array[key]
        while isinstance(array[0], list):
            array = array[0]
        array[0] = entry
        code, out, err = run(capsys, [command, "--input", write_json(tmp_path, "in.json", obj)])
        assert (code, out) == (2, "")
        assert err == f"gaussgeo: input error: {message}\n"

    @pytest.mark.parametrize(
        "command, as_int, as_float",
        [
            ("dist", {"p": {"n": 1, "sigma": [[2]], "mu": [0]}, "q": {"n": 1, "sigma": [[1]], "mu": [1]}},
             {"p": {"n": 1, "sigma": [[2.0]], "mu": [0.0]}, "q": {"n": 1, "sigma": [[1.0]], "mu": [1.0]}}),
            ("shoot", {"tangent": {"n": 1, "A0": [[1]], "a0": [0]}, "t_grid": [0, 1]},
             {"tangent": {"n": 1, "A0": [[1.0]], "a0": [0.0]}, "t_grid": [0.0, 1.0]}),
            ("shoot", {"tangent": {"n": 1, "A0": [[1]], "a0": [0]}, "t_end": 2},
             {"tangent": {"n": 1, "A0": [[1.0]], "a0": [0.0]}, "t_end": 2.0}),
        ],
        ids=["dist", "shoot-t_grid", "shoot-t_end"],
    )
    def test_json_integers_are_numbers(self, tmp_path, capsys, command, as_int, as_float):
        outputs = []
        for obj in (as_int, as_float):
            code, out, err = run(capsys, [command, "--input", write_json(tmp_path, "in.json", obj)])
            assert (code, err) == (0, "")
            outputs.append(out if command == "shoot" else json.loads(out)["results"])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["shoot", "log", "dist", "midpoint", "interp", "lax", "verify", "fisher-check"])
    @pytest.mark.parametrize("obj", [5, "tangent", ["tangent"]], ids=["number", "string", "list"])
    def test_input_that_is_not_an_object_is_input_error(self, tmp_path, capsys, command, obj):
        path = write_json(tmp_path, "in.json", obj)
        code, out, err = run(capsys, [command, "--input", path])
        assert (code, out) == (2, "")
        assert err.startswith("gaussgeo: input error: ") and err.endswith(" must be a JSON object\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dist", "--tol", "0"], "tol must be positive"),
            (["log", "--max-iter", "0"], "max-iter must be positive"),
            (["lax", "--dt", "0"], "dt must be positive"),
            (["log", "--tol", "inf"], "tol must be finite"),
            (["dist", "--tol", "nan"], "tol must be finite"),
            (["lax", "--dt", "inf"], "dt must be finite"),
            (["verify", "--dt", "inf"], "dt must be finite"),
            (["verify", "--dt", "nan"], "dt must be finite"),
            (["verify", "--perturb", "nan"], "perturb must be finite"),
            (["verify", "--perturb", "inf"], "perturb must be finite"),
            (["verify", "--perturb=-inf"], "perturb must be finite"),
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

    @pytest.mark.parametrize(
        "argv, obj, what",
        [
            (["interp"], {"p": point_json([[1.0]], [0.0]), "q": point_json([[2.0]], [0.5]), "depth": 64}, "interpolation to depth 64"),
            (["lax"], {"tangent": tangent_json([[0.1]], [0.2]), "t_end": 1e12}, "integrating to t_end = 1e+12 at dt = 0.001"),
            (["verify"], {"tangent": tangent_json([[0.1]], [0.2]), "t_end": 1e12}, "verify on t_end = 1e+12 at dt = 0.001"),
            (["shoot", "--steps", str(10**17)], {"tangent": tangent_json([[0.1]], [0.2]), "t_end": 1.0}, f"shoot to t_end = 1 in {10**17} steps"),
            (["fisher-check"], {"n": 3, "nodes": 10**7}, "quadrature with 10000000 nodes in 3 dimensions"),
            (["fisher-check"], {"n": 1000}, "quadrature with 3 nodes in 1000 dimensions"),
            (["fisher-check"], {"n": 1e200}, f"quadrature with 3 nodes in {int(1e200)} dimensions"),
        ],
        ids=["interp-depth-64", "lax-t_end-1e12", "verify-t_end-1e12", "shoot-steps-1e17", "fisher-nodes-1e7", "fisher-n-1000", "fisher-n-1e200"],
    )
    def test_requests_beyond_memory_are_input_errors(self, tmp_path, capsys, argv, obj, what):
        # refused before anything is allocated: no MemoryError, no index-size overflow
        path = write_json(tmp_path, "in.json", obj)
        code, out, err = run(capsys, [*argv, "--input", path])
        assert code == 2
        assert out == ""
        assert err.startswith(f"gaussgeo: input error: {what} needs ")
        assert err.endswith(" bytes of physical memory\n")

    XI = tangent_json([[0.1]], [0.2])

    @pytest.mark.parametrize(
        "argv, obj, message",
        [
            (["lax"], {"tangent": {"n": 1, "A0": [[0.1]], "a0": [0.2, 0.3]}}, "tangent.a0 must have length 1, got shape (2,)"),
            (["shoot"], {"tangent": XI, "t_end": 0.0}, "t_end must be positive"),
            (["verify"], {"tangent": XI, "t_end": -1.0}, "t_end must be positive"),
            (["shoot"], {"tangent": XI}, "input must provide t_grid (sample times) or t_end (with --steps)"),
            (["shoot"], {"tangent": XI, "t_grid": []}, "t_grid must be a non-empty 1-d array"),
            (["shoot"], {"tangent": XI, "t_grid": [[0.0, 1.0]]}, "t_grid must be a non-empty 1-d array"),
            (["shoot"], {"tangent": XI, "t_grid": [0.0, 1.0, 0.5]}, "t_grid must be nondecreasing"),
            (["verify"], {"t_end": 1.0}, "verify input needs a tangent or a dimension n"),
        ],
        ids=[
            "a0-length", "shoot-zero-t_end", "verify-negative-t_end", "shoot-no-times", "empty-t_grid", "2d-t_grid",
            "decreasing-t_grid", "verify-no-tangent",
        ],
    )
    def test_input_error_message(self, tmp_path, capsys, argv, obj, message):
        code, out, err = run(capsys, [*argv, "--input", write_json(tmp_path, "in.json", obj)])
        assert (code, out) == (2, "")
        assert err == f"gaussgeo: input error: {message}\n"

    def test_unreadable_input_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        code, out, err = run(capsys, ["dist", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == f"gaussgeo: input error: cannot read input: [Errno 2] No such file or directory: {str(path)!r}\n"

    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_unwritable_output_is_exit_2(self, tmp_path, capsys, where):
        # exit 1 is kept for a failed check, so a path that cannot be opened is reported like unreadable input
        output = tmp_path / "missing" / "out.json" if where == "missing-directory" else tmp_path
        path = write_json(tmp_path, "in.json", {"n": 1})
        code, out, err = run(capsys, ["fisher-check", "--input", path, "--output", str(output)])
        assert code == 2
        assert out == ""
        assert err.startswith("gaussgeo: cannot write output: ")
        assert err.count("\n") == 1 and err.endswith(f"{str(output)!r}\n")

    @pytest.mark.parametrize("lines_read", [0, 2], ids=["before-the-header", "after-one-row"])
    def test_closed_stdout_is_exit_2(self, lines_read):
        # a reader that stops early (`| head -2`) leaves an output that cannot be written: one line on
        # stderr, no traceback, and no second failure when the interpreter flushes stdout at exit
        obj = {"tangent": tangent_json([[0.1]], [0.2]), "t_end": 1.0}
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "gaussgeo.cli", "shoot", "--steps", "20000"]
        with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            if not lines_read:
                proc.stdout.close()  # before the input is sent, so before anything is written
            proc.stdin.write(json.dumps(obj).encode())
            proc.stdin.close()
            lines = [proc.stdout.readline() for _ in range(lines_read)]
            proc.stdout.close()  # about 1.6 MB are left to write, more than a pipe holds
            err = proc.stderr.read().decode()
        assert proc.returncode == 2, err
        assert [line[:2] for line in lines] == [b"t,", b"0,"][:lines_read]
        assert err.startswith("gaussgeo: cannot write output: ") and err.count("\n") == 1

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

    def test_singular_sampled_covariance_is_numerical_failure(self, tmp_path, capsys):
        # At dt = 0.02 one sampled covariance of this far n = 3 geodesic passes
        # the trajectory's Cholesky test yet is singular to the LU solves of
        # the finite-difference checks.
        a_mat = [
            [23.371865730443865, 4.9448139295707065, -25.21079934537985],
            [4.9448139295707065, -30.473634140633717, -9.944513520665813],
            [-25.21079934537985, -9.944513520665813, -23.519298982612014],
        ]
        obj = {"tangent": tangent_json(a_mat, [5.2007167586988645, 4.768609954436733, 36.32159393800869]), "t_end": 1.0}
        path = write_json(tmp_path, "in.json", obj)
        code, out, err = run(capsys, ["verify", "--input", path, "--dt", "0.02"])
        assert code == 3
        assert out == ""
        assert "numerical failure: a sampled sigma is singular" in err

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

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_memory_guard_counts_the_csv_text(self, tmp_path, capsys, monkeypatch, n):
        # the rows are written as they are formatted, so the samples and _sampled's blocks are what shoot holds
        tangent = {"tangent": tangent_json(np.eye(n), np.ones(n))}
        peak, counted = guarded_peak(
            tmp_path, capsys, monkeypatch, ["shoot", "--steps", "2000"], {**tangent, "t_end": 1.0}, {**tangent, "t_grid": [0.0]}, [cli]
        )
        assert len(counted) == 1
        assert peak <= counted[0]

    @pytest.mark.parametrize("n", [1, 3, 5, 8])
    def test_peak_grows_by_the_samples_only(self, tmp_path, capsys, monkeypatch, n):
        # added rows add their 1 + n^2 + n floats, not their text; at n = 1 a whole run fits in one of _sampled's
        # blocks, so the block budget is allowed on top, and the text of fewer than 18,000 rows would fit under it
        added = 18000 if n == 1 else 6000
        tangent = {"tangent": tangent_json(np.eye(n), np.ones(n))}
        warm = {**tangent, "t_grid": [0.0]}
        argvs = [["shoot", "--steps", str(steps)] for steps in (2000, 2000 + added)]
        peaks = [guarded_peak(tmp_path, capsys, monkeypatch, argv, {**tangent, "t_end": 1.0}, warm, [cli])[0] for argv in argvs]
        assert peaks[1] - peaks[0] <= added * 8 * (1 + n * n + n) + 8 * VERIFY_BLOCK_BYTES


class TestJsonCommands:
    def test_dist_identical_points_is_zero(self, tmp_path, capsys):
        p = point_json([[2.0]], [1.0])
        path = write_json(tmp_path, "in.json", {"p": p, "q": p})
        code, out, _ = run(capsys, ["dist", "--input", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "dist"
        assert payload["results"]["distance"] == 0.0

    def test_dist_narrow_pair_with_large_mean(self, tmp_path, capsys):
        # two distinct points, 5e-9 apart at a spread of 1e-6, are 5.0e-3 apart in the metric, not one point
        obj = {"p": point_json([[1e-12]], [1e4]), "q": point_json([[1e-12]], [10000.000000005])}
        code, out, err = run(capsys, ["dist", "--input", write_json(tmp_path, "in.json", obj), "--metric", "fisher"])
        assert (code, err) == (0, "")
        assert abs(json.loads(out)["results"]["distance"] - 5.0e-3) <= 1e-5

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

    XI = tangent_json([[0.3, 0.1], [0.1, -0.2]], [0.4, 0.2])

    @pytest.mark.parametrize(
        "argv, obj",
        [
            (["dist"], {"p": point_json([[1.0]], [0.0]), "q": point_json([[math.e ** 2]], [0.5])}),
            (["shoot", "--steps", "50"], {"tangent": XI, "t_end": 1.5}),
            (["shoot"], {"tangent": XI, "point": point_json([[2.0, 0.3], [0.3, 1.0]], [1.0, -1.0]), "t_grid": [0.0, 0.25, 0.25, 1.0, 3.0]}),
            (["lax", "--dt", "0.01"], {"tangent": XI, "t_end": 0.5}),
            (["lax", "--dt", "0.01", "--rhs", "riccati"], {"tangent": XI, "t_end": 0.5}),
        ],
        ids=["dist", "shoot-t_end", "shoot-t_grid", "lax-bilinear", "lax-riccati"],
    )
    def test_output_file_gets_the_printed_bytes(self, tmp_path, capsys, argv, obj):
        path = write_json(tmp_path, "in.json", obj)
        out_path = tmp_path / "out"
        assert run(capsys, [*argv, "--input", path, "--output", str(out_path)]) == (0, "", "")
        code, printed, _ = run(capsys, [*argv, "--input", path])
        assert code == 0
        assert out_path.read_bytes() == printed.encode("utf-8")

    @pytest.mark.parametrize("n, depth", [(1, 13), (3, 11), (8, 10)])
    def test_interp_memory_guards_count_the_peak(self, tmp_path, capsys, monkeypatch, n, depth):
        # interpolate's guard counts its lifted stacks, the CLI's the report and its points; at n = 1 the report sets the peak
        pair = {"p": point_json(np.eye(n), np.zeros(n)), "q": point_json(2.0 * np.eye(n), 0.5 * np.ones(n))}
        peak, counted = guarded_peak(tmp_path, capsys, monkeypatch, ["interp"], {**pair, "depth": depth}, {**pair, "depth": 1}, [ahm, cli])
        assert len(counted) == 2
        assert peak <= max(counted)

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

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_memory_guard_counts_the_csv_text(self, tmp_path, capsys, monkeypatch, n):
        # lax's one guard is integrate's: the state array and the block budget, and no text
        tangent = {"tangent": tangent_json(np.eye(n), np.ones(n))}
        peak, counted = guarded_peak(tmp_path, capsys, monkeypatch, ["lax"], {**tangent, "t_end": 2.0}, {**tangent, "t_end": 0.01}, [laxflow])
        assert len(counted) == 1
        assert peak <= counted[0]

    @pytest.mark.parametrize("n", [1, 3, 5, 8])
    def test_peak_grows_by_the_samples_only(self, tmp_path, capsys, monkeypatch, n):
        # added steps add the 1 + n^2 + n floats of their states, not their text (at n = 1 the text of fewer
        # than 18,000 rows would fit under the block budget)
        added = 18000 if n == 1 else 6000
        tangent = {"tangent": tangent_json(np.eye(n), np.ones(n))}
        warm = {**tangent, "t_end": 0.01}
        objs = [{**tangent, "t_end": t_end} for t_end in (2.0, 2.0 + added * 1e-3)]
        peaks = [guarded_peak(tmp_path, capsys, monkeypatch, ["lax"], obj, warm, [laxflow])[0] for obj in objs]
        assert peaks[1] - peaks[0] <= added * 8 * (1 + n * n + n) + 8 * VERIFY_BLOCK_BYTES


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

    def test_checks_come_from_one_pipeline_call(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting_checks(*args):
            calls.append(args)
            return real_checks(*args)

        real_checks = laxflow.verify_checks
        monkeypatch.setattr(laxflow, "verify_checks", counting_checks)
        code, out, _ = run(capsys, ["verify", "--input", write_json(tmp_path, "in.json", {"n": 2, "t_end": 0.5})])
        assert code == 0
        assert len(calls) == 1
        xi, traj, samples, h = calls[0]
        assert (len(traj.ts), len(samples.ts), h) == (501, 501, laxflow.DEFAULT_DT)
        # one time grid, k h, for the geodesic and the flow
        assert traj.ts.tobytes() == samples.ts.tobytes() == np.array([k * h for k in range(501)]).tobytes()
        assert sorted(json.loads(out)["checks"]) == sorted(real_checks(*calls[0]))

    def test_determinism(self, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", {"n": 1, "t_end": 0.5})
        code1, out1, _ = run(capsys, ["verify", "--input", path, "--seed", "3"])
        code2, out2, _ = run(capsys, ["verify", "--input", path, "--seed", "3"])
        assert (code1, out1) == (code2, out2)

    def test_long_interval_reaches_the_checks(self, tmp_path, capsys):
        # 8,000 steps of dt: the flow's samples keep the uniform grid k dt that the Lax
        # checks need, so the run reports all its checks (a check may fail, exit 1)
        path = write_json(tmp_path, "in.json", {"n": 2, "t_end": 8})
        code, out, err = run(capsys, ["verify", "--input", path])
        assert code in (0, 1), err
        payload = json.loads(out)
        assert payload["results"]["t_end"] == 8.0
        assert sorted(payload["checks"]) == sorted(VERIFY_THRESHOLDS)

    def test_fine_step_passes(self, tmp_path, capsys):
        path = write_json(tmp_path, "in.json", {"n": 2, "t_end": 3})
        code, out, err = run(capsys, ["verify", "--input", path, "--dt", "1e-4"])
        assert code == 0, err
        assert json.loads(out)["results"]["t_end"] == 3.0

    @pytest.mark.parametrize("t_end", [0.5, 2, 8])
    @pytest.mark.parametrize("n", [1, 3, 5, 8])
    def test_memory_guard_counts_the_peak(self, tmp_path, capsys, monkeypatch, n, t_end):
        # the bytes the guard checks for are at least the run's tracemalloc peak (so also per sample)
        peak, counted = guarded_peak(tmp_path, capsys, monkeypatch, ["verify"], {"n": n, "t_end": t_end}, {"n": n, "t_end": 0.01}, [cli])
        assert len(counted) == 1
        assert peak <= counted[0]


class TestFisherCheck:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_agreement(self, tmp_path, capsys, n):
        # the default rule, 3 nodes per axis, is exact for the products of two scores (degree 4)
        path = write_json(tmp_path, "in.json", {"n": n})
        code, out, _ = run(capsys, ["fisher-check", "--input", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"]["fisher_agreement"]["pass"]
        assert payload["results"]["nodes"] == 3
        assert payload["results"]["max_deviation"] <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_too_few_nodes_fail_the_check(self, tmp_path, capsys, n):
        # 2 nodes per axis are exact to degree 3 only: the check can fail in every dimension
        path = write_json(tmp_path, "in.json", {"n": n, "nodes": 2})
        code, out, _ = run(capsys, ["fisher-check", "--input", path])
        assert code == 1
        payload = json.loads(out)
        assert payload["results"]["max_deviation"] == 0.5
        assert payload["checks"] == {"fisher_agreement": {"value": 0.5, "threshold": 1e-6, "pass": False}}

    @pytest.mark.parametrize("nodes", [371, 400])
    def test_rule_beyond_double_precision_is_input_error(self, tmp_path, capsys, nodes):
        # numpy's rule overflows from 371 nodes on (NaN weights from 372): one line, no warning, no silent pass
        code, out, err = run(capsys, ["fisher-check", "--input", write_json(tmp_path, "in.json", {"n": 1, "nodes": nodes})])
        assert (code, out) == (2, "")
        assert err == f"gaussgeo: input error: the Gauss-Hermite rule with {nodes} nodes is not representable in double precision\n"

    def test_largest_rule_passes(self, tmp_path, capsys):
        code, out, err = run(capsys, ["fisher-check", "--input", write_json(tmp_path, "in.json", {"n": 1, "nodes": 370})])
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["max_deviation"] <= 1e-12

    def test_nan_deviation_fails_the_check(self, tmp_path, capsys, monkeypatch):
        # the maximum over the Gram matrix keeps a NaN entry, which Python's max would drop as if it agreed
        gram, calls = cli._fisher_gram, []

        def first_nan(*args):
            calls.append(args)
            numeric = gram(*args)
            numeric[0, 0] = math.nan
            return numeric

        monkeypatch.setattr(cli, "_fisher_gram", first_nan)
        code, out, _ = run(capsys, ["fisher-check", "--input", write_json(tmp_path, "in.json", {"n": 1})])
        assert (code, len(calls)) == (1, 1)
        payload = json.loads(out)
        assert math.isnan(payload["results"]["max_deviation"])
        assert payload["checks"]["fisher_agreement"]["pass"] is False

    @pytest.mark.parametrize("n, nodes", [(2, 200), (3, 30), (5, 3), (8, 3)])
    def test_memory_guard_counts_the_peak(self, tmp_path, capsys, monkeypatch, n, nodes):
        # one guard, before the rule is built, counts the grid, the scores and the basis
        peak, counted = guarded_peak(tmp_path, capsys, monkeypatch, ["fisher-check"], {"n": n, "nodes": nodes}, {"n": n, "nodes": 2}, [manifold])
        assert len(counted) == 1
        assert peak <= counted[0]

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_one_rule_per_run(self, tmp_path, capsys, monkeypatch, n):
        rule, calls = np.polynomial.hermite.hermgauss, []

        def counting_rule(nodes):
            calls.append(nodes)
            return rule(nodes)

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", counting_rule)
        code, _, _ = run(capsys, ["fisher-check", "--input", write_json(tmp_path, "in.json", {"n": n})])
        assert (code, calls) == (0, [3])

    @pytest.mark.parametrize("flag", ["--tol", "--max-iter"])
    @pytest.mark.parametrize("subcommand", ["fisher-check", "shoot", "lax", "verify"])
    def test_solver_options_not_offered(self, tmp_path, capsys, subcommand, flag):
        path = write_json(tmp_path, "in.json", {"n": 1})
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--input", path, flag, "5"])
        assert exc.value.code == 2
