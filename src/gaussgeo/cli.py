"""Command-line front end: JSON in, JSON or CSV out.

Subcommands wire the library into reproducible runs; identical inputs and
flags produce byte-identical outputs.  Input schemas (see README):
point ``{"n", "sigma", "mu"}``, tangent ``{"n", "A0", "a0"}``, pair
``{"p": point, "q": point}``.  Matrices are row-major nested arrays;
symmetry is validated on parse and then enforced by averaging.

Exit codes: 0 success, 1 check failure, 2 input error, 3 numerical failure.
Diagnostics level via the environment variable GAUSSGEO_LOG
(error | info | debug).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import math
import os
import sys

import numpy as np

from .matcore import (
    EigenError,
    NotSpdError,
    _require_memory,
    block_cholesky,
    check_special_symmetry,
    special_structure_residuals,
    sym,
)
from .manifold import GaussianPoint, Tangent, embed, fisher_numeric, metric_at_identity, tangent_norm
from . import geodesic as geo
from .geodesic import ShootingError
from . import ahm as ahm_mod
from . import laxflow as lax_mod

log = logging.getLogger("gaussgeo")

VERIFY_THRESHOLDS = {
    "geodesic_residual": 1e-6,
    "first_integral_drift_a": 1e-6,
    "first_integral_drift_A": 1e-6,
    "exchange_symmetry": 1e-10,
    "det_drift": 1e-9,
    "block_structure": 1e-10,
    "lax_commutator_residual": 1e-5,
    "lax_spectral_drift": 1e-7,
    "lax_closed_form_agreement": 1e-6,
}
FISHER_CHECK_THRESHOLD = 1e-6


class InputError(ValueError):
    """Malformed or schema-violating input."""


def _check_options(args) -> None:
    """Reject a non-finite ``--tol``, ``--dt`` or ``--perturb``, and a nonpositive ``--tol``, ``--max-iter``, ``--dt`` or ``--steps``."""
    for name in ("tol", "dt", "perturb"):
        if not math.isfinite(getattr(args, name, 0.0)):
            raise InputError(f"{name} must be finite")
    for name in ("tol", "max_iter", "dt", "steps"):
        if getattr(args, name, 1) <= 0:
            raise InputError(f"{name.replace('_', '-')} must be positive")


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("GAUSSGEO_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_input(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc


def _digest(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _require_keys(obj, keys, what: str) -> None:
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise InputError(f"{what} is missing keys: {', '.join(missing)}")


def _parse_matrix(raw, n: int, name: str, symmetric_tol: float = 1e-12) -> np.ndarray:
    try:
        mat = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be a nested numeric array") from exc
    if mat.shape != (n, n):
        raise InputError(f"{name} must be {n}x{n}, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InputError(f"{name} must be finite")
    scale = max(1.0, float(np.linalg.norm(mat)))
    if np.linalg.norm(mat - mat.T) > symmetric_tol * scale:
        raise InputError(f"{name} must be symmetric within {symmetric_tol:.0e} (relative)")
    return sym(mat)


def _parse_vector(raw, n: int, name: str) -> np.ndarray:
    try:
        vec = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be a numeric array") from exc
    if vec.shape != (n,):
        raise InputError(f"{name} must have length {n}, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise InputError(f"{name} must be finite")
    return vec


def _positive_int(raw, name: str) -> int:
    """A count from the input: a positive integral number (not a bool, string or non-finite float)."""
    integral = isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
    if isinstance(raw, bool) or not integral or raw < 1:
        raise InputError(f"{name} must be a positive integer, got {raw!r}")
    return int(raw)


def _parse_t_end(obj) -> float:
    t_end = float(obj.get("t_end", 1.0))
    if not math.isfinite(t_end):
        raise InputError("t_end must be finite")
    return t_end


def parse_point(obj, what: str = "point") -> GaussianPoint:
    _require_keys(obj, ("n", "sigma", "mu"), what)
    n = _positive_int(obj["n"], f"{what}.n")
    sigma = _parse_matrix(obj["sigma"], n, f"{what}.sigma")
    mu = _parse_vector(obj["mu"], n, f"{what}.mu")
    try:
        return GaussianPoint(sigma, mu)
    except (NotSpdError, ValueError) as exc:
        raise InputError(f"{what}: {exc}") from exc


def parse_tangent(obj, what: str = "tangent") -> Tangent:
    _require_keys(obj, ("n", "A0", "a0"), what)
    n = _positive_int(obj["n"], f"{what}.n")
    a_mat = _parse_matrix(obj["A0"], n, f"{what}.A0")
    a_vec = _parse_vector(obj["a0"], n, f"{what}.a0")
    return Tangent(A0=a_mat, a0=a_vec)


def parse_pair(obj) -> tuple[GaussianPoint, GaussianPoint]:
    _require_keys(obj, ("p", "q"), "pair")
    return parse_point(obj["p"], "p"), parse_point(obj["q"], "q")


def point_to_json(p: GaussianPoint) -> dict:
    return {"n": p.n, "sigma": p.sigma.tolist(), "mu": p.mu.tolist()}


def tangent_to_json(xi: Tangent) -> dict:
    return {"n": xi.n, "A0": xi.A0.tolist(), "a0": xi.a0.tolist()}


def _emit(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def write_samples_csv(fh, names: tuple[str, str], ts: np.ndarray, matrices: np.ndarray, vectors: np.ndarray) -> None:
    """Write samples as CSV: t, row-major matrix entries, vector entries, one row per time of ``ts``.

    ``names`` label the matrix and the vector columns: ``("sigma", "mu")``
    gives the header ``t,sigma_11,...,sigma_nn,mu_1,...,mu_n``.
    """
    n = vectors.shape[1]
    mat, vec = names
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        ["t"] + [f"{mat}_{i + 1}{j + 1}" for i in range(n) for j in range(n)] + [f"{vec}_{i + 1}" for i in range(n)]
    )
    for t, matrix, vector in zip(ts, matrices, vectors):
        writer.writerow([f"{v:.17g}" for v in (t, *matrix.ravel(), *vector)])


def _report(command: str, digest: str, results: dict, checks: dict, out: str) -> None:
    payload = {"command": command, "inputs_digest": digest, "results": results, "checks": checks}
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _t_grid(obj, steps: int) -> np.ndarray:
    raw = obj.get("t_grid")
    if raw is None:
        if "t_end" not in obj:
            raise InputError("input must provide t_grid (sample times) or t_end (with --steps)")
        t_end = _parse_t_end(obj)
        if t_end <= 0:
            raise InputError("t_end must be positive")
        return np.linspace(0.0, t_end, steps + 1)
    try:
        ts = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError("t_grid must be a numeric array") from exc
    if ts.ndim != 1 or ts.size < 1:
        raise InputError("t_grid must be a non-empty 1-d array")
    if not np.all(np.isfinite(ts)):
        raise InputError("t_grid must be finite")
    if np.any(np.diff(ts) < 0):
        raise InputError("t_grid must be nondecreasing")
    return ts


def cmd_shoot(args, obj) -> int:
    _require_keys(obj, ("tangent",), "input")
    xi = parse_tangent(obj["tangent"])
    base = parse_point(obj["point"], "point") if "point" in obj else None
    ts = _t_grid(obj, args.steps)
    traj = geo.trajectory(xi, ts, basepoint=base)
    buf = io.StringIO()
    write_samples_csv(buf, ("sigma", "mu"), traj.ts, traj.sigmas, traj.mus)
    _emit(buf.getvalue(), args.output)
    return 0


def cmd_log(args, obj) -> int:
    p, q = parse_pair(obj)
    xi = geo.log_map(p, q, tol=args.tol, max_iter=args.max_iter)
    residual = float(np.linalg.norm(embed(geo.exp_map_from(p, xi, 1.0)) - embed(q)))
    results = {"tangent": tangent_to_json(xi), "residual": residual}
    _report("log", _digest(obj), results, {}, args.output)
    return 0


def cmd_dist(args, obj) -> int:
    p, q = parse_pair(obj)
    value = geo.distance(p, q, convention=args.metric, tol=args.tol, max_iter=args.max_iter)
    _report("dist", _digest(obj), {"distance": value, "convention": args.metric}, {}, args.output)
    return 0


def cmd_midpoint(args, obj) -> int:
    p, q = parse_pair(obj)
    mid = ahm_mod.midpoint_N(p, q, tol=args.tol, max_iter=args.max_iter)
    results = point_to_json(mid)
    _report("midpoint", _digest(obj), results, {}, args.output)
    return 0


def cmd_interp(args, obj) -> int:
    p, q = parse_pair(obj)
    depth = _positive_int(obj.get("depth", args.depth), "depth")
    points = ahm_mod.interpolate(p, q, depth, tol=args.tol, max_iter=args.max_iter)
    results = {"depth": depth, "points": [point_to_json(pt) for pt in points]}
    _report("interp", _digest(obj), results, {}, args.output)
    return 0


def cmd_lax(args, obj) -> int:
    _require_keys(obj, ("tangent",), "input")
    xi = parse_tangent(obj["tangent"])
    samples = lax_mod.integrate(args.rhs, xi, _parse_t_end(obj), dt=args.dt)
    buf = io.StringIO()
    write_samples_csv(buf, ("Q", "r"), samples.ts, samples.Qs, samples.rs)
    _emit(buf.getvalue(), args.output)
    return 0


def _random_unit_tangent(n: int, rng: np.random.Generator) -> Tangent:
    a_mat = sym(rng.standard_normal((n, n)))
    a_vec = rng.standard_normal(n)
    xi = Tangent(a_mat, a_vec)
    return xi.scaled(1.0 / tangent_norm(xi))


def cmd_verify(args, obj) -> int:
    if "tangent" in obj:
        xi = parse_tangent(obj["tangent"])
    elif "n" in obj:
        rng = np.random.default_rng(args.seed)
        xi = _random_unit_tangent(_positive_int(obj["n"], "n"), rng)
        log.info("generated random unit tangent for n=%d (seed=%s)", xi.n, args.seed)
    else:
        raise InputError("verify input needs a tangent or a dimension n")
    t_end = _parse_t_end(obj)
    if t_end <= 0:
        raise InputError("t_end must be positive")
    h = args.dt
    # the sampled leading (n+1)-blocks alone, before the grid is built
    _require_memory(8.0 * (t_end / h + 1.0) * (xi.n + 1) ** 2, f"verify on t_end = {t_end:g} at dt = {h:g}")
    steps = max(4, int(round(t_end / h)))
    ts = np.linspace(0.0, steps * h, steps + 1)

    traj = geo.trajectory(xi, ts)
    samples = lax_mod.integrate("bilinear", xi, float(ts[-1]), dt=h)

    if args.perturb:
        traj.mus[len(traj.ts) // 2] += args.perturb
        samples.Qs[len(samples.ts) // 2] += args.perturb
        log.info("injected perturbation of size %g", args.perturb)

    values = {}
    values["geodesic_residual"] = geo.geodesic_residual(traj, h)
    drift_a, drift_big_a = geo.first_integrals(traj, h)
    values["first_integral_drift_a"] = drift_a
    values["first_integral_drift_A"] = drift_big_a

    stride = max(1, steps // 40)
    ambient = geo.ambient_exponentials(xi, ts[::stride])
    values["exchange_symmetry"] = float(np.max(check_special_symmetry(ambient)))
    values["det_drift"] = float(np.max(np.abs(np.linalg.det(ambient) - 1.0)))
    values["block_structure"] = float(
        max(max(special_structure_residuals(*block_cholesky(g)).values()) for g in ambient)
    )

    comm, spectral = lax_mod.verify_lax(samples, xi.a0, h)
    values["lax_commutator_residual"] = comm
    values["lax_spectral_drift"] = spectral
    l_last = lax_mod.build_L((samples.Qs[-1], samples.rs[-1]), xi.a0)
    values["lax_closed_form_agreement"] = float(np.linalg.norm(l_last - lax_mod.lax_closed_form(xi, samples.ts[-1])))

    checks = {
        name: {"value": values[name], "threshold": VERIFY_THRESHOLDS[name], "pass": bool(values[name] <= VERIFY_THRESHOLDS[name])}
        for name in VERIFY_THRESHOLDS
    }
    results = {"tangent": tangent_to_json(xi), "t_end": float(ts[-1]), "dt": h}
    _report("verify", _digest(obj), results, checks, args.output)
    return 0 if all(c["pass"] for c in checks.values()) else 1


def cmd_fisher_check(args, obj) -> int:
    _require_keys(obj, ("n",), "input")
    n = _positive_int(obj["n"], "n")
    nodes = _positive_int(obj.get("nodes", 20), "nodes")
    identity = GaussianPoint.identity(n)
    # the packed coordinate basis: upper-triangle entries of A0, then a0
    basis = [geo._unpack(e, n) for e in np.eye(n * (n + 1) // 2 + n)]

    worst = 0.0
    for x in basis:
        for y in basis:
            numeric = fisher_numeric(identity, x, y, nodes=nodes)
            closed = metric_at_identity(x, y, convention="fisher")
            worst = max(worst, abs(numeric - closed))
    checks = {
        "fisher_agreement": {
            "value": worst,
            "threshold": FISHER_CHECK_THRESHOLD,
            "pass": bool(worst <= FISHER_CHECK_THRESHOLD),
        }
    }
    results = {"n": n, "nodes": nodes, "basis_size": len(basis), "max_deviation": worst}
    _report("fisher-check", _digest(obj), results, checks, args.output)
    return 0 if worst <= FISHER_CHECK_THRESHOLD else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussgeo",
        description="Geodesics, distances, midpoints, and the associated isospectral flow "
        "on the manifold of multivariate normal distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def io_args(sp):
        sp.add_argument("--input", "-i", default="-", help="input JSON file, or - for stdin (default)")
        sp.add_argument("--output", "-o", default="-", help="output file, or - for stdout (default)")

    def common(sp, tol_default=1e-12, iter_default=60):
        io_args(sp)
        sp.add_argument("--tol", type=float, default=tol_default, help=f"convergence tolerance (default {tol_default:g})")
        sp.add_argument("--max-iter", type=int, default=iter_default, help=f"iteration cap (default {iter_default})")

    sp = sub.add_parser("shoot", help="sample a geodesic; CSV output")
    io_args(sp)
    sp.add_argument("--steps", type=int, default=100, help="grid intervals when the input gives t_end instead of t_grid")
    sp.set_defaults(func=cmd_shoot)

    sp = sub.add_parser("log", help="connecting tangent between two points; JSON output")
    common(sp, iter_default=100)
    sp.set_defaults(func=cmd_log)

    sp = sub.add_parser("dist", help="geodesic distance between two points; JSON output")
    common(sp, iter_default=100)
    sp.add_argument("--metric", choices=("paper", "fisher"), default="paper", help="metric normalization")
    sp.set_defaults(func=cmd_dist)

    sp = sub.add_parser("midpoint", help="geodesic midpoint of two points; JSON output")
    common(sp)
    sp.set_defaults(func=cmd_midpoint)

    sp = sub.add_parser("interp", help="dyadic geodesic interpolation; JSON output")
    common(sp)
    sp.add_argument("--depth", type=int, default=1, help="recursion depth (2**depth + 1 points)")
    sp.set_defaults(func=cmd_interp)

    sp = sub.add_parser("lax", help="integrate the isospectral flow; CSV output")
    io_args(sp)
    sp.add_argument("--dt", type=float, default=1e-3, help="integration step (default 1e-3)")
    sp.add_argument(
        "--rhs",
        choices=("bilinear", "riccati"),
        default="bilinear",
        help="explicit system to integrate; riccati matches the Lax flow only for "
        "commuting data (a0 zero or an eigenvector of A0)",
    )
    sp.set_defaults(func=cmd_lax)

    sp = sub.add_parser("verify", help="run the invariant checks on one tangent; JSON report")
    io_args(sp)
    sp.add_argument("--dt", type=float, default=1e-3, help="grid spacing / finite-difference step")
    sp.add_argument("--seed", type=int, default=0, help="seed for the generated tangent when input gives only n")
    sp.add_argument("--perturb", type=float, default=0.0, help="inject a fault of this size (harness self-test)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("fisher-check", help="quadrature oracle vs closed-form metric at the identity")
    io_args(sp)
    sp.set_defaults(func=cmd_fisher_check)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        return args.func(args, _load_input(args.input))
    except InputError as exc:
        print(f"gaussgeo: input error: {exc}", file=sys.stderr)
        return 2
    except (NotSpdError, EigenError, ShootingError, ArithmeticError, RuntimeError) as exc:
        print(f"gaussgeo: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"gaussgeo: input error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
