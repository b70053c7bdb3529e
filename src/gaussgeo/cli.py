"""Command-line front end: JSON in, JSON or CSV out.

Subcommands wire the library into reproducible runs; identical inputs and
flags produce byte-identical outputs.  Input schemas (see README):
point ``{"n", "sigma", "mu"}``, tangent ``{"n", "A0", "a0"}``, pair
``{"p": point, "q": point}``.  Matrices are row-major nested arrays;
symmetry is validated on parse and then enforced by averaging.

Exit codes: 0 success, 1 check failure, 2 input error or unwritable output, 3 numerical failure.
Diagnostics level via the environment variable GAUSSGEO_LOG
(error | info | debug).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
from collections.abc import Callable

import numpy as np

from .matcore import EigenError, NotSpdError, _require_memory, sym
from .manifold import FISHER_NODES, GaussianPoint, Tangent, _fisher_gram, _hermite_rule, embed, metric_at_identity, tangent_norm
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
INPUT_SYMMETRY_TOL = 1e-12  # relative asymmetry a parsed matrix may have before it is averaged


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


def _numbers(raw, message: str) -> np.ndarray:
    """``raw`` as a float array if it is a JSON number or a (nested) array of them (no bool, string or null), else ``InputError(message)``."""
    try:
        values = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(message) from exc
    leaves = [raw]
    for _ in range(values.ndim):
        leaves = [x for row in leaves for x in row]
    if not all(type(x) in (int, float) for x in leaves):
        raise InputError(message)
    return values


def _parse_matrix(raw, n: int, name: str) -> np.ndarray:
    mat = _numbers(raw, f"{name} must be a nested numeric array")
    if mat.shape != (n, n):
        raise InputError(f"{name} must be {n}x{n}, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InputError(f"{name} must be finite")
    scale = max(1.0, float(np.linalg.norm(mat)))
    if np.linalg.norm(mat - mat.T) > INPUT_SYMMETRY_TOL * scale:
        raise InputError(f"{name} must be symmetric within {INPUT_SYMMETRY_TOL:.0e} (relative)")
    return sym(mat)


def _parse_vector(raw, n: int, name: str) -> np.ndarray:
    vec = _numbers(raw, f"{name} must be a numeric array")
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


def _parse_t_end(obj, positive: bool = False) -> float:
    raw = obj.get("t_end", 1.0)
    t_end = _numbers(raw, f"t_end must be a number, got {raw!r}")
    if t_end.ndim:
        raise InputError(f"t_end must be a number, got {raw!r}")
    t_end = float(t_end)
    if not math.isfinite(t_end):
        raise InputError("t_end must be finite")
    if positive and t_end <= 0:
        raise InputError("t_end must be positive")
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


def write_samples_csv(fh, names: tuple[str, str], ts: np.ndarray, matrices: np.ndarray, vectors: np.ndarray) -> None:
    """Write samples to ``fh`` as CSV, each row as it is formatted: t, row-major matrix entries, vector entries, one row per time of ``ts``.

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


def _t_grid(obj, steps: int, n: int) -> np.ndarray:
    raw = obj.get("t_grid")
    if raw is None:
        if "t_end" not in obj:
            raise InputError("input must provide t_grid (sample times) or t_end (with --steps)")
        t_end = _parse_t_end(obj, positive=True)
        _require_memory(steps + 1.0, 1 + n * n + n, f"shoot to t_end = {t_end:g} in {steps} steps")
        return np.linspace(0.0, t_end, steps + 1)
    ts = _numbers(raw, "t_grid must be a numeric array")
    if ts.ndim != 1 or ts.size < 1:
        raise InputError("t_grid must be a non-empty 1-d array")
    # compared, not differenced, so that a non-finite time reaches trajectory's check without a warning
    if np.any(ts[1:] < ts[:-1]):
        raise InputError("t_grid must be nondecreasing")
    _require_memory(ts.size, 1 + n * n + n, f"shoot on {ts.size} times")
    return ts


def cmd_shoot(args, obj) -> Callable:
    _require_keys(obj, ("tangent",), "input")
    xi = parse_tangent(obj["tangent"])
    base = parse_point(obj["point"], "point") if "point" in obj else None
    ts = _t_grid(obj, args.steps, xi.n)
    traj = geo.trajectory(xi, ts, basepoint=base)
    return lambda fh: write_samples_csv(fh, ("sigma", "mu"), traj.ts, traj.sigmas, traj.mus)


def cmd_log(args, obj) -> tuple[dict, dict]:
    p, q = parse_pair(obj)
    xi = geo.log_map(p, q, tol=args.tol, max_iter=args.max_iter)
    residual = float(np.linalg.norm(embed(geo.exp_map_from(p, xi, 1.0)) - embed(q)))
    return {"tangent": tangent_to_json(xi), "residual": residual}, {}


def cmd_dist(args, obj) -> tuple[dict, dict]:
    p, q = parse_pair(obj)
    value = geo.distance(p, q, convention=args.metric, tol=args.tol, max_iter=args.max_iter)
    return {"distance": value, "convention": args.metric}, {}


def cmd_midpoint(args, obj) -> tuple[dict, dict]:
    p, q = parse_pair(obj)
    return point_to_json(ahm_mod.midpoint_N(p, q, tol=args.tol, max_iter=args.max_iter)), {}


def cmd_interp(args, obj) -> tuple[dict, dict]:
    p, q = parse_pair(obj)
    depth = _positive_int(obj.get("depth", args.depth), "depth")
    # per point, its report entry and the point (tracemalloc): 8 floats' worth per number, 96 besides; at n = 1 the peak
    _require_memory(2 ** min(depth, 64) + 1, 8 * (p.n * p.n + p.n) + 96, f"interpolation to depth {depth}")
    points = ahm_mod.interpolate(p, q, depth, tol=args.tol, max_iter=args.max_iter)
    return {"depth": depth, "points": [point_to_json(pt) for pt in points]}, {}


def cmd_lax(args, obj) -> Callable:
    _require_keys(obj, ("tangent",), "input")
    xi = parse_tangent(obj["tangent"])
    samples = lax_mod.integrate(args.rhs, xi, _parse_t_end(obj), dt=args.dt)
    return lambda fh: write_samples_csv(fh, ("Q", "r"), samples.ts, samples.Qs, samples.rs)


def _random_unit_tangent(n: int, rng: np.random.Generator) -> Tangent:
    a_mat = sym(rng.standard_normal((n, n)))
    a_vec = rng.standard_normal(n)
    xi = Tangent(a_mat, a_vec)
    return xi.scaled(1.0 / tangent_norm(xi))


def cmd_verify(args, obj) -> tuple[dict, dict]:
    _require_keys(obj, (), "input")
    if "tangent" in obj:
        xi = parse_tangent(obj["tangent"])
    elif "n" in obj:
        rng = np.random.default_rng(args.seed)
        xi = _random_unit_tangent(_positive_int(obj["n"], "n"), rng)
        log.info("generated random unit tangent for n=%d (seed=%s)", xi.n, args.seed)
    else:
        raise InputError("verify input needs a tangent or a dimension n")
    t_end = _parse_t_end(obj, positive=True)
    h = args.dt
    # per sample (at most t_end / h + 5): the time with the grid check's one array of differences of it, and
    # 2 (n^2 + n) floats for the RK4 state and the trajectory; the checks walk blocks
    _require_memory(t_end / h + 5.0, 2 + 2 * (xi.n + 1) * xi.n, f"verify on t_end = {t_end:g} at dt = {h:g}")
    # the flow's grid k h over whole steps is the geodesic's too
    samples = lax_mod.integrate("bilinear", xi, max(4, round(t_end / h)) * h, dt=h)
    traj = geo.trajectory(xi, samples.ts)

    if args.perturb:
        traj.mus[len(traj.ts) // 2] += args.perturb
        samples.Qs[len(samples.ts) // 2] += args.perturb
        log.info("injected perturbation of size %g", args.perturb)

    values = lax_mod.verify_checks(xi, traj, samples, h)
    checks = {name: (values[name], threshold) for name, threshold in VERIFY_THRESHOLDS.items()}
    return {"tangent": tangent_to_json(xi), "t_end": float(samples.ts[-1]), "dt": h}, checks


def cmd_fisher_check(args, obj) -> tuple[dict, dict]:
    _require_keys(obj, ("n",), "input")
    n = _positive_int(obj["n"], "n")
    nodes = _positive_int(obj.get("nodes", FISHER_NODES), "nodes")
    k = n * (n + 1) // 2 + n
    # one rule for every pair, checked before the basis is built
    rule = _hermite_rule(n, nodes, k)
    # the packed coordinate basis: upper-triangle entries of A0, then a0
    basis = [geo._unpack(e, n) for e in np.eye(k)]
    numeric = _fisher_gram(GaussianPoint.identity(n), basis, rule)
    closed = np.array([[metric_at_identity(x, y, convention="fisher") for y in basis] for x in basis])
    # np.max keeps a NaN, which Python's max would drop
    worst = float(np.max(np.abs(numeric - closed)))
    results = {"n": n, "nodes": nodes, "basis_size": k, "max_deviation": worst}
    return results, {"fisher_agreement": (worst, FISHER_CHECK_THRESHOLD)}


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

    def common(sp, tol_default, iter_default):
        io_args(sp)
        sp.add_argument("--tol", type=float, default=tol_default, help=f"convergence tolerance (default {tol_default:g})")
        sp.add_argument("--max-iter", type=int, default=iter_default, help=f"iteration cap (default {iter_default})")

    sp = sub.add_parser("shoot", help="sample a geodesic; CSV output")
    io_args(sp)
    sp.add_argument("--steps", type=int, default=100, help="grid intervals when the input gives t_end instead of t_grid")
    sp.set_defaults(func=cmd_shoot)

    sp = sub.add_parser("log", help="connecting tangent between two points; JSON output")
    common(sp, geo.LOG_TOL, geo.LOG_MAX_ITER)
    sp.set_defaults(func=cmd_log)

    sp = sub.add_parser("dist", help="geodesic distance between two points; JSON output")
    common(sp, geo.LOG_TOL, geo.LOG_MAX_ITER)
    sp.add_argument("--metric", choices=("paper", "fisher"), default="paper", help="metric normalization")
    sp.set_defaults(func=cmd_dist)

    sp = sub.add_parser("midpoint", help="geodesic midpoint of two points; JSON output")
    common(sp, ahm_mod.AHM_TOL, ahm_mod.AHM_MAX_ITER)
    sp.set_defaults(func=cmd_midpoint)

    sp = sub.add_parser("interp", help="dyadic geodesic interpolation; JSON output")
    common(sp, ahm_mod.AHM_TOL, ahm_mod.AHM_MAX_ITER)
    sp.add_argument("--depth", type=int, default=1, help="recursion depth (2**depth + 1 points)")
    sp.set_defaults(func=cmd_interp)

    sp = sub.add_parser("lax", help="integrate the isospectral flow; CSV output")
    io_args(sp)
    sp.add_argument("--dt", type=float, default=lax_mod.DEFAULT_DT, help=f"integration step (default {lax_mod.DEFAULT_DT:g})")
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
    sp.add_argument("--dt", type=float, default=lax_mod.DEFAULT_DT, help="grid spacing / finite-difference step")
    sp.add_argument("--seed", type=int, default=0, help="seed for the generated tangent when input gives only n")
    sp.add_argument("--perturb", type=float, default=0.0, help="inject a fault of this size (harness self-test)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("fisher-check", help="quadrature oracle vs closed-form metric at the identity")
    io_args(sp)
    sp.set_defaults(func=cmd_fisher_check)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and write its outcome, once computed, to stdout or the ``--output`` file.

    The outcome writes CSV rows as it formats them, or is ``(results, checks)``
    for the JSON report, ``checks`` mapping a name to ``(value, threshold)``.
    Exit 1 when some value is not within its threshold (NaN included), 2 when
    the output cannot be written (a closed pipe included), else 0.
    """
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        obj = _load_input(args.input)
        write, checks = args.func(args, obj), {}
        if not callable(write):
            results, values = write
            checks = {name: {"value": v, "threshold": t, "pass": bool(v <= t)} for name, (v, t) in values.items()}
            report = {"command": args.command, "inputs_digest": _digest(obj), "results": results, "checks": checks}

            def write(fh):
                # encoded as it is written, so the report's text is never held whole
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        try:
            if args.output == "-":
                write(sys.stdout)
                sys.stdout.flush()
            else:
                with open(args.output, "w", encoding="utf-8", newline="") as fh:
                    write(fh)
        except OSError as exc:
            if args.output == "-":
                # the rest of the buffer goes nowhere, so the interpreter's flush at exit cannot fail again
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print(f"gaussgeo: cannot write output: {exc}", file=sys.stderr)
            return 2
        return 0 if all(c["pass"] for c in checks.values()) else 1
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
