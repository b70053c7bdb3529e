"""Seeded workloads: the inputs, the timed call of each op, and its correctness gate.

Each workload is a fixed list of ops drawn from one seed with the
benchmark's own generator, so an edit to the package's tests cannot move
the numbers.  The package only ever receives the generated arrays (or, for
the CLI, JSON files written from them).

An op has three parts:

* ``call()`` - the timed work;
* ``check(out)`` - an untimed gate against independent oracles, returning
  ``None`` or a short reason for the miss;
* ``fingerprint(out)`` - bytes that must repeat exactly when the op runs
  again on the same input within a run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import gaussgeo as gg
import gaussgeo.geodesic as geo
import gaussgeo.laxflow as lax
import gaussgeo.matcore as mc
from gaussgeo.cli import VERIFY_THRESHOLDS

import oracles

NS = (1, 2, 3, 5, 8)
WORKLOADS = ("pairs-near", "pairs-far", "flow")

# Op-list sizes: each is a whole number of (n, op kind) cycles, large enough
# that the tail percentile has at least ten ops beyond it.
PAIRS_NEAR_OPS = 90
PAIRS_FAR_OPS = 120
FLOW_OPS = 30

NEAR_NORMS = (0.25, 2.0)
FAR_NORMS = (4.0, 8.0)
# Op types of the pair workloads: (kind, paper-norm range, whether one pair
# per cell shares its mean).  Far targets take no equal-mean pairs: the
# shooting guess solves those exactly, so they would not exercise the damped
# iterations that far targets are there for.
NEAR_TYPES = (("distance", NEAR_NORMS, True), ("midpoint_N", NEAR_NORMS, True), ("interpolate", NEAR_NORMS, True))
FAR_TYPES = (("distance", FAR_NORMS, False), ("midpoint_N", FAR_NORMS, False))
EQUAL_MEAN_REPEAT = 1  # the second op of every near (n, kind) cell shares its mean
MEAN_SHARES = (0.1, 0.9)  # part of the squared tangent norm carried by the mean velocity
INTERP_DEPTH = 3

FLOW_DT = 1e-3
FLOW_STEPS = 2000  # steps of FLOW_DT: 2001 samples on [0, 2]
FLOW_AMBIENT_STRIDE = max(1, FLOW_STEPS // 40)  # as in the CLI's verify

# Oracle tolerances (relative Frobenius).  Shooting converges to a residual of
# 1e-12 in the normalized chart; denormalization and far targets cost a few
# digits, so the gates sit well above what correct outputs reach.
ROUND_TRIP_TOL = 1e-8
ON_GEODESIC_TOL = 1e-8
CLOSED_FORM_TOL = 1e-10

CLI_TIMEOUT_S = 120.0


class CliExitError(RuntimeError):
    """A CLI invocation exited with the package's numerical-failure code."""

    def __init__(self, code: int, stderr: bytes):
        super().__init__(f"exit code {code}: {stderr.decode(errors='replace').strip()[-200:]}")
        self.code = code


# ---------------------------------------------------------------- generators

def random_point(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Covariance with a random eigenbasis and log-eigenvalues in [-1, 1]; normal mean."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = (basis * np.exp(rng.uniform(-1.0, 1.0, n))) @ basis.T
    return 0.5 * (sigma + sigma.T), rng.standard_normal(n)


def random_tangent(rng: np.random.Generator, n: int, norm: float, mean_share: float) -> tuple[np.ndarray, np.ndarray]:
    """Tangent ``(A0, a0)`` of the given paper-metric norm with random directions.

    ``mean_share`` is the part of the squared norm carried by ``a0`` (the
    mean velocity); 0 keeps the mean fixed.
    """
    a_mat = rng.standard_normal((n, n))
    a_mat = 0.5 * (a_mat + a_mat.T)
    a_vec = rng.standard_normal(n)
    a_mat *= norm * np.sqrt((1.0 - mean_share) / 2.0) / np.linalg.norm(a_mat)
    a_vec *= norm * np.sqrt(mean_share / 4.0) / np.linalg.norm(a_vec)
    return a_mat, a_vec


def stratified(rng: np.random.Generator, count: int, period: int, bounds: tuple[float, float]) -> list[float]:
    """Values in ``bounds``, stratified within each of the ``period`` op cells.

    Op ``i`` belongs to cell ``i % period``; the cell's ops take one draw from
    each equal slice of ``bounds`` in a seeded order, so every seed puts about
    the same mix of values on every (n, op kind) cell.  Seeds then differ in
    the directions drawn, not in how much work the op list holds.
    """
    repeats = -(-count // period)
    slots = [rng.permutation(repeats) for _ in range(period)]
    lo, hi = bounds
    return [lo + (hi - lo) * (slots[i % period][i // period] + rng.uniform()) / repeats for i in range(count)]


def _stack(point) -> np.ndarray:
    return np.concatenate([point.sigma.ravel(), point.mu])


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.digest()


# ------------------------------------------------------------- pair workloads

class PairOp:
    """``distance``, ``midpoint_N`` or ``interpolate`` on a pair ``q = exp_p(xi)``."""

    def __init__(self, kind: str, sigma_p, mu_p, sigma_q, mu_q, equal_mean: bool):
        self.kind = kind
        self.n = len(mu_p)
        self.equal_mean = equal_mean
        self.p = gg.GaussianPoint(sigma_p, mu_p)
        self.q = gg.GaussianPoint(sigma_q, mu_q)
        self._ref = None

    def call(self):
        if self.kind == "distance":
            return gg.distance(self.p, self.q)
        if self.kind == "midpoint_N":
            return gg.midpoint_N(self.p, self.q)
        return gg.interpolate(self.p, self.q, INTERP_DEPTH)

    def fingerprint(self, out) -> bytes:
        if self.kind == "distance":
            return _digest([out])
        points = [out] if self.kind == "midpoint_N" else out
        return _digest(*[_stack(x) for x in points])

    def _on_geodesic(self, point, t: float) -> str | None:
        """Checks ``point`` against the geodesic at time ``t`` by every oracle that applies."""
        p, q = self.p, self.q
        if oracles.rel_err(_stack(point), _stack(gg.exp_map_from(p, self._ref, t))) > ON_GEODESIC_TOL:
            return f"point at t={t:g} is off the geodesic exp_p(t log_p q)"
        if self.equal_mean:
            if oracles.rel_err(point.mu, p.mu) > ON_GEODESIC_TOL:
                return f"point at t={t:g} left the common mean"
            if oracles.rel_err(point.sigma, oracles.equal_mean_geodesic(p.sigma, q.sigma, t)) > ON_GEODESIC_TOL:
                return f"point at t={t:g} misses the equal-mean closed form"
        if self.n == 1:
            whole = oracles.univariate_distance(p.sigma[0, 0], p.mu[0], q.sigma[0, 0], q.mu[0])
            part = oracles.univariate_distance(p.sigma[0, 0], p.mu[0], point.sigma[0, 0], point.mu[0])
            if abs(part - t * whole) > ON_GEODESIC_TOL * max(1.0, whole):
                return f"point at t={t:g} misses the univariate closed-form distance"
        return None

    def check(self, out) -> str | None:
        p, q = self.p, self.q
        if self._ref is None:
            self._ref = gg.log_map(p, q)
        if oracles.rel_err(_stack(gg.exp_map_from(p, self._ref, 1.0)), _stack(q)) > ROUND_TRIP_TOL:
            return "exp_p(log_p q) does not round-trip to q"
        if self.kind == "distance":
            fisher = 0.5 * out  # the default paper convention is exactly twice fisher
            ref_norm = oracles.paper_norm(self._ref.A0, self._ref.a0)
            if not np.isfinite(out) or abs(out - ref_norm) > CLOSED_FORM_TOL * max(1.0, ref_norm):
                return "distance differs from the norm of log_p q"
            if self.n == 1:
                oracle = oracles.univariate_distance(p.sigma[0, 0], p.mu[0], q.sigma[0, 0], q.mu[0])
                if abs(fisher - oracle) > CLOSED_FORM_TOL * max(1.0, oracle):
                    return "distance misses the univariate closed form"
            if self.equal_mean:
                oracle = oracles.equal_mean_distance(p.sigma, q.sigma)
                if abs(fisher - oracle) > CLOSED_FORM_TOL * max(1.0, oracle):
                    return "distance misses the equal-mean closed form"
            return None
        if self.kind == "midpoint_N":
            return self._on_geodesic(out, 0.5)
        count = 2 ** INTERP_DEPTH
        if len(out) != count + 1:
            return f"interpolate returned {len(out)} points, expected {count + 1}"
        if not (np.array_equal(_stack(out[0]), _stack(p)) and np.array_equal(_stack(out[-1]), _stack(q))):
            return "interpolate moved an endpoint"
        for k in range(1, count):
            miss = self._on_geodesic(out[k], k / count)
            if miss:
                return miss
        return None


def _pair_ops(seed: int, count: int, types: tuple) -> list:
    rng = np.random.default_rng(seed)
    period = len(NS) * len(types)
    place_of, share_of = stratified(rng, count, period, (0.0, 1.0)), stratified(rng, count, period, MEAN_SHARES)
    ops = []
    for i in range(count):
        n = NS[i % len(NS)]
        kind, (lo, hi), equal_means = types[i // len(NS) % len(types)]
        equal_mean = equal_means and i // period == EQUAL_MEAN_REPEAT
        sigma_p, mu_p = random_point(rng, n)
        a_mat, a_vec = random_tangent(rng, n, lo + (hi - lo) * place_of[i], 0.0 if equal_mean else share_of[i])
        q = gg.exp_map_from(gg.GaussianPoint(sigma_p, mu_p), gg.Tangent(a_mat, a_vec), 1.0)
        mu_q = mu_p.copy() if equal_mean else q.mu
        ops.append(PairOp(kind, sigma_p, mu_p, q.sigma, mu_q, equal_mean))
    return ops


# --------------------------------------------------------------- flow workload

class FlowOp:
    """The pipeline behind ``gaussgeo verify`` on one unit tangent, over [0, 2]."""

    kind = "verify-pipeline"

    def __init__(self, a_mat, a_vec):
        self.xi = gg.Tangent(a_mat, a_vec)

    def call(self) -> dict:
        xi, h = self.xi, FLOW_DT
        ts = np.linspace(0.0, FLOW_STEPS * h, FLOW_STEPS + 1)
        traj = geo.trajectory(xi, ts)
        samples = lax.integrate("bilinear", xi, float(ts[-1]), dt=h)
        values = {"geodesic_residual": geo.geodesic_residual(traj, h)}
        values["first_integral_drift_a"], values["first_integral_drift_A"] = geo.first_integrals(traj, h)
        ambient = geo.ambient_exponentials(xi, ts[::FLOW_AMBIENT_STRIDE])
        values["exchange_symmetry"] = max(mc.check_special_symmetry(g) for g in ambient)
        values["det_drift"] = max(abs(float(np.linalg.det(g)) - 1.0) for g in ambient)
        values["block_structure"] = max(
            max(mc.special_structure_residuals(*mc.block_cholesky(g)).values()) for g in ambient
        )
        values["lax_commutator_residual"], values["lax_spectral_drift"] = lax.verify_lax(samples, xi.a0, h)
        t_last, state_last = samples[-1]
        values["lax_closed_form_agreement"] = float(
            np.linalg.norm(lax.build_L(state_last, xi.a0) - lax.lax_closed_form(xi, t_last))
        )
        return values

    def fingerprint(self, out) -> bytes:
        return _digest([out[k] for k in sorted(out)])

    def check(self, out) -> str | None:
        failed = [k for k, limit in VERIFY_THRESHOLDS.items() if not out[k] <= limit]
        return f"verify thresholds exceeded: {', '.join(failed)}" if failed else None


def _flow_ops(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    share_of = stratified(rng, count, len(NS), MEAN_SHARES)
    return [FlowOp(*random_tangent(rng, NS[i % len(NS)], 1.0, share_of[i])) for i in range(count)]


# ------------------------------------------- CLI subcommands (traced runs)

# (op name, subcommand arguments, input kind)
CLI_COMMANDS = (
    ("shoot", ["shoot", "--steps", "2000"], "tangent"),
    ("log", ["log"], "pair"),
    ("dist", ["dist"], "pair"),
    ("midpoint", ["midpoint"], "pair"),
    ("interp", ["interp", "--depth", str(INTERP_DEPTH)], "pair"),
    ("lax-bilinear", ["lax", "--rhs", "bilinear"], "tangent"),
    ("lax-riccati", ["lax", "--rhs", "riccati"], "tangent"),
    ("verify", ["verify"], "tangent"),
    ("fisher-check", ["fisher-check"], "dim"),
)
CLI_CSV_ROWS = {"shoot": 2001, "lax-bilinear": 1001, "lax-riccati": 1001}  # t_end 1, default dt 1e-3
FISHER_MAX_N = 3  # the quadrature oracle is limited to n <= 3


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class CliOp:
    """One ``python -m gaussgeo.cli`` invocation on a seeded input file."""

    def __init__(self, kind: str, argv: list[str], input_path: Path, root: Path, covariances=None):
        self.kind = kind
        self.argv = [sys.executable, "-m", "gaussgeo.cli", *argv, "--input", str(input_path)]
        self.root = root
        self.env = cli_env(root)
        self.covariances = covariances  # (sigma_p, sigma_q) of an equal-mean pair, for dist
        self.out_bytes = 0  # stdout size of the last invocation

    def call(self) -> tuple[int, bytes]:
        proc = subprocess.run(self.argv, cwd=self.root, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
        self.out_bytes = len(proc.stdout)
        if proc.returncode == 3:  # the package's "numerical failure": it declined to answer
            raise CliExitError(proc.returncode, proc.stderr)
        return proc.returncode, proc.stdout

    def fingerprint(self, out) -> bytes:
        return out[0].to_bytes(2, "little") + hashlib.sha256(out[1]).digest()

    def check(self, out) -> str | None:
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        text = stdout.decode("utf-8", errors="strict")
        if self.kind in CLI_CSV_ROWS:
            rows = list(csv.reader(io.StringIO(text)))
            if len(rows) != CLI_CSV_ROWS[self.kind] + 1:
                return f"{len(rows) - 1} CSV rows, expected {CLI_CSV_ROWS[self.kind]}"
            try:
                np.array(rows[1:], dtype=float)
            except ValueError:
                return "CSV body is not numeric"
            return None
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        if report.get("command") != self.argv[3] or "results" not in report:
            return "JSON report lacks its command or results"
        if self.covariances is not None:
            fisher = 0.5 * float(report["results"]["distance"])  # the default paper convention is twice fisher
            oracle = oracles.equal_mean_distance(*self.covariances)
            if abs(fisher - oracle) > CLOSED_FORM_TOL * max(1.0, oracle):
                return "dist misses the equal-mean closed form"
        return None


def _point_json(sigma, mu) -> dict:
    return {"n": len(mu), "sigma": sigma.tolist(), "mu": mu.tolist()}


def cli_ops(seed: int, root: Path, extra_args: dict | None = None) -> list:
    """One invocation of every subcommand on seeded input files, n cycling as in the workloads."""
    rng = np.random.default_rng(seed)
    inputs = root / ".perfbench" / "cli-inputs" / f"seed{seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, (kind, argv, input_kind) in enumerate(CLI_COMMANDS):
        n = NS[i % len(NS)]
        covariances = None
        if input_kind == "pair":
            equal_mean = kind == "dist"  # so that dist meets the equal-mean closed form
            sigma_p, mu_p = random_point(rng, n)
            share = 0.0 if equal_mean else rng.uniform(*MEAN_SHARES)
            a_mat, a_vec = random_tangent(rng, n, rng.uniform(*NEAR_NORMS), share)
            q = gg.exp_map_from(gg.GaussianPoint(sigma_p, mu_p), gg.Tangent(a_mat, a_vec), 1.0)
            mu_q = mu_p.copy() if equal_mean else q.mu
            covariances = (sigma_p, q.sigma) if equal_mean else None
            doc = {"p": _point_json(sigma_p, mu_p), "q": _point_json(q.sigma, mu_q)}
        elif input_kind == "tangent":
            a_mat, a_vec = random_tangent(rng, n, 1.0, rng.uniform(*MEAN_SHARES))
            doc = {"tangent": {"n": n, "A0": a_mat.tolist(), "a0": a_vec.tolist()}, "t_end": 1.0}
            if kind == "shoot":
                doc["point"] = _point_json(*random_point(rng, n))
        else:
            doc = {"n": min(n, FISHER_MAX_N)}
        path = inputs / f"op{i:03d}-{kind}.json"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
        ops.append(CliOp(kind, argv + (extra_args or {}).get(kind, []), path, root, covariances))
    return ops


def build(workload: str, seed: int, root: Path) -> list:
    """The fixed op list of ``workload`` for ``seed``."""
    if workload == "pairs-near":
        return _pair_ops(seed, PAIRS_NEAR_OPS, NEAR_TYPES)
    if workload == "pairs-far":
        return _pair_ops(seed, PAIRS_FAR_OPS, FAR_TYPES)
    if workload == "flow":
        return _flow_ops(seed, FLOW_OPS)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
