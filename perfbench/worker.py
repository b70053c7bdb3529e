"""One benchmark process: set up a workload, run whole passes over its op list, report raw results.

Started by ``run.py``; prints one JSON object as its last stdout line.  With
``--setup-only`` it stops after set-up (imports, input generation and one
untimed warm-up op) and reports only the moment it became ready, so that the
parent can time set-up in several fresh processes.

Other tenants of a shared machine slow it down by 20 to 60% for stretches of
seconds to minutes, and such a slowdown hits a whole run, so the fastest of
an op's repeats is slowed too.  Each run of an op is therefore paired with a
run of a fixed reference kernel just before it.  The kernel does not touch
the package; it mixes small dense linear algebra with object churn, like the
package's own work.  An op's latency is the median over its runs of
``op time / kernel time``, scaled by ``REFERENCE_S``: the latency the op
would have on a machine where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from run import THREAD_ENV

ROOT = Path(__file__).resolve().parent.parent

# Pin the BLAS/OpenMP pools before numpy loads, also when started on its own.
for _name, _value in THREAD_ENV.items():
    os.environ.setdefault(_name, _value)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import monotonic, perf_counter  # noqa: E402

import numpy as np  # noqa: E402

MIN_PASSES = 2  # every op runs at least twice, so repeats can be compared
TRACED_PASSES = 1  # a traced pass keeps up to ~100 MB of spans; one keeps traced runs short
STARTUP_REPEATS = 5
REFERENCE_S = 3.0e-3  # about the reference kernel's time on a quiet 2-core Xeon machine
SETUP_REFERENCE_RUNS = 5
LAYER_PREFIXES = ("matcore", "manifold", "sympair", "geodesic", "ahm", "laxflow")


@dataclass(frozen=True)
class _Sample:
    a: np.ndarray
    x: np.ndarray


_REFERENCE_MATRIX = np.add.outer(np.arange(7.0), np.arange(7.0)) % 5.0 + 20.0 * np.eye(7)


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of small dense algebra and object churn."""
    start = perf_counter()
    kept = []
    for k in range(60):
        a = _REFERENCE_MATRIX + (0.01 * k) * np.eye(7)
        w, v = np.linalg.eigh(a)
        x = np.linalg.solve(np.linalg.cholesky(a), v[:, 0])
        kept.append(_Sample(0.5 * (a + a.T), x * w[-1]))
    return perf_counter() - start


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import gaussgeo

    if Path(gaussgeo.__file__).resolve().parent != ROOT / "src" / "gaussgeo":
        raise SystemExit(f"gaussgeo was imported from {gaussgeo.__file__}, not from src/ of this checkout")
    return gaussgeo


def scaled_latency(ratios: list[float]) -> float:
    return statistics.median(ratios) * REFERENCE_S


def run_passes(ops: list, seconds: float, tracer=None) -> dict:
    """Runs whole passes over ``ops`` until ``seconds`` have passed; returns latencies and failures.

    Untraced runs make at least ``MIN_PASSES`` passes and stop at the
    deadline, mid-pass if need be.  Traced runs alternate untraced and
    traced passes, ``TRACED_PASSES`` of each.  Every execution is gated: the
    first one of an op by ``op.check``, each later one by comparing its
    fingerprint with the previous execution of the same op.  An op fails if
    any of its executions raises or misses its gate; failures are counted
    per op, so they repeat exactly however often the op ran.
    """
    raw = {False: [[] for _ in ops], True: [[] for _ in ops]}  # seconds
    ratio = {False: [[] for _ in ops], True: [[] for _ in ops]}  # op time / reference kernel time
    previous = [None] * len(ops)  # (fingerprint, verdict) of the op's last successful execution
    failure = [None] * len(ops)  # (kind, reason) of the op's first failed execution
    warned = [None] * len(ops)  # RuntimeWarnings of the op's first execution
    executions = passes = 0
    summaries, kept_spans = [], None
    deadline = monotonic() + seconds
    while (passes < 2 * TRACED_PASSES) if tracer is not None else (passes < MIN_PASSES or monotonic() < deadline):
        traced = tracer is not None and passes % 2 == 1
        for i, op in enumerate(ops):
            if tracer is None and passes >= MIN_PASSES and monotonic() >= deadline:
                break
            reference = reference_kernel()
            if traced:
                tracer.op = i
                tracer.install()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = perf_counter()
                try:
                    out, error = op.call(), None
                except Exception as exc:  # tallied by type; the run goes on
                    out, error = None, exc
                elapsed = perf_counter() - t0
            if traced:
                tracer.uninstall()
            raw[traced][i].append(elapsed)
            ratio[traced][i].append(elapsed / reference)
            executions += 1
            if warned[i] is None:
                warned[i] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
            if error is not None:
                code = getattr(error, "code", None)
                failure[i] = failure[i] or ("error", f"exit{code}" if code is not None else type(error).__name__)
                continue
            fingerprint = op.fingerprint(out)
            if previous[i] is None:
                try:
                    verdict = op.check(out)
                except Exception as exc:
                    verdict = f"oracle raised {type(exc).__name__}: {exc}"
            elif fingerprint != previous[i][0]:
                verdict = "output differs from the previous run on the same input"
            else:
                verdict = previous[i][1]
            previous[i] = (fingerprint, verdict)
            if verdict:
                failure[i] = failure[i] or ("wrong", f"{op.kind}: {verdict}")
        if traced:
            spans, counters = tracer.take()
            summary = tracer.summarize(spans)
            summary["counters"] = dict(counters)
            summary["wall_s"] = sum(samples[-1] for samples in raw[True])
            summaries.append(summary)
            if kept_spans is None:
                kept_spans = spans
            del spans
        passes += 1
    return {
        "executions": executions,
        "raw": raw,
        "ratio": ratio,
        "errors": Counter(reason for kind, reason in filter(None, failure) if kind == "error"),
        "wrong": Counter(reason for kind, reason in filter(None, failure) if kind == "wrong"),
        "runtime_warnings": sum(warned),
        "summaries": summaries,
        "kept_spans": kept_spans,
    }


def startup_seconds() -> tuple[float, float]:
    """Fastest wall time of ``python -c pass``, and what ``import gaussgeo`` adds to it."""
    import workloads

    env = workloads.cli_env(ROOT)

    def fastest(code: str) -> float:
        times = []
        for _ in range(STARTUP_REPEATS):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
            times.append(perf_counter() - t0)
        return min(times)

    bare = fastest("pass")
    return bare, fastest("import gaussgeo") - bare


def layer_metrics(result: dict, ops: list, cli: dict, cli_ops: list) -> dict:
    """The per-layer table: exact call counts per pass over the op list, times in ms per op."""
    summaries = result["summaries"]
    first = summaries[0]
    n_ops = len(ops)

    def field(name: str, key: str):
        return first["names"].get(name, {}).get(key, 0)

    def per_op_ms(name: str, key: str) -> float:
        return min(s["names"].get(name, {}).get(key, 0.0) for s in summaries) * 1e3 / n_ops

    metrics = {}
    for name in ("matcore.require_symmetric", "matcore.sym_eigen", "matcore.block_cholesky", "matcore.spd_power",
                 "matcore.check_special_symmetry", "manifold.GaussianPoint", "manifold.embed", "manifold.unembed",
                 "sympair.submersion_project", "geodesic.exp_map"):
        metrics[f"{name}.calls"] = field(name, "calls")
        metrics[f"{name}.self_ms"] = per_op_ms(name, "self_s")
    for name in ("manifold.normalize_to_identity", "sympair.horizontal_lift", "geodesic.log_map"):
        metrics[f"{name}.calls"] = field(name, "calls")
    for name in ("geodesic.log_map", "geodesic.trajectory", "geodesic.geodesic_residual", "geodesic.first_integrals",
                 "ahm.midpoint_N", "ahm.interpolate", "laxflow.integrate", "laxflow.verify_lax",
                 "laxflow.lax_closed_form"):
        metrics[f"{name}.total_ms"] = per_op_ms(name, "total_s")
    logs, interps = field("geodesic.log_map", "calls"), field("ahm.interpolate", "outer_calls")
    metrics["geodesic.log_map.failed"] = field("geodesic.log_map", "failed")
    metrics["geodesic.exp_per_log"] = first["exp_under_log"] / logs if logs else 0.0
    metrics["ahm.ahm_sequence.iters"] = first["counters"].get("ahm.ahm_sequence.iters", 0)
    metrics["ahm.log_per_interpolate"] = first["log_under_interp"] / interps if interps else 0.0
    metrics["laxflow.integrate.steps"] = first["counters"].get("laxflow.integrate.steps", 0)
    metrics["laxflow.rhs_evals"] = field("laxflow.rhs_bilinear", "calls") + field("laxflow.rhs_riccati", "calls")
    for layer in LAYER_PREFIXES:
        metrics[f"{layer}.self_ms"] = min(
            sum(stats["self_s"] for name, stats in s["names"].items() if name.startswith(layer + "."))
            for s in summaries
        ) * 1e3 / n_ops

    untraced = sum(scaled_latency(r) for r in result["ratio"][False])
    traced = sum(scaled_latency(r) for r in result["ratio"][True])
    metrics["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    metrics["trace.coverage_pct"] = statistics.median(s["covered_s"] / s["wall_s"] for s in summaries) * 100.0

    # The CLI layer: each subcommand in a child process, out of the tracer's reach.
    for op, ratios in zip(cli_ops, cli["ratio"][False]):
        metrics[f"cli.{op.kind}.ms"] = scaled_latency(ratios) * 1e3
        metrics[f"cli.{op.kind}.out_bytes"] = op.out_bytes
    metrics["cli.interpreter_s"], metrics["cli.import_s"] = startup_seconds()
    return metrics


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_package()
    import workloads

    ops = workloads.build(args.workload, args.seed, ROOT)
    try:  # warm-up: lazy imports and first-touch allocations
        ops[0].call()
    except Exception:  # a failing op is tallied when the passes run it
        pass
    ready = monotonic()
    # The machine's speed at set-up time, so that run.py can scale set-up like the op latencies.
    setup_reference = statistics.median(reference_kernel() for _ in range(SETUP_REFERENCE_RUNS))
    setup_scale = REFERENCE_S / setup_reference
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    result = run_passes(ops, args.seconds, tracer)
    report = {
        "ready": ready,
        "setup_scale": setup_scale,
        "env": environment(),
        "n_ops": len(ops),
        "executions": result["executions"],
        "latency_s": [scaled_latency(r) for r in result["ratio"][False]],
        "raw_latency_s": [min(r) for r in result["raw"][False]],
        "errors": dict(result["errors"]),
        "wrong": dict(result["wrong"]),
        "runtime_warnings": result["runtime_warnings"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        cli_ops = workloads.cli_ops(args.seed, ROOT)
        cli = run_passes(cli_ops, 0.0)
        report["layers"] = layer_metrics(result, ops, cli, cli_ops)
        report["n_ops"] += len(cli_ops)
        report["executions"] += cli["executions"]
        for key in ("errors", "wrong"):
            for reason, count in cli[key].items():
                report[key][f"cli {reason}"] = report[key].get(f"cli {reason}", 0) + count
        report["runtime_warnings"] += cli["runtime_warnings"]
        spans_path = ROOT / ".perfbench" / "spans" / f"{args.workload}.csv.gz"
        tracer.write(spans_path, result["kept_spans"])
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
