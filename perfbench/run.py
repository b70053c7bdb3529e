"""gaussgeo benchmark: seeded workloads, end-to-end metrics, and a traced per-layer table.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pairs-near --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload, both tables

One closed-loop client drives the package: the next op starts when the
previous one has returned, with BLAS and OpenMP pinned to one thread here and
in every child.  Set-up is timed in ``SETUP_RUNS`` fresh worker processes
(the last one goes on to measure), and the reported ``setup_s`` is their
median.

Times are scaled to a reference machine speed: every op run is paired with
a run of a fixed reference kernel just before it (see worker.py), so that
other tenants' load, which slows a shared machine by 20 to 60% for minutes
at a time, cancels out.  An op's latency is the median of its paired runs.
``op_p50_ms`` and ``op_tail_ms`` are percentiles over the ops of the fixed op
list; ``ops_per_s`` is successful ops per second of one pass over the list at
those latencies; ``ok_frac`` is the share of ops that neither raised nor
missed a correctness gate in any of their runs.  The unscaled figures go to
the record.

The last stdout line is the JSON result; the lines above it print every
metric by name and unit.  The full record, with the environment, failure
tallies and the tail percentile, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("pairs-near", "pairs-far", "flow")
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_RUNS = 5
TAIL_BEYOND = 10  # the tail percentile is the highest with at least this many ops beyond it
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Runs one worker; returns its report and its scaled set-up time (spawn to ready)."""
    spawned = monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    try:
        report = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker {' '.join(args)} printed no result") from exc
    # Set-up is scaled by the machine's speed like the op latencies (see worker.py).
    return report, (report["ready"] - spawned) * report["setup_scale"]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with ``TAIL_BEYOND`` values beyond it."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        raise BenchError(f"{len(values)} ops are too few for a tail with {TAIL_BEYOND} beyond it")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Measures one workload; returns the result object (the last stdout line) and the full record."""
    spec = load_spec()
    deadline = monotonic() + DEADLINE_S
    if not (ROOT / "src" / "gaussgeo" / "__init__.py").is_file():
        raise BenchError("src/gaussgeo is missing: run from the root of a gaussgeo checkout")
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(spawn(base + ["--setup-only"], deadline)[1])
    report, setup = spawn(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(setup)

    latency = report["latency_s"]
    errors, wrong = sum(report["errors"].values()), sum(report["wrong"].values())
    attempted = report["n_ops"]
    ok_frac = (attempted - errors - wrong) / attempted
    tail_s, tail_pct = tail(latency)
    measured = report["layers"] if trace else {
        "setup_s": statistics.median(setups),
        "ops_per_s": ok_frac * len(latency) / sum(latency),
        "op_p50_ms": statistics.median(latency) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ok_frac": ok_frac,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    table = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in table if m["name"] not in measured]
    if missing:
        raise BenchError(f"no value for metric(s) {', '.join(missing)}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": errors + wrong,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in table},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "result": result,
        "ops": report["n_ops"], "executions": report["executions"],
        "tail_percentile": tail_pct, "tail_samples": len(latency),
        "setup_samples_s": setups,
        "raw_op_p50_ms": statistics.median(report["raw_latency_s"]) * 1e3,
        "raw_op_tail_ms": tail(report["raw_latency_s"])[0] * 1e3,
        "raw_ops_per_s": ok_frac * len(latency) / sum(report["raw_latency_s"]),
        "errors_by_type": report["errors"], "wrong_answers": report["wrong"],
        "runtime_warnings": report["runtime_warnings"],
        "env": {**report["env"], "platform": platform.platform(), "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)), "git_sha": git_sha()},
    }
    if trace:
        record["spans_file"] = report["spans_file"]
    out = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return result, record


def describe(record: dict) -> list[str]:
    env = record["env"]
    result = record["result"]
    lines = [
        f"# {record['workload']} seed={record['seed']} trace={record['trace']}: {record['ops']} ops, "
        f"{record['executions'] / record['ops']:.2f} runs per op; "
        f"tail = p{record['tail_percentile']:.1f} of {record['tail_samples']} per-op times",
        f"#   ops failed {result['failed']} of {result['attempted']} (errors {record['errors_by_type']}, "
        f"wrong answers {record['wrong_answers']}), RuntimeWarnings in first runs {record['runtime_warnings']}",
        f"#   python {env['python']}, numpy {env['numpy']}, {env['blas']}, nproc {env['nproc']}, "
        f"threads {sorted(set(env['threads'].values()))}, git {env['git_sha']}",
    ]
    lines += [f"{name:40s} {m['value']:>14.6g} {m['unit']}" for name, m in result["metrics"].items()]
    return lines


def run_all(seed: int, seconds: float) -> None:
    """Prints both tables for every workload: end-to-end metrics, then the per-layer table."""
    spec = load_spec()
    layers = {}
    for workload in WORKLOADS:
        record = run_one(workload, seed, seconds, 0)[1]
        print("\n".join(describe(record)), flush=True)
        layers[workload] = run_one(workload, seed, seconds, 1)[0]["metrics"]
    print(f"\n{'per-layer metric':40s} " + " ".join(f"{w:>12s}" for w in WORKLOADS) + "  unit")
    for m in spec["per_layer"]:
        values = " ".join(f"{layers[w][m['name']]['value']:>12.5g}" for w in WORKLOADS)
        print(f"{m['name']:40s} {values}  {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer table from a traced run instead")
    args = parser.parse_args(argv)
    os.environ.update(THREAD_ENV)
    try:
        if args.workload == "all":
            run_all(args.seed, args.seconds)
            return 0
        result, record = run_one(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(describe(record)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
