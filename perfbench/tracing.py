"""Span tracing of calls into the package's public functions, installed from outside.

The package modules import names from one another (``from .matcore import
sym``), so a wrapper placed only in the defining module would miss the calls
made through every other module.  The tracer therefore swaps the same
wrapper into every gaussgeo namespace that binds a public function, and wraps
``__post_init__`` of each validating dataclass so that constructing, say, a
``GaussianPoint`` is a span of its own.

Spans are kept in memory as ``(name id, start, end, parent index, op id,
failed, outermost)`` tuples; ``outermost`` is false for a call nested inside
another call of the same function.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("matcore", "manifold", "sympair", "geodesic", "ahm", "laxflow", "cli")

# Work counts read off a function's result: (span name, counter name, count).
RESULT_COUNTERS = {
    "ahm.ahm_sequence": ("ahm.ahm_sequence.iters", lambda pairs: len(pairs) - 1),
    "laxflow.integrate": ("laxflow.integrate.steps", lambda samples: len(samples) - 1),
}


class Tracer:
    """Records spans of public gaussgeo calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original, wrapper)
        self._find_targets()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that each call records one span named ``name``."""
        nid = self._name_id(name)
        spans, stack, depth, counters = self.spans, self._stack, self._depth, self.counters
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            depth[nid] += 1
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                depth[nid] -= 1
                spans[index] = (nid, start, end, parent, self.op, failed, depth[nid] == 0)
            if counter is not None:
                counters[counter[0]] += counter[1](result)
            return result

        return traced

    def _find_targets(self) -> None:
        package = importlib.import_module("gaussgeo")
        modules = {layer: importlib.import_module(f"gaussgeo.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original function) -> (original, wrapper)
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    original = vars(obj)["__post_init__"]
                    self._patches.append((obj, "__post_init__", original, self.wrap(f"{layer}.{attr}", original)))
        for namespace in (package, *modules.values()):
            for attr, obj in vars(namespace).items():
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((namespace, attr, obj, entry[1]))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def take(self) -> tuple[list, Counter]:
        """Hands over the spans and counters recorded so far and starts afresh."""
        spans, counters = list(self.spans), Counter(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters

    def summarize(self, spans: list) -> dict:
        """Per-name calls, self and outermost seconds, failures, and nesting counts of ``spans``."""
        k = len(self.names)
        calls, outer_calls, failed = [0] * k, [0] * k, [0] * k
        self_s, total_s = [0.0] * k, [0.0] * k
        child = [0.0] * len(spans)
        for nid, start, end, parent, _op, _failed, _outer in spans:
            if parent >= 0:
                child[parent] += end - start
        log_id = self._ids.get("geodesic.log_map", -1)
        interp_id = self._ids.get("ahm.interpolate", -1)
        under_log = [False] * len(spans)
        under_interp = [False] * len(spans)
        covered = 0.0
        nested = Counter()
        for i, (nid, start, end, parent, _op, span_failed, outer) in enumerate(spans):
            duration = end - start
            calls[nid] += 1
            failed[nid] += span_failed
            self_s[nid] += duration - child[i]
            if outer:
                outer_calls[nid] += 1
                total_s[nid] += duration
            if parent < 0:
                covered += duration
                continue
            pid = spans[parent][0]
            under_log[i] = under_log[parent] or pid == log_id
            under_interp[i] = under_interp[parent] or pid == interp_id
            if under_log[i]:
                nested[("under_log", nid)] += 1
            if under_interp[i]:
                nested[("under_interp", nid)] += 1
        by_name = {name: {"calls": calls[i], "outer_calls": outer_calls[i], "self_s": self_s[i],
                          "total_s": total_s[i], "failed": failed[i]}
                   for i, name in enumerate(self.names)}
        return {
            "names": by_name,
            "covered_s": covered,
            "exp_under_log": nested[("under_log", self._ids.get("geodesic.exp_map", -1))],
            "log_under_interp": nested[("under_interp", log_id)],
        }

    def write(self, path: Path, spans: list) -> None:
        """Writes ``spans`` as gzipped CSV, times in microseconds from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = spans[0][1] if spans else 0.0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1, newline="") as fh:
            fh.write("index,name,start_us,end_us,parent,op,failed,outermost\n")
            fh.writelines(
                f"{i},{names[s[0]]},{(s[1] - origin) * 1e6:.3f},{(s[2] - origin) * 1e6:.3f},{s[3]},{s[4]},"
                f"{int(s[5])},{int(s[6])}\n"
                for i, s in enumerate(spans)
            )
