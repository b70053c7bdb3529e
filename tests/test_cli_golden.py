"""Golden outputs of every CLI subcommand at n = 1, 2, 3, and of ``verify`` at n = 5, 8.

Each fixture under ``tests/golden/`` holds the argv, the input JSON, the exit
code and the standard output of one run.  The test replays the run and
compares exit codes, JSON keys, CSV headers and row counts exactly, and
every number within ``GOLDEN_REL`` of the largest number in the stored
output.  The subcommands that never run the log solver (``shoot``, ``lax``,
``verify`` and ``fisher-check``) must also match byte for byte.  Running
this file as a script writes the fixtures that are missing, from the current
source; it rewrites an existing fixture only when its name is given::

    PYTHONPATH=src python tests/test_cli_golden.py                 # missing fixtures only
    PYTHONPATH=src python tests/test_cli_golden.py log_n1 dist_n2  # also rewrite these two
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gaussgeo.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_REL = 1e-12
# fixtures whose stdout is also pinned byte for byte
BYTE_EXACT = ("shoot_", "lax_", "verify_", "fisher-check_")


def _spd(rng, n, scale=0.5):
    a = rng.standard_normal((n, n))
    w, v = np.linalg.eigh(0.5 * scale * (a + a.T))
    return ((v * np.exp(w)) @ v.T).tolist()


def _point(rng, n):
    return {"n": n, "sigma": _spd(rng, n), "mu": (0.5 * rng.standard_normal(n)).tolist()}


def _tangent(rng, n):
    a = rng.standard_normal((n, n))
    return {"n": n, "A0": (0.25 * (a + a.T)).tolist(), "a0": (0.5 * rng.standard_normal(n)).tolist()}


def _unit_tangent(rng, n):
    """A tangent of unit paper norm, sqrt(2 (|A0|^2 + 2 |a0|^2)) = 1."""
    xi = _tangent(rng, n)
    a_mat, a_vec = np.array(xi["A0"]), np.array(xi["a0"])
    c = 1.0 / np.sqrt(2.0 * (np.sum(a_mat**2) + 2.0 * np.sum(a_vec**2)))
    return {"n": n, "A0": (c * a_mat).tolist(), "a0": (c * a_vec).tolist()}


def _cases():
    """(name, argv, input) for each subcommand at n = 1, 2, 3, and for ``verify`` at n = 5, 8, from fixed seeds."""
    rng = np.random.default_rng(2024)
    out = []
    for n in (1, 2, 3):
        pair = {"p": _point(rng, n), "q": _point(rng, n)}
        metric = ["--metric", "fisher"] if n == 2 else []
        rhs = ["--rhs", "riccati"] if n == 2 else []
        verify_in = {"n": n, "t_end": 0.1} if n == 2 else {"tangent": _tangent(rng, n), "t_end": 0.1}
        out += [
            (f"shoot_n{n}", ["shoot", "--steps", "4"], {"tangent": _tangent(rng, n), "point": _point(rng, n), "t_end": 1.5}),
            (f"log_n{n}", ["log"], pair),
            (f"dist_n{n}", ["dist", *metric], pair),
            (f"midpoint_n{n}", ["midpoint"], pair),
            (f"interp_n{n}", ["interp"], {**pair, "depth": 2}),
            (f"lax_n{n}", ["lax", "--dt", "0.01", *rhs], {"tangent": _tangent(rng, n), "t_end": 0.05}),
            (f"verify_n{n}", ["verify", "--seed", "7"], verify_in),
            (f"verify_perturb_n{n}", ["verify", "--seed", "7", "--perturb", "1e-3"], verify_in),
            (f"fisher-check_n{n}", ["fisher-check"], {"n": n}),
        ]
    # larger orders from their own seed, so the cases above keep their inputs
    rng = np.random.default_rng(2025)
    for n in (5, 8):
        out.append((f"verify_n{n}", ["verify", "--seed", "7"], {"tangent": _unit_tangent(rng, n), "t_end": 0.1}))
    return out


def _run(argv, obj, tmp_dir: Path):
    path = tmp_dir / "input.json"
    path.write_text(json.dumps(obj))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--input", str(path)])
    return code, out.getvalue()


def _parse(text: str):
    """JSON reports parse to their object; CSV output to (header, rows of floats)."""
    if text.startswith("{"):
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _numbers(obj):
    if obj is None or isinstance(obj, (bool, str)):
        return []
    if isinstance(obj, (int, float)):
        return [abs(float(obj))]
    items = obj.values() if isinstance(obj, dict) else obj
    return [x for item in items for x in _numbers(item)]


def _compare(got, want, tol: float, where: str = "$") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _compare(got[key], want[key], tol, f"{where}.{key}")
    elif isinstance(want, (list, tuple)):
        assert isinstance(got, (list, tuple)) and len(got) == len(want), f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, tol, f"{where}[{i}]")
    elif isinstance(want, (bool, str)) or want is None:
        assert got == want, f"{where}: {got!r} != {want!r}"
    else:
        assert not isinstance(got, (bool, str)), f"{where}: expected a number, got {got!r}"
        assert abs(got - want) <= tol, f"{where}: {got!r} differs from {want!r} by more than {tol:.3e}"


FIXTURES = sorted(GOLDEN_DIR.glob("*.json"))


def test_every_subcommand_has_fixtures():
    names = {path.stem for path in FIXTURES}
    assert names == {name for name, _, _ in _cases()}


@pytest.mark.parametrize("path", FIXTURES, ids=[path.stem for path in FIXTURES])
def test_matches_golden(path, tmp_path):
    fixture = json.loads(path.read_text())
    code, out = _run(fixture["argv"], fixture["input"], tmp_path)
    assert code == fixture["exit"]
    want = _parse(fixture["stdout"])
    tol = GOLDEN_REL * max([1.0, *_numbers(want)])
    _compare(_parse(out), want, tol)
    if path.stem.startswith(BYTE_EXACT):
        assert out == fixture["stdout"]


def _write_fixtures(directory: Path, rewrite=frozenset(), cases=None) -> list[str]:
    """Write the fixtures missing from ``directory``, and rewrite those named in ``rewrite``; returns the names written."""
    cases = _cases() if cases is None else cases
    unknown = set(rewrite) - {name for name, _, _ in cases}
    if unknown:
        raise ValueError(f"no such fixture: {', '.join(sorted(unknown))}")
    directory.mkdir(exist_ok=True)
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, obj in cases:
            path = directory / f"{name}.json"
            if path.exists() and name not in rewrite:
                continue
            code, out = _run(argv, obj, Path(tmp))
            path.write_text(json.dumps({"argv": argv, "input": obj, "exit": code, "stdout": out}, indent=1) + "\n")
            written.append(name)
    return written


def test_writer_keeps_existing_fixtures(tmp_path):
    cases = [case for case in _cases() if case[0] in ("log_n1", "shoot_n1", "fisher-check_n1")]
    assert sorted(_write_fixtures(tmp_path, cases=cases)) == ["fisher-check_n1", "log_n1", "shoot_n1"]
    for name in ("log_n1", "shoot_n1"):
        (tmp_path / f"{name}.json").write_text("kept")
    assert _write_fixtures(tmp_path, cases=cases) == []
    assert _write_fixtures(tmp_path, {"shoot_n1"}, cases=cases) == ["shoot_n1"]
    assert (tmp_path / "log_n1.json").read_text() == "kept"
    assert (tmp_path / "shoot_n1.json").read_text() == (GOLDEN_DIR / "shoot_n1.json").read_text()
    with pytest.raises(ValueError, match="^no such fixture: log_n9$"):
        _write_fixtures(tmp_path, {"log_n9"}, cases=cases)


if __name__ == "__main__":
    import sys

    try:
        for name in _write_fixtures(GOLDEN_DIR, set(sys.argv[1:])):
            print(f"wrote {name}")
    except ValueError as exc:
        sys.exit(str(exc))
