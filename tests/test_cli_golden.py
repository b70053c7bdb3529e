"""Golden outputs of every CLI subcommand at n = 1, 2, 3, of ``verify`` at n = 5, 8, and of ``lax`` on a signed zero.

Each fixture under ``tests/golden/`` holds the argv, the input JSON, the exit
code and the standard output of one run.  The test replays the run and
compares exit codes, JSON keys, CSV headers and row counts exactly, and
every number within ``GOLDEN_REL`` of the largest number in the stored
output.  The subcommands that never run the log solver (``shoot``, ``lax``,
``verify`` and ``fisher-check``) must also match byte for byte.  Running
this file as a script writes the fixtures that are missing, from the current
source; it rewrites an existing fixture only when its name is given.  With
``--check`` it writes nothing: it reruns every case in memory and lists the
fixtures that are missing or whose stored run (exit code or stdout, to the
byte) would change, exiting with status 1 if there are any.  For each it
says whether the exit code, the JSON keys or the CSV shape changed, and how
far the largest number moved, as a multiple of the tolerance the replay
test applies::

    PYTHONPATH=src python tests/test_cli_golden.py                 # missing fixtures only
    PYTHONPATH=src python tests/test_cli_golden.py log_n1 dist_n2  # also rewrite these two
    PYTHONPATH=src python tests/test_cli_golden.py --check         # list changed fixtures, write none
"""

import contextlib
import csv
import io
import json
import math
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
    """(name, argv, input) for each subcommand at n = 1, 2, 3, and for ``verify`` at n = 5, 8, from fixed seeds; then ``lax_zero_n1``."""
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
    # a stationary flow whose Q_11 is -0.0: the CSV keeps the sign at every sample
    zero = {"n": 1, "A0": [[-0.0]], "a0": [0.0]}
    out.append(("lax_zero_n1", ["lax", "--dt", "0.01"], {"tangent": zero, "t_end": 0.03}))
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


def _tolerance(want) -> float:
    """The absolute tolerance for every number of a stored output: ``GOLDEN_REL`` times its largest number (at least 1)."""
    return GOLDEN_REL * max([1.0, *_numbers(want)])


def _compare(got, want, tol: float, where: str = "$") -> float:
    """Assert ``got`` has the keys and lengths of ``want`` and each number within ``tol`` of it; returns the largest move."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        return max([0.0, *(_compare(got[key], want[key], tol, f"{where}.{key}") for key in want)])
    if isinstance(want, (list, tuple)):
        assert isinstance(got, (list, tuple)) and len(got) == len(want), f"{where}: length differs"
        return max([0.0, *(_compare(g, w, tol, f"{where}[{i}]") for i, (g, w) in enumerate(zip(got, want)))])
    if isinstance(want, (bool, str)) or want is None:
        assert got == want, f"{where}: {got!r} != {want!r}"
        return 0.0
    assert not isinstance(got, (bool, str)), f"{where}: expected a number, got {got!r}"
    move = abs(got - want)
    assert move <= tol, f"{where}: {got!r} differs from {want!r} by more than {tol:.3e}"
    return move


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
    _compare(_parse(out), want, _tolerance(want))
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


def _describe_change(stored: dict, fresh: dict) -> str:
    """How a fresh run differs from a stored one: its exit code, its JSON keys or CSV shape, and its largest numeric move as a multiple of ``_tolerance``."""
    parts = ["exit code same" if fresh["exit"] == stored["exit"] else f"exit code {stored['exit']} -> {fresh['exit']}"]
    want = _parse(stored["stdout"])
    shape = "JSON keys" if isinstance(want, dict) else "CSV shape"
    try:
        move = _compare(_parse(fresh["stdout"]), want, math.inf)
    except (AssertionError, ValueError, IndexError) as exc:
        return ", ".join([*parts, f"{shape} changed ({str(exc).splitlines()[0]})"])
    return ", ".join([*parts, f"{shape} same", f"largest move {move / _tolerance(want):.2g} x tolerance"])


def _fixture_changes(directory: Path, cases=None) -> dict[str, str]:
    """Each fixture in ``directory`` that is missing or whose stored run differs from a fresh one, byte for byte, mapped to how it differs; writes nothing."""
    cases = _cases() if cases is None else cases
    changes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, obj in cases:
            path = directory / f"{name}.json"
            fresh = json.loads(json.dumps(dict(zip(("exit", "stdout"), _run(argv, obj, Path(tmp))), argv=argv, input=obj)))
            if not path.exists():
                changes[name] = "missing"
            elif (stored := json.loads(path.read_text())) != fresh:
                changes[name] = _describe_change(stored, fresh)
    return changes


def _changed_fixtures(directory: Path, cases=None) -> list[str]:
    """Names of the fixtures in ``directory`` that are missing or whose stored run differs from a fresh one, byte for byte; writes nothing."""
    return list(_fixture_changes(directory, cases))


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


def test_check_lists_changed_fixtures_and_writes_nothing(tmp_path):
    cases = [case for case in _cases() if case[0] in ("log_n1", "shoot_n1", "fisher-check_n1")]
    _write_fixtures(tmp_path, cases=cases)
    assert _changed_fixtures(tmp_path, cases) == []
    # one digit of a stored number, and a missing fixture
    shoot = tmp_path / "shoot_n1.json"
    fixture = json.loads(shoot.read_text())
    fixture["stdout"] = fixture["stdout"].replace("1", "2", 1)
    shoot.write_text(json.dumps(fixture))
    (tmp_path / "log_n1.json").unlink()
    # a stored exit code of 1, and a stored number half a tolerance (2e-11, from nodes = 20) off
    check = tmp_path / "fisher-check_n1.json"
    fixture = json.loads(check.read_text())
    report = json.loads(fixture["stdout"])
    report["results"]["max_deviation"] += 1e-11
    fixture.update(exit=1, stdout=json.dumps(report, indent=2, sort_keys=True) + "\n")
    check.write_text(json.dumps(fixture))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert _changed_fixtures(tmp_path, cases) == ["shoot_n1", "log_n1", "fisher-check_n1"]
    assert _fixture_changes(tmp_path, cases) == {
        "shoot_n1": "exit code same, CSV shape changed ($[0][1]: 'sigma_11' != 'sigma_21')",
        "log_n1": "missing",
        "fisher-check_n1": "exit code 1 -> 0, JSON keys same, largest move 0.5 x tolerance",
    }
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["--check"]:
        changed = _fixture_changes(GOLDEN_DIR)
        for name, how in changed.items():
            print(f"changed {name}: {how}")
        print(f"{len(changed)} of {len(_cases())} fixtures would change")
        sys.exit(1 if changed else 0)
    try:
        for name in _write_fixtures(GOLDEN_DIR, set(sys.argv[1:])):
            print(f"wrote {name}")
    except ValueError as exc:
        sys.exit(str(exc))
