"""Log-map and midpoint envelope along the norm axis: n in {1, 2, 3, 5, 8} x paper norm {4, 8, 12, 16}.

Eight seeded targets per cell, each ``q = exp_map(xi, 1)`` from the identity
point.  A target counts as solved when ``log_map`` returns a tangent whose
exponential reaches ``q`` (1e-8 relative, embedded).  Every target must be
solved.  The counts are printed with the number of targets on which the
fibre route failed and the chart-guess fallback took over, and with the
Jacobians of the fibre Newton and of the shooting polish (one per step of
each) over the cell's log-map solves.  Failures
anywhere must be ``ShootingError`` and no numpy ``RuntimeWarning`` may be
raised.

The same targets test ``midpoint_N`` (it draws nothing from the generator):
a midpoint is good when it agrees with ``exp_map(xi, 0.5)`` (1e-8 relative,
embedded).  Up to norm 8 every midpoint must be good; at norms 12 and 16 the
counts are printed.  Beyond norm 8 the mean iteration's limit leaves the
exchange-symmetric slice by more than ``SYM_TOL`` (1e-10, relative) as the
lifted points grow ill-conditioned, so ``midpoint_N`` raises an
``ArithmeticError`` on points that agree with the exponential to 1e-10.
"""

import warnings

import numpy as np

import gaussgeo.geodesic as geodesic
from gaussgeo import GaussianPoint, ShootingError, embed, exp_map, log_map, midpoint_N
from util import random_tangent

NS = (1, 2, 3, 5, 8)
NORMS = (4.0, 8.0, 12.0, 16.0)
TARGETS = 8
ASSERTED_NORM = 16.0  # cells up to this norm must solve every target
MIDPOINT_NORM = 8.0  # cells up to this norm must give every midpoint


def solved(n, xi):
    q = exp_map(xi, 1.0)
    try:
        rec = log_map(GaussianPoint.identity(n), q)
    except ShootingError:
        return False
    ref = embed(q)
    return np.linalg.norm(embed(exp_map(rec, 1.0)) - ref) <= 1e-8 * np.linalg.norm(ref)


def good_midpoint(n, xi):
    try:
        mid = midpoint_N(GaussianPoint.identity(n), exp_map(xi, 1.0))
    except ArithmeticError:  # the slice check of the mean-iteration limit
        return False
    ref = embed(exp_map(xi, 0.5))
    return np.linalg.norm(embed(mid) - ref) <= 1e-8 * np.linalg.norm(ref)


def counted(monkeypatch, name):
    """Replace ``geodesic.<name>`` by a wrapper that appends its arguments to the returned list."""
    calls = []
    real = getattr(geodesic, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geodesic, name, counting)
    return calls


def test_norm_sweep(monkeypatch):
    fallbacks = counted(monkeypatch, "_log_subdivided")
    jacobians = counted(monkeypatch, "_fibre_jacobian")
    polish_jacobians = counted(monkeypatch, "_residual_jacobian")
    rng = np.random.default_rng(42)
    counts, fell_back, newton, polish, midpoints = {}, {}, {}, {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for norm in NORMS:
            for n in NS:
                counts[norm, n] = fell_back[norm, n] = newton[norm, n] = polish[norm, n] = midpoints[norm, n] = 0
                for _ in range(TARGETS):
                    xi = random_tangent(rng, n, norm=norm)
                    before = len(fallbacks), len(jacobians), len(polish_jacobians)
                    counts[norm, n] += solved(n, xi)
                    fell_back[norm, n] += len(fallbacks) > before[0]
                    newton[norm, n] += len(jacobians) - before[1]
                    polish[norm, n] += len(polish_jacobians) - before[2]
                    midpoints[norm, n] += good_midpoint(n, xi)
    for norm in NORMS:
        print(
            f"norm {norm:g}: "
            + ", ".join(
                f"n={n} {counts[norm, n]}/{TARGETS} (fallback {fell_back[norm, n]}, Newton {newton[norm, n]}, polish {polish[norm, n]})"
                for n in NS
            )
        )
        print(f"norm {norm:g} midpoints: " + ", ".join(f"n={n} {midpoints[norm, n]}/{TARGETS}" for n in NS))
    short = {cell: c for cell, c in counts.items() if cell[0] <= ASSERTED_NORM and c < TARGETS}
    assert not short, f"unsolved targets within the asserted envelope: {short}"
    short = {cell: c for cell, c in midpoints.items() if cell[0] <= MIDPOINT_NORM and c < TARGETS}
    assert not short, f"midpoints off the geodesic within the asserted envelope: {short}"
