"""Log-map envelope along the norm axis: n in {1, 2, 3, 5, 8} x paper norm {4, 8, 12, 16}.

Eight seeded targets per cell, each ``q = exp_map(xi, 1)`` from the identity
point.  A target counts as solved when ``log_map`` returns a tangent whose
exponential reaches ``q`` (1e-8 relative, embedded).  Up to norm 8 every
target must be solved; at norms 12 and 16 the counts are printed, not
asserted.  Failures anywhere must be ``ShootingError`` and no numpy
``RuntimeWarning`` may be raised.
"""

import warnings

import numpy as np

from gaussgeo import GaussianPoint, ShootingError, embed, exp_map, log_map
from util import random_tangent

NS = (1, 2, 3, 5, 8)
NORMS = (4.0, 8.0, 12.0, 16.0)
TARGETS = 8
ASSERTED_NORM = 8.0  # cells up to this norm must solve every target


def solved(n, xi):
    q = exp_map(xi, 1.0)
    try:
        rec = log_map(GaussianPoint.identity(n), q)
    except ShootingError:
        return False
    ref = embed(q)
    return np.linalg.norm(embed(exp_map(rec, 1.0)) - ref) <= 1e-8 * np.linalg.norm(ref)


def test_norm_sweep():
    rng = np.random.default_rng(42)
    counts = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for norm in NORMS:
            for n in NS:
                counts[norm, n] = sum(solved(n, random_tangent(rng, n, norm=norm)) for _ in range(TARGETS))
    for norm in NORMS:
        print(f"norm {norm:g}: " + ", ".join(f"n={n} {counts[norm, n]}/{TARGETS}" for n in NS))
    short = {cell: c for cell, c in counts.items() if cell[0] <= ASSERTED_NORM and c < TARGETS}
    assert not short, f"unsolved targets within the asserted envelope: {short}"
