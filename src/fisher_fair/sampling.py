"""Random instance generation for experiments and tests.

Instances share one sorted random breakpoint grid.  Per buyer and segment the
density is sampled through its two endpoint values (uniform on [0, 2]) and
converted to slope/intercept, which enforces nonnegativity by construction.
Budgets are uniform on [0.2, 1] before normalization so the smallest budget
share stays bounded away from zero.  Everything is deterministic per seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError, check_count
from .market import MarketInstance, build_instance

_MIN_GAP = 1e-3


def sample_document(n: int, k: int, seed: int, mode: str = "linear") -> dict:
    """Instance document (shared-grid JSON shape) for n buyers, k segments."""
    if n < 1 or k < 1:
        raise ValidationError("need n >= 1 buyers and k >= 1 segments")
    rng = np.random.default_rng(check_count("seed", seed, 0))
    while True:
        interior = np.sort(rng.random(k - 1))
        pts = np.concatenate([[0.0], interior, [1.0]])
        if k == 1 or np.diff(pts).min() >= _MIN_GAP / k:
            break
    y_left = rng.uniform(0.0, 2.0, (n, k))
    y_right = rng.uniform(0.0, 2.0, (n, k))
    widths = np.diff(pts)
    c = (y_right - y_left) / widths[None, :]
    d = y_left - c * pts[:-1][None, :]
    budgets = rng.uniform(0.2, 1.0, n)
    budgets = budgets / budgets.sum()
    return {
        "mode": mode,
        "budgets": budgets.tolist(),
        "breakpoints": pts.tolist(),
        "c": c.tolist(),
        "d": d.tolist(),
    }


def sample_instance(n: int, k: int, seed: int, mode: str = "linear") -> MarketInstance:
    doc = sample_document(n, k, seed, mode=mode)
    return build_instance(doc["budgets"], doc["breakpoints"], doc["c"], doc["d"],
                          mode=mode)
