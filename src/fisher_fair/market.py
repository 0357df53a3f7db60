"""Market instances on the unit interval and the closed-form eval/cut primitives.

A market has n buyers with positive budgets and piecewise-linear valuation
densities over [0, 1].  All buyers share one breakpoint grid
``0 = a_0 < a_1 < ... < a_K = 1``; on segment k buyer i's density is
``v_i(theta) = c[i, k] * theta + d[i, k]`` with theta in global coordinates.

Loading normalizes the instance:

* linear mode: budgets are scaled to sum to one and every valuation is scaled
  so its total value over [0, 1] is one (the original totals are retained in
  ``value_scales`` for reporting raw-scale utilities);
* quasilinear mode: budgets have value outside the market, so budgets and all
  valuations are divided by the same constant (the raw budget total), which is
  the only rescaling that preserves quasilinear equilibria.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePiece, UnreachableUtility, ValidationError

GRID_EPS = 1e-12    # breakpoint dedup tolerance
NONNEG_TOL = 1e-5   # how negative a density may be at a segment endpoint;
                    # loose enough for coefficient tables printed to 4 decimals

LINEAR = "linear"
QUASILINEAR = "quasilinear"


@dataclass(frozen=True)
class Interval:
    """A closed subinterval of [0, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValidationError(f"interval has lo > hi: [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def as_pair(self):
        return (self.lo, self.hi)


@dataclass(frozen=True)
class LinearPiece:
    """One linear density v(theta) = c * theta + d, theta in global coordinates."""

    c: float
    d: float


def eval_interval(piece: LinearPiece, iv: Interval) -> float:
    """Utility of ``iv`` under ``piece``: integral of c*theta + d over [lo, hi].

    Evaluated as length * density-at-midpoint, which is exact for a linear
    density and avoids cancellation between hi^2 and lo^2.
    """
    length = iv.hi - iv.lo
    mid = 0.5 * (iv.lo + iv.hi)
    return length * (piece.c * mid + piece.d)


def cut(piece: LinearPiece, a: float, u0: float, segment_end: float) -> float:
    """Rightmost point b in [a, segment_end] with eval(piece, [a, b]) = u0.

    Solves (c/2)(b^2 - a^2) + d(b - a) = u0 for b.  With va = v(a), the root in
    range is b = a + 2*u0 / (va + sqrt(va^2 + 2*c*u0)), which stays stable as
    c -> 0 and is homogeneous in (c, d, u0), so tiny densities cut as
    accurately as large ones.  The tolerance is NONNEG_TOL: u0 may be that
    far below zero (it is cut as zero), and a u0 that exceeds the remaining
    value of the segment by more raises UnreachableUtility.  DegeneratePiece
    is raised when the density is identically 0 but u0 > 0.
    """
    if u0 < -NONNEG_TOL:
        raise ValidationError(f"cut utility must be nonnegative, got {u0}")
    u0 = max(u0, 0.0)
    if u0 == 0.0:
        return a
    remaining = eval_interval(piece, Interval(a, segment_end))
    if u0 > remaining + NONNEG_TOL:
        raise UnreachableUtility(
            f"requested utility {u0} exceeds remaining {remaining} on "
            f"[{a}, {segment_end}]")
    va = piece.c * a + piece.d
    disc = va * va + 2.0 * piece.c * u0
    if disc < 0.0:
        # tangency from roundoff only; anything below -1e-10 was caught
        # by the remaining-value check above
        disc = 0.0 if disc >= -1e-10 else disc
    if disc < 0.0:
        raise UnreachableUtility(
            f"utility {u0} unreachable on piece (c={piece.c}, d={piece.d})")
    root = math.sqrt(disc)
    denom = va + root
    if denom > 0.0:
        b = a + 2.0 * u0 / denom
    elif piece.c != 0.0:
        # va >= 0 on valid pieces; fall back to the classic formula
        b = a + (-va + root) / piece.c
    elif piece.d == 0.0:
        raise DegeneratePiece(
            f"cannot cut utility {u0} from a zero piece (c={piece.c}, d={piece.d})")
    else:
        b = a    # a constant density below zero has nothing to give
    return min(max(b, a), segment_end)


class BreakpointGrid:
    """Shared sorted breakpoints a_0 = 0 < ... < a_K = 1."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValidationError("grid needs at least the two endpoints 0 and 1")
        if not np.isfinite(pts).all():
            raise ValidationError("breakpoints must be finite")
        if abs(pts[0]) > GRID_EPS or abs(pts[-1] - 1.0) > GRID_EPS:
            raise ValidationError(
                f"grid must start at 0 and end at 1, got [{pts[0]}, {pts[-1]}]")
        if np.any(np.diff(pts) < -GRID_EPS):
            raise ValidationError("grid breakpoints must be nondecreasing")
        pts = pts.copy()
        pts[0], pts[-1] = 0.0, 1.0
        keep = np.concatenate([[True], np.diff(pts) > GRID_EPS])
        pts = pts[keep]
        if pts.size < 2:
            raise ValidationError("grid collapsed to a point after dedup")
        pts[-1] = 1.0
        self.points = pts
        self.kept = keep  # which input points survived dedup (for column drops)

    @property
    def num_segments(self) -> int:
        return self.points.size - 1

    def segment(self, k: int) -> Interval:
        return Interval(self.points[k], self.points[k + 1])

    def locate(self, theta):
        """Segment index containing theta; pieces are left-closed, last is closed."""
        idx = np.searchsorted(self.points, theta, side="right") - 1
        return np.clip(idx, 0, self.num_segments - 1)


@dataclass
class MarketInstance:
    """Validated, normalized market.  Immutable by convention after load."""

    budgets: np.ndarray        # (n,), positive, sums to 1
    grid: BreakpointGrid
    c: np.ndarray              # (n, K) slopes, normalized scale
    d: np.ndarray              # (n, K) intercepts, normalized scale
    mode: str = LINEAR
    value_scales: np.ndarray = None   # raw per-buyer totals (linear) / common scale (QL)
    total_values: np.ndarray = field(default=None, repr=False)  # v_i([0,1]) post-normalization

    def __post_init__(self):
        if self.total_values is None:
            self.total_values = self.segment_values().sum(axis=1)

    @property
    def n(self) -> int:
        return self.budgets.size

    @property
    def num_segments(self) -> int:
        return self.grid.num_segments

    def segment_values(self) -> np.ndarray:
        """(n, K) matrix of per-buyer per-segment total values Lambda[i, k]."""
        pts = self.grid.points
        lo, hi = pts[:-1], pts[1:]
        mid = 0.5 * (lo + hi)
        return (hi - lo) * (self.c * mid + self.d)

    def values_at(self, theta) -> np.ndarray:
        """(n, len(theta)) matrix of densities v_i(theta)."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        seg = self.grid.locate(theta)
        return self.c[:, seg] * theta[None, :] + self.d[:, seg]


def _validate_arrays(budgets, breakpoints, c, d):
    budgets = np.asarray(budgets, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    if budgets.ndim != 1 or budgets.size == 0:
        raise ValidationError("budgets must be a nonempty vector")
    if np.any(~np.isfinite(budgets)) or np.any(budgets <= 0):
        bad = int(np.argmin(budgets))
        raise ValidationError(f"budget of buyer {bad} is not positive: {budgets[bad]}")
    grid = BreakpointGrid(breakpoints)
    n = budgets.size
    K_in = len(np.asarray(breakpoints)) - 1
    if c.shape != (n, K_in) or d.shape != (n, K_in):
        raise ValidationError(
            f"c and d must be {n}x{K_in} arrays, got {c.shape} and {d.shape}")
    for name, arr in (("c", c), ("d", d)):
        if not np.isfinite(arr).all():
            raise ValidationError(f"{name} must be finite")
    # drop columns of segments removed by dedup
    col_keep = grid.kept[1:]
    c = c[:, col_keep]
    d = d[:, col_keep]
    return budgets, grid, c, d


def build_instance(budgets, breakpoints, c, d, mode: str = LINEAR) -> MarketInstance:
    """Validate and normalize a shared-grid instance (see module docstring)."""
    if mode not in (LINEAR, QUASILINEAR):
        raise ValidationError(f"unknown mode {mode!r}")
    budgets, grid, c, d = _validate_arrays(budgets, breakpoints, c, d)
    pts = grid.points
    lo, hi = pts[:-1], pts[1:]
    vals_lo = c * lo[None, :] + d
    vals_hi = c * hi[None, :] + d
    if np.any(vals_lo < -NONNEG_TOL) or np.any(vals_hi < -NONNEG_TOL):
        i, k = np.unravel_index(int(np.argmin(np.minimum(vals_lo, vals_hi))), c.shape)
        raise ValidationError(
            f"negative density: buyer {i} on segment {k} reaches "
            f"{min(vals_lo[i, k], vals_hi[i, k])}")
    mid = 0.5 * (lo + hi)
    totals = ((hi - lo) * (c * mid + d)).sum(axis=1)
    if np.any(totals <= 0):
        bad = int(np.argmin(totals))
        raise ValidationError(f"buyer {bad} has zero total value over [0, 1]")
    budget_scale = float(budgets.sum())
    budgets = budgets / budget_scale
    if mode == LINEAR:
        value_scales = totals.copy()
        c = c / totals[:, None]
        d = d / totals[:, None]
    else:
        value_scales = np.full(budgets.size, budget_scale)
        c = c / budget_scale
        d = d / budget_scale
    return MarketInstance(budgets=budgets, grid=grid, c=c, d=d, mode=mode,
                          value_scales=value_scales)


def merge_valuations(valuations):
    """Merge per-buyer (breakpoints, c, d) triples onto one union grid.

    Each valuation is given on its own grid; the union grid keeps every
    breakpoint and each buyer's coefficients are replicated across the
    segments its original segment was split into.  Returns
    (breakpoints, c, d) on the shared grid.
    """
    union = np.array([0.0, 1.0])
    for pts, _, _ in valuations:
        union = np.union1d(union, np.asarray(pts, dtype=float))
    union = BreakpointGrid(union).points
    mids = 0.5 * (union[:-1] + union[1:])
    n = len(valuations)
    c = np.zeros((n, union.size - 1))
    d = np.zeros((n, union.size - 1))
    for i, (pts, ci, di) in enumerate(valuations):
        own = BreakpointGrid(pts)
        ci = np.asarray(ci, dtype=float)
        di = np.asarray(di, dtype=float)
        if ci.size != own.num_segments or di.size != own.num_segments:
            raise ValidationError(
                f"buyer {i}: expected {own.num_segments} coefficient pairs")
        seg = own.locate(mids)
        c[i] = ci[seg]
        d[i] = di[seg]
    return union, c, d


def load_instance(source) -> MarketInstance:
    """Load an instance from a path or an already-parsed dict."""
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError("instance document must be a JSON object")
    missing = {"budgets", "breakpoints", "c", "d"} - set(doc)
    if missing:
        raise ValidationError(f"instance document missing keys: {sorted(missing)}")
    mode = doc.get("mode", LINEAR)
    try:
        return build_instance(doc["budgets"], doc["breakpoints"], doc["c"], doc["d"],
                              mode=mode)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed instance document: {exc}") from exc
