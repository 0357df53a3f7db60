"""Upper envelopes of scaled valuations and the reduced dual objective.

For a utility-price vector beta > 0 the price density is the pointwise upper
envelope p(theta) = max_i beta_i * v_i(theta).  On each grid segment that is
an envelope of n lines, which is the upper convex hull of the points (slope,
height) read in the dual plane (Andrew 1979).  One slope-sorted elimination
computes all K segment envelopes at once: the lines are sorted by slope, and
each round drops, in every segment, every line that its two current slope
neighbours hide there.  So the number of rounds does not follow the number
of pieces, as a left-to-right sweep's steps would.  Ties go to the steepest
line, then the smallest buyer index, so the winning sets are a deterministic
selection from the subdifferential.  The same pieces give the (n, K)
winning-utility matrix in one accumulation.

The reduced dual is psi(beta) = integral(p) - sum_i B_i log beta_i; its
subgradient has components (winning utility of buyer i) - B_i / beta_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_count
from .market import MarketInstance

ENV_TOL = 1e-9      # owner certification tolerance (dominance slack)
_TIE_EPS = 1e-13    # relative slack: shortest piece kept, equal heights


@dataclass
class PiecewiseLinearFunction:
    """Piecewise-linear function on [0, 1]; not necessarily continuous.

    Piece j is the linear density cs[j] * theta + ds[j] on
    [breakpoints[j], breakpoints[j+1]), with the last piece closed at 1.
    ``owners[j]`` is the buyer attaining the max on piece j (envelopes only)
    and ``segments[j]`` the grid segment the piece lives in.
    """

    breakpoints: np.ndarray
    cs: np.ndarray
    ds: np.ndarray
    owners: np.ndarray = None
    segments: np.ndarray = None

    @property
    def num_pieces(self) -> int:
        return self.cs.size

    def locate(self, theta):
        idx = np.searchsorted(self.breakpoints, theta, side="right") - 1
        return np.clip(idx, 0, self.num_pieces - 1)

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        j = self.locate(theta)
        return self.cs[j] * theta + self.ds[j]

    def integral(self) -> float:
        """Exact integral over the whole support, piece by piece as length
        times the density at the midpoint."""
        left, right = self.breakpoints[:-1], self.breakpoints[1:]
        mid = 0.5 * (left + right)
        return float(np.sum((right - left) * (self.cs * mid + self.ds)))


def beta_bounds(instance: MarketInstance):
    """Box containing the optimal beta: [B, 1] in linear mode and
    [B_i / (v_i(Theta) + B_i), 1] in quasilinear mode."""
    B = instance.budgets
    if instance.mode == "quasilinear":
        lo = B / (instance.total_values + B)
    else:
        lo = B.copy()
    return lo, np.ones_like(B)


def upper_envelope(instance: MarketInstance, beta) -> PiecewiseLinearFunction:
    """Exact envelope p = max_i beta_i v_i with per-piece owners.

    The lines of every segment are sorted by slope, and of equal slopes only
    the highest stays (heights within _TIE_EPS go to the smallest index).
    Then each round drops, in all segments at once, every line whose
    interval between its crossings with its slope neighbours, clipped to the
    segment, is not longer than _TIE_EPS (relative to where it starts): it
    lies under its neighbours there.  The survivors, in slope order, are the
    pieces and consecutive crossings their breakpoints, so a point where
    several lines meet goes to the steepest: the owner of a piece dominates
    right of its left end.
    """
    beta = np.asarray(beta, dtype=float)
    # NaN fails both comparisons
    if beta.shape != (instance.n,) or not np.all((beta > 0) & (beta < np.inf)):
        raise DomainError("beta must be finite and positive, one entry per buyer")
    pts = instance.grid.points
    M = beta[:, None] * instance.c
    Q = beta[:, None] * instance.d
    n, K = M.shape
    # rows: slope, height, segment ends and flat (buyer, segment) index of
    # every line, segment by segment and by slope within a segment
    at = (np.argsort(M.T, axis=1) * K + np.arange(K)[:, None]).ravel()
    lines = np.stack([M.ravel()[at], Q.ravel()[at], np.repeat(pts[:-1], n),
                      np.repeat(pts[1:], n), at])
    m, q = lines[0], lines[1]
    # the lines that lose a tie of equal slopes get height -inf, so that the
    # first round drops them and their neighbours see past them
    same = m[1:] == m[:-1]
    same[n - 1::n] = False            # a run ends with its segment
    tied = np.flatnonzero(np.append(same, False) | np.append(False, same))
    first = ~np.append(False, same)[tied]
    runs = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    top = np.maximum.reduceat(q[tied], runs)[run]
    high = q[tied] >= top - _TIE_EPS * (1.0 + np.abs(top))
    owner = at[tied] // K
    q[tied[owner != np.minimum.reduceat(np.where(high, owner, n), runs)[run]]] = -np.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            m, q, lo, hi, _ = lines
            # fmax/fmin skip the NaN of two equal lines; between segments the
            # clip gives the segments' common end whatever the crossing
            x = np.fmin(np.fmax((q[:-1] - q[1:]) / (m[1:] - m[:-1]), lo[1:]), hi[:-1])
            ends = np.concatenate(([pts[0]], x, [pts[-1]]))
            keep = np.diff(ends) > _TIE_EPS * (1.0 + ends[:-1])
            if keep.all():
                break
            lines = lines[:, keep]
    at = lines[4].astype(np.intp)
    return PiecewiseLinearFunction(breakpoints=ends, cs=m, ds=q, owners=at // K,
                                   segments=at % K)


def certify_envelope(instance: MarketInstance, beta,
                     env: PiecewiseLinearFunction) -> bool:
    """Ownership certificate: on every piece of ``env``, the envelope at
    beta, the owner's scaled density dominates every other buyer's at both
    endpoints, up to ENV_TOL.  Endpoint checks suffice because all densities
    are linear on the piece."""
    beta = np.asarray(beta, dtype=float)
    b = env.breakpoints
    for j in range(env.num_pieces):
        lo, hi = b[j], b[j + 1]
        if hi <= lo:
            continue
        k = env.segments[j]
        for x in (lo, hi):
            vals = beta * (instance.c[:, k] * x + instance.d[:, k])
            if vals[env.owners[j]] < vals.max() - ENV_TOL:
                return False
    return True


def _winning_matrix(instance: MarketInstance,
                    env: PiecewiseLinearFunction) -> np.ndarray:
    """(n, K) unscaled value of the envelope pieces, summed per (owner, segment).

    Every piece has positive length: the envelope keeps none shorter than
    _TIE_EPS.
    """
    b = env.breakpoints
    lo, hi = b[:-1], b[1:]
    i, k = env.owners, env.segments
    mid = 0.5 * (lo + hi)
    w = (hi - lo) * (instance.c[i, k] * mid + instance.d[i, k])
    n, K = instance.n, instance.num_segments
    return np.bincount(i * K + k, weights=w, minlength=n * K).reshape(n, K)


def dual_subgradient(instance: MarketInstance, beta):
    """One envelope pass: (psi(beta), subgradient, winning matrix, envelope).

    The subgradient is g_i = (winning utility of buyer i) - B_i / beta_i
    with the smallest-index tie rule baked into the envelope owners.
    """
    beta = np.asarray(beta, dtype=float)
    env = upper_envelope(instance, beta)
    U = _winning_matrix(instance, env)
    w = U.sum(axis=1)
    psi = env.integral() - float(np.dot(instance.budgets, np.log(beta)))
    g = w - instance.budgets / beta
    return psi, g, U, env


def plot_data(instance: MarketInstance, beta, num_points: int = 1000):
    """Rows (theta, p(theta), beta_1 v_1(theta), ..., beta_n v_n(theta)).

    Samples a uniform grid and additionally every envelope piece endpoint so
    discontinuities across valuation breakpoints render faithfully.
    """
    num_points = check_count("num_points", num_points, 0)
    beta = np.asarray(beta, dtype=float)
    env = upper_envelope(instance, beta)
    theta = np.union1d(np.linspace(0.0, 1.0, num_points), env.breakpoints)
    scaled = beta[:, None] * instance.values_at(theta)
    p = env(theta)
    header = ["theta", "p_star"] + [f"beta{i + 1}_v{i + 1}" for i in range(instance.n)]
    rows = np.column_stack([theta, p, scaled.T])
    return header, rows
