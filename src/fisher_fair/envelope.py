"""Upper envelopes of scaled valuations and the reduced dual objective.

For a utility-price vector beta > 0 the price density is the pointwise upper
envelope p(theta) = max_i beta_i * v_i(theta).  On each grid segment that is
an envelope of n lines.  One left-to-right leader sweep computes all K
segment envelopes at once: every step advances each open segment from its
current leader to the nearest point where a steeper line overtakes it.  Each
line can lead at most once per segment, so the sweep takes as many steps as
the busiest segment has leaders.  Ties go to the steepest line, then the
smallest buyer index, so the winning sets are a deterministic selection from
the subdifferential.  The same pieces give the (n, K) winning-utility matrix
in one accumulation.

The reduced dual is psi(beta) = integral(p) - sum_i B_i log beta_i; its
subgradient has components (winning utility of buyer i) - B_i / beta_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .market import MarketInstance

ENV_TOL = 1e-9      # owner certification tolerance (dominance slack)
_TIE_EPS = 1e-13    # relative slack when grouping equal leaders at a point


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

    One leader sweep advances every grid segment at once: each step finds,
    for every segment still open, the nearest crossing x where a steeper
    line overtakes the current leader and the line that leads right after
    it.  Ties at a point go to the steepest line, then the smallest index,
    so the winner is the line that dominates immediately to the right.  A
    segment closes when no crossing lies before its right end; leader slopes
    rise strictly, so the sweep takes at most n steps.
    """
    beta = np.asarray(beta, dtype=float)
    # NaN fails both comparisons; a non-finite beta never closes a segment
    if beta.shape != (instance.n,) or not np.all((beta > 0) & (beta < np.inf)):
        raise DomainError("beta must be finite and positive, one entry per buyer")
    pts = instance.grid.points
    M = beta[:, None] * instance.c
    Q = beta[:, None] * instance.d
    m, q = M, Q                       # columns of the segments still open
    cols = np.arange(instance.num_segments)
    idx = cols
    x = pts[:-1]
    stop = pts[1:] - _TIE_EPS
    vals = m * x + q
    vmax = vals.max(axis=0)
    cand = vals >= vmax - _TIE_EPS * (1.0 + np.abs(vmax))
    leader = np.where(cand, m, -np.inf).argmax(axis=0)
    segs, owners, ends = [], [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        while cols.size:
            dm = m - m[leader, idx]
            xc = q[leader, idx] - q
            xc /= dm
            # only steeper lines cross, and only to the right of x
            past = dm <= 0.0
            past |= xc <= x + _TIE_EPS
            xc[past] = np.inf
            nxt = xc.min(axis=0)
            at_next = xc <= nxt + _TIE_EPS * (1.0 + np.abs(nxt))
            segs.append(cols)
            owners.append(leader)
            ends.append(nxt)
            leader = np.where(at_next, m, -np.inf).argmax(axis=0)
            x = nxt
            done = nxt >= stop
            if np.count_nonzero(done):
                keep = ~done
                cols, leader, x, stop = cols[keep], leader[keep], x[keep], stop[keep]
                m, q = m[:, keep], q[:, keep]
                idx = np.arange(cols.size)
    segs = np.concatenate(segs)
    order = np.argsort(segs, kind="stable")
    segs = segs[order]
    owners = np.concatenate(owners)[order]
    ends = np.concatenate(ends)[order]
    # a segment's last piece ends at the segment's right end
    ends[np.append(segs[1:] != segs[:-1], True)] = pts[1:]
    return PiecewiseLinearFunction(
        breakpoints=np.concatenate([[0.0], ends]),
        cs=M[owners, segs], ds=Q[owners, segs], owners=owners, segments=segs)


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

    Every piece has positive length: the sweep cuts only past its current
    point and before the segment's end.
    """
    b = env.breakpoints
    lo, hi = b[:-1], b[1:]
    i, k = env.owners, env.segments
    mid = 0.5 * (lo + hi)
    w = (hi - lo) * (instance.c[i, k] * mid + instance.d[i, k])
    n, K = instance.n, instance.num_segments
    return np.bincount(i * K + k, weights=w, minlength=n * K).reshape(n, K)


def winning_utility_matrix(instance: MarketInstance, beta) -> np.ndarray:
    """(n, K) matrix: buyer i's unscaled value over its winning set in segment k."""
    return _winning_matrix(instance, upper_envelope(instance, beta))


def winning_utilities(instance: MarketInstance, beta) -> np.ndarray:
    """Per-buyer value of its winning set; the envelope term of the subgradient."""
    return winning_utility_matrix(instance, beta).sum(axis=1)


def dual_objective(instance: MarketInstance, beta) -> float:
    """psi(beta) = integral of the envelope minus sum_i B_i log beta_i."""
    return dual_subgradient(instance, beta)[0]


def dual_subgradient(instance: MarketInstance, beta):
    """One envelope pass returning (psi(beta), subgradient, winning matrix).

    The subgradient is g_i = winning_utilities_i - B_i / beta_i with the
    smallest-index tie rule baked into the envelope owners.
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
    beta = np.asarray(beta, dtype=float)
    env = upper_envelope(instance, beta)
    theta = np.union1d(np.linspace(0.0, 1.0, num_points), env.breakpoints)
    scaled = beta[:, None] * instance.values_at(theta)
    p = env(theta)
    header = ["theta", "p_star"] + [f"beta{i + 1}_v{i + 1}" for i in range(instance.n)]
    rows = np.column_stack([theta, p, scaled.T])
    return header, rows
