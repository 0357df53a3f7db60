"""Deterministic equilibrium computation on the reduced dual.

The dual psi(beta) = integral(max_i beta_i v_i) - sum_i B_i log beta_i is
minimized over the box containing the optimum.  Every winning-set evaluation
also yields a feasible primal value (the winning sets are an actual
allocation), so sum_i B_i log u_i + C is a lower bound on the optimum of psi;
in quasilinear mode each buyer also keeps delta_i = max(B_i - u_i, 0), which
makes the bound sum_i (B_i log(u_i + delta_i) - delta_i) + C finite at every
beta.  ``_primal`` gives this bound to the loop and to every certificate.
The loop's gap at an iterate is psi there minus the best such bound seen over
all iterates so far; it picks the best iterate and ends the loop, but it is
not the gap of the returned allocation, which the result reports on its own
and which alone certifies (after an early stop the two can differ ninefold).
The run has two phases:

1. an entropic-smoothing warm start (Nesterov 2005): each grid segment is
   split into equal cells, the max on each cell is replaced by
   mu log sum_i exp(beta_i v_i(midpoint) / mu), and projected Newton
   minimizes that smooth dual over the box for a falling sequence of mu,
   which stops early when there are at most two buyers per segment (n <= 2K),
   since there its lower levels cost more than the exact evaluations they save;
   it costs no exact envelope evaluation.  The cell densities are built once
   per solve, and each evaluation of the smooth dual is one pass over all
   cells, with exponents clamped where their weight is far below roundoff so
   that exp never underflows,
2. projected Newton on the exact dual from that point: the envelope crossing
   points depend smoothly on beta, so the winning-utility Jacobian (the
   Hessian of the envelope integral) is available in closed form piece by
   piece, and Newton steps drive the gap to roundoff level.  That Hessian
   sees only the current envelope structure, so while the gap is above 1e-6
   the smoothed dual's Hessian is added to it; that one is rebuilt only on
   the first iteration and after a full step, and kept through damped
   steps.  ``SolveConfig.max_iter`` envelope evaluations are the only
   budget, and the loop ends on exactly one of three exits:

   a. the best iterate, the one returned, has gap below 1e-13 and projected
      gradient below 1e-11, or the budget is spent;
   b. a 25-step backtracking line search, which starts from twice the
      step length the last one accepted (at most 1) and halves, finds no
      acceptable step, or its step no longer moves beta at float precision
      (Newton stalled);
   c. psi is flat to roundoff (best gap below 1e-13) and a whole Newton
      iteration left the best iterate unchanged: past that point steps are
      accepted on one-ulp changes of psi and only wander.

Acceptance of a solution is by the certified duality gap and the
utility-price identity of the allocation, never by iteration count.  The
allocation is the winning sets at the best beta: ``pure_allocation`` reads
them off the envelope pieces, which are the greedy cuts at the winning
per-segment utilities, so nothing is projected or clipped.  A region where
several scaled lines tie is split by price mass, in each buyer's own units,
so the split stays attainable when the tied densities are proportional
rather than equal; such a segment is cut greedily at its split utilities.
The ellipsoid solver builds its allocation with the same routine, cutting
every segment greedily.  Buyers whose valuation rows are exactly equal
(twins) sit at the kink beta_i = beta_j of the dual, which Newton reaches
only to about 1e-8 while the tie split groups lines equal to 1e-9, so
``solve`` minimizes the market with each group of twins merged into one
buyer and builds the result on the original market at that beta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envelope import (PiecewiseLinearFunction, _winning_matrix, beta_bounds,
                       dual_subgradient)
from .errors import DomainError, NotConverged, check_count, check_tolerance
from .feasible import LAMBDA_FLOOR, partition_segment
from .market import Interval, MarketInstance, QUASILINEAR

GAP_TOL = 1e-8
_GAP_FLOOR = 1e-13        # stop polishing below this gap
_BOUNDARY_SNAP = 1e-12    # beta this close to a box face counts as active
_IDENTITY_TOL = 1e-7      # |u_i - B_i / beta_i| a certified result may keep
_TIE_TOL = 1e-9           # relative slack when grouping tied scaled lines
# smoothed warm start: cells per segment max(_CELLS_MIN, ceil(_CELLS_TOTAL / K)),
# smoothing levels mu, at most _SMOOTH_ITERS Newton steps per level, a level
# ending once the Newton decrement is below _SMOOTH_DECREMENT * mu; a softmax
# exponent relative to its cell's top is clamped at _EXP_FLOOR (weight e^-60,
# about 1e-26) before exp
_CELLS_MIN = 8
_CELLS_TOTAL = 320
_SMOOTH_MUS = tuple(3e-2 * 0.5 ** i for i in range(9))
# with at most 2 buyers per segment (n <= 2K) the start stops after the first
# _FEW_BUYERS_LEVELS levels, at mu = 3.75e-3: there the lower levels save the
# exact phase under a tenth of its evaluations but make the solve about 1.3
# times as slow (n = K); with more buyers per segment they save far more
_FEW_BUYERS_LEVELS = 4
_SMOOTH_ITERS = 30
_SMOOTH_DECREMENT = 1e-2
_EXP_FLOOR = -60.0
# the exact Newton phase adds the smoothed Hessian at mu = _CURVATURE_MU for
# up to 100 buyers, shrinking like 1/n beyond (the gaps between the top scaled
# lines do), while the gap is above _CURVATURE_GAP; it is rebuilt on the first
# iteration and after each full step only, since on crowded markets most
# steps are damped and a fresh one there buys no longer step
_CURVATURE_MU = 3e-3
_CURVATURE_GAP = 1e-6


@dataclass
class SolveConfig:
    max_iter: int = 2000            # total envelope evaluations allowed
    gap_tol: float = GAP_TOL


@dataclass
class PureAllocation:
    """Per-buyer lists of disjoint closed intervals, plus unassigned leftover."""

    intervals: list
    leftover: list = field(default_factory=list)

    def to_json(self):
        return {
            "intervals": [[iv.as_pair() for iv in ivs] for ivs in self.intervals],
            "leftover": [iv.as_pair() for iv in self.leftover],
        }

    @classmethod
    def from_json(cls, doc):
        return cls(
            intervals=[[Interval(float(lo), float(hi)) for lo, hi in ivs]
                       for ivs in doc["intervals"]],
            leftover=[Interval(float(lo), float(hi))
                      for lo, hi in doc.get("leftover", [])])


@dataclass
class EquilibriumResult:
    beta: np.ndarray
    u: np.ndarray                 # allocation's utilities, plus delta if quasilinear
    useg: np.ndarray              # (n, K) per-segment utilities
    allocation: PureAllocation
    prices: PiecewiseLinearFunction
    gap: float
    iterations: int
    mode: str
    delta: np.ndarray = None      # money kept, max(B - u, 0); None if linear
    ql_net_utilities: np.ndarray = None
    gap_history: list = None      # the loop's best gap after each evaluation,
                                  # against the running primal bound; not ``gap``

    def to_json(self):
        doc = {
            "mode": self.mode,
            "beta": self.beta.tolist(),
            "u": self.u.tolist(),
            "u_segments": self.useg.tolist(),
            "gap": float(self.gap),
            "iterations": int(self.iterations),
            "delta": None if self.delta is None else self.delta.tolist(),
            "ql_net_utilities": (None if self.ql_net_utilities is None
                                 else self.ql_net_utilities.tolist()),
        }
        doc.update(self.allocation.to_json())
        return doc

    @classmethod
    def from_json(cls, doc):
        return cls(
            beta=np.asarray(doc["beta"], dtype=float),
            u=np.asarray(doc["u"], dtype=float),
            useg=np.asarray(doc["u_segments"], dtype=float),
            allocation=PureAllocation.from_json(doc),
            prices=None,
            gap=float(doc["gap"]) if doc.get("gap") is not None else float("nan"),
            iterations=int(doc.get("iterations", 0)),
            mode=doc.get("mode", "linear"),
            delta=(None if doc.get("delta") is None
                   else np.asarray(doc["delta"], dtype=float)),
            ql_net_utilities=(None if doc.get("ql_net_utilities") is None
                              else np.asarray(doc["ql_net_utilities"], dtype=float)))


def duality_constant(instance: MarketInstance) -> float:
    """C = ||B||_1 - sum_i B_i log B_i, the shift aligning primal and dual."""
    B = instance.budgets
    return float(B.sum() - np.dot(B, np.log(B)))


def _primal(instance, u):
    """(primal objective without C, program utilities, delta) of an
    allocation worth u.  Linear mode: sum_i B_i log u_i, -inf when some u_i
    is 0, and delta None.  Quasilinear mode: each buyer keeps the money
    delta_i = max(B_i - u_i, 0) that maximizes B_i log(u_i + delta_i) -
    delta_i, so the program utilities u + delta are at least B."""
    B = instance.budgets
    if instance.mode == QUASILINEAR:
        delta = np.maximum(B - u, 0.0)
        u = u + delta
        return float(np.dot(B, np.log(u)) - delta.sum()), u, delta
    if np.any(u <= 0):
        return -np.inf, u, None
    return float(np.dot(B, np.log(u))), u, None


def _split_winning_ties(instance, beta, useg):
    """Share each tied region among the buyers whose scaled lines tie there.

    The smallest-index tie rule hands a whole tied region to one buyer, a
    valid subgradient selection but a useless primal.  Within a group of
    buyers whose scaled lines beta_i v_i coincide on a segment (up to
    _TIE_TOL), a share m_i of the region's price mass is worth m_i / beta_i
    to buyer i.  Shares go by the budget each member has left after its untied
    winnings and earlier groups (quasilinear buyers below the price cap
    first), the rest by budget; each is cut by how far the member's line can
    sit under the group's top line, so it stays attainable.  Returns a
    rebalanced copy (or the input when no ties).
    """
    M = beta[:, None] * instance.c
    Q = beta[:, None] * instance.d
    # every group has slope-adjacent lines this close: the lexsort below
    # sorts the slopes the same way, so without such a pair nothing ties
    ms = np.sort(M, axis=0)
    near = np.abs(np.diff(ms, axis=0)) <= _TIE_TOL * (1.0 + np.abs(ms[:-1]))
    if not near.any():
        return useg
    order = np.lexsort((Q, M), axis=0)
    at = np.arange(instance.num_segments)
    qs = Q[order, at]
    close = near & (np.abs(np.diff(qs, axis=0)) <= _TIE_TOL * (1.0 + np.abs(qs[:-1])))
    out = useg.copy()
    groups = []
    for k in np.flatnonzero(close.any(axis=0)):
        bounds = np.concatenate([[0], np.flatnonzero(~close[:, k]) + 1, [instance.n]])
        for start, stop in zip(bounds[:-1], bounds[1:]):
            group = order[start:stop, k]
            if group.size >= 2 and useg[group, k].sum() > 0.0:
                groups.append((k, group))
                out[group, k] = 0.0
    if not groups:
        return useg
    B = instance.budgets
    unmet = np.maximum(B - beta * out.sum(axis=1), 0.0)
    capped = (instance.mode == QUASILINEAR) & (beta >= 1.0 - _BOUNDARY_SNAP)
    pts = instance.grid.points
    for k, group in groups:
        mass = float(np.dot(beta[group], useg[group, k]))
        share = np.zeros(group.size)
        for want in (np.where(capped[group], 0.0, unmet[group]),
                     np.where(capped[group], unmet[group], 0.0)):
            take = min(mass, float(want.sum()))
            if take > 0.0:
                share += take * (want / want.sum())
                mass -= take
        share += mass * (B[group] / B[group].sum())
        unmet[group] = np.maximum(unmet[group] - share, 0.0)
        lines = np.outer(M[group, k], pts[k:k + 2]) + Q[group, k][:, None]
        below = (lines.max(axis=0) - lines).max(axis=1)
        out[group, k] = np.maximum(share - below * (pts[k + 1] - pts[k]),
                                   0.0) / beta[group]
    return out


def _envelope_hessian(instance, env, beta):
    """Jacobian of the winning utilities w.r.t. beta (Hessian of the envelope
    integral).  Each interior crossing x between consecutive pieces of one
    segment, owners o -> o', contributes the rank-one block
    (v_o, -v_o')(v_o, -v_o')^T / D with D the scaled-slope difference at x.
    """
    o, o2, k = env.owners[:-1], env.owners[1:], env.segments[:-1]
    D = beta[o2] * instance.c[o2, k] - beta[o] * instance.c[o, k]
    j = (k == env.segments[1:]) & (o != o2) & (D > 1e-12)
    o, o2, k, D = o[j], o2[j], k[j], D[j]
    x = env.breakpoints[1:-1][j]
    vo = instance.c[o, k] * x + instance.d[o, k]
    vo2 = instance.c[o2, k] * x + instance.d[o2, k]
    cross = -(vo * vo2 / D)
    # one row per crossing, entries in the order (o,o) (o,o2) (o2,o) (o2,o2),
    # so every H entry sums its terms in crossing order
    rows = np.stack([o, o, o2, o2], axis=1).ravel()
    cols = np.stack([o, o2, o, o2], axis=1).ravel()
    terms = np.stack([vo * vo / D, cross, cross, vo2 * vo2 / D], axis=1).ravel()
    H = np.zeros((instance.n, instance.n))
    np.add.at(H, (rows, cols), terms)
    return H


def pure_allocation(instance: MarketInstance, useg, env=None):
    """Pure allocation attaining exactly feasible (n, K) per-segment utilities.

    Given the envelope ``env`` that ``useg`` was read from, a segment whose
    column is the winning one and whose pieces are each worth more than
    LAMBDA_FLOOR to their owners gets its envelope pieces as intervals: the
    greedy cut order is the envelope's left-to-right owner order, so each
    cut lands on a crossing.  Every other segment (a split tie, or any
    segment when ``env`` is None) gets one greedy partition, in strict mode,
    so infeasible input raises InfeasibleUtilities; only buyers with a
    positive target get a part, and the last of them takes the segment's
    remainder.  Parts of zero length are dropped, and a segment no buyer
    takes goes to ``leftover``.  Returns the allocation and the (n, K)
    utilities of its intervals.
    """
    intervals = [[] for _ in range(instance.n)]
    leftover = []
    K = instance.num_segments
    read = np.zeros(K, dtype=bool)
    if env is not None:
        W = _winning_matrix(instance, env)
        read = (useg == W).all(axis=0)
        read[env.segments[W[env.owners, env.segments] <= LAMBDA_FLOOR]] = False
        first = np.searchsorted(env.segments, np.arange(K + 1)).tolist()
        ends = env.breakpoints.tolist()
        owners = env.owners.tolist()
    out = np.where(read, useg, 0.0)
    for k in range(K):
        if read[k]:
            for j in range(first[k], first[k + 1]):
                intervals[owners[j]].append(Interval(ends[j], ends[j + 1]))
            continue
        parts = partition_segment(instance, k, useg[:, k])
        taken = [i for i in np.flatnonzero(useg[:, k] > 0.0).tolist()
                 if parts[i].length > 0.0]
        if not taken:
            leftover.append(instance.grid.segment(k))
        for i in taken:
            part = parts[i]
            intervals[i].append(part)
            mid = 0.5 * (part.lo + part.hi)
            out[i, k] = part.length * (instance.c[i, k] * mid + instance.d[i, k])
    return PureAllocation(intervals=intervals, leftover=leftover), out


def duality_gap(instance: MarketInstance, beta, psi, u):
    """Certified gap psi(beta) - (primal + C) of an allocation worth u.

    Returns (gap, program utilities, delta, net utilities), the middle two
    from ``_primal``; the quasilinear net (value-minus-payment) utility is
    (1 - beta) * (u + delta), None in linear mode.  The gap is inf when a
    linear buyer wins nothing, and finite at any beta in quasilinear mode.
    """
    primal, u, delta = _primal(instance, u)
    net = None if delta is None else (1.0 - beta) * u
    return psi - (primal + duality_constant(instance)), u, delta, net


def _result(instance, beta, psi, useg, env, iterations, gap_history=None):
    """EquilibriumResult at beta: the pure allocation attaining the tie-split
    winning utilities ``useg``, and its certified gap (inf when not finite)."""
    allocation, useg = pure_allocation(instance, useg, env)
    gap, u, delta, net = duality_gap(instance, beta, psi, useg.sum(axis=1))
    return EquilibriumResult(beta=beta, u=u, useg=useg, allocation=allocation,
                             prices=env, gap=float(gap if np.isfinite(gap) else np.inf),
                             iterations=iterations, mode=instance.mode, delta=delta,
                             ql_net_utilities=net, gap_history=gap_history)


def allocation_from_beta(instance: MarketInstance, beta) -> EquilibriumResult:
    """The winning sets at given utility prices (e.g. a stochastic average)
    as a pure allocation, with its gap certificate; no further optimization
    happens."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (instance.n,):
        raise DomainError("beta must be finite and positive, one entry per buyer")
    beta = np.clip(beta, *beta_bounds(instance))
    psi, _, useg, env = dual_subgradient(instance, beta)
    return _result(instance, beta, psi, _split_winning_ties(instance, beta, useg),
                   env, iterations=1)


def _smoothing_cells(instance):
    """(widths, densities) of the smoothing cells, built once per solve: each
    grid segment is split into max(_CELLS_MIN, ceil(_CELLS_TOTAL / K)) equal
    cells, and the densities are the n x cells matrix of v_i at the cell
    midpoints."""
    K = instance.num_segments
    S = max(_CELLS_MIN, -(-_CELLS_TOTAL // K))
    pts = instance.grid.points
    width = np.diff(pts) / S
    seg = np.repeat(np.arange(K), S)
    mid = pts[seg] + (np.tile(np.arange(S), K) + 0.5) * width[seg]
    V = instance.c[:, seg]
    V *= mid
    V += instance.d[:, seg]
    return width[seg], V


def _smoothed_value(instance, cells, beta, mu):
    """Midpoint-rule log-sum-exp dual and its gradient,

    f = sum_j w_j mu log sum_i exp(beta_i v_ij / mu) - sum_i B_i log beta_i,
    g = sum_j w_j s_j v_j - B / beta,

    with v_ij buyer i's density at cell j's midpoint and s_j the softmax of
    beta * v_j / mu, in one pass over all cells; returns (f, g, Z) with
    Z_ij = w_j s_ij v_ij, from which ``_smoothed_hessian`` finishes the
    Hessian.  An exponent more than -_EXP_FLOOR below its cell's top is
    clamped there, so exp never underflows; such a weight is about 1e-26 or
    less, far below roundoff in f, g and H.
    """
    w, V = cells
    B = instance.budgets
    Z = V * (beta[:, None] / mu)
    zmax = Z.max(axis=0)
    Z -= zmax
    np.maximum(Z, _EXP_FLOOR, out=Z)
    np.exp(Z, out=Z)
    tot = Z.sum(axis=0)
    f = mu * float(np.dot(w, zmax + np.log(tot))) - float(np.dot(B, np.log(beta)))
    Z *= w / tot
    Z *= V                            # w_j s_ij v_ij
    g = Z.sum(axis=1) - B / beta
    return f, g, Z


def _smoothed_hessian(instance, cells, beta, mu, Z):
    """H = sum_j (w_j / mu) [diag(s_j v_j^2) - (s_j v_j)(s_j v_j)^T]
    + diag(B / beta^2) from the Z that ``_smoothed_value`` returned at the
    same beta and mu; overwrites Z."""
    w, V = cells
    diag = np.einsum("ij,ij->i", Z, V) / mu + instance.budgets / beta ** 2
    Z *= 1.0 / np.sqrt(w * mu)        # sqrt(w_j / mu) s_ij v_ij
    H = Z @ Z.T
    np.negative(H, out=H)
    H.flat[::beta.size + 1] += diag
    return H


def _smoothed_dual(instance, cells, beta, mu):
    """(f, g, H) of the smoothed dual at beta (``_smoothed_value`` and
    ``_smoothed_hessian``)."""
    f, g, Z = _smoothed_value(instance, cells, beta, mu)
    return f, g, _smoothed_hessian(instance, cells, beta, mu, Z)


def _held(beta, g, lo, hi):
    """Coordinates at a box face that the gradient pushes outward."""
    return (((beta >= hi - _BOUNDARY_SNAP) & (g < 0))
            | ((beta <= lo + _BOUNDARY_SNAP) & (g > 0)))


def _free_newton_step(H, g, beta, lo, hi):
    """Projected-Newton direction: zero on coordinates held at a box face by
    the gradient, the Newton step of the rest.  Adds 1e-14 to H's diagonal
    in place when no coordinate is held."""
    free = ~_held(beta, g, lo, hi)
    step = np.zeros_like(beta)
    if free.any():
        Hf = H if free.all() else H[np.ix_(free, free)]
        Hf.flat[::Hf.shape[0] + 1] += 1e-14
        try:
            step[free] = np.linalg.solve(Hf, -g[free])
        except np.linalg.LinAlgError:
            step[free] = -g[free]
    return step


def _smoothed_start(instance, cells):
    """Warm start for the exact Newton phase: the minimizer of the smoothed
    dual over the box, by projected Newton with Armijo backtracking, for each
    mu in _SMOOTH_MUS in turn, each level starting from the last one's point
    and the first from equal utility prices.  With at most two buyers per
    segment (n <= 2K) only the first _FEW_BUYERS_LEVELS levels run: the
    levels below mu = 3.75e-3 cost more time there than the few exact
    evaluations they save, while with more buyers per segment they save
    many.  A line-search trial evaluates f and g only; the Hessian is
    finished at the accepted point from that trial's softmax weights, so a
    rejected trial builds none and no point is evaluated twice."""
    lo, hi = beta_bounds(instance)
    mus = (_SMOOTH_MUS[:_FEW_BUYERS_LEVELS]
           if instance.n <= 2 * instance.num_segments else _SMOOTH_MUS)
    # equal utility prices that make the price mass equal the money
    w, V = cells
    mass = float(np.dot(w, V.max(axis=0)))
    beta = np.clip(instance.budgets.sum() / mass, lo, hi)
    for mu in mus:
        f, g, H = _smoothed_dual(instance, cells, beta, mu)
        for _ in range(_SMOOTH_ITERS):
            step = _free_newton_step(H, g, beta, lo, hi)
            if -float(np.dot(g, step)) <= _SMOOTH_DECREMENT * mu:
                break
            # Armijo backtracking on f and g alone; the Hessian is finished
            # at the accepted point only, from that trial's softmax weights
            alpha = 1.0
            while alpha > 1e-10:
                cand = np.clip(beta + alpha * step, lo, hi)
                f_c, g_c, Z = _smoothed_value(instance, cells, cand, mu)
                if f_c <= f + 1e-4 * float(np.dot(g, cand - beta)):
                    break
                alpha *= 0.5
            else:
                break
            beta, f, g = cand, f_c, g_c
            H = _smoothed_hessian(instance, cells, beta, mu, Z)
    return beta


def _merge_twins(instance):
    """(market, group): buyers whose ``c`` and ``d`` rows are exactly equal
    (twins) merged into one buyer with the group's summed budget, numbered by
    first appearance, and each original buyer's index in that market; group
    is None, and the market the instance itself, when there are no twins.
    At the equilibrium twins share one utility price, and restricted to equal
    twin betas the dual is the merged market's, so the merged optimum, with
    every twin at its group's beta, is the original one."""
    rows = np.concatenate([instance.c, instance.d], axis=1)
    # twins share every column, so a first column with no repeated value
    # rules them out at a tenth of the cost of the row-wise unique
    col = np.sort(rows[:, 0])
    if (col[1:] != col[:-1]).all():
        return instance, None
    _, first, inverse = np.unique(rows, axis=0, return_index=True,
                                  return_inverse=True)
    if first.size == instance.n:
        return instance, None
    keep = np.sort(first)
    group = np.searchsorted(keep, first[inverse.ravel()])
    market = MarketInstance(
        budgets=np.bincount(group, weights=instance.budgets),
        grid=instance.grid, c=instance.c[keep], d=instance.d[keep],
        mode=instance.mode)
    return market, group


def solve(instance: MarketInstance, config: SolveConfig = None) -> EquilibriumResult:
    """Compute a certified equilibrium; raises NotConverged (carrying the best
    iterate) when the duality gap cannot be pushed below config.gap_tol.
    Twins are solved as one buyer (``_merge_twins``); the result, its gap
    and its checks are those of ``instance`` at the merged prices."""
    cfg = config or SolveConfig()
    check_tolerance("gap_tol", cfg.gap_tol)
    check_count("max_iter", cfg.max_iter, 1)
    market, group = _merge_twins(instance)
    B = market.budgets
    lo, hi = beta_bounds(market)
    C = duality_constant(market)
    evals = 0
    best_bound = -np.inf
    best_gap = np.inf
    best_gn = np.inf
    best = None                   # (beta, psi, tie-split useg, envelope)
    gap_history = []

    def assess(b):
        # the gap certifies optimality, the projected gradient norm controls
        # how faithfully targets B/beta match the winning utilities (a buyer
        # held at the cap keeps money instead); prefer iterates better in the
        # gap, then in the gradient at equal gap
        nonlocal evals, best_bound, best_gap, best_gn, best
        psi, g, useg, env = dual_subgradient(market, b)
        evals += 1
        useg = _split_winning_ties(market, b, useg)
        g = useg.sum(axis=1) - market.budgets / b
        best_bound = max(best_bound, _primal(market, useg.sum(axis=1))[0] + C)
        gap = psi - best_bound
        gn = float(np.abs(np.where(_held(b, g, lo, hi), 0.0, g)).max())
        if (best is None or gap < best_gap - 1e-15
                or (gap <= best_gap + 1e-14 and gn < best_gn)):
            best_gap = min(gap, best_gap)
            best_gn = gn
            best = (b.copy(), psi, useg, env)
        gap_history.append(best_gap)
        return psi, g, env, gap, gn

    def polished():
        # the iterate to be returned meets both targets; past them psi is flat
        # to roundoff, and steps accepted on one-ulp changes only wander
        return ((best_gap <= _GAP_FLOOR and best_gn <= 1e-11)
                or evals >= cfg.max_iter)

    cells = _smoothing_cells(market)
    curvature_mu = _CURVATURE_MU * min(1.0, 100.0 / market.n)
    beta = _smoothed_start(market, cells)
    psi, g, env, _, gn = assess(beta)
    stalled = False
    alpha = 1.0                   # the step length last accepted
    curvature = None
    while not polished():
        H = _envelope_hessian(market, env, beta)
        if best_gap > _CURVATURE_GAP:
            # the exact Hessian sees only the current envelope structure; a
            # step that changes it meets more curvature, which the smoothed
            # dual's Hessian (barrier included) supplies.  After a damped
            # step the last one is kept: rebuilding it there buys no step
            if curvature is None or alpha == 1.0:
                curvature = _smoothed_dual(market, cells, beta, curvature_mu)[2]
            H += curvature
        else:
            H.flat[::beta.size + 1] += B / beta ** 2
        step = _free_newton_step(H, g, beta, lo, hi)
        before = best
        alpha = min(1.0, 2.0 * alpha)   # damped steps recur: twice the last one
        for _ in range(25):
            cand = np.clip(beta + alpha * step, lo, hi)
            # a step below the float spacing at beta leaves it unchanged, and
            # so does every shorter one: evaluating beta again finds nothing
            stalled = np.array_equal(cand, beta)
            if stalled:
                break
            psi_c, g_c, env_c, gap_c, gn_c = assess(cand)
            # near the floor psi is flat to roundoff while Newton still
            # shrinks the gradient; accept on either signal
            if (psi_c < psi or (psi_c <= psi and gn_c < gn)
                    or gap_c < best_gap * 0.999):
                beta, psi, g, env, gn = cand, psi_c, g_c, env_c, gn_c
                break
            alpha *= 0.5
            if polished():
                break
        else:
            stalled = True
        if stalled:
            break
        if best is before and best_gap <= _GAP_FLOOR:
            # psi is flat to roundoff: a step accepted on a one-ulp change
            # that leaves the best iterate alone only wanders
            break

    why = ("Newton stalled" if stalled
           else "evaluation budget exhausted" if evals >= cfg.max_iter
           else "gap at roundoff level")
    if group is not None:
        # every twin takes its group's beta; there the twins' lines tie
        # exactly, and the tie split shares their region by remaining budget
        beta = best[0][group]
        psi, _, useg, env = dual_subgradient(instance, beta)
        evals += 1
        best = (beta, psi, _split_winning_ties(instance, beta, useg), env)
    result = _result(instance, *best, iterations=evals, gap_history=gap_history)
    if result.gap > cfg.gap_tol:
        raise NotConverged(
            f"duality gap {result.gap:.3e} above tolerance {cfg.gap_tol:.3e} "
            f"after {evals} evaluations: {why}", result=result, gap=result.gap)
    # the gap is quadratic in the utility error, so a gap far below gap_tol
    # can still leave utilities off their targets B / beta by ~sqrt(gap)
    identity = float(np.abs(result.u - instance.budgets / result.beta).max())
    if identity > _IDENTITY_TOL:
        raise NotConverged(
            f"utility-price residual {identity:.3e} above {_IDENTITY_TOL:.0e} "
            f"at duality gap {result.gap:.3e} after {evals} evaluations: {why}",
            result=result, gap=result.gap)
    return result
