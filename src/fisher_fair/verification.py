"""Solution certificates: KKT residuals, duality gap, fairness, and an
independent discretized-market oracle.

``check_equilibrium`` rebuilds the price envelope from beta and measures
every optimality condition of the reported pure allocation; it reports and
never throws on a bad solution, only on a malformed allocation.
``fairness`` evaluates budget-weighted envy and proportionality exactly.
Both flatten the allocation once into (owner, lo, hi) arrays and value all
its overlaps with envelope pieces or grid segments in one array pass.
``discretized_oracle`` runs proportional
response dynamics on a finite split of [0, 1]; the dynamics share no code
path or algorithmic idea with the solvers, which makes them a genuinely
independent cross-check (accurate to the O(1/m) discretization error).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dual_solver import PureAllocation, duality_constant
from .envelope import upper_envelope
from .errors import NotConverged, ValidationError
from .market import MarketInstance, QUASILINEAR

_TINY = np.finfo(float).tiny

KKT_TOL = 1e-6
FAIR_TOL = 1e-6
ORACLE_GAP_TOL = 1e-8      # discretized gap at which proportional response stops
ORACLE_MAX_ROUNDS = 500000


@dataclass
class KktReport:
    market_clear_residual: float
    budget_residuals: np.ndarray
    utility_price_residuals: np.ndarray
    comp_slack_residuals: np.ndarray
    price_mass_residual: float
    duality_gap: float
    ql_delta_residuals: np.ndarray
    tol: float
    passed: bool = field(init=False)

    def __post_init__(self):
        worst = max(self.market_clear_residual,
                    float(np.max(self.budget_residuals)),
                    float(np.max(self.utility_price_residuals)),
                    float(np.max(self.comp_slack_residuals)),
                    self.price_mass_residual,
                    self.duality_gap,
                    float(np.max(self.ql_delta_residuals)))
        self.passed = bool(worst <= self.tol)

    def to_json(self):
        return {
            "market_clear_residual": self.market_clear_residual,
            "budget_residuals": self.budget_residuals.tolist(),
            "utility_price_residuals": self.utility_price_residuals.tolist(),
            "comp_slack_residuals": self.comp_slack_residuals.tolist(),
            "price_mass_residual": self.price_mass_residual,
            "duality_gap": self.duality_gap,
            "ql_delta_residuals": self.ql_delta_residuals.tolist(),
            "tol": self.tol,
            "pass": self.passed,
        }


@dataclass
class FairnessReport:
    envy: np.ndarray              # envy[i, j] = <v_i, x_j>/B_j - <v_i, x_i>/B_i
    proportionality: np.ndarray   # u_i - (B_i/||B||_1) v_i(Theta)
    pareto_gap: float
    ceei: bool
    tol: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = bool(float(np.max(self.envy)) <= self.tol
                           and float(np.min(self.proportionality)) >= -self.tol)

    def to_json(self):
        return {
            "envy": self.envy.tolist(),
            "proportionality": self.proportionality.tolist(),
            "pareto_gap": self.pareto_gap,
            "ceei": self.ceei,
            "tol": self.tol,
            "pass": self.passed,
        }


def _validate_allocation(instance, allocation):
    """(owner, lo, hi) arrays of the allocation's intervals of positive
    length, buyer by buyer in listing order.  Raises ValidationError unless
    there is one interval list per buyer, every interval (leftover included)
    lies in [0, 1] and no two overlap; each error names the first offending
    interval."""
    if len(allocation.intervals) != instance.n:
        raise ValidationError(f"allocation has {len(allocation.intervals)} "
                              f"interval lists for {instance.n} buyers")
    ivs = [iv for buyer in allocation.intervals for iv in buyer]
    owner = np.repeat(np.arange(instance.n),
                      [len(buyer) for buyer in allocation.intervals])
    lo, hi = np.array([(iv.lo, iv.hi) for iv in ivs + allocation.leftover],
                      dtype=float).reshape(-1, 2).T
    out = np.flatnonzero((lo < -1e-12) | (hi > 1.0 + 1e-12))
    if out.size:
        t = int(out[0])
        where = (f"buyer {int(owner[t])} interval {ivs[t]}" if t < len(ivs)
                 else f"leftover interval {allocation.leftover[t - len(ivs)]}")
        raise ValidationError(f"{where} leaves [0, 1]")
    spans = hi - lo > 0
    order = np.lexsort((hi[spans], lo[spans]))
    l, h = lo[spans][order], hi[spans][order]
    bad = np.flatnonzero(l[1:] < h[:-1] - 1e-9)
    if bad.size:
        pair = slice(bad[0], bad[0] + 2)
        (l1, l2), (h1, h2) = l[pair].tolist(), h[pair].tolist()
        raise ValidationError(
            f"allocation intervals overlap: [{l1}, {h1}] and [{l2}, {h2}]")
    keep = spans[:len(ivs)]
    return owner[keep], lo[:len(ivs)][keep], hi[:len(ivs)][keep]


def _overlaps(points, locate, lo, hi):
    """(interval, piece, left, right) of every overlap of positive length
    between the intervals [lo, hi] (each of positive length) and the pieces
    [points[j], points[j + 1]] that ``locate`` finds, interval by interval
    and left to right within one."""
    first = locate(lo)
    count = locate(np.nextafter(hi, lo)) - first + 1
    t = np.repeat(np.arange(lo.size), count)
    j = first[t] + np.arange(t.size) - np.repeat(np.cumsum(count) - count, count)
    left = np.maximum(lo[t], points[j])
    right = np.minimum(hi[t], points[j + 1])
    keep = right > left
    return t[keep], j[keep], left[keep], right[keep]


def check_equilibrium(instance: MarketInstance, allocation: PureAllocation,
                      beta, tol: float = KKT_TOL, delta=None) -> KktReport:
    """KKT residual report for a pure allocation at utility prices beta.

    Rebuilds p = max_i beta_i v_i and measures: the p-mass left unallocated
    (market clearance), |<p, x_i> - spend_i| (budget depletion),
    |<v_i, x_i> - target_i| (the utility-price identity), the sup of
    p - beta_i v_i over buyer i's intervals (complementary slackness), the
    envelope mass against total spend, and the duality gap after adding the
    constant C to the primal.  In quasilinear mode spend_i = B_i - delta_i,
    target_i = B_i/beta_i - delta_i, and the complementarity residuals
    |delta_i (1 - beta_i)| are included.  Every (interval, envelope piece)
    overlap is valued at once; masses are summed per interval, then per
    buyer, each in order.
    """
    beta = np.asarray(beta, dtype=float)
    n = instance.n
    B = instance.budgets
    delta = np.zeros(n) if delta is None else np.asarray(delta, dtype=float)
    if delta.shape != (n,) or not np.all(np.isfinite(delta)):
        raise ValidationError("delta must be finite, one entry per buyer")
    owner, lo, hi = _validate_allocation(instance, allocation)
    env = upper_envelope(instance, beta)
    p_total = env.integral()
    t, j, left, right = _overlaps(env.breakpoints, env.locate, lo, hi)
    i, k = owner[t], env.segments[j]
    ci, di, sb = instance.c[i, k], instance.d[i, k], beta[i]
    mid = 0.5 * (left + right)
    length = right - left
    sup = np.maximum(*[(env.cs[j] * x + env.ds[j]) - sb * (ci * x + di)
                       for x in (left, right)])
    # each buyer's sup starts at 0; a gap that is not positive adds +0.0
    comp = np.zeros(n)
    np.maximum.at(comp, i, np.where(sup > 0.0, sup, 0.0))

    def per_buyer(w):
        return np.bincount(owner, weights=np.bincount(t, weights=w, minlength=lo.size),
                           minlength=n)

    spend = per_buyer(length * (env.cs[j] * mid + env.ds[j]))
    u = per_buyer(length * (ci * mid + di))
    budget = np.abs(spend - (B - delta))
    uprice = np.abs(u - (B / beta - delta))
    # cumsum adds in buyer order, as a running total would
    market_clear = abs(p_total - float(np.cumsum(spend)[-1]))
    mass_target = float(B.sum() - delta.sum())
    price_mass = abs(p_total - mass_target)
    C = duality_constant(instance)
    dual = p_total - float(np.dot(B, np.log(beta)))
    # in linear mode delta is zero, so both terms it enters add exact zeros
    ueg = u + delta
    with np.errstate(divide="ignore"):
        primal = (float(np.dot(B, np.log(ueg)) - delta.sum())
                  if np.all(ueg > 0) else -np.inf)
    ql_res = np.abs(delta * (1.0 - beta))
    gap = dual - (primal + C)
    return KktReport(market_clear_residual=float(market_clear),
                     budget_residuals=budget,
                     utility_price_residuals=uprice,
                     comp_slack_residuals=comp,
                     price_mass_residual=float(price_mass),
                     duality_gap=float(gap),
                     ql_delta_residuals=ql_res,
                     tol=tol)


def _values(instance, owner, lo, hi):
    """(n, n) matrix of <v_i, x_j>, exact: every buyer's value of every
    (interval, grid segment) overlap at once, summed per interval, then per
    owner, each in order."""
    n, m = instance.n, lo.size
    grid = instance.grid
    t, k, left, right = _overlaps(grid.points, grid.locate, lo, hi)
    value = instance.c[:, k]
    value *= 0.5 * (left + right)
    value += instance.d[:, k]
    value *= right - left
    rows = np.arange(n)[:, None]
    per_interval = np.bincount((rows * m + t).ravel(), weights=value.ravel(),
                               minlength=n * m)
    return np.bincount((rows * n + owner).ravel(), weights=per_interval,
                       minlength=n * n).reshape(n, n)


def fairness(instance: MarketInstance, allocation: PureAllocation,
             tol: float = FAIR_TOL) -> FairnessReport:
    """Budget-weighted envy matrix and proportionality slacks, computed with
    exact interval integrals.  The Pareto certificate is the duality gap at
    the allocation-implied utility prices B_i / u_i."""
    owner, lo, hi = _validate_allocation(instance, allocation)
    n = instance.n
    B = instance.budgets
    vals = _values(instance, owner, lo, hi)
    u = np.diag(vals).copy()
    per_budget = vals / B[None, :]
    envy = per_budget - np.diag(per_budget)[:, None]
    np.fill_diagonal(envy, 0.0)
    prop = u - (B / B.sum()) * instance.total_values
    if np.all(u > 0):
        beta_implied = np.clip(B / u, 1e-300, None)
        env = upper_envelope(instance, beta_implied)
        gap = (env.integral() - float(np.dot(B, np.log(beta_implied)))
               - (float(np.dot(B, np.log(u))) + duality_constant(instance)))
    else:
        gap = float("inf")
    ceei = bool(np.allclose(B, B[0]))
    return FairnessReport(envy=envy, proportionality=prop, pareto_gap=float(gap),
                          ceei=ceei, tol=tol)


@dataclass
class OracleResult:
    beta: np.ndarray
    u: np.ndarray
    rounds: int
    cells: int

    def to_json(self):
        return {"beta": self.beta.tolist(), "u": self.u.tolist(),
                "rounds": self.rounds, "cells": self.cells}


def discretized_oracle(instance: MarketInstance, m: int) -> OracleResult:
    """Proportional response dynamics on the m-cell discretization.

    Linear mode: bids b_ij <- B_i v_ij x_ij / u_i, prices p_j = sum_i b_ij,
    allocations x_ij = b_ij / p_j.  Quasilinear mode adds a per-buyer idle
    slot of unit price absorbing unspent budget, so buyers whose value per
    unit money falls below one end up with beta_i = 1.  The run stops when
    the discretized market's own duality-gap certificate (checked
    periodically on the implied beta_i = B_i / u_i) drops below
    ORACLE_GAP_TOL, so the returned prices are within
    sqrt(2 * ORACLE_GAP_TOL / min B) of the discretized optimum.  A run
    whose certificate is still above ORACLE_GAP_TOL (or NaN) after
    ORACLE_MAX_ROUNDS rounds raises NotConverged carrying the last iterate
    as its ``result`` and that certificate as its ``gap``.

    Bids on cells a buyer loses decay geometrically and would otherwise fill
    x with subnormal floats, which make every later round several times
    slower.  Entries below the smallest normal float are set to zero after
    each round, as flush-to-zero hardware would do; they are too small to
    move any buyer's utility or any cell's price at double precision, so the
    dynamics and the stopping round are unchanged.
    """
    if m < 1:
        raise ValidationError("oracle needs at least one cell")
    n = instance.n
    B = instance.budgets
    C = duality_constant(instance)
    edges = np.linspace(0.0, 1.0, m + 1)
    lo, hi = edges[:-1], edges[1:]
    seg = instance.grid.locate(0.5 * (lo + hi))
    length = hi - lo
    mid = 0.5 * (lo + hi)
    V = length[None, :] * (instance.c[:, seg] * mid[None, :] + instance.d[:, seg])
    V = np.maximum(V, 0.0)
    ql = instance.mode == QUASILINEAR

    def certificate(u_prog, delta):
        if np.any(u_prog <= 0):
            return np.inf
        beta = B / u_prog
        if ql:
            beta = np.clip(beta, None, 1.0)
        psi = float(np.max(beta[:, None] * V, axis=0).sum()
                    - np.dot(B, np.log(beta)))
        primal = float(np.dot(B, np.log(u_prog)) - delta.sum())
        return psi - (primal + C)

    def result(u_prog, rounds):
        beta = B / u_prog
        if ql:
            beta = np.clip(beta, None, 1.0)
        return OracleResult(beta=beta, u=u_prog, rounds=rounds, cells=m)

    x = np.full((n, m), 1.0 / n)
    idle = np.full(n, 0.1 * B.min()) if ql else np.zeros(n)
    won = np.empty_like(x)
    for rounds in range(1, ORACLE_MAX_ROUNDS + 1):
        np.multiply(V, x, out=won)
        u = won.sum(axis=1)
        total = u + idle if ql else np.maximum(u, 1e-300)
        if ql:
            idle = B * idle / total
        won *= (B / total)[:, None]
        p = won.sum(axis=0)
        np.divide(won, np.maximum(p, 1e-300)[None, :], out=x)
        x[x < _TINY] = 0.0
        if rounds % 64 == 0 or rounds == ORACLE_MAX_ROUNDS:
            u_prog = (V * x).sum(axis=1) + idle
            gap = certificate(u_prog, idle)
            if gap <= ORACLE_GAP_TOL:
                break
    else:
        raise NotConverged(
            f"proportional response certificate stuck at {gap:.3e} "
            f"after {ORACLE_MAX_ROUNDS} rounds",
            result=result(u_prog, ORACLE_MAX_ROUNDS), gap=gap)
    return result(u_prog, rounds)
