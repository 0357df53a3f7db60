"""Deterministic equilibrium computation on the reduced dual.

The dual psi(beta) = integral(max_i beta_i v_i) - sum_i B_i log beta_i is
minimized over the box containing the optimum.  Every winning-set evaluation
also yields a feasible primal value (the winning sets are an actual
allocation), so sum_i B_i log u_i + C is a certified lower bound on psi and
the duality gap is available at every iterate.  The run has two phases:

1. projected subgradient steps, Polyak-sized when a lower bound is known
   (or eta0/sqrt(t) with ``step_schedule="sqrt"``),
2. a projected Newton polish: the envelope crossing points depend smoothly on
   beta, so the winning-utility Jacobian (the Hessian of the envelope
   integral) is available in closed form piece by piece, and Newton steps
   drive the gap to roundoff level.

Acceptance of a solution is by the certified duality gap, never by iteration
count.  Allocation extraction projects the utility targets B_i / beta_i onto
each segment's feasible set by scaling the winning per-segment utilities and
re-cutting with the partition routine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .envelope import PiecewiseLinearFunction, beta_bounds, dual_subgradient
from .errors import NotConverged, ValidationError
from .feasible import partition_segment
from .market import Interval, MarketInstance, QUASILINEAR

GAP_TOL = 1e-8
_GAP_FLOOR = 1e-13        # stop polishing below this gap
_NEWTON_ITERS = 80        # Newton steps of the polish phase
_BOUNDARY_SNAP = 1e-12    # beta this close to a box face counts as active


@dataclass
class SolveConfig:
    max_iter: int = 2000            # total envelope evaluations allowed
    gap_tol: float = GAP_TOL
    step_schedule: str = "polyak"   # "polyak" | "sqrt"
    eta0: float = 0.1
    subgradient_iters: int = 200    # phase-1 budget before Newton takes over


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
            intervals=[[Interval(lo, hi) for lo, hi in ivs]
                       for ivs in doc["intervals"]],
            leftover=[Interval(lo, hi) for lo, hi in doc.get("leftover", [])])


@dataclass
class EquilibriumResult:
    beta: np.ndarray
    u: np.ndarray                 # utilities of the extracted allocation
    useg: np.ndarray              # (n, K) per-segment utilities
    allocation: PureAllocation
    prices: PiecewiseLinearFunction
    gap: float
    iterations: int
    mode: str
    delta: np.ndarray = None      # quasilinear slack, None in linear mode
    ql_net_utilities: np.ndarray = None
    gap_history: list = None      # best certified gap after each evaluation

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

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")


def duality_constant(instance: MarketInstance) -> float:
    """C = ||B||_1 - sum_i B_i log B_i, the shift aligning primal and dual."""
    B = instance.budgets
    return float(B.sum() - np.dot(B, np.log(B)))


def _primal_value(instance, w):
    """Best primal objective achievable from winning utilities w (and its delta).

    Linear mode: sum_i B_i log w_i (-inf when some w_i is 0).  Quasilinear
    mode: delta_i = max(0, B_i - w_i) tops utilities up to the unconstrained
    maximizer of B_i log(w_i + delta) - delta.
    """
    B = instance.budgets
    if instance.mode == QUASILINEAR:
        delta = np.maximum(B - w, 0.0)
        ueg = w + delta
        return float(np.dot(B, np.log(ueg)) - delta.sum()), delta
    if np.any(w <= 0):
        return -np.inf, None
    return float(np.dot(B, np.log(w))), None


def _split_winning_ties(instance, beta, useg, tol=1e-9):
    """Redistribute winning mass within groups of (near-)identical scaled lines.

    The smallest-index tie rule hands a whole tied region to one buyer, which
    is a valid subgradient selection but a useless primal: tied buyers with
    positive budgets would be stuck at zero utility.  Within each group of
    buyers whose scaled densities coincide on a segment (up to ``tol``), any
    split of the group's winnings is attainable, so share them in proportion
    to budgets, matching the equilibrium identity u_i = B_i / beta_i for
    equal betas.  Returns a rebalanced copy (or the input when no ties).
    """
    M = beta[:, None] * instance.c
    Q = beta[:, None] * instance.d
    order = np.lexsort((Q, M), axis=0)
    at = np.arange(instance.num_segments)
    ms, qs = M[order, at], Q[order, at]
    close = (np.abs(np.diff(ms, axis=0)) <= tol * (1.0 + np.abs(ms[:-1]))) & (
        np.abs(np.diff(qs, axis=0)) <= tol * (1.0 + np.abs(qs[:-1])))
    B = instance.budgets
    out = None
    for k in np.flatnonzero(close.any(axis=0)):
        bounds = np.concatenate([[0], np.flatnonzero(~close[:, k]) + 1, [instance.n]])
        for start, stop in zip(bounds[:-1], bounds[1:]):
            group = order[start:stop, k]
            if group.size < 2:
                continue
            mass = useg[group, k].sum()
            if mass <= 0.0:
                continue
            if out is None:
                out = useg.copy()
            out[group, k] = mass * (B[group] / B[group].sum())
    return useg if out is None else out


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


def _extract_allocation(instance, beta, useg_win):
    """Pure allocation from targets B_i / beta_i split across segments
    proportionally to the winning per-segment utilities."""
    B = instance.budgets
    w = useg_win.sum(axis=1)
    targets = B / beta
    scale = np.ones(instance.n)
    pos = w > 0
    scale[pos] = targets[pos] / w[pos]
    at_top = beta >= 1.0 - _BOUNDARY_SNAP
    scale[at_top & pos] = np.minimum(scale[at_top & pos], 1.0)
    scale = np.clip(scale, 0.0, 2.0)
    # at convergence the winning utilities already meet the targets; snapping
    # the factor to 1 lets the partition reproduce the winning sets exactly
    # instead of shorting the last buyer of each segment by the residual
    scale[np.abs(scale - 1.0) <= 1e-6] = 1.0
    scale[~pos] = 0.0
    goal = useg_win * scale[:, None]
    # marginal winning slivers at imperfect beta would be re-cut into another
    # buyer's winning region; the value lost by dropping them is below any
    # reported tolerance
    goal[goal < 1e-9] = 0.0
    intervals = [[] for _ in range(instance.n)]
    leftover = []
    useg = np.zeros_like(useg_win)
    for k in range(instance.num_segments):
        seg = instance.grid.segment(k)
        parts = partition_segment(instance, k, goal[:, k], clamp=True)
        kept = [(i, p) for i, p in enumerate(parts) if p.length > 1e-12]
        if not kept:
            leftover.append(seg)
            continue
        # roundoff slivers at the segment end would hand a non-winner a
        # measure-zero slice with an O(1) pointwise price gap; extend the
        # rightmost real piece to the boundary instead
        right = max(range(len(kept)), key=lambda t: kept[t][1].hi)
        i_r, p_r = kept[right]
        kept[right] = (i_r, Interval(p_r.lo, seg.hi))
        for i, part in kept:
            intervals[i].append(part)
            mid = 0.5 * (part.lo + part.hi)
            useg[i, k] = part.length * (instance.c[i, k] * mid + instance.d[i, k])
    return PureAllocation(intervals=intervals, leftover=leftover), useg


def quasilinear_postprocess(instance: MarketInstance, beta, u_alloc):
    """Quasilinear slack variables and net utilities at a solution.

    Buyers at beta_i = 1 may leave budget unspent: delta_i tops the program
    utility up to B_i.  For beta_i < 1 complementarity forces delta_i = 0 and
    the program utility equals the allocation value.  The reported quasilinear
    (value-minus-payment) utility is (1 - beta_i) * u_i.
    """
    B = instance.budgets
    at_top = beta >= 1.0 - _BOUNDARY_SNAP
    delta = np.where(at_top, np.maximum(B - u_alloc, 0.0), 0.0)
    ueg = u_alloc + delta
    net = (1.0 - beta) * ueg
    return delta, ueg, net


def duality_gap(instance: MarketInstance, beta, psi, u):
    """Certified gap psi(beta) - (primal + C) of an allocation worth u.

    Returns (gap, program utilities, delta, net utilities).  In quasilinear
    mode the utilities are first topped up by ``quasilinear_postprocess``;
    delta and the net utilities are None in linear mode.  A zero utility
    makes the primal -inf and the gap inf.
    """
    delta = net = None
    if instance.mode == QUASILINEAR:
        delta, u, net = quasilinear_postprocess(instance, beta, u)
        with np.errstate(divide="ignore"):
            primal = float(np.dot(instance.budgets, np.log(u)) - delta.sum())
    else:
        primal, _ = _primal_value(instance, u)
    return psi - (primal + duality_constant(instance)), u, delta, net


def allocation_from_beta(instance: MarketInstance, beta) -> EquilibriumResult:
    """Extract a pure allocation and its gap certificate at given utility
    prices (e.g. a stochastic average); no further optimization happens."""
    beta = np.clip(np.asarray(beta, dtype=float), *beta_bounds(instance))
    psi, _, useg_win, env = dual_subgradient(instance, beta)
    useg_win = _split_winning_ties(instance, beta, useg_win)
    allocation, useg = _extract_allocation(instance, beta, useg_win)
    gap, u, delta, net = duality_gap(instance, beta, psi, useg.sum(axis=1))
    return EquilibriumResult(beta=beta, u=u, useg=useg, allocation=allocation,
                             prices=env, gap=float(gap), iterations=1,
                             mode=instance.mode, delta=delta,
                             ql_net_utilities=net)


def solve(instance: MarketInstance, config: SolveConfig = None) -> EquilibriumResult:
    """Compute a certified equilibrium; raises NotConverged (carrying the best
    iterate) when the duality gap cannot be pushed below config.gap_tol."""
    cfg = config or SolveConfig()
    if cfg.step_schedule not in ("polyak", "sqrt"):
        raise ValidationError(f"unknown step schedule {cfg.step_schedule!r}")
    B = instance.budgets
    lo, hi = beta_bounds(instance)
    C = duality_constant(instance)
    beta = np.clip(0.5 * (lo + hi), lo, hi)
    evals = 0
    best_bound = -np.inf
    best_gap = np.inf
    best_gn = np.inf
    best_beta = beta.copy()
    gap_history = []

    def assess(b):
        # the gap certifies optimality, the gradient norm controls how
        # faithfully targets B/beta match the winning utilities; prefer
        # iterates better in the gap, then in the gradient at equal gap
        nonlocal evals, best_bound, best_gap, best_gn, best_beta
        psi, g, useg, env = dual_subgradient(instance, b)
        evals += 1
        useg = _split_winning_ties(instance, b, useg)
        g = useg.sum(axis=1) - instance.budgets / b
        primal, _ = _primal_value(instance, useg.sum(axis=1))
        best_bound = max(best_bound, primal + C)
        gap = psi - best_bound
        gn = float(np.abs(g).max())
        if gap < best_gap - 1e-15 or (gap <= best_gap + 1e-14 and gn < best_gn):
            best_gap = min(gap, best_gap)
            best_gn = gn
            best_beta = b.copy()
        gap_history.append(best_gap)
        return psi, g, useg, env, gap

    psi, g, useg, env, gap = assess(beta)
    # phase 1: projected subgradient
    for t in range(1, cfg.subgradient_iters + 1):
        if best_gap <= cfg.gap_tol * 1e-2 or evals >= cfg.max_iter:
            break
        if best_gap <= 1e-3:
            break
        gnorm2 = float(np.dot(g, g))
        if gnorm2 <= 0.0:
            break
        if cfg.step_schedule == "polyak" and np.isfinite(best_bound):
            eta = max(psi - best_bound, 0.0) / gnorm2
            if eta <= 0.0:
                eta = cfg.eta0 / np.sqrt(t)
        else:
            eta = cfg.eta0 / np.sqrt(t)
        beta = np.clip(beta - eta * g, lo, hi)
        psi, g, useg, env, gap = assess(beta)

    # phase 2: projected Newton polish
    beta = best_beta.copy()
    psi, g, useg, env, gap = assess(beta)
    gn = float(np.abs(g).max())
    stall = 0
    for _ in range(_NEWTON_ITERS):
        if (best_gap <= _GAP_FLOOR and gn <= 1e-11) or evals >= cfg.max_iter:
            break
        H = _envelope_hessian(instance, env, beta) + np.diag(B / beta ** 2)
        free = ~(((beta >= hi - _BOUNDARY_SNAP) & (g < 0))
                 | ((beta <= lo + _BOUNDARY_SNAP) & (g > 0)))
        step = np.zeros_like(beta)
        if free.any():
            Hf = H[np.ix_(free, free)]
            try:
                step[free] = np.linalg.solve(
                    Hf + 1e-14 * np.eye(Hf.shape[0]), -g[free])
            except np.linalg.LinAlgError:
                step[free] = -g[free]
        improved = False
        alpha = 1.0
        for _ls in range(25):
            cand = np.clip(beta + alpha * step, lo, hi)
            psi_c, g_c, useg_c, env_c, gap_c = assess(cand)
            gn_c = float(np.abs(g_c).max())
            # near the floor psi is flat to roundoff while Newton still
            # shrinks the gradient; accept on either signal
            if (psi_c < psi or (psi_c <= psi and gn_c < gn)
                    or gap_c < best_gap * 0.999):
                beta, psi, g, useg, env, gap = (cand, psi_c, g_c, useg_c,
                                                env_c, gap_c)
                gn = gn_c
                improved = True
                break
            alpha *= 0.5
            if evals >= cfg.max_iter:
                break
        if not improved:
            stall += 1
            if stall >= 2:
                break
            eta = min(max(psi - best_bound, 0.0)
                      / max(float(np.dot(g, g)), 1e-30), 0.05)
            cand = np.clip(beta - eta * g, lo, hi)
            psi, g, useg, env, gap = assess(cand)
            gn = float(np.abs(g).max())
            beta = cand
        else:
            stall = 0

    beta = best_beta
    psi, g, useg_win, env, _ = assess(beta)
    allocation, useg = _extract_allocation(instance, beta, useg_win)
    u_alloc = useg.sum(axis=1)
    gap_final, u_report, delta, net = duality_gap(instance, beta, psi, u_alloc)
    # the allocation-implied beta makes the utility-price identity exact and
    # often carries a sharper certificate; keep whichever pair is better
    if np.all(u_alloc > 0):
        beta_alt = np.clip(B / u_alloc, lo, hi)
        if not np.allclose(beta_alt, beta, rtol=0, atol=1e-15):
            psi_alt, _, _, env_alt, _ = assess(beta_alt)
            gap_alt, u_alt, delta_alt, net_alt = duality_gap(instance, beta_alt,
                                                             psi_alt, u_alloc)
            if np.isfinite(gap_alt) and (not np.isfinite(gap_final)
                                         or gap_alt < gap_final):
                beta, gap_final, u_report, delta, net, env = (
                    beta_alt, gap_alt, u_alt, delta_alt, net_alt, env_alt)
    result = EquilibriumResult(
        beta=beta, u=u_report, useg=useg, allocation=allocation, prices=env,
        gap=float(gap_final if np.isfinite(gap_final) else np.inf),
        iterations=evals, mode=instance.mode, delta=delta, ql_net_utilities=net,
        gap_history=gap_history)
    if not np.isfinite(gap_final) or gap_final > cfg.gap_tol:
        raise NotConverged(
            f"duality gap {gap_final:.3e} above tolerance {cfg.gap_tol:.3e} "
            f"after {evals} evaluations", result=result, gap=float(gap_final))
    return result
