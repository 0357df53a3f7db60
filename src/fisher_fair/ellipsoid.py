"""Ellipsoid method on the perturbed per-segment utility program.

The working vector is y = (uhat, s, t): the rescaled per-segment utilities
uhat_kj (sorted per segment, one per active buyer) and one (s, t) pair per
adjacent sorted pair of a segment.  The rest of the program's variables are
exact linear images of y and are not coordinates: useg_ik = lam_ik * uhat_kj,
u_i = sum_k useg_ik and (z, w) = G(s, t); ``PerturbedSystem.expand`` returns
them all.  The rows are the program's constraints written through those
links:

* u_i <= 1 and u_i >= min(B_i, eps_internal / 2), on sum_k lam_ik uhat_kj;
* uhat >= 0;
* the chain uhat_0 <= z_0, uhat_j <= z_j + w_(j-1), uhat_(m-1) <= 1 + w_(m-2),
  each enlarged by eps_internal so the region contains a ball;
* the order rows z_j + w_(j-1) >= 0 for the middle buyers (a buyer's
  interval has nonnegative value, so the cuts stay in order);
* the boxes 0 <= z <= 1, -1 <= w <= 0, 0 <= s <= 1 and 0 <= t <= 1;
* the exact parabola pairs t >= s^2.

The objective f(y) = -sum_i B_i log u_i is minimized by deep cuts:

* separation oracle: most-violated linear row, else the tangent hyperplane
  with normal (2 s0, -1) at a violated parabola pair, else "inside";
* first-order oracle: f(y) and its gradient E_u' (-B / u) from one u = E_u y.

Each cut keeps only the half-space its constraint implies, so it reaches past
the center by the violation depth (Bland, Goldfarb & Todd 1981): the row
residual, s0^2 - t0 for the tangent 2 s0 s - t <= s0^2, or f(y_c) - f_best
for an objective cut, which keeps the level set {f <= f_best}.  The feasible
set and the optimum stay inside every ellipsoid, so a running lower bound
f(y_c) - sqrt(g' P g) from every objective cut gives a stopping certificate
well before the worst-case call count; the worst-case budget (a constant
multiple of the dimension-squared-times-log bound) still caps the loop and is
reported.  The shape matrix P is kept as a running scalar times a matrix
updated in place: each step's rank-one downdate is buffered as one row of a
small matrix, which a single matrix product folds in every _FOLD steps.  The
returned utilities are discounted back to exact per-segment feasibility and
turned into a pure allocation by ``dual_solver.pure_allocation``, which
cuts every segment greedily (there is no envelope to read them off) and
whose remainder rule (the last buyer with a positive utility) clears the
market.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .envelope import beta_bounds, dual_subgradient
from .errors import NumericalBreakdown, ValidationError
# cut, membership and partition_segment are unused here; perfbench/spans.py
# patches the names ellipsoid.cut, ellipsoid.membership and
# ellipsoid.partition_segment
from .feasible import greedy_cuts, membership, normalize_segment, partition_segment  # noqa: F401
from .market import MarketInstance, cut  # noqa: F401
from .dual_solver import EquilibriumResult, duality_gap, pure_allocation

_CAP_MULTIPLIER = 4.0
_EPS_MARGIN = 256.0
_MAX_DEPTH = 0.5              # cap on alpha: a shallower cut is still valid
_FOLD = 32                    # rank-one downdates buffered before a fold
_SLOP = 10.0                  # phantom utility the enlarged rows allow, in eps_internal


@dataclass
class PerturbedSystem:
    """Enlarged linear system A y <= b plus exact parabola pairs, in
    y = (uhat, s, t).

    uhat fills y[:num_slots] in ``slots`` order, one (k, j, i) per
    coordinate; s and t then fill one block each in ``pairs`` order, one
    (k, j) per pair, so the parabola pairs are (s_block[p], t_block[p]).
    """

    instance: MarketInstance
    eps_internal: float       # chain enlargement and objective target
    A: np.ndarray
    b: np.ndarray
    segments: list
    dim: int
    slots: list               # (k, j, i) per uhat coordinate
    pairs: list               # (k, j) per adjacent sorted pair
    u_map: np.ndarray         # (n, dim): u = u_map @ y
    G_rows: np.ndarray        # (pairs, 4): z = a s + b t, w = c s + d t
    num_slots: int            # y[:num_slots] is uhat
    s_block: slice            # s of every pair, in ``pairs`` order
    t_block: slice            # t of every pair

    def expand(self, y) -> dict:
        """Named parts of the full vector: u (n,), useg (n, K), uhat, and s,
        t, z, w aligned with ``pairs``."""
        y = np.asarray(y, dtype=float)
        inst = self.instance
        uhat = y[:self.num_slots]
        useg = np.zeros((inst.n, inst.num_segments))
        for p, (k, _, i) in enumerate(self.slots):
            useg[i, k] = float(self.segments[k].lam[i]) * uhat[p]
        s, t = y[self.s_block], y[self.t_block]
        G = self.G_rows
        return {"u": useg.sum(axis=1), "useg": useg, "uhat": uhat.copy(),
                "s": s.copy(), "t": t.copy(),
                "z": G[:, 0] * s + G[:, 1] * t, "w": G[:, 2] * s + G[:, 3] * t}


def build_perturbed_system(instance: MarketInstance,
                           eps_internal: float) -> PerturbedSystem:
    """The rows of the module docstring, built directly in y; a segment no
    buyer values has no coordinates and no rows."""
    n = instance.n
    e = eps_internal
    segments = [normalize_segment(instance, k) for k in range(instance.num_segments)]
    slots = [(k, j, int(i)) for k, seg in enumerate(segments)
             for j, i in enumerate(seg.order)]
    pairs = [(k, j) for k, seg in enumerate(segments)
             for j in range(seg.num_active - 1)]
    S, P = len(slots), len(pairs)
    dim = S + 2 * P
    u_map = np.zeros((n, dim))
    for p, (k, _, i) in enumerate(slots):
        u_map[i, p] = segments[k].lam[i]
    G_rows = np.zeros((P, 4))
    for p, (k, j) in enumerate(pairs):
        (za, zb), (wa, wb) = segments[k].G(j)
        G_rows[p] = za, zb, wa, wb

    rows = []
    rhs = []

    def leq(terms, bound):
        """sum of coef * y[col] over (col, coef) terms <= bound."""
        row = np.zeros(dim)
        for col, coef in terms:
            row[col] += coef
        rows.append(row)
        rhs.append(bound)

    def link(name, p, sign=1.0):
        """Terms of sign * z (name "z") or sign * w (name "w") of pair p in y."""
        a, b = G_rows[p, (0, 1) if name == "z" else (2, 3)]
        return [(S + p, sign * a), (S + P + p, sign * b)]

    B = instance.budgets
    for i in range(n):
        u_terms = [(col, u_map[i, col]) for col in np.flatnonzero(u_map[i])]
        leq(u_terms, 1.0)
        leq([(col, -v) for col, v in u_terms], -min(B[i], e / 2.0))
    u0 = p0 = 0                   # the segment's first uhat and first pair
    for seg in segments:
        m = seg.num_active
        for j in range(m):
            leq([(u0 + j, -1.0)], 0.0)
        if m == 1:
            leq([(u0, 1.0)], 1.0 + e)
        elif m > 1:
            leq([(u0, 1.0)] + link("z", p0, -1.0), e)
            for j in range(1, m - 1):
                # -(value of buyer j's interval) = -(z_j + w_(j-1))
                interval = link("z", p0 + j, -1.0) + link("w", p0 + j - 1, -1.0)
                leq([(u0 + j, 1.0)] + interval, e)
                leq(interval, 0.0)
            leq([(u0 + m - 1, 1.0)] + link("w", p0 + m - 2, -1.0), 1.0 + e)
            for p in range(p0, p0 + m - 1):
                leq(link("z", p), 1.0)
                leq(link("z", p, -1.0), 0.0)
                leq(link("w", p), 0.0)
                leq(link("w", p, -1.0), 1.0)
                leq([(S + p, 1.0)], 1.0)
                leq([(S + p, -1.0)], 0.0)
                leq([(S + P + p, 1.0)], 1.0)
                leq([(S + P + p, -1.0)], 0.0)
            p0 += m - 1
        u0 += m
    return PerturbedSystem(
        instance=instance, eps_internal=e, A=np.asarray(rows), b=np.asarray(rhs),
        segments=segments, dim=dim, slots=slots, pairs=pairs, u_map=u_map,
        G_rows=G_rows, num_slots=S, s_block=slice(S, S + P),
        t_block=slice(S + P, dim))


def feasible_start(system: PerturbedSystem) -> np.ndarray:
    """Uniform-split point: every buyer gets just under 1/n of each segment
    (strictly inside u <= 1 also for one buyer); (s, t) come from the greedy
    cut points of 1/n each, with t nudged strictly inside the parabola
    epigraph."""
    n = system.instance.n
    y = np.zeros(system.dim)
    y[:system.num_slots] = 1.0 / n - system.eps_internal / 2.0
    s = []
    for seg in system.segments:
        points, _, _ = greedy_cuts(seg.c_hat, seg.d_hat, seg.order,
                                   np.full(seg.num_active, 1.0 / n), 0.0, 1.0)
        s.extend(points[:-1])
    y[system.s_block] = s
    y[system.t_block] = np.minimum(np.square(s) + system.eps_internal / 4.0, 1.0)
    return y


def separation_oracle(system: PerturbedSystem, y):
    """None when y satisfies every constraint; otherwise (normal, kind, depth).

    The most-violated linear row returns a view of its row of ``A`` and the
    residual the scan computed; else the first violated parabola pair (s0, t0)
    returns the tangent-line normal, +2 s0 on the s coordinate and -1 on the
    t coordinate, and the violation s0^2 - t0 of the tangent 2 s0 s - t <= s0^2.
    """
    res = system.A @ y
    res -= system.b
    worst = int(res.argmax())
    if res[worst] > 0.0:
        return system.A[worst], "linear", float(res[worst])
    if not system.pairs:
        return None
    s, t = y[system.s_block], y[system.t_block]
    viol = s * s > t
    p = int(viol.argmax())
    if not viol[p]:
        return None
    g = np.zeros(system.dim)
    g[system.s_block.start + p] = 2.0 * s[p]
    g[system.t_block.start + p] = -1.0
    return g, "quadratic", float(s[p] * s[p] - t[p])


def first_order_oracle(system: PerturbedSystem, y):
    """(f(y), E_u' (-B / u)): the value and gradient of -sum_i B_i log u_i
    in y, from one u = E_u y, E_u = ``u_map``."""
    B = system.instance.budgets
    u = system.u_map @ y
    return float(-np.dot(B, np.log(u))), (-B / u) @ system.u_map


@dataclass(kw_only=True)
class EllipsoidResult(EquilibriumResult):
    """An equilibrium result whose ``iterations`` count oracle calls, plus the
    ellipsoid's own record."""

    objective: float
    call_budget: int
    dim: int
    certified: bool
    eps: float
    log: list = field(default_factory=list, repr=False)

    @property
    def calls(self) -> int:
        return self.iterations

    def to_json(self):
        return {**super().to_json(), "objective": self.objective,
                "calls": self.calls, "call_budget": self.call_budget,
                "dim": self.dim, "certified": self.certified, "eps": self.eps}


def _discounted_utilities(system: PerturbedSystem, y):
    """Per-segment utilities lam * uhat after uhat drops by one eps_internal.

    Only the chain rows are enlarged; (z, w) = G(s, t), the boxes, the order
    rows and t >= s^2 hold exactly at a point inside the region.  Dropping
    uhat by the chain's enlargement leaves the exact chain, and clipping at
    zero keeps it because the order rows make every buyer's z_j + w_(j-1)
    nonnegative.  The exact chain describes the segment's feasible set: the
    parabola point with the same w as a pair (it exists, as -1 <= w <= 0)
    has a z at least as large, so the cuts at those points come in order and
    give every buyer an interval worth at least its discounted uhat.  Any
    greedy-cut failure left is roundoff, which _clip_to_membership absorbs.
    """
    y = np.array(y, dtype=float)
    S = system.num_slots
    y[:S] = np.maximum(y[:S] - system.eps_internal, 0.0)
    return system.expand(y)["useg"]


def _clip_to_membership(seg, u_col):
    """Waterfall the column through the greedy cuts, truncating any target
    that exceeds the remaining capacity by more than MEM_TOL; the result is
    feasible to MEM_TOL, a feasible column comes back unchanged and each
    buyer loses at most its own overshoot."""
    out = u_col.copy()
    lam = seg.lam[seg.order]
    _, delivered, truncated = greedy_cuts(seg.c_hat, seg.d_hat, seg.order,
                                          np.maximum(out[seg.order], 0.0) / lam,
                                          0.0, 1.0)
    out[seg.order[truncated]] = delivered[truncated] * lam[truncated]
    return out


def ellipsoid_solve(instance: MarketInstance, eps: float,
                    collect_log: bool = False) -> EllipsoidResult:
    """Run the ellipsoid method to utility accuracy ~eps and extract a pure
    allocation; linear mode only.

    The ellipsoid runs in y = (uhat, s, t), the other variables being exact
    linear images of y, so only the chain rows are enlarged.  The
    perturbation argument enlarges them by eps / (2 kappa + K + 1), kappa =
    1 / min B: a point within that much of the enlarged optimum, with uhat
    discounted by one enlargement back to exact feasibility, loses at most
    sum_k lam_ik times it = one enlargement of u_i per buyer, so its
    objective is within eps of the true optimum.  The run enlarges, and
    targets the objective, _EPS_MARGIN times tighter, because the utilities
    (and with them the cut points of the extracted allocation) err by about
    the square root of the objective error.  With the reduced rows a margin
    of 16 let check_equilibrium(tol=10 eps) fail on 4 of 60 random 2x3, 3x2
    and 3x3 instances, 64 on 2 and 256 on 1 (a documented limit, README).
    ``certified`` holds only when
    the running lower bound has closed to eps_internal and the returned
    allocation's own duality gap is at most eps; the gap bounds the
    objective error from above, so a certified result meets the perturbation
    argument's bound.
    """
    if not (0.0 < eps < 1.0):
        raise ValidationError("eps must lie in (0, 1)")
    if instance.mode != "linear":
        raise ValidationError("the ellipsoid solver handles linear mode only")
    B = instance.budgets
    bounds = beta_bounds(instance)
    kappa = 1.0 / float(B.min())
    K = instance.num_segments
    eps_internal = eps / (_EPS_MARGIN * (2.0 * kappa + K + 1.0))
    system = build_perturbed_system(instance, eps_internal)
    d = system.dim
    c = feasible_start(system)    # the center, updated in place
    radius = 2.0 * math.sqrt(d)
    iteration = 0
    best_objective, best_point = math.inf, None
    lower_bound = -math.inf
    V = math.log(kappa) + math.log(2.0 / eps_internal)
    r_ball = eps_internal / 2.0
    budget = int(_CAP_MULTIPLIER * 2.0 * d * (d + 1)
                 * math.log(2.0 + V * radius / (eps_internal * r_ball)))
    log = []
    restarted = False
    logdet_half = d * math.log(radius)    # the log's volume proxy, updated only for it
    # the shape matrix is scale * (Q - W'W): every step's scalar factor
    # d^2 (1 - alpha^2) / (d^2 - 1) goes into scale (at most d^2 / (d^2 - 1),
    # so within the call budget it stays far from overflow), its rank-one
    # downdate becomes a row of W, and a full W is folded into Q with one
    # symmetric matrix product
    Q = np.eye(d)
    W = np.empty((_FOLD, d))
    Wg = np.empty(_FOLD)
    prefixes = [(W[:r], Wg[:r]) for r in range(_FOLD)]   # views for each rank
    Qg = np.empty(d)
    step = np.empty(d)
    rank = 0
    scale = radius * radius
    while iteration < budget:
        iteration += 1
        sep = separation_oracle(system, c)
        feasible = sep is None
        fval = None
        if feasible:
            fval, g = first_order_oracle(system, c)
            if fval < best_objective:
                best_objective = fval
                best_point = c.copy()
            kind = "objective"
            # f(x) >= f(c) + g'(x - c): keeping {f <= f_best} cuts this deep
            depth = fval - best_objective
        else:
            g, kind, depth = sep
        np.matmul(Q, g, out=Qg)
        if rank:
            Wr, Wrg = prefixes[rank]
            Qg -= np.matmul(np.matmul(Wr, g, out=Wrg), Wr, out=step)
        gQg = float(g @ Qg)
        if not (math.isfinite(gQg) and gQg > 0.0):
            if restarted:
                raise NumericalBreakdown("shape matrix lost positive definiteness")
            restarted = True
            Q = np.eye(d)
            rank = 0
            scale = 4.0 * radius * radius
            logdet_half = d * math.log(2.0 * radius)
            continue
        denom = math.sqrt(scale * gQg)
        if feasible:
            lower_bound = max(lower_bound, fval - denom)
            if best_objective - lower_bound <= eps_internal:
                if collect_log:
                    log.append((iteration, 1, fval, kind, logdet_half))
                break
        alpha = min(depth / denom, _MAX_DEPTH)
        tau = 2.0 * (1.0 + d * alpha) / ((d + 1) * (1.0 + alpha))
        c -= np.multiply(Qg, ((1.0 + d * alpha) / (d + 1)) * math.sqrt(scale / gQg),
                         out=step)
        if d == 1:
            # an interval: the cut keeps a (1 - alpha) / 2 share of it, and
            # the general update's factor d^2 / (d^2 - 1) is undefined
            scale *= 0.25 * (1.0 - alpha) ** 2
            if collect_log:
                logdet_half += math.log(0.5 * (1.0 - alpha))
        else:
            np.multiply(Qg, math.sqrt(tau / gQg), out=W[rank])
            rank += 1
            if rank == _FOLD:
                Q -= W.T @ W
                rank = 0
            grow = d * d * (1.0 - alpha * alpha) / (d * d - 1.0)
            scale *= grow
            if collect_log:
                logdet_half += 0.5 * (d * math.log(grow) + math.log(
                    (d - 1) * (1.0 - alpha) / ((d + 1) * (1.0 + alpha))))
        if collect_log:
            log.append((iteration, int(feasible), fval, kind, logdet_half))
    certified = best_objective - lower_bound <= eps_internal
    if best_point is None:
        raise NumericalBreakdown("no feasible center was ever observed")
    useg = _discounted_utilities(system, best_point)
    # pure_allocation's strict partition rejects a column still infeasible
    for k, seg in enumerate(system.segments):
        useg[:, k] = _clip_to_membership(seg, useg[:, k])
    # the enlarged constraints let every u_ik carry a phantom slop of a few
    # internal epsilons even in segments the buyer does not win; a pure
    # allocation must not hand such buyers slivers of other winners' regions.
    # Only slop is pruned: beta_rough is itself off by about eps, so a real
    # winning sliver can vanish from its envelope and must be kept.
    u_rough = useg.sum(axis=1)
    if np.all(u_rough > 0):
        beta_rough = np.clip(B / u_rough, *bounds)
        wmat = dual_subgradient(instance, beta_rough)[2]
        useg[(wmat <= 1e-12) & (useg <= _SLOP * eps_internal)] = 0.0
    allocation, useg = pure_allocation(instance, useg)
    u = useg.sum(axis=1)
    beta = np.clip(B / np.maximum(u, 1e-300), *bounds)
    psi, _, _, env = dual_subgradient(instance, beta)
    gap = duality_gap(instance, beta, psi, u)[0]
    certified = certified and gap <= eps
    return EllipsoidResult(
        beta=beta, u=u, useg=useg, allocation=allocation, prices=env,
        gap=float(gap), iterations=iteration, mode=instance.mode,
        objective=float(best_objective), call_budget=budget, dim=d,
        certified=bool(certified), eps=eps, log=log)
