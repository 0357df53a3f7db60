"""Ellipsoid method on the perturbed per-segment utility program.

The working vector is y = (s, t): one (s, t) pair per adjacent sorted pair of
a segment's active buyers, with every s first and every t after them, so the
dimension is twice the number of pairs.  The program's other variables are
affine images of y and are not coordinates: (z, w) = G(s, t) per pair, and
each rescaled per-segment utility uhat_kj is its chain bound enlarged by
eps_internal,

* uhat_0 = z_0 + e, uhat_j = z_j + w_(j-1) + e for a middle buyer and
  uhat_(m-1) = 1 + w_(m-2) + e on a segment with m >= 2 active buyers,
* uhat = 1 + e for a buyer alone on its segment,

so useg_ik = lam_ik * uhat_kj and u = E_u y + u_0; ``PerturbedSystem.expand``
returns them all.  The objective increases in every uhat, so at the
optimum of the program with free uhat every enlarged chain row is tight:
setting uhat to its bound loses nothing, and the chain rows, uhat >= 0 (the
boxes and the order rows imply it) and u <= 1 (the boxes imply
u <= 1 + e) go with the free coordinates.  The rows u_i >= min(B_i, e / 2)
are left out too, as they never bind: u_i = sum_k lam_ik chain_ik + e, a
buyer's lam summing to 1, and every chain bound but a lone buyer's 1 is
minus the residual of a row (z_0 >= 0, an order row or w >= -1), while
one of s >= 0 and s <= 1 has a residual of at least -1/2; so a u row's
residual is at least e / 2 below the largest residual of the rows left:

* the order rows z_j + w_(j-1) >= 0 for the middle buyers (a buyer's
  interval has nonnegative value, so the cuts stay in order);
* the boxes 0 <= z <= 1, -1 <= w <= 0, 0 <= s <= 1 and 0 <= t <= 1;
* the exact parabola pairs t >= s^2.

The objective f(y) = -sum_i B_i log u_i is minimized by deep cuts:

* separation oracle: most-violated linear row, else the tangent hyperplane
  with normal (2 s0, -1) at a violated parabola pair, else "inside";
* first-order oracle: f(y) and its gradient E_u' (-B / u) from one
  u = E_u y + u_0.

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
from .dual_solver import EquilibriumResult, _merge_twins, duality_gap, pure_allocation

_CAP_MULTIPLIER = 4.0
_EPS_MARGIN = 256.0
_MAX_DEPTH = 0.5              # cap on alpha: a shallower cut is still valid
_FOLD = 32                    # rank-one downdates buffered before a fold
_SLOP = 10.0                  # phantom utility the enlarged rows allow, in eps_internal


@dataclass
class PerturbedSystem:
    """Linear rows A y <= b plus exact parabola pairs, in y = (s, t).

    s fills y[s_block] and t fills y[t_block], one (k, j) per pair in
    ``pairs`` order, so the parabola pairs are (s_block[p], t_block[p]).
    Each active buyer of each segment has one slot (k, j, i) in ``slots``
    order, whose exact chain bound is ``chain_map @ y + chain_const``.
    """

    instance: MarketInstance
    eps_internal: float       # chain enlargement and objective target
    A: np.ndarray
    b: np.ndarray
    segments: list
    dim: int
    slots: list               # (k, j, i) per active buyer of a segment
    pairs: list               # (k, j) per adjacent sorted pair
    chain_map: np.ndarray     # (slots, dim): exact chain bound of each slot
    chain_const: np.ndarray   # (slots,)
    u_map: np.ndarray         # (n, dim): u = u_map @ y + u_const
    u_const: np.ndarray       # (n,)
    G_rows: np.ndarray        # (pairs, 4): z = a s + b t, w = c s + d t
    s_block: slice            # s of every pair, in ``pairs`` order
    t_block: slice            # t of every pair

    def chain(self, y) -> np.ndarray:
        """Exact chain bound of every slot; uhat is this plus eps_internal."""
        return self.chain_map @ y + self.chain_const

    def per_segment(self, uhat) -> np.ndarray:
        """(n, K) utilities lam_ik * uhat of slot values in ``slots`` order."""
        inst = self.instance
        useg = np.zeros((inst.n, inst.num_segments))
        for p, (k, _, i) in enumerate(self.slots):
            useg[i, k] = float(self.segments[k].lam[i]) * uhat[p]
        return useg

    def expand(self, y) -> dict:
        """Named parts of the full vector: u (n,), useg (n, K), uhat, and s,
        t, z, w aligned with ``pairs``."""
        y = np.asarray(y, dtype=float)
        uhat = self.chain(y) + self.eps_internal
        s, t = y[self.s_block], y[self.t_block]
        G = self.G_rows
        return {"u": self.u_map @ y + self.u_const, "useg": self.per_segment(uhat),
                "uhat": uhat, "s": s.copy(), "t": t.copy(),
                "z": G[:, 0] * s + G[:, 1] * t, "w": G[:, 2] * s + G[:, 3] * t}


def build_perturbed_system(instance: MarketInstance,
                           eps_internal: float) -> PerturbedSystem:
    """The rows of the module docstring, built directly in y; a segment with
    fewer than two active buyers has no coordinates and no rows."""
    n = instance.n
    e = eps_internal
    segments = [normalize_segment(instance, k) for k in range(instance.num_segments)]
    slots = [(k, j, int(i)) for k, seg in enumerate(segments)
             for j, i in enumerate(seg.order)]
    pairs = [(k, j) for k, seg in enumerate(segments)
             for j in range(seg.num_active - 1)]
    P = len(pairs)
    dim = 2 * P
    G_rows = np.zeros((P, 4))
    for p, (k, j) in enumerate(pairs):
        (za, zb), (wa, wb) = segments[k].G(j)
        G_rows[p] = za, zb, wa, wb
    eye = np.eye(dim)
    Z = G_rows[:, :1] * eye[:P] + G_rows[:, 1:2] * eye[P:]     # z = Z @ y
    W = G_rows[:, 2:3] * eye[:P] + G_rows[:, 3:4] * eye[P:]    # w = W @ y

    chain_map = np.zeros((len(slots), dim))
    chain_const = np.zeros(len(slots))
    rows = []
    rhs = []
    q = p0 = 0                    # the segment's first slot and first pair
    for seg in segments:
        m = seg.num_active
        if m == 1:
            chain_const[q] = 1.0
        elif m > 1:
            chain_map[q] = Z[p0]
            for j in range(1, m - 1):
                # the value of buyer j's interval, z_j + w_(j-1), is >= 0
                chain_map[q + j] = Z[p0 + j] + W[p0 + j - 1]
                rows.append(-chain_map[q + j])
                rhs.append(0.0)
            chain_map[q + m - 1] = W[p0 + m - 2]
            chain_const[q + m - 1] = 1.0
            for p in range(p0, p0 + m - 1):
                s, t = eye[p], eye[P + p]
                rows += [Z[p], -Z[p], W[p], -W[p], s, -s, t, -t]
                rhs += [1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0]
            p0 += m - 1
        q += m
    owner = np.array([i for _, _, i in slots], dtype=int)
    lam = np.array([segments[k].lam[i] for k, _, i in slots])
    u_map = np.zeros((n, dim))
    np.add.at(u_map, owner, lam[:, None] * chain_map)
    u_const = np.bincount(owner, weights=lam * (chain_const + e), minlength=n)
    return PerturbedSystem(
        instance=instance, eps_internal=e,
        A=np.array(rows).reshape(len(rows), dim), b=np.array(rhs),
        segments=segments, dim=dim, slots=slots, pairs=pairs,
        chain_map=chain_map, chain_const=chain_const, u_map=u_map,
        u_const=u_const, G_rows=G_rows, s_block=slice(0, P),
        t_block=slice(P, dim))


def feasible_start(system: PerturbedSystem) -> np.ndarray:
    """Uniform-split point: (s, t) come from the greedy cut points of 1/n
    each, with t nudged strictly inside the parabola epigraph, so every
    active buyer's chain bound is about 1/n or more on every segment."""
    n = system.instance.n
    y = np.zeros(system.dim)
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
    if not system.pairs:
        return None
    res = system.A.dot(y)
    res -= system.b
    worst = int(res.argmax())
    depth = res.item(worst)
    if depth > 0.0:
        return system.A[worst], "linear", depth
    s, t = y[system.s_block], y[system.t_block]
    viol = s * s > t
    p = int(viol.argmax())
    if not viol.item(p):
        return None
    s0 = s.item(p)
    g = np.zeros(system.dim)
    g[system.s_block.start + p] = 2.0 * s0
    g[system.t_block.start + p] = -1.0
    return g, "quadratic", s0 * s0 - t.item(p)


def first_order_oracle(system: PerturbedSystem, y):
    """(f(y), E_u' (-B / u)): the value and gradient of -sum_i B_i log u_i
    in y, from one u = E_u y + u_0, E_u = ``u_map`` and u_0 = ``u_const``."""
    B = system.instance.budgets
    u = system.u_map.dot(y)
    u += system.u_const
    return float(-np.dot(B, np.log(u))), (-B / u).dot(system.u_map)


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
    """Per-segment utilities lam * max(chain, 0): uhat dropped by one
    eps_internal to its exact chain bound.

    (z, w) = G(s, t), the boxes, the order rows and t >= s^2 hold exactly at
    a point inside the region, and the chain bounds are nonnegative there
    (the order rows make every middle buyer's z_j + w_(j-1) so).  The exact
    chain describes the segment's feasible set: the parabola point with the
    same w as a pair (it exists, as -1 <= w <= 0) has a z at least as large,
    so the cuts at those points come in order and give every buyer an
    interval worth at least its chain bound.  Any greedy-cut failure left is
    roundoff, which _clip_to_membership absorbs.
    """
    return system.per_segment(np.maximum(system.chain(np.asarray(y, dtype=float)), 0.0))


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


def _result(instance, system, group, point, converged, eps, **record):
    """EllipsoidResult of ``instance`` at a point of the run on the market
    ``system.instance``, whose buyer ``group[i]`` holds buyer i and its twins.

    The point's utilities are discounted, clipped and pruned per group; every
    twin takes the share B_i / B_group of its group's utilities, which
    ``pure_allocation`` cuts in ``instance``, and its group's beta.  The gap
    is that of ``instance``, and ``certified`` holds when the run
    ``converged`` and the gap is at most eps.
    """
    market = system.instance
    useg = _discounted_utilities(system, point)
    # pure_allocation's strict partition rejects a column still infeasible
    for k, seg in enumerate(system.segments):
        useg[:, k] = _clip_to_membership(seg, useg[:, k])
    # the enlarged constraints let every u_ik carry a phantom slop of a few
    # internal epsilons even in segments the buyer does not win; a pure
    # allocation must not hand such buyers slivers of other winners' regions.
    # Only slop is pruned: beta_rough is itself off by about eps, so a real
    # winning sliver can vanish from its envelope and must be kept.
    Bm = market.budgets
    bounds = beta_bounds(market)
    u_rough = useg.sum(axis=1)
    if np.all(u_rough > 0):
        beta_rough = np.clip(Bm / u_rough, *bounds)
        wmat = dual_subgradient(market, beta_rough)[2]
        useg[(wmat <= 1e-12) & (useg <= _SLOP * system.eps_internal)] = 0.0
    B = instance.budgets
    allocation, useg = pure_allocation(instance, useg[group] * (B / Bm[group])[:, None])
    u = useg.sum(axis=1)
    u_group = np.bincount(group, weights=u)
    beta = np.clip(Bm / np.maximum(u_group, 1e-300), *bounds)[group]
    psi, _, _, env = dual_subgradient(instance, beta)
    gap = duality_gap(instance, beta, psi, u)[0]
    return EllipsoidResult(
        beta=beta, u=u, useg=useg, allocation=allocation, prices=env,
        gap=float(gap), mode=instance.mode, certified=bool(converged and gap <= eps),
        eps=eps, **record)


def ellipsoid_solve(instance: MarketInstance, eps: float,
                    collect_log: bool = False) -> EllipsoidResult:
    """Run the ellipsoid method to utility accuracy ~eps and extract a pure
    allocation; linear mode only.

    Twins (buyers with equal ``c`` and ``d`` rows) are merged into one buyer
    with their summed budget, as in ``dual_solver.solve``; the run is on the
    merged market and the result, its gap and its certificate are those of
    ``instance`` (``_result``).  The ellipsoid runs in y = (s, t), and every
    rescaled utility sits on its chain bound enlarged by eps / (2 kappa + K
    + 1), kappa = 1 / min B.  The perturbation argument: a point within that
    much of the enlarged optimum, with uhat discounted by one enlargement
    back to exact feasibility, loses at most sum_k lam_ik times it = one
    enlargement of u_i per buyer, so its objective is within eps of the true
    optimum.  The run enlarges, and targets the objective, _EPS_MARGIN times
    tighter, because the utilities (and with them the cut points of the
    extracted allocation) err by about the square root of the objective
    error.  In y = (uhat, s, t) a margin of 16 let
    check_equilibrium(tol=10 eps) fail on 4 of 60 random 2x3, 3x2 and 3x3
    instances, 64 on 2 and 256 on 1 (a documented limit, README).  A market in which no segment has two active
    buyers has no coordinates: each segment goes whole to its one buyer with
    no oracle call.  ``certified`` holds only when the running lower bound
    has closed to eps_internal and the returned allocation's own duality gap
    is at most eps; the gap bounds the objective error from above, so a
    certified result meets the perturbation argument's bound.
    """
    if not (0.0 < eps < 1.0):
        raise ValidationError("eps must lie in (0, 1)")
    if instance.mode != "linear":
        raise ValidationError("the ellipsoid solver handles linear mode only")
    market, group = _merge_twins(instance)
    if group is None:
        group = np.arange(instance.n)
    kappa = 1.0 / float(market.budgets.min())
    K = market.num_segments
    eps_internal = eps / (_EPS_MARGIN * (2.0 * kappa + K + 1.0))
    system = build_perturbed_system(market, eps_internal)
    d = system.dim
    c = feasible_start(system)    # the center, updated in place
    if d == 0:
        return _result(instance, system, group, c, True, eps, iterations=0,
                       objective=first_order_oracle(system, c)[0],
                       call_budget=0, dim=0, log=[])
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
    # per call, numpy's overhead outweighs the arithmetic on matrices this
    # small: ``.dot`` reaches matmul's BLAS kernels (the same bits) for
    # about half its call cost, and a ufunc takes a 0-d array operand, here
    # each step's two factors of Qg, for less than a Python float
    move, shrink = np.empty(()), np.empty(())
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
        Q.dot(g, out=Qg)
        if rank:
            Wr, Wrg = prefixes[rank]
            Qg -= Wr.dot(g, out=Wrg).dot(Wr, out=step)
        gQg = float(g.dot(Qg))
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
        move[()] = ((1.0 + d * alpha) / (d + 1)) * math.sqrt(scale / gQg)
        c -= np.multiply(Qg, move, out=step)
        shrink[()] = math.sqrt(tau / gQg)
        np.multiply(Qg, shrink, out=W[rank])
        rank += 1
        if rank == _FOLD:
            Q -= W.T.dot(W)
            rank = 0
        grow = d * d * (1.0 - alpha * alpha) / (d * d - 1.0)
        scale *= grow
        if collect_log:
            logdet_half += 0.5 * (d * math.log(grow) + math.log(
                (d - 1) * (1.0 - alpha) / ((d + 1) * (1.0 + alpha))))
        if collect_log:
            log.append((iteration, int(feasible), fval, kind, logdet_half))
    if best_point is None:
        raise NumericalBreakdown("no feasible center was ever observed")
    return _result(instance, system, group, best_point,
                   best_objective - lower_bound <= eps_internal, eps,
                   iterations=iteration, objective=float(best_objective),
                   call_budget=budget, dim=d, log=log)
