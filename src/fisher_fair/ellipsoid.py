"""Ellipsoid method on the perturbed per-segment utility program.

The decision vector stacks, per instance: total utilities u_i, per-segment
utilities useg_ik, their rescaled copies uhat_jk (sorted per segment), and
one (s, t, z, w) quadruple per adjacent sorted pair.  All linear constraints
are enlarged by an internal tolerance so the region contains a ball, parabola
constraints t >= s^2 stay exact, and the objective -sum_i B_i log u_i is
minimized by deep cuts:

* separation oracle: most-violated enlarged linear row, else the tangent
  hyperplane with normal (2 s0, -1) at a violated parabola pair, else
  "inside";
* first-order oracle: gradient components -B_i / u_i on the u coordinates.

Each cut keeps only the half-space its constraint implies, so it reaches past
the center by the violation depth (Bland, Goldfarb & Todd 1981): the row
residual, s0^2 - t0 for the tangent 2 s0 s - t <= s0^2, or f(x_c) - f_best
for an objective cut, which keeps the level set {f <= f_best}.  The feasible
set and the optimum stay inside every ellipsoid, so a running lower bound
f(x_c) - sqrt(g' P g) from every objective cut gives a stopping certificate
well before the worst-case call count; the worst-case budget (a constant
multiple of the dimension-squared-times-log bound) still caps the loop and is
reported.  The shape matrix P is kept as a running scalar times a matrix
updated in place: each step's rank-one downdate is buffered as one row of a
small matrix, which a single matrix product folds in every _FOLD steps.  The
returned utilities are discounted back to exact per-segment feasibility and
turned into a pure allocation with the greedy partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .envelope import dual_objective, winning_utility_matrix
from .errors import NumericalBreakdown, ValidationError
from .feasible import greedy_cuts, membership, normalize_segment, partition_segment
# cut is unused here; perfbench/spans.py patches the name ellipsoid.cut
from .market import Interval, MarketInstance, cut  # noqa: F401
from .dual_solver import PureAllocation, duality_gap

_CAP_MULTIPLIER = 4.0
_EPS_MARGIN = 16.0
_MAX_DEPTH = 0.5              # cap on alpha: a shallower cut is still valid
_FOLD = 32                    # rank-one downdates buffered before a fold
_SLOP = 10.0                  # phantom utility the enlarged rows allow, in eps_internal


@dataclass
class PerturbedSystem:
    """Enlarged linear system A x <= b plus exact parabola pairs."""

    instance: MarketInstance
    eps: float                # user-facing accuracy target
    eps_internal: float       # per-constraint enlargement and objective target
    A: np.ndarray
    b: np.ndarray
    quads: list               # (s_index, t_index) with s^2 <= t
    u_index: np.ndarray       # indices of u_i
    useg_index: dict          # (i, k) -> index
    uhat_index: dict          # (k, j) -> index
    aux_index: dict           # (name, k, j) -> index for s/t/z/w
    segments: list
    row_labels: list
    dim: int

    def objective(self, x) -> float:
        u = x[self.u_index]
        return float(-np.dot(self.instance.budgets, np.log(u)))

    def gradient(self, x) -> np.ndarray:
        g = np.zeros(self.dim)
        g[self.u_index] = -self.instance.budgets / x[self.u_index]
        return g


def build_perturbed_system(instance: MarketInstance, eps: float,
                           eps_internal: float) -> PerturbedSystem:
    n = instance.n
    K = instance.num_segments
    e = eps_internal
    segments = [normalize_segment(instance, k) for k in range(K)]
    names = {}
    dim = 0

    def add(key):
        nonlocal dim
        names[key] = dim
        dim += 1
        return names[key]

    u_index = np.array([add(("u", i)) for i in range(n)])
    useg_index = {}
    for k, seg in enumerate(segments):
        for i in seg.active:
            useg_index[(int(i), k)] = add(("useg", int(i), k))
    uhat_index = {}
    aux_index = {}
    for k, seg in enumerate(segments):
        m = seg.num_active
        for j in range(m):
            uhat_index[(k, j)] = add(("uhat", k, j))
        for j in range(m - 1):
            for name in ("s", "t", "z", "w"):
                aux_index[(name, k, j)] = add((name, k, j))

    rows = []
    rhs = []
    labels = []

    def leq(cols, vals, bound, label):
        row = np.zeros(dim)
        row[list(cols)] = vals
        rows.append(row)
        rhs.append(bound)
        labels.append(label)

    B = instance.budgets
    for i in range(n):
        leq([u_index[i]], [1.0], 1.0, f"u[{i}]<=1")
        leq([u_index[i]], [-1.0], -min(B[i], e / 2.0), f"u[{i}]>=lb")
        cols = [u_index[i]] + [useg_index[(i, k)] for k in range(K)
                               if (i, k) in useg_index]
        leq(cols, [1.0] + [-1.0] * (len(cols) - 1), e, f"usum[{i}]")
    for (i, k), idx in useg_index.items():
        leq([idx], [-1.0], 0.0, f"useg[{i}][{k}]>=0")
    for k, seg in enumerate(segments):
        m = seg.num_active
        for j, i in enumerate(seg.order):
            ui = useg_index[(int(i), k)]
            uh = uhat_index[(k, j)]
            lam = float(seg.lam[i])
            leq([ui, uh], [1.0, -lam], e, f"scale+[{k}][{j}]")
            leq([ui, uh], [-1.0, lam], e, f"scale-[{k}][{j}]")
            leq([uh], [-1.0], 0.0, f"uhat[{k}][{j}]>=0")
        if m == 1:
            leq([uhat_index[(k, 0)]], [1.0], 1.0 + e, f"chain[{k}][0]")
        else:
            z = [aux_index[("z", k, j)] for j in range(m - 1)]
            w = [aux_index[("w", k, j)] for j in range(m - 1)]
            leq([uhat_index[(k, 0)], z[0]], [1.0, -1.0], e, f"chain[{k}][0]")
            for j in range(1, m - 1):
                leq([uhat_index[(k, j)], z[j], w[j - 1]], [1.0, -1.0, -1.0], e,
                    f"chain[{k}][{j}]")
            leq([uhat_index[(k, m - 1)], w[m - 2]], [1.0, -1.0], 1.0 + e,
                f"chain[{k}][{m - 1}]")
            for j in range(m - 1):
                a, bb = seg.order[j], seg.order[j + 1]
                s_i = aux_index[("s", k, j)]
                t_i = aux_index[("t", k, j)]
                da, ca = float(seg.d_hat[a]), float(seg.c_hat[a])
                db, cb = float(seg.d_hat[bb]), float(seg.c_hat[bb])
                leq([s_i, t_i, z[j]], [da, ca / 2, -1.0], e, f"Gz+[{k}][{j}]")
                leq([s_i, t_i, z[j]], [-da, -ca / 2, 1.0], e, f"Gz-[{k}][{j}]")
                leq([s_i, t_i, w[j]], [-db, -cb / 2, -1.0], e, f"Gw+[{k}][{j}]")
                leq([s_i, t_i, w[j]], [db, cb / 2, 1.0], e, f"Gw-[{k}][{j}]")
                leq([z[j]], [1.0], 1.0, f"z[{k}][{j}]<=1")
                leq([z[j]], [-1.0], 0.0, f"z[{k}][{j}]>=0")
                leq([w[j]], [1.0], 0.0, f"w[{k}][{j}]<=0")
                leq([w[j]], [-1.0], 1.0, f"w[{k}][{j}]>=-1")
                leq([s_i], [1.0], 1.0, f"s[{k}][{j}]<=1")
                leq([s_i], [-1.0], 0.0, f"s[{k}][{j}]>=0")
                leq([t_i], [1.0], 1.0, f"t[{k}][{j}]<=1")
                leq([t_i], [-1.0], 0.0, f"t[{k}][{j}]>=0")
    quads = [(aux_index[("s", k, j)], aux_index[("t", k, j)])
             for k, seg in enumerate(segments) for j in range(seg.num_active - 1)]
    return PerturbedSystem(
        instance=instance, eps=eps, eps_internal=e,
        A=np.asarray(rows), b=np.asarray(rhs), quads=quads,
        u_index=u_index, useg_index=useg_index, uhat_index=uhat_index,
        aux_index=aux_index, segments=segments, row_labels=labels, dim=dim)


def feasible_start(system: PerturbedSystem) -> np.ndarray:
    """Uniform-split point: every buyer gets 1/n of each segment; auxiliaries
    come from the greedy cut points, with t nudged strictly inside the
    parabola epigraph."""
    inst = system.instance
    n = inst.n
    x = np.zeros(system.dim)
    for k, seg in enumerate(system.segments):
        m = seg.num_active
        for j, i in enumerate(seg.order):
            x[system.uhat_index[(k, j)]] = 1.0 / n
            x[system.useg_index[(int(i), k)]] = float(seg.lam[i]) / n
        points, _, _ = greedy_cuts(seg.c_hat, seg.d_hat, seg.order,
                                   np.full(m, 1.0 / n), 0.0, 1.0)
        for j in range(m - 1):
            s_val = points[j]
            t_val = min(s_val * s_val + system.eps_internal / 4.0, 1.0)
            x[system.aux_index[("s", k, j)]] = s_val
            x[system.aux_index[("t", k, j)]] = t_val
            a, bb = seg.order[j], seg.order[j + 1]
            x[system.aux_index[("z", k, j)]] = (seg.d_hat[a] * s_val
                                                + 0.5 * seg.c_hat[a] * t_val)
            x[system.aux_index[("w", k, j)]] = -(seg.d_hat[bb] * s_val
                                                 + 0.5 * seg.c_hat[bb] * t_val)
    for i in range(n):
        total = sum(x[system.useg_index[(i, k)]]
                    for k in range(inst.num_segments) if (i, k) in system.useg_index)
        x[system.u_index[i]] = min(max(total, min(inst.budgets[i],
                                                  system.eps_internal / 2.0)), 1.0)
    return x


def separation_oracle(system: PerturbedSystem, x):
    """None when x satisfies every constraint; otherwise (normal, kind, which).

    Linear rows return their coefficient row; a violated parabola pair
    (s0, t0) with s0^2 > t0 returns the tangent-line normal: +2 s0 on the s
    coordinate and -1 on the t coordinate.
    """
    res = system.A @ x
    res -= system.b
    worst = int(res.argmax())
    if res[worst] > 0.0:
        return system.A[worst].copy(), "linear", system.row_labels[worst]
    xs = x.tolist()
    for s_i, t_i in system.quads:
        s0, t0 = xs[s_i], xs[t_i]
        if s0 * s0 > t0:
            g = np.zeros(system.dim)
            g[s_i] = 2.0 * s0
            g[t_i] = -1.0
            return g, "quadratic", f"s^2<=t at ({s_i},{t_i})"
    return None


def first_order_oracle(system: PerturbedSystem, x) -> np.ndarray:
    """Gradient of -sum_i B_i log u_i: components -B_i / u_i on u coordinates."""
    return system.gradient(x)


@dataclass
class EllipsoidState:
    center: np.ndarray
    iteration: int = 0
    best_objective: float = math.inf
    best_point: np.ndarray = None
    lower_bound: float = -math.inf


@dataclass
class EllipsoidResult:
    u: np.ndarray
    useg: np.ndarray
    beta: np.ndarray
    allocation: PureAllocation
    objective: float
    gap: float
    calls: int
    call_budget: int
    certified: bool
    eps: float
    eps_internal: float
    log: list = field(default_factory=list, repr=False)

    def to_json(self):
        doc = {
            "mode": "linear",
            "beta": self.beta.tolist(),
            "u": self.u.tolist(),
            "u_segments": self.useg.tolist(),
            "gap": self.gap,
            "iterations": self.calls,
            "objective": self.objective,
            "calls": self.calls,
            "call_budget": self.call_budget,
            "certified": self.certified,
            "eps": self.eps,
        }
        doc.update(self.allocation.to_json())
        return doc


def _discounted_utilities(system: PerturbedSystem, x):
    """Two-stage discount restoring exact per-segment membership.

    uhat drops by three internal epsilons (one chain enlargement plus the two
    sides of the G band); useg is then capped at lam * uhat, which realizes
    the further per-coordinate decrease.
    """
    inst = system.instance
    e3 = 3.0 * system.eps_internal
    useg = np.zeros((inst.n, inst.num_segments))
    for k, seg in enumerate(system.segments):
        for j, i in enumerate(seg.order):
            uh = max(x[system.uhat_index[(k, j)]] - e3, 0.0)
            val = min(x[system.useg_index[(int(i), k)]], float(seg.lam[i]) * uh)
            useg[int(i), k] = max(val, 0.0)
    return useg


def _segment_membership(seg, u_col):
    act = seg.active
    if act.size == 0:
        return bool(np.all(u_col <= 1e-12))
    return membership(seg, u_col[act])


def _clip_to_membership(seg, u_col):
    """Waterfall the column through the greedy cuts, truncating any target
    that exceeds the remaining capacity; the result is exactly feasible and
    each buyer loses at most its own overshoot."""
    out = u_col.copy()
    lam = seg.lam[seg.order]
    _, delivered, truncated = greedy_cuts(seg.c_hat, seg.d_hat, seg.order,
                                          np.maximum(out[seg.order], 0.0) / lam,
                                          0.0, 1.0, tol=0.0)
    out[seg.order[truncated]] = delivered[truncated] * lam[truncated]
    return out


def ellipsoid_solve(instance: MarketInstance, eps: float,
                    collect_log: bool = False) -> EllipsoidResult:
    """Run the ellipsoid method to utility accuracy ~eps and extract a pure
    allocation; linear mode only.

    The perturbation argument enlarges every linear row by eps / (2 kappa +
    K + 1), kappa = 1 / min B: a point within that much of the enlarged
    optimum, discounted back to exact feasibility, has an objective within
    eps of the true optimum.  The run enlarges, and targets the objective,
    _EPS_MARGIN times tighter, because the utilities (and with them the cut
    points of the extracted allocation) err by about the square root of the
    objective error.  ``certified`` holds only when the running lower bound
    has closed to eps_internal and the returned allocation's own duality gap
    is at most eps; the gap bounds the objective error from above, so a
    certified result meets the perturbation argument's bound.
    """
    if not (0.0 < eps < 1.0):
        raise ValidationError("eps must lie in (0, 1)")
    if instance.mode != "linear":
        raise ValidationError("the ellipsoid solver handles linear mode only")
    B = instance.budgets
    kappa = 1.0 / float(B.min())
    K = instance.num_segments
    eps_internal = eps / (_EPS_MARGIN * (2.0 * kappa + K + 1.0))
    system = build_perturbed_system(instance, eps, eps_internal)
    d = system.dim
    x0 = feasible_start(system)
    radius = 2.0 * math.sqrt(d)
    state = EllipsoidState(center=x0.copy())
    V = math.log(kappa) + math.log(2.0 / eps_internal)
    r_ball = eps_internal / 2.0
    budget = int(_CAP_MULTIPLIER * 2.0 * d * (d + 1)
                 * math.log(2.0 + V * radius / (eps_internal * r_ball)))
    log = []
    restarted = False
    logdet_half = d * math.log(radius)
    # the shape matrix is scale * (Q - W'W): every step's scalar factor
    # d^2 (1 - alpha^2) / (d^2 - 1) goes into scale (at most d^2 / (d^2 - 1),
    # so within the call budget it stays far from overflow), its rank-one
    # downdate becomes a row of W, and a full W is folded into Q with one
    # symmetric matrix product
    Q = np.eye(d)
    W = np.empty((_FOLD, d))
    rank = 0
    scale = radius * radius
    row_of = {label: r for r, label in enumerate(system.row_labels)}
    while state.iteration < budget:
        state.iteration += 1
        c = state.center
        sep = separation_oracle(system, c)
        feasible = sep is None
        fval = None
        if feasible:
            fval = system.objective(c)
            if fval < state.best_objective:
                state.best_objective = fval
                state.best_point = c.copy()
            g = first_order_oracle(system, c)
            kind = "objective"
            # f(x) >= f(c) + g'(x - c): keeping {f <= f_best} cuts this deep
            depth = fval - state.best_objective
        else:
            g, kind, which = sep
            if kind == "linear":
                depth = float(g @ c) - system.b[row_of[which]]
            else:
                # tangent (2 s0, -1) at (s0, t0) keeps 2 s0 s - t <= s0^2
                depth = float(g @ c) - 0.25 * float(g.max()) ** 2
        Qg = Q @ g
        if rank:
            Wr = W[:rank]
            Qg -= (Wr @ g) @ Wr
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
            state.lower_bound = max(state.lower_bound, fval - denom)
            if state.best_objective - state.lower_bound <= eps_internal:
                if collect_log:
                    log.append((state.iteration, 1, fval, kind, logdet_half))
                break
        alpha = min(depth / denom, _MAX_DEPTH)
        tau = 2.0 * (1.0 + d * alpha) / ((d + 1) * (1.0 + alpha))
        c -= ((1.0 + d * alpha) / (d + 1)) * math.sqrt(scale / gQg) * Qg
        np.multiply(Qg, math.sqrt(tau / gQg), out=W[rank])
        rank += 1
        if rank == _FOLD:
            Q -= W.T @ W
            rank = 0
        grow = d * d * (1.0 - alpha * alpha) / (d * d - 1.0)
        scale *= grow
        logdet_half += 0.5 * (d * math.log(grow) + math.log(
            (d - 1) * (1.0 - alpha) / ((d + 1) * (1.0 + alpha))))
        if collect_log:
            log.append((state.iteration, int(feasible), fval, kind, logdet_half))
    certified = state.best_objective - state.lower_bound <= eps_internal
    if state.best_point is None:
        raise NumericalBreakdown("no feasible center was ever observed")
    useg = _discounted_utilities(system, state.best_point)
    for k, seg in enumerate(system.segments):
        if not _segment_membership(seg, useg[:, k]):
            useg[:, k] = _clip_to_membership(seg, useg[:, k])
        if not _segment_membership(seg, useg[:, k]):
            raise NumericalBreakdown(
                f"discounted utilities remain infeasible on segment {k}")
    # the enlarged constraints let every u_ik carry a phantom slop of a few
    # internal epsilons even in segments the buyer does not win; a pure
    # allocation must not hand such buyers slivers of other winners' regions.
    # Only slop is pruned: beta_rough is itself off by about eps, so a real
    # winning sliver can vanish from its envelope and must be kept.
    u_rough = useg.sum(axis=1)
    if np.all(u_rough > 0):
        beta_rough = np.clip(B / u_rough, B, 1.0)
        wmat = winning_utility_matrix(instance, beta_rough)
        useg[(wmat <= 1e-12) & (useg <= _SLOP * eps_internal)] = 0.0
    intervals = [[] for _ in range(instance.n)]
    leftover = []
    for k in range(K):
        seg_iv = instance.grid.segment(k)
        # exact cuts for every buyer; the epsilon-sized tail the discounted
        # utilities do not claim stays unallocated rather than landing on a
        # buyer that does not win it
        parts = partition_segment(instance, k, useg[:, k], clamp=True,
                                  remainder_to_last=False)
        kept = [(i, p) for i, p in enumerate(parts) if p.length > 1e-12]
        if not kept:
            leftover.append(seg_iv)
            continue
        end = max(p.hi for _, p in kept)
        if seg_iv.hi - end > 1e-12:
            leftover.append(Interval(end, seg_iv.hi))
        for i, p in kept:
            intervals[i].append(p)
    allocation = PureAllocation(intervals=intervals, leftover=leftover)
    u = useg.sum(axis=1)
    beta = np.clip(B / np.maximum(u, 1e-300), B, 1.0)
    gap = duality_gap(instance, beta, dual_objective(instance, beta), u)[0]
    certified = certified and gap <= eps
    return EllipsoidResult(
        u=u, useg=useg, beta=beta, allocation=allocation,
        objective=float(state.best_objective), gap=float(gap),
        calls=state.iteration, call_budget=budget, certified=bool(certified),
        eps=eps, eps_internal=eps_internal, log=log)
