"""Feasible utility sets of an interval: transform, membership, partition, cones.

For linear densities on [l, h] the attainable utility vectors form a convex
compact set.  After rescaling every buyer's density to total value one on
[0, 1] and sorting buyers by descending transformed intercept, the set is
described by a short chain of linear inequalities plus one parabola-membership
constraint per adjacent buyer pair.  This module implements:

* ``normalize_segment`` - the rescale-and-sort transform for one grid segment,
* ``greedy_cuts`` - the one left-to-right cut loop in sorted order, in any
  coordinates; membership, partition, the constraint-block certificate and
  the ellipsoid's clipping and starting point all run it,
* ``membership`` - an exact greedy oracle (no target truncated by the cuts),
* ``partition_interval`` - recovery of an actual partition attaining exactly
  feasible utilities, in O(n log n), through the same transform; only buyers
  with a positive target are cut, and the last of them takes the remainder,
* ``emit_conic_program`` - the full equality-form conic program (nonnegative,
  second-order and exponential cones) whose solution carries the equilibrium
  per-segment utilities, plus the ingest path back from a solution vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleUtilities, ValidationError
from .market import QUASILINEAR, Interval, LinearPiece, MarketInstance, cut, eval_interval

LAMBDA_FLOOR = 1e-14   # segment value below which a buyer is inactive there
MEM_TOL = 1e-9         # slack allowed against remaining capacity in greedy cuts


@dataclass
class NormalizedSegment:
    """Rescaled, sorted view of one grid segment.

    ``lam[i]`` is buyer i's total value on the segment; active buyers are
    those with lam above LAMBDA_FLOOR.  ``c_hat``/``d_hat`` are the
    coefficients of the rescaled densities on [0, 1] (zero for inactive
    buyers), satisfying c_hat/2 + d_hat = 1 for active buyers, and ``order``
    lists the active buyers by descending d_hat (stable, so tied intercepts
    keep index order, which realizes the merge rule for identical buyers).
    """

    index: int
    lam: np.ndarray
    c_hat: np.ndarray
    d_hat: np.ndarray
    active: np.ndarray
    order: np.ndarray

    @property
    def num_active(self) -> int:
        return self.order.size

    def G(self, j: int) -> np.ndarray:
        """2x2 matrix mapping (s_j, t_j) on the standard parabola to (z_j, w_j),
        for adjacent sorted buyers j, j+1 (0-based, j < num_active - 1)."""
        a, b = self.order[j], self.order[j + 1]
        return np.array([[self.d_hat[a], 0.5 * self.c_hat[a]],
                         [-self.d_hat[b], -0.5 * self.c_hat[b]]])

    def sorted_targets(self, u) -> np.ndarray:
        """Normalized targets max(u, 0) / lam in ``order`` for utilities u
        aligned with ``active``."""
        pos = np.searchsorted(self.active, self.order)
        return np.maximum(u[pos], 0.0) / self.lam[self.order]


def _rescale_and_sort(cs, ds, lo, hi):
    """(lam, c_hat, d_hat, active, order) of densities c*theta + d on [lo, hi]."""
    width = hi - lo
    lam = 0.5 * cs * (hi * hi - lo * lo) + ds * width
    active = np.flatnonzero(lam > LAMBDA_FLOOR)
    c_hat = np.zeros_like(lam)
    d_hat = np.zeros_like(lam)
    c_hat[active] = width * width * cs[active] / lam[active]
    d_hat[active] = width * (cs[active] * lo + ds[active]) / lam[active]
    order = active[np.argsort(-d_hat[active], kind="stable")]
    return lam, c_hat, d_hat, active, order


def normalize_segment(instance: MarketInstance, k: int) -> NormalizedSegment:
    """Apply the rescale-and-sort transform to segment k of an instance."""
    iv = instance.grid.segment(k)
    if iv.hi - iv.lo <= 0:
        raise ValidationError(f"segment {k} is degenerate")
    lam, c_hat, d_hat, active, order = _rescale_and_sort(
        instance.c[:, k], instance.d[:, k], iv.lo, iv.hi)
    return NormalizedSegment(index=k, lam=lam, c_hat=c_hat, d_hat=d_hat,
                             active=active, order=order)


def greedy_cuts(cs, ds, order, targets, lo: float, hi: float):
    """Greedy left-to-right cuts of [lo, hi], one per buyer in ``order``.

    Buyer ``order[j]`` (density cs*theta + ds, in whatever coordinates lo and
    hi are given) takes the interval from the previous cut point to the
    rightmost point worth ``targets[j]``.  A target that reaches the value
    left to the right of the current point takes all of it and its cut lands
    on ``hi``; cutting exactly the remaining value instead would be
    ill-conditioned where the density vanishes at ``hi``.  Such a target is
    truncated when it exceeds that value by more than MEM_TOL.  Returns the
    cut points, the delivered values and the truncated flags, all aligned
    with ``order``.  Negative targets count as zero.  A vector of targets is
    feasible iff none is truncated.
    """
    m = len(order)
    points = np.empty(m)
    delivered = np.empty(m)
    truncated = np.zeros(m, dtype=bool)
    x = lo
    for j, i in enumerate(order):
        target = max(float(targets[j]), 0.0)
        if target > 0.0:
            piece = LinearPiece(cs[i], ds[i])
            remaining = eval_interval(piece, Interval(x, hi))
            if target >= remaining:
                truncated[j] = target > remaining + MEM_TOL
                target = max(remaining, 0.0)
                x = hi
            else:
                x = cut(piece, x, target, hi)
        delivered[j] = target
        points[j] = x
    return points, delivered, truncated


def membership(segment: NormalizedSegment, u) -> bool:
    """Exact membership oracle for the segment's feasible utility set.

    ``u`` holds one nonnegative utility per *active* buyer (original scale),
    aligned with ``segment.active``.  Greedy left-to-right cuts in sorted
    order fit every buyer iff the vector is feasible; cuts run in normalized
    coordinates, where each buyer's target is u_i / lam_i and the interval is
    [0, 1].
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (segment.num_active,):
        raise ValidationError(
            f"membership expects {segment.num_active} utilities, got {u.shape}")
    if np.any(u < -MEM_TOL):
        return False
    _, _, truncated = greedy_cuts(segment.c_hat, segment.d_hat, segment.order,
                                  segment.sorted_targets(u), 0.0, 1.0)
    return not truncated.any()


def partition_interval(cs, ds, lo: float, hi: float, u):
    """Partition [lo, hi] into one interval per buyer attaining utilities u.

    The buyers with a positive u are cut greedily in descending order of
    transformed intercept, each receiving an interval worth exactly its u
    (up to the cut tolerance), and the last of them takes the remainder up
    to ``hi``.  A zero u never moves a cut, so buyers with zero u, like
    inactive buyers (zero value on the interval), receive the empty
    interval ``Interval(hi, hi)``.  An infeasible u raises
    InfeasibleUtilities.
    """
    cs = np.asarray(cs, dtype=float)
    ds = np.asarray(ds, dtype=float)
    u = np.asarray(u, dtype=float)
    n = cs.size
    if ds.size != n or u.size != n:
        raise ValidationError("coefficient and utility vectors must share length")
    lam, _, _, _, order = _rescale_and_sort(cs, ds, lo, hi)
    bad = np.flatnonzero((u > MEM_TOL) & (lam <= LAMBDA_FLOOR))
    if bad.size:
        raise InfeasibleUtilities(
            f"buyer {int(bad[0])} has zero value on the interval but u > 0")
    out = [Interval(hi, hi)] * n
    order = order[u[order] > 0.0]
    points, _, truncated = greedy_cuts(cs, ds, order, u[order], lo, hi)
    if truncated.any():
        raise InfeasibleUtilities(
            f"greedy cut for buyer {int(order[truncated.argmax()])} overruns "
            "the interval")
    points[-1:] = hi
    starts = [lo] + points[:-1].tolist()
    for i, a, b in zip(order.tolist(), starts, points.tolist()):
        out[i] = Interval(a, b)
    return out


def partition_segment(instance: MarketInstance, k: int, u):
    """Partition grid segment k of an instance at per-buyer utilities u."""
    iv = instance.grid.segment(k)
    return partition_interval(instance.c[:, k], instance.d[:, k], iv.lo, iv.hi, u)


# ---------------------------------------------------------------------------
# conic representation
# ---------------------------------------------------------------------------

@dataclass
class ConicProgram:
    """Equality-form conic program: min objective.x subject to the rows and cones.

    ``rows`` are (cols, vals, rhs) sparse equality triplets.  ``cones`` lists
    blocks of variable indices: every index in a "nonneg" block must be >= 0,
    a "soc3" triple (t1, t2, t3) satisfies t1 >= sqrt(t2^2 + t3^2), and an
    "exp3" triple (t1, t2, t3) satisfies t2 * exp(t3 / t2) <= t1 with t2 > 0.
    Variables in no block are free.
    """

    objective: np.ndarray
    rows: list
    cones: list
    var_names: list
    meta: dict                    # {"n": buyers, "K": grid segments}

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def nonzeros(self) -> int:
        return sum(len(cols) for cols, _, _ in self.rows)

    def cone_counts(self) -> dict:
        counts = {"nonneg": 0, "soc3": 0, "exp3": 0}
        for cone in self.cones:
            if cone["type"] == "nonneg":
                counts["nonneg"] += len(cone["vars"])
            else:
                counts[cone["type"]] += 1
        return counts

    def residuals(self, x) -> np.ndarray:
        """Row residuals |a.x - rhs| of a candidate solution vector."""
        x = np.asarray(x, dtype=float)
        res = np.empty(self.num_rows)
        for r, (cols, vals, rhs) in enumerate(self.rows):
            res[r] = abs(float(np.dot(x[list(cols)], vals)) - rhs)
        return res

    def cone_violations(self, x) -> float:
        """Largest violation of any cone block at x (<= 0 when conic-feasible)."""
        x = np.asarray(x, dtype=float)
        worst = 0.0
        for cone in self.cones:
            idx = cone["vars"]
            if cone["type"] == "nonneg":
                if idx:
                    worst = max(worst, float(np.max(-x[idx])))
            elif cone["type"] == "soc3":
                t1, t2, t3 = x[idx]
                worst = max(worst, float(np.hypot(t2, t3) - t1))
            elif cone["type"] == "exp3":
                t1, t2, t3 = x[idx]
                if t2 <= 0:
                    worst = max(worst, 1.0 if t2 == 0 else -t2)
                else:
                    worst = max(worst, float(t2 * np.exp(t3 / t2) - t1))
        return worst

    def to_json(self) -> dict:
        return {
            "objective": self.objective.tolist(),
            "rows": [{"cols": list(map(int, cols)), "vals": list(map(float, vals)),
                      "rhs": float(rhs)} for cols, vals, rhs in self.rows],
            "cones": [{"type": c["type"], "vars": list(map(int, c["vars"]))}
                      for c in self.cones],
            "var_names": list(self.var_names),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_json(cls, doc) -> "ConicProgram":
        if "meta" not in doc:
            raise ValidationError("conic program document lacks meta")
        rows = [(tuple(r["cols"]), tuple(r["vals"]), float(r["rhs"]))
                for r in doc["rows"]]
        return cls(objective=np.asarray(doc["objective"], dtype=float), rows=rows,
                   cones=[{"type": c["type"], "vars": list(c["vars"])}
                          for c in doc["cones"]],
                   var_names=list(doc["var_names"]), meta=dict(doc["meta"]))


class ConicBuilder:
    """Incremental builder of a conic program's variables, rows and cones."""

    def __init__(self):
        self.names = []
        self.rows = []
        self.nonneg = []
        self.cones = []

    def var(self, name, nonneg=False):
        idx = len(self.names)
        self.names.append(name)
        if nonneg:
            self.nonneg.append(idx)
        return idx

    def row(self, cols, vals, rhs):
        self.rows.append((tuple(cols), tuple(vals), float(rhs)))

    def leq(self, cols, vals, rhs, slack_name):
        """cols.vals <= rhs, encoded as an equality with a nonnegative slack."""
        s = self.var(slack_name, nonneg=True)
        self.row(list(cols) + [s], list(vals) + [1.0], rhs)
        return s


def build_conic_representation(segment: NormalizedSegment, builder=None):
    """Append the feasibility block of one normalized segment to a builder.

    The block states, over the sorted rescaled utilities uhat: the chain
    uhat_1 <= z_1, uhat_j <= z_j + w_{j-1}, uhat_m <= 1 + w_{m-1}; one linear
    link G_j (s_j, t_j) = (z_j, w_j) per adjacent sorted pair, with (s_j, t_j)
    on the standard parabola epigraph t >= s^2 encoded as the second-order
    triple ((1+t)/2, (1-t)/2, s); and the boxes 0 <= z <= 1, -1 <= w <= 0,
    z + w >= 0.  w is stored negated (wneg = -w >= 0) so it fits the
    nonnegative cone.  A segment no buyer values adds nothing.  Returns
    (builder, uhat_vars).
    """
    bld = builder if builder is not None else ConicBuilder()
    k = segment.index
    m = segment.num_active
    uhat_vars = [bld.var(f"uhat[{k}][{j}]", nonneg=True) for j in range(m)]
    z = [bld.var(f"z[{k}][{j}]", nonneg=True) for j in range(m - 1)]
    wneg = [bld.var(f"wneg[{k}][{j}]", nonneg=True) for j in range(m - 1)]
    s_var = [bld.var(f"s[{k}][{j}]") for j in range(m - 1)]
    t_var = [bld.var(f"t[{k}][{j}]") for j in range(m - 1)]
    if m == 1:
        bld.leq([uhat_vars[0]], [1.0], 1.0, f"slchain[{k}][0]")
    elif m > 1:
        bld.leq([uhat_vars[0], z[0]], [1.0, -1.0], 0.0, f"slchain[{k}][0]")
        for j in range(1, m - 1):
            bld.leq([uhat_vars[j], z[j], wneg[j - 1]], [1.0, -1.0, 1.0], 0.0,
                    f"slchain[{k}][{j}]")
        bld.leq([uhat_vars[m - 1], wneg[m - 2]], [1.0, 1.0], 1.0,
                f"slchain[{k}][{m - 1}]")
    for j in range(m - 1):
        (za, zb), (wa, wb) = segment.G(j)
        bld.row([s_var[j], t_var[j], z[j]], [za, zb, -1.0], 0.0)
        bld.row([s_var[j], t_var[j], wneg[j]], [wa, wb, 1.0], 0.0)
        p1 = bld.var(f"socp[{k}][{j}]")
        p2 = bld.var(f"socm[{k}][{j}]")
        bld.row([p1, t_var[j]], [1.0, -0.5], 0.5)
        bld.row([p2, t_var[j]], [1.0, 0.5], 0.5)
        bld.cones.append({"type": "soc3", "vars": [p1, p2, s_var[j]]})
        bld.leq([z[j]], [1.0], 1.0, f"slz[{k}][{j}]")
        bld.leq([wneg[j]], [1.0], 1.0, f"slw[{k}][{j}]")
        bld.leq([z[j], wneg[j]], [-1.0, 1.0], 0.0, f"slzw[{k}][{j}]")
    return bld, uhat_vars


def emit_conic_program(instance: MarketInstance) -> ConicProgram:
    """Equality-form conic program for the whole instance.

    Maximizes sum_i B_i log(sum_k u_ik) over per-segment feasible utilities,
    written as min -sum_i B_i q_i with exponential-cone triples (u_i, 1, q_i),
    utility-splitting rows u_i = sum_k u_ik and scaling rows
    u_{sigma_k(j), k} = Lambda * uhat_jk.  In quasilinear mode u_i also
    counts the money delta_i >= 0 buyer i keeps, and the minimized objective
    adds sum_i delta_i.  The solution vector maps back to utilities via
    ``conic_solution_utilities``.
    """
    bld = ConicBuilder()
    n = instance.n
    K = instance.num_segments
    segments = [normalize_segment(instance, k) for k in range(K)]
    u_i = [bld.var(f"u[{i}]") for i in range(n)]
    ones = [bld.var(f"one[{i}]") for i in range(n)]
    q_i = [bld.var(f"q[{i}]") for i in range(n)]
    delta = ([bld.var(f"delta[{i}]", nonneg=True) for i in range(n)]
             if instance.mode == QUASILINEAR else [])
    useg = {}
    for k, seg in enumerate(segments):
        for i in seg.active:
            useg[(int(i), k)] = bld.var(f"useg[{i}][{k}]", nonneg=True)
    for i in range(n):
        bld.row([ones[i]], [1.0], 1.0)
        cols = [u_i[i]] + [useg[(i, k)] for k in range(K) if (i, k) in useg]
        if delta:
            cols.append(delta[i])
        bld.row(cols, [1.0] + [-1.0] * (len(cols) - 1), 0.0)
        bld.cones.append({"type": "exp3", "vars": [u_i[i], ones[i], q_i[i]]})
    for k, seg in enumerate(segments):
        _, uhat = build_conic_representation(seg, builder=bld)
        for j, i in enumerate(seg.order):
            bld.row([useg[(int(i), k)], uhat[j]], [1.0, -float(seg.lam[i])], 0.0)
    objective = np.zeros(len(bld.names))
    for i in range(n):
        objective[q_i[i]] = -instance.budgets[i]
    objective[delta] = 1.0
    cones = [{"type": "nonneg", "vars": bld.nonneg}] + bld.cones
    return ConicProgram(objective=objective, rows=bld.rows, cones=cones,
                        var_names=bld.names, meta={"n": n, "K": K})


def conic_solution_utilities(program: ConicProgram, x):
    """Map a solution vector of an emitted program back to (u_i, u_ik), of
    the shapes (n,) and (n, K) that ``meta`` records (0 where no variable)."""
    x = np.asarray(x, dtype=float)
    if x.size != program.num_vars:
        raise ValidationError(
            f"solution vector has {x.size} entries, program has {program.num_vars}")
    u = np.zeros(program.meta["n"])
    u_ik = np.zeros((program.meta["n"], program.meta["K"]))
    for idx, name in enumerate(program.var_names):
        if name.startswith("useg["):
            i, k = (int(part) for part in name[5:-1].split("]["))
            u_ik[i, k] = x[idx]
        elif name.startswith("u["):
            u[int(name[2:-1])] = x[idx]
    return u, u_ik


def segment_feasibility_certificate(segment: NormalizedSegment, u):
    """Check feasibility through the constraint block, not the greedy oracle.

    Builds the full auxiliary assignment from greedy cut points in normalized
    coordinates (s_j at the cut, t_j = s_j^2, (z_j, w_j) = G_j (s_j, t_j)) and
    evaluates every block constraint on it.  Returns (ok, assignment).  The
    block is an exact description of the feasible set, so the assignment
    satisfies it iff u is feasible.  The verdict reads the block's
    constraints, not the truncation flags ``membership`` reads, which makes
    this a cross-check of ``membership``.
    """
    u = np.asarray(u, dtype=float)
    m = segment.num_active
    if u.shape != (m,):
        raise ValidationError(f"expected {m} active utilities, got {u.shape}")
    uhat = segment.sorted_targets(u)
    s, _, _ = greedy_cuts(segment.c_hat, segment.d_hat, segment.order, uhat,
                          0.0, 1.0)
    s = s[:max(m - 1, 0)]
    t = s ** 2
    z, w = np.array([segment.G(j) @ np.array([s[j], t[j]])
                     for j in range(m - 1)]).reshape(-1, 2).T
    # chain: uhat_1 <= z_1, uhat_j <= z_j + w_(j-1), uhat_m <= 1 + w_(m-1)
    chain = np.append(z, 1.0) + np.insert(w, 0, 0.0)
    ok = bool(np.all(u >= -MEM_TOL) and np.all(uhat <= chain + MEM_TOL)
              and np.all(z >= -MEM_TOL) and np.all(z <= 1 + MEM_TOL)
              and np.all(w >= -1 - MEM_TOL) and np.all(w <= MEM_TOL)
              and np.all(z + w >= -MEM_TOL))
    return ok, {"uhat": uhat, "s": s, "t": t, "z": z, "w": w}
