import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisher_fair import (
    InfeasibleUtilities,
    ValidationError,
    build_instance,
    conic_solution_utilities,
    emit_conic_program,
    membership,
    normalize_segment,
    partition_interval,
    partition_segment,
    solve,
)
from fisher_fair.ellipsoid import _clip_to_membership
from fisher_fair.feasible import (
    MEM_TOL,
    ConicProgram,
    NormalizedSegment,
    _rescale_and_sort,
    build_conic_representation,
    greedy_cuts,
    segment_feasibility_certificate,
)
from fisher_fair.market import Interval, LinearPiece, cut, eval_interval

# inline walkthrough data for the second segment of the piecewise example:
# coefficients on [l, h] = [0.3741, 0.8147] and a feasible utility vector
SEG_C = np.array([1.6253, -0.2604, -1.7084, 2.5419])
SEG_D = np.array([-0.2972, 0.4864, 1.3919, 0.6464])
SEG_LO, SEG_HI = 0.3741, 0.8147
SEG_U = np.array([0.0000, 0.0732, 0.0036, 0.5646])


def segment_instance():
    """One-segment instance over [0, 1] carrying the [l, h] coefficients:
    normalize_segment only looks at the per-segment data, so embed the
    walkthrough coefficients in a 3-segment grid matching the original."""
    c = np.array([[1.2887, 1.6253, -0.4692],
                  [-1.2494, -0.2604, -0.1476],
                  [-0.4802, -1.7084, 1.1019],
                  [-0.0501, 2.5419, 1.2096]])
    d = np.array([[1.9391, -0.2972, 1.3209],
                  [0.4674, 0.4864, 0.1476],
                  [0.4137, 1.3919, -0.0462],
                  [0.4262, 0.6464, 0.8471]])
    inst = build_instance([0.2270, 0.2584, 0.2642, 0.2505],
                          [0.0, SEG_LO, SEG_HI, 1.0], c, d)
    return inst


def test_normalize_segment_golden():
    inst = segment_instance()
    seg = normalize_segment(inst, 1)
    # the loader rescaled all densities; lam scales along, d_hat does not
    scales = inst.value_scales
    assert np.allclose(seg.lam * scales, [0.2947, 0.1461, 0.1659, 0.9506],
                       atol=2e-4)
    assert np.allclose(seg.d_hat, [0.4646, 1.1730, 2.0, 0.7404], atol=2e-4)
    assert seg.order.tolist() == [2, 1, 3, 0]
    assert np.allclose(0.5 * seg.c_hat[seg.active] + seg.d_hat[seg.active], 1.0,
                       atol=1e-12)
    assert np.all(np.diff(seg.d_hat[seg.order]) <= 1e-12)


def test_normalize_segment_identity_when_already_normal():
    inst = build_instance([0.5, 0.5], [0, 1], [[-0.4], [0.8]], [[1.2], [0.6]])
    seg = normalize_segment(inst, 0)
    assert np.allclose(seg.lam, 1.0)
    assert np.allclose(seg.c_hat, [-0.4, 0.8])
    assert np.allclose(seg.d_hat, [1.2, 0.6])
    assert seg.order.tolist() == [0, 1]


def test_normalize_segment_excludes_zero_buyer():
    inst = build_instance([0.5, 0.5], [0, 0.5, 1],
                          [[0.0, 0.0], [0.0, 0.0]],
                          [[1.0, 1.0], [0.0, 1.0]])
    seg = normalize_segment(inst, 0)
    assert seg.active.tolist() == [0]
    assert seg.order.tolist() == [0]


def seg_walkthrough():
    inst = segment_instance()
    seg = normalize_segment(inst, 1)
    # utilities in the loader's normalized scale
    u_all = SEG_U / inst.value_scales
    return inst, seg, u_all


def test_membership_walkthrough_vector():
    _, seg, u_all = seg_walkthrough()
    assert membership(seg, u_all[seg.active])


def test_membership_zero_vector():
    _, seg, _ = seg_walkthrough()
    assert membership(seg, np.zeros(seg.num_active))


def test_membership_rejects_excess():
    _, seg, _ = seg_walkthrough()
    u = np.zeros(seg.num_active)
    u[0] = seg.lam[seg.active[0]] + 1.0
    assert not membership(seg, u)


def test_partition_walkthrough_golden():
    inst, _, u_all = seg_walkthrough()
    parts = partition_segment(inst, 1, u_all)
    assert parts[2].as_pair() == pytest.approx((0.3741, 0.3789), abs=1e-3)
    assert parts[1].as_pair() == pytest.approx((0.3789, 0.5815), abs=1e-3)
    assert parts[3].as_pair() == pytest.approx((0.5815, 0.8147), abs=1e-3)
    assert parts[0].length == pytest.approx(0.0, abs=1e-3)


def test_partition_zero_targets_get_empty_intervals():
    inst = build_instance([0.5, 0.5], [0, 1], [[-0.4], [0.8]], [[1.2], [0.6]])
    # zero targets: every buyer gets an empty interval, the segment stays free
    parts = partition_segment(inst, 0, np.zeros(2))
    assert all(p.length == 0.0 for p in parts)
    # buyer 0 has the higher intercept and comes first in sorted order; as
    # the only buyer with a positive target it takes the whole segment
    parts = partition_segment(inst, 0, np.array([0.1, 0.0]))
    assert parts[0].as_pair() == (0.0, 1.0)
    assert parts[1].length == 0.0


def test_partition_infeasible_raises():
    inst = build_instance([0.5, 0.5], [0, 1], [[-0.4], [0.8]], [[1.2], [0.6]])
    # the first cut already overruns the right endpoint
    with pytest.raises(InfeasibleUtilities):
        partition_segment(inst, 0, np.array([1.5, 0.1]))


def test_partition_rejects_overrun_of_sorted_last_buyer():
    # equal densities: buyer 1 comes last in sorted order and asks for 0.5
    # where only 0.1 is left
    with pytest.raises(InfeasibleUtilities):
        partition_interval([0.0, 0.0], [1.0, 1.0], 0.0, 1.0, [0.9, 0.5])


def test_partition_zero_targets_leave_takers_cuts_alone():
    # buyers with a zero target change no taker's interval and get
    # Interval(hi, hi), also where the stable sort puts them between two
    # takers or after the last one
    rng = np.random.default_rng(31)
    between = after = 0
    for trial in range(40):
        m = int(rng.integers(2, 6))
        lo = float(rng.uniform(0.0, 0.5))
        hi = lo + float(rng.uniform(0.1, 0.5))
        y = rng.uniform(0.1, 2.0, (m, 2))
        cs = (y[:, 1] - y[:, 0]) / (hi - lo)
        ds = y[:, 0] - cs * lo
        edges = np.concatenate([[lo], np.sort(rng.uniform(lo, hi, m - 1)), [hi]])
        u = np.zeros(m)
        for j, i in enumerate(rng.permutation(m)):
            u[i] = eval_interval(LinearPiece(cs[i], ds[i]),
                                 Interval(edges[j], edges[j + 1]))
        # four zero-target buyers: copies of the first and the last taker in
        # sorted order, and two random densities
        order = _rescale_and_sort(cs, ds, lo, hi)[4]
        y_all = np.concatenate([y, y[order[[0, -1]]], rng.uniform(0.1, 2.0, (2, 2))])
        cs_all = (y_all[:, 1] - y_all[:, 0]) / (hi - lo)
        ds_all = y_all[:, 0] - cs_all * lo
        u_all = np.concatenate([u, np.zeros(4)])
        full = _rescale_and_sort(cs_all, ds_all, lo, hi)[4]
        taker_pos = np.flatnonzero(full < m)
        zero_pos = np.flatnonzero(full >= m)
        between += int(np.any((zero_pos > taker_pos[0]) & (zero_pos < taker_pos[-1])))
        after += int(np.any(zero_pos > taker_pos[-1]))
        parts = partition_interval(cs_all, ds_all, lo, hi, u_all)
        assert parts[:m] == partition_interval(cs, ds, lo, hi, u)
        assert parts[m:] == [Interval(hi, hi)] * 4
    assert between == after == 40


def test_partition_cuts_buyer_with_tiny_coefficients():
    # value 2.5e-14 on [0, 0.5] is above feasible.LAMBDA_FLOOR, so the buyer
    # is active; its coefficients are both below 1e-12, and ``cut`` must still
    # cut it instead of calling the piece degenerate
    parts = partition_interval([-2e-13], [1e-13], 0.0, 0.5, [1.25e-14])
    assert parts[0].as_pair() == (0.0, 0.5)
    points, delivered, truncated = greedy_cuts(
        np.array([-2e-13]), np.array([1e-13]), np.array([0]),
        np.array([1.25e-14]), 0.0, 0.5)
    value = eval_interval(LinearPiece(-2e-13, 1e-13), Interval(0.0, points[0]))
    assert not truncated[0] and points[0] < 0.5
    assert value == pytest.approx(1.25e-14, rel=1e-9)
    assert delivered[0] == pytest.approx(1.25e-14, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_greedy_cuts_properties(data):
    n = data.draw(st.integers(1, 6))
    # endpoint densities are 0, tiny (a buyer just above the activity floor,
    # whose coefficients are far below 1e-12) or of order one
    ends = st.just(0.0) | st.floats(1e-15, 1e-12) | st.floats(1e-6, 2.0)
    y0 = np.array(data.draw(st.lists(ends, min_size=n, max_size=n)))
    y1 = np.array(data.draw(st.lists(ends, min_size=n, max_size=n)))
    lo = data.draw(st.floats(0.0, 0.5))
    hi = lo + data.draw(st.floats(0.05, 0.5))
    cs = (y1 - y0) / (hi - lo)
    ds = y0 - cs * lo
    # a feasible point from random cuts, then per-buyer factors around it
    pts = sorted(data.draw(st.lists(st.floats(lo, hi), min_size=n - 1,
                                    max_size=n - 1)))
    edges = [lo] + pts + [hi]
    perm = data.draw(st.permutations(range(n)))
    u = np.zeros(n)
    for j, i in enumerate(perm):
        u[i] = max(eval_interval(LinearPiece(cs[i], ds[i]),
                                 Interval(edges[j], edges[j + 1])), 0.0)
    u *= np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]),
                                     min_size=n, max_size=n)))
    seg = NormalizedSegment(0, *_rescale_and_sort(cs, ds, lo, hi))

    for coeffs, targets, a, b in (
            ((cs, ds), u[seg.order], lo, hi),
            ((seg.c_hat, seg.d_hat), seg.sorted_targets(u[seg.active]), 0.0, 1.0)):
        points, delivered, truncated = greedy_cuts(*coeffs, seg.order, targets, a, b)
        assert np.all(delivered <= np.maximum(targets, 0.0))
        assert np.all(delivered[~truncated] >= targets[~truncated] - MEM_TOL)
        starts = np.concatenate([[a], points[:-1]])
        assert np.all(points >= starts) and np.all(points <= b)
        got = [eval_interval(LinearPiece(coeffs[0][i], coeffs[1][i]), Interval(x0, x1))
               for i, x0, x1 in zip(seg.order, starts, points)]
        assert np.allclose(got, delivered, rtol=0, atol=1e-9)
    # the last run above is the normalized one, which membership reads
    assert membership(seg, u[seg.active]) == (not truncated.any())

    clipped = _clip_to_membership(seg, u)
    assert np.all(clipped <= u)
    assert membership(seg, clipped[seg.active])


def test_partition_generate_then_recover_roundtrip():
    rng = np.random.default_rng(17)
    for trial in range(50):
        n = rng.integers(2, 7)
        y = rng.uniform(0, 2, (n, 2))
        lo = rng.uniform(0, 0.5)
        hi = lo + rng.uniform(0.1, 0.5)
        cs = (y[:, 1] - y[:, 0]) / (hi - lo)
        ds = y[:, 0] - cs * lo
        # generate feasible utilities by random cuts
        pts = np.sort(rng.uniform(lo, hi, n - 1))
        edges = np.concatenate([[lo], pts, [hi]])
        perm = rng.permutation(n)
        u = np.zeros(n)
        for j, i in enumerate(perm):
            u[i] = eval_interval(LinearPiece(cs[i], ds[i]),
                                 Interval(edges[j], edges[j + 1]))
        parts = partition_interval(cs, ds, lo, hi, u)
        for i in range(n):
            got = eval_interval(LinearPiece(cs[i], ds[i]), parts[i])
            assert got >= u[i] - 1e-9
        # everyone except the sorted-last buyer hits the target exactly
        d_hat = (hi - lo) * (cs * lo + ds)
        lam = 0.5 * cs * (hi * hi - lo * lo) + ds * (hi - lo)
        act = lam > 1e-14
        order = np.flatnonzero(act)[np.argsort(-(d_hat[act] / lam[act]),
                                               kind="stable")]
        for i in order[:-1]:
            got = eval_interval(LinearPiece(cs[i], ds[i]), parts[i])
            assert got == pytest.approx(u[i], abs=1e-9)


def coalition_bruteforce_membership(cs, ds, lo, hi, u, cells=10000):
    """Independent membership oracle on a fine discretization.

    Splits [lo, hi] into equal cells (exact cell values, since densities are
    linear) and prices the resulting assignment problem: u is attainable by
    cell fractions iff no weights beta >= 0 make the demanded utility
    u . beta exceed the welfare sum_j max_i beta_i v_ij.  That search is the
    linear program  min sum_j p_j - u . beta  s.t.  p_j >= beta_i v_ij,
    sum_i beta_i <= 1, p, beta >= 0,  whose optimum is 0 exactly when u is
    feasible and negative otherwise.  Solved with an off-the-shelf LP solver,
    sharing nothing with the greedy oracle or the constraint system.
    """
    from scipy import sparse
    from scipy.optimize import linprog
    n = len(cs)
    u = np.asarray(u, dtype=float)
    if np.any(u < -1e-12):
        return False
    edges = np.linspace(lo, hi, cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    V = (edges[1:] - edges[:-1])[None, :] * (np.asarray(cs)[:, None]
                                             * mids[None, :]
                                             + np.asarray(ds)[:, None])
    V = np.maximum(V, 0.0)
    rows_idx = np.arange(n * cells)
    jj = np.tile(np.arange(cells), n)
    ii = np.repeat(np.arange(n), cells)
    A = sparse.csr_matrix(
        (np.concatenate([-np.ones(n * cells), V.ravel()]),
         (np.concatenate([rows_idx, rows_idx]),
          np.concatenate([jj, cells + ii]))),
        shape=(n * cells, cells + n))
    simplex = sparse.csr_matrix(
        (np.ones(n), (np.zeros(n, dtype=int), cells + np.arange(n))),
        shape=(1, cells + n))
    c = np.concatenate([np.ones(cells), -u])
    res = linprog(c, A_ub=sparse.vstack([A, simplex], format="csr"),
                  b_ub=np.concatenate([np.zeros(n * cells), [1.0]]),
                  bounds=(0, None), method="highs")
    return bool(res.status == 0 and res.fun >= -1e-9)


def segment_from_coeffs(cs, ds, lo, hi):
    from fisher_fair.feasible import LAMBDA_FLOOR, NormalizedSegment
    cs = np.asarray(cs, dtype=float)
    ds = np.asarray(ds, dtype=float)
    width = hi - lo
    lam = 0.5 * cs * (hi * hi - lo * lo) + ds * width
    active = np.flatnonzero(lam > LAMBDA_FLOOR)
    c_hat = np.zeros(cs.size)
    d_hat = np.zeros(cs.size)
    c_hat[active] = width * width * cs[active] / lam[active]
    d_hat[active] = width * (cs[active] * lo + ds[active]) / lam[active]
    order = active[np.argsort(-d_hat[active], kind="stable")]
    return NormalizedSegment(index=0, lam=lam, c_hat=c_hat, d_hat=d_hat,
                             active=active, order=order)


def membership_test_points(rng, n_max=5):
    """Random (segment, utilities, verdict) cases with verdict margins far
    above the brute-force discretization error: feasible points are scaled
    partitions, infeasible ones overshoot either one buyer's own capacity or
    the grand coalition's welfare by a fixed fraction."""
    n = int(rng.integers(2, n_max + 1))
    lo = float(rng.uniform(0.0, 0.5))
    hi = lo + float(rng.uniform(0.3, 1.0 - lo)) if lo < 0.7 else 1.0
    hi = min(hi, 1.0)
    y = rng.uniform(0.1, 2.0, (n, 2))
    cs = (y[:, 1] - y[:, 0]) / (hi - lo)
    ds = y[:, 0] - cs * lo
    edges = np.linspace(lo, hi, n + 1)
    perm = rng.permutation(n)
    boundary = np.zeros(n)
    for j, i in enumerate(perm):
        boundary[i] = eval_interval(LinearPiece(cs[i], ds[i]),
                                    Interval(edges[j], edges[j + 1]))
    lam = 0.5 * cs * (hi * hi - lo * lo) + ds * (hi - lo)
    cases = [(boundary * 0.7, True)]
    bump = boundary.copy()
    i_star = int(np.argmax(lam))
    bump[i_star] = lam[i_star] * 1.1
    cases.append((bump, False))
    # near-boundary probe: verdict not pinned, the three oracles must agree
    cases.append((boundary * 1.25, None))
    return cs, ds, lo, hi, cases


def knapsack_bruteforce_membership(cs, ds, lo, hi, u, cells=10000, tol=1e-8):
    """Fast exact variant of the discretized check above.

    Same model: u is feasible iff no nonnegative weight vector beta makes the
    demanded utility u . beta exceed the best achievable welfare
    sum_j max_i beta_i v_ij over the cell grid.  The weight search minimizes
    that piecewise-linear welfare gap over the simplex by cutting planes,
    stopping as soon as either bound settles the sign.
    """
    from scipy.optimize import linprog
    n = len(cs)
    u = np.asarray(u, dtype=float)
    if np.any(u < -1e-12):
        return False
    edges = np.linspace(lo, hi, cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    V = (edges[1:] - edges[:-1])[None, :] * (np.asarray(cs)[:, None]
                                             * mids[None, :]
                                             + np.asarray(ds)[:, None])
    V = np.maximum(V, 0.0)
    col = np.arange(V.shape[1])

    def gap(beta):
        scaled = beta[:, None] * V
        win = np.argmax(scaled, axis=0)
        val = float(scaled[win, col].sum()) - float(u @ beta)
        g = np.zeros(n)
        np.add.at(g, win, V[win, col])
        return val, g - u

    cuts = []
    seeds = [np.full(n, 1.0 / n)] + [np.eye(n)[i] for i in range(n)]
    best_upper = np.inf
    beta = seeds[0]
    for it in range(300):
        val, g = gap(beta)
        best_upper = min(best_upper, val)
        if best_upper < -1e-7:
            return False
        cuts.append((g, val - float(g @ beta)))
        if it < len(seeds) - 1:
            beta = seeds[it + 1]
            continue
        m = len(cuts)
        A = np.zeros((m, n + 1))
        b = np.zeros(m)
        for r, (gr, cr) in enumerate(cuts):
            A[r, :n] = gr
            A[r, n] = -1.0
            b[r] = -cr
        Aeq = np.zeros((1, n + 1))
        Aeq[0, :n] = 1.0
        c = np.zeros(n + 1)
        c[n] = 1.0
        res = linprog(c, A_ub=A, b_ub=b, A_eq=Aeq, b_eq=[1.0],
                      bounds=[(0, None)] * n + [(None, None)], method="highs")
        lower = float(res.fun)
        if lower >= -1e-9:
            return True
        if best_upper - lower <= tol:
            break
        beta = np.maximum(res.x[:n], 0.0)
        s = beta.sum()
        beta = beta / s if s > 0 else np.full(n, 1.0 / n)
    return bool(best_upper >= -1e-9)


def test_membership_three_way_agreement():
    # greedy oracle, constraint-system certificate, and discretized
    # brute force must agree on every sampled point
    rng = np.random.default_rng(23)
    checked = 0
    for trial in range(40):
        cs, ds, lo, hi, cases = membership_test_points(rng)
        seg = segment_from_coeffs(cs, ds, lo, hi)
        for u, expected in cases:
            greedy = membership(seg, u[seg.active])
            cert, _ = segment_feasibility_certificate(seg, u[seg.active])
            brute = knapsack_bruteforce_membership(cs, ds, lo, hi, u)
            assert bool(greedy) == bool(cert) == bool(brute)
            if expected is not None:
                assert bool(greedy) is expected
            checked += 1
    assert checked >= 100


def test_bruteforce_variants_agree():
    # the cutting-plane pricing check matches the monolithic assignment LP
    rng = np.random.default_rng(29)
    for trial in range(6):
        cs, ds, lo, hi, cases = membership_test_points(rng)
        for u, _ in cases:
            fast = knapsack_bruteforce_membership(cs, ds, lo, hi, u)
            slow = coalition_bruteforce_membership(cs, ds, lo, hi, u, cells=2000)
            assert fast == slow


def test_conic_representation_two_buyers_structure():
    # the two-buyer normalized case: one G block linking (s, t) to (z, w)
    inst = build_instance([0.5, 0.5], [0, 1],
                          [[2 * (1 - 1.5)], [2 * (1 - 0.8)]],
                          [[1.5], [0.8]])
    seg = normalize_segment(inst, 0)
    assert np.allclose(seg.G(0), [[1.5, -0.5], [-0.8, -0.2]], atol=1e-12)
    bld, uhat = build_conic_representation(seg)
    soc = [c for c in bld.cones if c["type"] == "soc3"]
    assert len(soc) == 1
    assert len(uhat) == 2
    zs = [nm for nm in bld.names if nm.startswith("z[")]
    ws = [nm for nm in bld.names if nm.startswith("wneg[")]
    assert len(zs) == len(ws) == 1


def test_conic_representation_single_buyer_no_blocks():
    inst = build_instance([1.0], [0, 1], [[0.0]], [[1.0]])
    seg = normalize_segment(inst, 0)
    bld, uhat = build_conic_representation(seg)
    assert not bld.cones
    assert len(uhat) == 1
    # the only constraint caps uhat at one
    assert len(bld.rows) == 1


def test_emit_conic_counts(example6):
    program = emit_conic_program(example6)
    counts = program.cone_counts()
    assert counts["exp3"] == 4
    assert counts["soc3"] == 9  # one per adjacent sorted pair per segment
    n, K = 4, 3
    assert program.num_vars <= 40 * n * K
    assert program.num_rows <= 30 * n * K
    assert program.nonzeros() <= 90 * n * K


def test_emit_conic_roundtrip_json(example6, tmp_path):
    program = emit_conic_program(example6)
    path = tmp_path / "prog.json"
    import json
    path.write_text(json.dumps(program.to_json()))
    loaded = ConicProgram.from_json(json.loads(path.read_text()))
    assert loaded.num_vars == program.num_vars
    assert loaded.num_rows == program.num_rows
    assert [c["type"] for c in loaded.cones] == [c["type"] for c in program.cones]


def test_conic_json_keeps_segment_count():
    # nobody values the last segment, so no variable names it: the decoded
    # shape must come from the program's meta, also after a JSON round trip
    import json
    inst = build_instance([0.5, 0.5], [0, 0.5, 1], [[0, 0], [0, 0]], [[1, 0], [2, 0]])
    program = emit_conic_program(inst)
    doc = json.loads(json.dumps(program.to_json()))
    assert doc["meta"] == {"n": 2, "K": 2}
    x = np.arange(program.num_vars, dtype=float)
    u, u_ik = conic_solution_utilities(ConicProgram.from_json(doc), x)
    want_u, want_u_ik = conic_solution_utilities(program, x)
    assert u_ik.shape == (2, 2)
    assert np.array_equal(u, want_u) and np.array_equal(u_ik, want_u_ik)
    del doc["meta"]
    with pytest.raises(ValidationError):
        ConicProgram.from_json(doc)


def construct_solution_vector(program, instance, result):
    """Assemble a full conic solution from an equilibrium result: utilities
    from the solver, auxiliaries from the greedy cut points."""
    from fisher_fair.feasible import normalize_segment as norm_seg
    x = np.zeros(program.num_vars)
    idx = {name: i for i, name in enumerate(program.var_names)}
    u = result.u
    for i in range(instance.n):
        x[idx[f"u[{i}]"]] = u[i]
        x[idx[f"one[{i}]"]] = 1.0
        x[idx[f"q[{i}]"]] = np.log(u[i])
        if result.delta is not None:
            x[idx[f"delta[{i}]"]] = result.delta[i]
    for k in range(instance.num_segments):
        seg = norm_seg(instance, k)
        m = seg.num_active
        uhat = np.zeros(m)
        for j, i in enumerate(seg.order):
            val = result.useg[int(i), k]
            x[idx[f"useg[{int(i)}][{k}]"]] = val
            uhat[j] = val / seg.lam[i]
            x[idx[f"uhat[{k}][{j}]"]] = uhat[j]
        pos = 0.0
        for j in range(m - 1):
            i = seg.order[j]
            pos = cut(LinearPiece(seg.c_hat[i], seg.d_hat[i]), pos, uhat[j], 1.0)
            s, t = pos, pos * pos
            a, b = seg.order[j], seg.order[j + 1]
            z = seg.d_hat[a] * s + 0.5 * seg.c_hat[a] * t
            w = -(seg.d_hat[b] * s + 0.5 * seg.c_hat[b] * t)
            x[idx[f"s[{k}][{j}]"]] = s
            x[idx[f"t[{k}][{j}]"]] = t
            x[idx[f"z[{k}][{j}]"]] = z
            x[idx[f"wneg[{k}][{j}]"]] = -w
            x[idx[f"socp[{k}][{j}]"]] = 0.5 * (1 + t)
            x[idx[f"socm[{k}][{j}]"]] = 0.5 * (1 - t)
    # slacks absorb whatever the inequality rows leave over
    for cols, vals, rhs in program.rows:
        name = program.var_names[cols[-1]]
        if name.startswith("sl"):
            partial = float(np.dot(x[list(cols[:-1])], vals[:-1]))
            x[cols[-1]] = rhs - partial
    return x


def test_emitted_program_accepts_equilibrium(example6, random_instance):
    # quasilinear: in the second instance buyer 0 keeps all its money and
    # gets an allocation worth 0, which only the delta variables make feasible
    ql_tie = build_instance([0.5, 0.5], [0, 1], [[0.4], [0.8]], [[0.3], [0.6]],
                            mode="quasilinear")
    for inst in (example6, random_instance(3, 2, seed=5, mode="quasilinear"), ql_tie):
        program = emit_conic_program(inst)
        result = solve(inst)
        x = construct_solution_vector(program, inst, result)
        assert program.residuals(x).max() <= 1e-8
        assert program.cone_violations(x) <= 1e-8
        # objective value equals minus the budget-weighted log utilities,
        # plus the money kept in quasilinear mode
        z = float(np.dot(inst.budgets, np.log(result.u)))
        if result.delta is not None:
            z -= float(result.delta.sum())
        assert float(program.objective @ x) == pytest.approx(-z, abs=1e-9)
        u_back, useg_back = conic_solution_utilities(program, x)
        assert np.allclose(u_back, result.u, atol=1e-12)
        assert np.allclose(useg_back, result.useg, atol=1e-12)
    assert result.delta[0] == pytest.approx(0.5)
    assert np.all(result.useg[0] == 0.0)


def test_transform_consistency_random_segments(random_instance):
    # u in U(v, [l, h]) iff the rescaled sorted vector lies in the unit set
    rng = np.random.default_rng(31)
    inst = random_instance(4, 3, seed=9)
    for k in range(inst.num_segments):
        seg = normalize_segment(inst, k)
        m = seg.num_active
        for _ in range(20):
            share = rng.dirichlet(np.ones(m + 1))[:m]
            u = share * seg.lam[seg.active] * rng.uniform(0.5, 1.2)
            inside = membership(seg, u)
            # rescaled copy on [0, 1]: same membership via the unit segment
            unit = build_instance(np.full(m, 1.0 / m), [0, 1],
                                  seg.c_hat[seg.order][:, None],
                                  seg.d_hat[seg.order][:, None])
            useg = normalize_segment(unit, 0)
            uhat = np.array([u[list(seg.active).index(i)] / seg.lam[i]
                             for i in seg.order])
            # map sorted-order uhat back to the unit instance's buyer order
            inside_unit = membership(useg, uhat[np.argsort(useg.order)])
            assert inside == inside_unit


def test_auxiliary_bounds_hold_on_feasible_points():
    _, seg, u_all = seg_walkthrough()
    ok, aux = segment_feasibility_certificate(seg, u_all[seg.active])
    assert ok
    assert np.all(aux["s"] >= -1e-12) and np.all(aux["s"] <= 1 + 1e-12)
    assert np.all(aux["t"] >= -1e-12) and np.all(aux["t"] <= 1 + 1e-12)
    assert np.all(aux["z"] >= -1e-12) and np.all(aux["z"] <= 1 + 1e-12)
    assert np.all(aux["w"] >= -1 - 1e-12) and np.all(aux["w"] <= 1e-12)
    assert np.all(aux["z"] + aux["w"] >= -1e-12)
