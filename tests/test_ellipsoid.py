import numpy as np
import pytest

from fisher_fair import EquilibriumResult, ValidationError, build_instance, solve
from fisher_fair.ellipsoid import (
    _discounted_utilities,
    build_perturbed_system,
    ellipsoid_solve,
    feasible_start,
    first_order_oracle,
    separation_oracle,
)
from fisher_fair.feasible import membership, normalize_segment
from fisher_fair.market import load_instance
from fisher_fair.sampling import sample_instance
from fisher_fair.verification import check_equilibrium
from tests.conftest import twins_document


def small_system(example5):
    kappa = 1.0 / example5.budgets.min()
    eps = 1e-4
    eps_int = eps / (2 * kappa + example5.num_segments + 1)
    return build_perturbed_system(example5, eps_int)


def _slot_of(system, i, k=0):
    """Slot of buyer i on segment k: its row of ``chain_map``."""
    return [(kk, ii) for kk, _, ii in system.slots].index((k, i))


def _st_of(system, k, j):
    """Indices in y of the (s, t) pair of segment k's j-th adjacent pair."""
    p = system.pairs.index((k, j))
    return system.s_block.start + p, system.t_block.start + p


def test_separation_tangent_normal(example5):
    # build a point whose only violation is the parabola pair (0.5, 0.1):
    # every other (s, t) at zero puts every chain bound but the last two at
    # zero (u_i = uhat_i = eps_internal here) and keeps every linear row
    # satisfied
    system = small_system(example5)
    y = np.zeros(system.dim)
    # last adjacent pair: its w only feeds the slack-rich final chain bound
    seg = system.segments[0]
    j = seg.num_active - 2
    s_idx, t_idx = _st_of(system, 0, j)
    y[s_idx], y[t_idx] = 0.5, 0.1
    full = system.expand(y)
    assert np.allclose(full["u"][seg.order[:j]], system.eps_internal)
    assert np.all(full["u"] >= system.eps_internal)
    assert np.allclose([full["z"][-1], full["w"][-1]], seg.G(j) @ [0.5, 0.1])
    result = separation_oracle(system, y)
    assert result is not None
    g, kind, _ = result
    assert kind == "quadratic"
    assert g[s_idx] == pytest.approx(1.0)
    assert g[t_idx] == pytest.approx(-1.0)
    others = np.delete(g, [s_idx, t_idx])
    assert np.all(others == 0.0)


def test_separation_interior_point(example5):
    system = small_system(example5)
    assert separation_oracle(system, feasible_start(system)) is None


def test_separation_linear_row(example5):
    system = small_system(example5)
    y = feasible_start(system)
    # buyer 0 is second in order: its order row z_1 + w_0 >= 0 has
    # coefficients -chain_map[slot]
    slot = _slot_of(system, 0)
    assert system.slots[slot][1] == 1
    row = next(r for r in range(system.A.shape[0])
               if np.array_equal(system.A[r], -system.chain_map[slot])
               and system.b[r] == 0.0)
    # (s_0, t_0) = (1, 1) puts w_0 on its bound -1, and s_1 = -5 with t_1 = 0
    # gives buyer 0 (d_hat 1.2) z_1 = -6: its interval is worth -7, and the
    # order row's residual exceeds the z_1 >= 0 row's by one and every other
    # row's by more
    y[:] = 0.0
    y[list(_st_of(system, 0, 0))] = 1.0
    y[_st_of(system, 0, 1)[0]] = -5.0
    assert system.chain(y)[slot] == pytest.approx(-7.0)
    result = separation_oracle(system, y)
    assert result is not None
    g, kind, depth = result
    assert kind == "linear"
    assert np.array_equal(g, -system.chain_map[slot])
    assert np.allclose(g, system.A[row])
    assert depth == (system.A @ y - system.b)[row]
    assert depth == pytest.approx(7.0 - system.b[row])


def test_separation_linear_depth_is_row_residual(random_instance):
    # at random points outside the region the depth of a linear cut is the
    # residual of the most-violated row, bit for bit, and the normal its row
    inst = random_instance(3, 2, seed=11)
    system = build_perturbed_system(inst, 1e-5)
    rng = np.random.default_rng(4)
    y0 = feasible_start(system)
    seen = 0
    for _ in range(50):
        y = y0 + rng.normal(0.0, 0.3, system.dim)
        result = separation_oracle(system, y)
        if result is None or result[1] != "linear":
            continue
        g, _, depth = result
        res = system.A @ y - system.b
        row = int(res.argmax())
        assert depth == res[row] > 0.0
        assert np.array_equal(g, system.A[row])
        seen += 1
    assert seen > 0


def test_dropped_utility_rows_never_bind(random_instance):
    # the rows u_i >= min(B_i, e / 2) are not in A: at any y each one's
    # residual is at least e / 2 below the largest residual of A's rows,
    # because u_i = sum_k lam_ik chain_ik + e with lam_i summing to 1, and
    # every chain bound below 1 is minus some row's residual
    rng = np.random.default_rng(31)
    e = 1e-3
    for n, k in [(2, 2), (3, 2), (3, 3), (4, 4), (5, 3)]:
        inst = random_instance(n, k, seed=n * 10 + k)
        system = build_perturbed_system(inst, e)
        y0 = feasible_start(system)
        for scale in (0.01, 0.3, 2.0):
            for _ in range(20):
                y = y0 + rng.normal(0.0, scale, system.dim)
                top = (system.A @ y - system.b).max()
                u_res = np.minimum(inst.budgets, e / 2) - system.expand(y)["u"]
                assert np.all(u_res <= top - e / 2 + 1e-12), (n, k)


def test_separation_parabola_depth_first_violated_pair(random_instance):
    # every linear row holds; several parabola pairs are violated, and the
    # cut is at the first of them with depth s0 * s0 - t0 exactly
    inst = random_instance(3, 2, seed=11)
    system = build_perturbed_system(inst, 1e-4)
    y = feasible_start(system)
    assert len(system.pairs) >= 3
    s_idx = np.arange(system.s_block.start, system.s_block.stop)
    t_idx = np.arange(system.t_block.start, system.t_block.stop)
    # the start has t = s^2 + eps_internal / 4; moving t just below s^2 on
    # the pairs after the first moves (z, w) too little to break a linear
    # row, and the later pairs are violated more
    first = 1
    below = 1e-9 * np.arange(1, len(system.pairs) - first + 1)
    y[t_idx[first:]] = y[s_idx[first:]] ** 2 - below
    assert np.all(system.A @ y - system.b <= 0.0)
    result = separation_oracle(system, y)
    assert result is not None
    g, kind, depth = result
    assert kind == "quadratic"
    s0, t0 = y[s_idx[first]], y[t_idx[first]]
    assert depth == s0 * s0 - t0
    assert g[s_idx[first]] == 2.0 * s0 and g[t_idx[first]] == -1.0
    assert np.count_nonzero(g) == 2


def test_first_order_oracle_values():
    # uniform densities: the one pair has z = s and w = -s, so with lam = 1
    # u = (s + e, 1 - s + e)
    inst = build_instance([0.5, 0.5], [0, 1], [[0.0], [0.0]], [[1.0], [1.0]])
    kappa = 2.0
    system = build_perturbed_system(inst, 1e-4 / (2 * kappa + 2))
    e = system.eps_internal
    assert system.dim == 2
    y = feasible_start(system)
    y[:] = 0.25, 0.0
    u = np.array([0.25 + e, 0.75 + e])
    assert np.allclose(system.expand(y)["u"], u, rtol=0, atol=1e-15)
    f, g = first_order_oracle(system, y)
    assert f == pytest.approx(-float(np.dot(inst.budgets, np.log(u))), rel=1e-15)
    # d f / d s = -B_0 / u_0 + B_1 / u_1, and t does not enter u
    assert np.allclose(g, [-0.5 / u[0] + 0.5 / u[1], 0.0])
    assert g[1] == 0.0
    # at the lower bound u_0 = B_0 buyer 0's component -B_0 / u_0 is -1
    y[0] = inst.budgets[0] - e
    _, g = first_order_oracle(system, y)
    assert np.allclose(g, [-1.0 + 0.5 / (0.5 + 2 * e), 0.0])


def test_first_order_oracle_finite_differences(random_instance):
    # two segments, so every u_i sums lam-weighted chain bounds over both
    inst = random_instance(3, 2, seed=11)
    kappa = 1.0 / inst.budgets.min()
    system = build_perturbed_system(inst, 1e-4 / (2 * kappa + 3))
    rng = np.random.default_rng(3)
    y = feasible_start(system) + rng.uniform(-0.02, 0.02, system.dim)
    u = system.expand(y)["u"]
    assert np.all(u > 0.05)
    f, g = first_order_oracle(system, y)
    assert f == -float(np.dot(inst.budgets, np.log(system.u_map @ y + system.u_const)))
    # chain rule: d f / d y = sum over slots of lam_ik (-B_i / u_i) times
    # the gradient of the slot's chain bound
    chain = np.zeros(system.dim)
    for p, (k, _, i) in enumerate(system.slots):
        chain += (system.segments[k].lam[i] * (-inst.budgets[i] / u[i])
                  * system.chain_map[p])
    assert np.allclose(g, chain, rtol=1e-12, atol=1e-15)
    h = 1e-6
    for idx in range(system.dim):
        yp = y.copy(); yp[idx] += h
        ym = y.copy(); ym[idx] -= h
        fd = (first_order_oracle(system, yp)[0]
              - first_order_oracle(system, ym)[0]) / (2 * h)
        assert g[idx] == pytest.approx(fd, rel=1e-6)


def test_single_buyer_single_segment_immediate():
    inst = build_instance([1.0], [0, 1], [[0.0]], [[1.0]])
    res = ellipsoid_solve(inst, 1e-3)
    assert res.u[0] >= 1.0 - 1e-3
    assert res.certified


@pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)])
def test_dimension_is_two_per_adjacent_pair(n, k):
    # the crosscheck shapes: every buyer is active on every segment, so
    # there are k (n - 1) adjacent pairs and y = (s, t) has two coordinates
    # for each
    inst = sample_instance(n, k, seed=4242)
    system = build_perturbed_system(inst, 1e-6)
    assert all(seg.num_active == n for seg in system.segments)
    assert len(system.pairs) == k * (n - 1)
    assert system.dim == 2 * len(system.pairs)
    assert system.A.shape[1] == system.u_map.shape[1] == system.dim


def test_disjoint_segments_need_no_calls():
    # each buyer values one segment only: no segment has two active buyers,
    # so there is nothing to optimize and each segment goes to its buyer
    inst = build_instance([0.3, 0.7], [0, 0.5, 1], [[0, 0], [0, 0]], [[1, 0], [0, 1]])
    eps = 1e-4
    res = ellipsoid_solve(inst, eps)
    assert res.dim == 0 and res.calls == 0 and res.call_budget == 0
    assert res.certified and res.gap <= eps
    assert [[iv.as_pair() for iv in ivs] for ivs in res.allocation.intervals] == [
        [(0.0, 0.5)], [(0.5, 1.0)]]
    assert np.allclose(res.u, 1.0)
    assert np.abs(res.beta - solve(inst).beta).max() <= 1e-12


def test_merged_twins_need_no_calls():
    # two identical buyers on one segment merge into one buyer: no
    # coordinates, and each twin gets the share of the segment its budget buys
    inst = build_instance([0.3, 0.7], [0, 1], [[0.4], [0.4]], [[0.8], [0.8]])
    eps = 1e-4
    res = ellipsoid_solve(inst, eps)
    assert res.dim == 0 and res.calls == 0
    assert res.certified and res.gap <= eps
    assert np.allclose(res.u, inst.budgets, rtol=0, atol=1e-12)
    assert res.beta[0] == res.beta[1] == pytest.approx(1.0)
    assert check_equilibrium(inst, res.allocation, res.beta, tol=10 * eps).passed


def test_identical_buyers_certify():
    # buyer 1 copies buyer 0: before twins were merged, 34 of these 40
    # markets raised NumericalBreakdown (the shape matrix lost positive
    # definiteness) and one more was uncertified
    for s in range(1000, 1040):
        inst = load_instance(twins_document(s))
        res = ellipsoid_solve(inst, 1e-4)
        assert res.certified and res.gap <= res.eps, s
        assert res.beta[0] == res.beta[1], s
        assert np.abs(res.beta - solve(inst).beta).max() <= 5e-3, s
        for k in range(inst.num_segments):
            seg = normalize_segment(inst, k)
            assert membership(seg, res.useg[seg.active, k]), (s, k)


def test_example5_matches_dual(example5):
    ref = solve(example5)
    res = ellipsoid_solve(example5, 1e-4)
    assert np.abs(res.u - ref.u).max() <= 1e-3
    assert res.certified
    assert res.calls <= res.call_budget
    # one result type: iterations are the oracle calls, prices the envelope
    assert isinstance(res, EquilibriumResult)
    assert res.iterations == res.calls
    theta = np.array([0.1, 0.5, 0.9])
    scaled = res.beta[:, None] * example5.values_at(theta)
    assert np.allclose(res.prices(theta), scaled.max(axis=0), rtol=0, atol=1e-12)
    doc = res.to_json()
    assert doc["delta"] is None and doc["ql_net_utilities"] is None
    assert doc["calls"] == doc["iterations"] == res.calls


def test_segment_no_buyer_values():
    # [0, 0.5] is worth nothing to either buyer: it has no coordinates and no
    # rows, and the allocation leaves it over
    inst = build_instance([0.5, 0.5], [0, 0.5, 1], [[0, 0], [0, 0]], [[0, 1], [0, 2]])
    eps = 1e-4
    res = ellipsoid_solve(inst, eps)
    assert res.certified
    assert res.gap <= eps
    assert [iv.as_pair() for iv in res.allocation.leftover] == [(0.0, 0.5)]
    assert np.abs(res.beta - solve(inst).beta).max() <= 5e-3
    assert check_equilibrium(inst, res.allocation, res.beta, tol=10 * eps).passed


def test_random_instance_cross_check(random_instance):
    inst = random_instance(3, 2, seed=107)
    ref = solve(inst)
    eps = 1e-4
    res = ellipsoid_solve(inst, eps)
    assert np.abs(res.u - ref.u).max() <= 5 * eps
    report = check_equilibrium(inst, res.allocation, res.beta, tol=10 * eps)
    assert report.passed
    assert report.market_clear_residual <= 1e-12


def test_returned_utilities_exact_membership(random_instance):
    inst = random_instance(4, 3, seed=77)
    res = ellipsoid_solve(inst, 2e-4)
    for k in range(inst.num_segments):
        seg = normalize_segment(inst, k)
        assert membership(seg, res.useg[seg.active, k])


def test_objective_bounded_at_feasible_points(example5):
    system = small_system(example5)
    kappa = 1.0 / example5.budgets.min()
    bound = np.log(kappa) + np.log(2.0 / system.eps_internal)
    rng = np.random.default_rng(5)
    y = feasible_start(system)
    assert first_order_oracle(system, y)[0] <= bound
    inside = 0
    for _ in range(20):
        # part of the way to a random point of the (s, t) box: inside, every
        # chain bound is nonnegative and u_i is at least eps_internal
        z = y + rng.uniform(0.0, 1.0) * (rng.uniform(0.0, 1.0, system.dim) - y)
        if separation_oracle(system, z) is None:
            inside += 1
            assert first_order_oracle(system, z)[0] <= bound
    assert inside > 0


def test_volume_shrinks_at_canonical_rate():
    # dimension <= 10: run a few cuts and compare the per-step volume factor
    inst = build_instance([0.6, 0.4], [0, 1], [[0.2], [-0.2]], [[0.9], [1.1]])
    kappa = 1.0 / 0.4
    system = build_perturbed_system(inst, 1e-3 / (2 * kappa + 2))
    d = system.dim
    assert d <= 10
    x = feasible_start(system)
    P = 4.0 * d * np.eye(d)
    rng = np.random.default_rng(0)
    factor = np.exp(-1.0 / (2.0 * (d + 1)))
    for _ in range(30):
        g = rng.standard_normal(d)
        Pg = P @ g
        gPg = float(g @ Pg)
        before = np.linalg.slogdet(P)[1]
        P = (d * d / (d * d - 1.0)) * (P - (2.0 / (d + 1)) * np.outer(Pg, Pg) / gPg)
        after = np.linalg.slogdet(P)[1]
        ratio = np.exp(0.5 * (after - before))  # volume ratio of the update
        assert ratio <= factor + 1e-9
        assert ratio >= np.exp(-1.0 / d)


def test_rejects_bad_eps_and_mode(example5, random_instance):
    with pytest.raises(ValidationError):
        ellipsoid_solve(example5, 2.0)
    ql = random_instance(3, 2, seed=1, mode="quasilinear")
    with pytest.raises(ValidationError):
        ellipsoid_solve(ql, 1e-4)


def test_diagnostic_log_schema(random_instance):
    inst = random_instance(2, 2, seed=8)
    res = ellipsoid_solve(inst, 1e-3, collect_log=True)
    assert res.log
    it, feas, obj, kind, vol = res.log[0]
    assert it == 1
    assert kind in ("objective", "linear", "quadratic")
    vols = [row[4] for row in res.log]
    assert all(b <= a + 1e-12 for a, b in zip(vols, vols[1:]))


def test_pruning_keeps_real_winning_slivers(random_instance):
    # at the rough prices the extraction starts from, a buyer's real winning
    # sliver in these instances vanishes; pruning it as phantom slop used to
    # return certified results with gaps of 0.12-0.16
    for n, k, seed in [(3, 3, 828007577), (3, 2, 3371754989)]:
        inst = random_instance(n, k, seed=seed)
        res = ellipsoid_solve(inst, 1e-4)
        assert np.abs(res.beta - solve(inst).beta).max() <= 5e-3
        assert res.certified
        assert res.gap <= res.eps


def _tight_target(system, rng):
    """A point with random cuts on the parabola.

    The cuts of a segment are sorted, about half the middle buyers' intervals
    are collapsed (non-winners), and then every cut is jittered by about
    sqrt(eps_internal), so that neighbouring cuts may come out of order.
    """
    e = system.eps_internal
    y = np.zeros(system.dim)
    for k, seg in enumerate(system.segments):
        m = seg.num_active
        cuts = np.sort(rng.random(max(m - 1, 0)))
        for j in range(1, m - 1):
            if rng.random() < 0.5:
                cuts[j] = cuts[j - 1]
        cuts = np.clip(cuts + rng.normal(0.0, np.sqrt(e), cuts.size), 0.0, 1.0)
        for j, s in enumerate(cuts):
            s_idx, t_idx = _st_of(system, k, j)
            y[s_idx], y[t_idx] = s, s * s
    return y


def _inside_points(system, rng, count):
    """Points separation_oracle reports inside the reduced region: the start,
    and on segments from it towards random targets, a random inside point and
    the point bisected to the region's boundary.  Half the targets are
    uniform in the unit box, half are cuts on the parabola
    (_tight_target)."""
    y0 = feasible_start(system)
    assert separation_oracle(system, y0) is None
    points = [y0]
    for r in range(count):
        if r % 2:
            target = _tight_target(system, rng)
        else:
            target = rng.uniform(0.0, 1.0, system.dim)
        lo, hi = 0.0, 1.0
        if separation_oracle(system, target) is None:
            lo = 1.0
        for _ in range(60 if lo < 1.0 else 0):
            mid = 0.5 * (lo + hi)
            if separation_oracle(system, y0 + mid * (target - y0)) is None:
                lo = mid
            else:
                hi = mid
        points.append(y0 + lo * (target - y0))
        points.append(y0 + rng.uniform(0.0, lo) * (target - y0))
    return [y for y in points if separation_oracle(system, y) is None]


@pytest.mark.parametrize("eps_internal", [1e-2, 1e-6])
def test_discount_restores_exact_membership(eps_internal):
    # inside the region every uhat is its chain bound enlarged by
    # eps_internal, so one eps_internal off every uhat must give exactly
    # feasible utilities on every segment, with no clipping
    rng = np.random.default_rng(20)
    checked = 0
    for trial in range(16):
        n, k = 1 + trial // 4, 1 + trial % 4
        inst = sample_instance(n, k, seed=int(rng.integers(1 << 31)))
        system = build_perturbed_system(inst, eps_internal)
        for y in _inside_points(system, rng, 12):
            full = system.expand(y)
            # the links, to roundoff
            uhat = system.chain(y) + system.eps_internal
            for p, (kk, j, i) in enumerate(system.slots):
                lam = system.segments[kk].lam[i]
                assert full["useg"][i, kk] == pytest.approx(lam * uhat[p], abs=1e-15)
            assert np.allclose(full["u"], full["useg"].sum(axis=1), rtol=0, atol=1e-14)
            for p, (kk, j) in enumerate(system.pairs):
                zw = system.segments[kk].G(j) @ [full["s"][p], full["t"][p]]
                assert np.allclose([full["z"][p], full["w"][p]], zw, rtol=0, atol=1e-14)
            useg = _discounted_utilities(system, y)
            for kk, seg in enumerate(system.segments):
                assert membership(seg, useg[seg.active, kk]), (n, k, kk)
            checked += 1
    assert checked > 300


def test_accuracy_scan_seeds_100_to_159():
    # seed 124 (2x3) is a documented limit: its complementary-slackness
    # residual misses 10 eps on a 6e-4-wide segment with slopes near -1000
    # and +2560 (README)
    shapes = [(3, 2), (2, 3), (3, 3)]
    eps = 1e-4
    misses = []
    for seed in range(100, 160):
        inst = sample_instance(*shapes[seed % 3], seed=seed)
        res = ellipsoid_solve(inst, eps)
        assert res.certified, seed
        assert np.abs(res.beta - solve(inst).beta).max() <= 5e-3, seed
        if not check_equilibrium(inst, res.allocation, res.beta, tol=10 * eps).passed:
            misses.append(seed)
    assert set(misses) <= {124}, misses
