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
from fisher_fair.sampling import sample_instance
from fisher_fair.verification import check_equilibrium


def small_system(example5):
    kappa = 1.0 / example5.budgets.min()
    eps = 1e-4
    eps_int = eps / (2 * kappa + example5.num_segments + 1)
    return build_perturbed_system(example5, eps_int)


def _uhat_of(system, i, k=0):
    """Index in y of buyer i's rescaled utility on segment k."""
    return [(kk, ii) for kk, _, ii in system.slots].index((k, i))


def _uhat_at(system, k, j):
    """Index in y of the j-th sorted rescaled utility of segment k."""
    return [(kk, jj) for kk, jj, _ in system.slots].index((k, j))


def _st_of(system, k, j):
    """Indices in y of the (s, t) pair of segment k's j-th adjacent pair."""
    p = system.pairs.index((k, j))
    return system.s_block.start + p, system.t_block.start + p


def test_separation_tangent_normal(example5):
    # build a point whose only violation is the parabola pair (0.5, 0.1):
    # every uhat at eps_internal (u_i = uhat_i here, so u sits above its lower
    # bound) and every other (s, t) at zero keep every linear row satisfied
    system = small_system(example5)
    y = np.zeros(system.dim)
    y[:system.num_slots] = system.eps_internal
    # last adjacent pair: its w only feeds the slack-rich final chain row
    seg = system.segments[0]
    j = seg.num_active - 2
    s_idx, t_idx = _st_of(system, 0, j)
    y[s_idx], y[t_idx] = 0.5, 0.1
    full = system.expand(y)
    assert np.allclose(full["u"], system.eps_internal)
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
    # the row u_0 >= lb has coefficients -u_map[0]
    row = next(r for r in range(system.A.shape[0])
               if np.array_equal(system.A[r], -system.u_map[0]))
    # u_0 = uhat of buyer 0 here; far below its lower bound, and the row's
    # residual exceeds the uhat >= 0 row's by the bound itself
    y[_uhat_of(system, 0)] = -5.0
    assert system.expand(y)["u"][0] == pytest.approx(-5.0)
    result = separation_oracle(system, y)
    assert result is not None
    g, kind, depth = result
    assert kind == "linear"
    assert np.array_equal(g, -system.u_map[0])
    assert np.allclose(g, system.A[row])
    assert depth == (system.A @ y - system.b)[row]
    assert depth == pytest.approx(5.0 - system.b[row])


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
    inst = build_instance([0.5, 0.5], [0, 1], [[0.0], [0.0]], [[1.0], [1.0]])
    kappa = 2.0
    system = build_perturbed_system(inst, 1e-4 / (2 * kappa + 2))
    cols = [_uhat_of(system, i) for i in range(2)]
    y = feasible_start(system)
    y[cols] = [0.5, 0.5]          # lam = 1, so u = uhat
    assert np.allclose(system.expand(y)["u"], [0.5, 0.5])
    f, g = first_order_oracle(system, y)
    assert f == -float(np.dot(inst.budgets, np.log([0.5, 0.5])))
    assert np.allclose(g[cols], [-1.0, -1.0])
    assert np.all(np.delete(g, cols) == 0.0)
    # at the lower bound u_i = B_i the component is exactly -1
    y[cols] = inst.budgets
    _, g = first_order_oracle(system, y)
    assert np.allclose(g[cols], [-1.0, -1.0])


def test_first_order_oracle_finite_differences(random_instance):
    # two segments, so every u_i sums lam-weighted uhat over both
    inst = random_instance(3, 2, seed=11)
    kappa = 1.0 / inst.budgets.min()
    system = build_perturbed_system(inst, 1e-4 / (2 * kappa + 3))
    rng = np.random.default_rng(3)
    y = feasible_start(system)
    y[:system.num_slots] = rng.uniform(0.2, 0.9, system.num_slots)
    f, g = first_order_oracle(system, y)
    assert f == -float(np.dot(inst.budgets, np.log(system.u_map @ y)))
    # chain rule: d f / d uhat_kj = lam_ik * (-B_i / u_i), zero on (s, t)
    u = system.expand(y)["u"]
    chain = np.zeros(system.dim)
    for p, (k, _, i) in enumerate(system.slots):
        chain[p] = system.segments[k].lam[i] * (-inst.budgets[i] / u[i])
    assert np.allclose(g, chain, rtol=1e-12, atol=0.0)
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
        z = y.copy()
        # shrink every utility by its own factor: the chain stays satisfied
        # and u_i stays at least 2 eps_internal / n above zero
        z[:system.num_slots] *= rng.uniform(2.0 * system.eps_internal, 1.0,
                                            system.num_slots)
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
    """A point with every chain row tight at random cuts on the parabola.

    The cuts of a segment are sorted, about half the middle buyers' intervals
    are collapsed (non-winners), and then every cut is jittered by about
    sqrt(eps_internal), so that neighbouring intervals may overlap by what
    the chain's enlargement allows.
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
    full = system.expand(y)
    for p, (k, j) in enumerate(system.pairs):
        # buyer j's interval value ends at z_j, buyer j + 1's starts at -w_j
        y[_uhat_at(system, k, j)] += full["z"][p]
        y[_uhat_at(system, k, j + 1)] += full["w"][p]
    for k, seg in enumerate(system.segments):
        if seg.num_active:
            y[_uhat_at(system, k, seg.num_active - 1)] += 1.0
    S = system.num_slots
    y[:S] = np.maximum(y[:S] + e, 0.0)
    return y


def _inside_points(system, rng, count):
    """Points separation_oracle reports inside the reduced region: the start,
    and on segments from it towards random targets, a random inside point and
    the point bisected to the region's boundary.  Half the targets are
    uniform in the unit box with about half their utilities zeroed, half are
    tight chains (_tight_target)."""
    y0 = feasible_start(system)
    assert separation_oracle(system, y0) is None
    points = [y0]
    S = system.num_slots
    for r in range(count):
        if r % 2:
            target = _tight_target(system, rng)
        else:
            target = rng.uniform(0.0, 1.0, system.dim)
            target[:S] *= rng.random(S) < 0.5
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
    # inside the reduced region only the chain rows are enlarged, so one
    # eps_internal off every uhat must give exactly feasible utilities on every
    # segment, with no clipping
    rng = np.random.default_rng(20)
    checked = 0
    for trial in range(16):
        n, k = 1 + trial // 4, 1 + trial % 4
        inst = sample_instance(n, k, seed=int(rng.integers(1 << 31)))
        system = build_perturbed_system(inst, eps_internal)
        for y in _inside_points(system, rng, 12):
            full = system.expand(y)
            # the links, to roundoff
            for p, (kk, j, i) in enumerate(system.slots):
                lam = system.segments[kk].lam[i]
                assert full["useg"][i, kk] == pytest.approx(lam * y[p], abs=1e-15)
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
