import warnings

import numpy as np
import pytest

from fisher_fair import (
    DomainError,
    EquilibriumResult,
    NotConverged,
    SolveConfig,
    ValidationError,
    build_instance,
    dual_solver,
    dual_subgradient,
    solve,
)
from fisher_fair.dual_solver import (
    _CURVATURE_GAP,
    _CURVATURE_MU,
    _FEW_BUYERS_LEVELS,
    _SMOOTH_DECREMENT,
    _SMOOTH_ITERS,
    _SMOOTH_MUS,
    _free_newton_step,
    _smoothed_dual,
    _smoothed_start,
    _smoothed_value,
    _smoothing_cells,
    _split_winning_ties,
    allocation_from_beta,
    duality_constant,
    duality_gap,
    pure_allocation,
)
from fisher_fair.envelope import beta_bounds
from fisher_fair.market import load_instance
from fisher_fair.sampling import sample_document, sample_instance
from fisher_fair.sda import sda_run
from fisher_fair.verification import check_equilibrium, discretized_oracle, fairness
from tests.conftest import EX5_BETA, EX5_CUTS, EX5_U


def test_example5_golden(example5):
    res = solve(example5)
    assert np.allclose(res.beta, EX5_BETA, atol=1e-3)
    assert np.allclose(res.u, EX5_U, atol=1e-3)
    cuts = sorted(iv.hi for ivs in res.allocation.intervals for iv in ivs
                  if iv.hi < 1.0)
    assert np.allclose(cuts, EX5_CUTS, atol=1e-3)
    assert res.gap <= 1e-8


def test_single_buyer_gets_everything():
    inst = build_instance([1.0], [0, 1], [[0.8]], [[0.6]])
    res = solve(inst)
    assert res.beta[0] == pytest.approx(1.0, abs=1e-9)
    assert res.u[0] == pytest.approx(1.0, abs=1e-9)
    assert res.allocation.intervals[0][0].as_pair() == (0.0, 1.0)


def test_symmetric_buyers_split_equally():
    inst = build_instance([0.5, 0.5], [0, 1], [[0.8], [0.8]], [[0.6], [0.6]])
    res = solve(inst)
    assert res.beta[0] == pytest.approx(res.beta[1], abs=1e-9)
    assert res.u[0] == pytest.approx(0.5, abs=1e-9)
    assert res.u[1] == pytest.approx(0.5, abs=1e-9)


# buyers whose densities are proportional on a segment tie there with
# different betas; the tie split must stay attainable in each buyer's units
# (instance, equilibrium beta, utilities of the allocated intervals)
PROPORTIONAL_TIES = [
    # equilibrium beta = (0.5, 1): both buyers' scaled lines are 1 on
    # segment 0, which buyer 0 must take whole
    (build_instance([0.5, 0.5], [0, 0.5, 1], [[0, 0], [0, 0]],
                    [[2, 0], [1, 1]]), [0.5, 1.0], [1.0, 0.5]),
    # quasilinear, v_1 = 2 v_0 on all of [0, 1]: buyer 0 sits at the price
    # cap beta = 1 and buyer 1, which must spend its budget, takes it all
    (build_instance([0.5, 0.5], [0, 1], [[0.4], [0.8]], [[0.3], [0.6]],
                    mode="quasilinear"), [1.0, 0.5], [0.0, 1.0]),
]


@pytest.mark.parametrize("inst,beta,u", PROPORTIONAL_TIES,
                         ids=["linear", "quasilinear"])
def test_proportional_buyers_tie_split(inst, beta, u):
    for res in (solve(inst), allocation_from_beta(inst, beta)):
        assert res.gap <= 1e-8
        assert np.allclose(res.beta, beta, atol=1e-7)
        assert np.allclose(res.useg.sum(axis=1), u, atol=1e-7)
        report = check_equilibrium(inst, res.allocation, res.beta, tol=1e-6,
                                   delta=res.delta)
        assert report.passed, report.to_json()


def test_tie_screen_passes_only_close_slopes(random_instance, monkeypatch):
    # no two slopes of a segment are close: the input comes back as it is,
    # before any grouping sort
    inst = random_instance(30, 4, seed=8)
    beta = np.random.default_rng(8).uniform(*beta_bounds(inst))
    useg = dual_subgradient(inst, beta)[2]
    with monkeypatch.context() as patch:
        patch.setattr(np, "lexsort", None)
        assert _split_winning_ties(inst, beta, useg) is useg
    # proportional ties pass the screen and are split
    for inst, beta, u in PROPORTIONAL_TIES:
        beta = np.asarray(beta)
        useg = dual_subgradient(inst, beta)[2]
        out = _split_winning_ties(inst, beta, useg)
        assert out is not useg
        assert np.allclose(out.sum(axis=1), u, atol=1e-7)


def _assert_same_allocation(read, cut):
    """Read-off and greedy allocations with their (n, K) utilities: equal
    interval counts and leftover, endpoints and utilities within 1e-15."""
    (a, ua), (b, ub) = read, cut
    assert a.leftover == b.leftover
    assert [len(ivs) for ivs in a.intervals] == [len(ivs) for ivs in b.intervals]
    ends = [[iv.as_pair() for ivs in alloc.intervals for iv in ivs] for alloc in (a, b)]
    assert np.abs(np.array(ends[0]) - np.array(ends[1])).max(initial=0.0) <= 1e-15
    assert np.abs(ua - ub).max() <= 1e-15


def _cut_segments(monkeypatch):
    """Segments that pure_allocation hands to the greedy partition, in call order."""
    calls = []
    partition = dual_solver.partition_segment
    monkeypatch.setattr(dual_solver, "partition_segment",
                        lambda inst, k, u: calls.append(k) or partition(inst, k, u))
    return calls


@pytest.mark.parametrize("mode", ["linear", "quasilinear"])
def test_read_off_allocation_matches_greedy_cuts(mode, monkeypatch):
    # at any beta the envelope pieces are the greedy cuts at the winning
    # utilities, so no segment is cut when no tie was split
    rng = np.random.default_rng(18)
    for n, k, seed in ((2, 1, 1), (5, 3, 2), (12, 6, 3), (40, 4, 4), (30, 30, 5)):
        inst = sample_instance(n, k, seed, mode=mode)
        lo, hi = beta_bounds(inst)
        betas = [solve(inst).beta] + [lo + rng.uniform(0.05, 0.95, n) * (hi - lo)
                                      for _ in range(5)]
        for beta in betas:
            _, _, W, env = dual_subgradient(inst, beta)
            useg = _split_winning_ties(inst, beta, W)
            assert useg is W
            calls = _cut_segments(monkeypatch)
            read = pure_allocation(inst, useg, env)
            assert calls == []
            assert np.array_equal(read[1], W)
            _assert_same_allocation(read, pure_allocation(inst, useg))
            monkeypatch.undo()


# the linear split hands segment 0 to buyer 0 whole, as the envelope does, so
# that column is unchanged and read off; the quasilinear one moves it to buyer 1
@pytest.mark.parametrize("case,cut", zip(PROPORTIONAL_TIES, ([], [0])),
                         ids=["linear", "quasilinear"])
def test_split_ties_still_cut_greedily(case, cut, monkeypatch):
    inst, beta, _ = case
    beta = np.asarray(beta)
    _, _, W, env = dual_subgradient(inst, beta)
    useg = _split_winning_ties(inst, beta, W)
    calls = _cut_segments(monkeypatch)
    read = pure_allocation(inst, useg, env)
    assert calls == np.flatnonzero((useg != W).any(axis=0)).tolist() == cut
    _assert_same_allocation(read, pure_allocation(inst, useg))


def test_segment_worth_nothing_is_left_over(monkeypatch):
    # [0, 0.5] is worth nothing to either buyer: its envelope piece goes
    # through the greedy partition, which leaves it over
    inst = build_instance([0.5, 0.5], [0, 0.5, 1], [[0, 0], [0, 2]], [[0, 1], [0, 0]])
    calls = _cut_segments(monkeypatch)
    res = solve(inst)
    assert calls == [0]
    assert [iv.as_pair() for iv in res.allocation.leftover] == [(0.0, 0.5)]
    assert check_equilibrium(inst, res.allocation, res.beta, tol=1e-6).passed


@pytest.mark.parametrize("mode,n,k", [("linear", 80, 5), ("linear", 300, 5),
                                      ("quasilinear", 80, 5)])
def test_allocation_from_beta_reads_off_at_sda_average(mode, n, k):
    inst = sample_instance(n, k, 7, mode=mode)
    avg = sda_run(inst, 20000, 7).beta_avg[-1]
    res = allocation_from_beta(inst, avg)
    _, _, W, _ = dual_subgradient(inst, res.beta)
    useg = _split_winning_ties(inst, res.beta, W)
    _assert_same_allocation((res.allocation, res.useg), pure_allocation(inst, useg))
    report = check_equilibrium(inst, res.allocation, res.beta, delta=res.delta)
    assert report.market_clear_residual <= 1e-12
    assert report.comp_slack_residuals.max() <= 1e-12


def test_duality_sandwich_every_iterate(example5):
    # weak duality: the primal bound never exceeds the dual value, so the
    # recorded best gap stays nonnegative and is nonincreasing
    res = solve(example5)
    hist = np.asarray(res.gap_history)
    # until every buyer wins something the primal bound is vacuous (inf gap)
    hist = hist[np.isfinite(hist)]
    assert hist.size > 0
    assert np.all(hist >= -1e-12)
    assert np.all(np.diff(hist) <= 1e-15)


def test_budget_depletion(random_instance):
    inst = random_instance(6, 4, seed=3)
    res = solve(inst)
    # |price mass of buyer i's intervals - B_i|, per buyer
    spend_gap = check_equilibrium(inst, res.allocation, res.beta).budget_residuals
    assert np.all(spend_gap <= 1e-6)
    assert res.u @ (1 / res.u * inst.budgets) == pytest.approx(1.0, abs=1e-9)


def test_result_json_roundtrip(example5, tmp_path):
    res = solve(example5)
    path = tmp_path / "result.json"
    import json
    path.write_text(json.dumps(res.to_json()))
    back = EquilibriumResult.from_json(json.loads(path.read_text()))
    assert np.allclose(back.beta, res.beta)
    assert np.allclose(back.u, res.u)
    assert back.allocation.to_json() == res.allocation.to_json()
    assert back.gap == pytest.approx(res.gap)


def test_not_converged_carries_best(example5):
    cfg = SolveConfig(max_iter=1, gap_tol=1e-12)
    with pytest.raises(NotConverged) as exc:
        solve(example5, cfg)
    assert exc.value.result is not None
    assert exc.value.gap > 1e-12
    assert exc.value.result.beta.shape == (4,)
    assert "budget" in str(exc.value)


def test_utility_price_identity(random_instance):
    for seed in (1, 5, 9):
        inst = random_instance(5, 3, seed=seed)
        res = solve(inst)
        assert np.allclose(res.u, inst.budgets / res.beta, atol=1e-6)


def test_each_buyer_at_most_one_interval_per_segment(random_instance):
    inst = random_instance(7, 5, seed=13)
    res = solve(inst)
    pts = inst.grid.points
    for ivs in res.allocation.intervals:
        segs = [int(np.searchsorted(pts, 0.5 * (iv.lo + iv.hi))) - 1 for iv in ivs]
        for iv, k in zip(ivs, segs):
            assert pts[k] <= iv.lo and iv.hi <= pts[k + 1]
        assert len(segs) == len(set(segs))


def test_quasilinear_priced_out_buyer():
    # buyer 1 values everything far below its money: at equilibrium its
    # utility price hits the cap, delta absorbs the whole budget, and its
    # net quasilinear utility is zero
    inst = build_instance([1.0, 1.0], [0, 1],
                          [[0.0], [0.0]], [[5.0], [0.05]],
                          mode="quasilinear")
    res = solve(inst)
    i = 1
    assert res.beta[i] == pytest.approx(1.0, abs=1e-9)
    assert res.delta[i] == pytest.approx(res.u[i], abs=1e-9)
    assert res.u[i] == pytest.approx(inst.budgets[i], abs=1e-9)
    assert res.ql_net_utilities[i] == pytest.approx(0.0, abs=1e-9)


def test_quasilinear_rich_values_behave_linearly():
    # values huge relative to budgets: the cap never binds and the winning
    # structure matches the linear-mode equilibrium of the same instance
    c = [[0.4], [-0.6]]
    d = [[19.0], [30.0]]
    ql = build_instance([0.6, 0.4], [0, 1], c, d, mode="quasilinear")
    lin = build_instance([0.6, 0.4], [0, 1], c, d, mode="linear")
    res_ql = solve(ql)
    res_lin = solve(lin)
    assert np.all(res_ql.beta < 1.0 - 1e-6)
    assert np.allclose(res_ql.delta, 0.0)
    cuts_ql = [iv.as_pair() for iv in res_ql.allocation.intervals[0]]
    cuts_lin = [iv.as_pair() for iv in res_lin.allocation.intervals[0]]
    assert np.allclose(cuts_ql, cuts_lin, atol=1e-6)


def test_quasilinear_single_buyer_boundary():
    # one buyer, value mass equals its money: beta lands on the cap and the
    # net utility vanishes; cross-checked against the discretized dynamics
    inst = build_instance([1.0], [0, 1], [[0.0]], [[1.0]], mode="quasilinear")
    res = solve(inst)
    assert res.beta[0] == pytest.approx(1.0, abs=1e-9)
    assert res.ql_net_utilities[0] == pytest.approx(0.0, abs=1e-9)
    orc = discretized_oracle(inst, 500)
    assert orc.beta[0] == pytest.approx(1.0, abs=1e-3)


def test_quasilinear_postprocess_complementarity(random_instance):
    for seed in (2, 4, 6, 8):
        inst = random_instance(4, 3, seed=seed, mode="quasilinear")
        res = solve(inst)
        assert np.abs(res.delta * (1.0 - res.beta)).max() <= 1e-9
        _, ueg, delta, net = duality_gap(inst, res.beta, 0.0,
                                         res.useg.sum(axis=1))
        assert np.allclose(ueg, res.u, atol=1e-12)
        assert np.allclose(net, (1.0 - res.beta) * res.u, atol=1e-12)


def test_gap_matches_direct_recomputation(example6):
    res = solve(example6)
    z = float(np.dot(example6.budgets, np.log(res.u)))
    direct = dual_subgradient(example6, res.beta)[0] - (z + duality_constant(example6))
    assert res.gap == pytest.approx(direct, abs=1e-12)


def _direct_quasilinear_gap(inst, res):
    """psi at the result's beta minus the quasilinear primal of its
    allocation, every buyer keeping the money max(B - u, 0)."""
    B = inst.budgets
    u = res.useg.sum(axis=1)
    primal = np.dot(B, np.log(np.maximum(u, B))) - np.maximum(B - u, 0.0).sum()
    return dual_subgradient(inst, res.beta)[0] - (primal + duality_constant(inst))


def test_quasilinear_gap_finite_where_buyers_win_nothing():
    # at the box centre of this instance some buyers win nothing; each keeps
    # its whole budget, so the primal is finite and log(0) never happens
    inst = sample_instance(80, 5, 1010, mode="quasilinear")
    lo, hi = beta_bounds(inst)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = allocation_from_beta(inst, 0.5 * (lo + hi))
    assert res.useg.sum(axis=1).min() == 0.0
    assert np.isfinite(res.gap) and res.gap >= 0.0
    assert res.gap == pytest.approx(_direct_quasilinear_gap(inst, res), abs=1e-12)


QUASILINEAR_SHAPES = [(5, 3, 71), (12, 4, 72), (20, 2, 73),
                      (40, 1, 74), (80, 5, 75), (300, 5, 76)]


@pytest.mark.parametrize("n,k,seed", QUASILINEAR_SHAPES,
                         ids=[f"{n}x{k}" for n, k, _ in QUASILINEAR_SHAPES])
def test_quasilinear_weak_duality_at_any_beta(n, k, seed):
    # every buyer keeps max(B - u, 0), so the primal is finite at any beta
    # in the box and, by weak duality, never above psi
    inst = sample_instance(n, k, seed, mode="quasilinear")
    lo, hi = beta_bounds(inst)
    rng = np.random.default_rng(seed)
    betas = [lo, hi] + [lo + rng.uniform(size=n) * (hi - lo) for _ in range(5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for beta in betas:
            res = allocation_from_beta(inst, beta)
            assert np.isfinite(res.gap) and res.gap >= -1e-12
            check_equilibrium(inst, res.allocation, res.beta, delta=res.delta)


def test_quasilinear_early_stop_reports_the_one_primal():
    # after 4 evaluations the best iterate is not an equilibrium; its gap
    # lets every buyer keep max(B - u, 0), as the loop's bound does (a rule
    # that let only buyers at the price cap keep money reported 1.131e-2)
    inst = sample_instance(20, 5, 2, mode="quasilinear")
    with pytest.raises(NotConverged) as exc:
        solve(inst, SolveConfig(max_iter=4))
    res = exc.value.result
    assert res.gap == pytest.approx(_direct_quasilinear_gap(inst, res), abs=1e-12)
    assert res.gap == pytest.approx(9.345e-3, rel=1e-3)


@pytest.mark.parametrize("beta", [0.5, [0.5] * 3], ids=["scalar", "short"])
def test_allocation_from_beta_needs_one_entry_per_buyer(example5, beta):
    with pytest.raises(DomainError, match="one entry per buyer"):
        allocation_from_beta(example5, beta)


def test_allocation_from_beta_returns_winning_sets():
    # at any beta the allocation is the winning sets of the price envelope:
    # every buyer's intervals sit where its scaled line is on top, and they
    # cover the whole price mass
    rng = np.random.default_rng(31)
    cases = [(sample_instance(n, k, 310 + n, mode=mode), None)
             for n, k, mode in ((3, 2, "linear"), (6, 4, "linear"),
                                (12, 3, "linear"), (5, 3, "quasilinear"))]
    # buyers 0 and 1 are identical and win the first segment at every beta
    # in the box's interior
    twins = build_instance([0.3, 0.3, 0.4], [0, 0.5, 1],
                           [[0.4, -0.1], [0.4, -0.1], [0.2, 0.6]],
                           [[1.6, 0.2], [1.6, 0.2], [0.1, 1.2]])
    cases.append((twins, [0, 1]))
    worst = 0.0
    for inst, tied in cases:
        lo, hi = beta_bounds(inst)
        for _ in range(4):
            beta = lo + rng.uniform(0.2, 0.8, inst.n) * (hi - lo)
            if tied is not None:
                beta[tied] = beta[tied[0]]
            res = allocation_from_beta(inst, beta)
            rep = check_equilibrium(inst, res.allocation, res.beta,
                                    delta=res.delta)
            worst = max(worst, rep.market_clear_residual,
                        float(rep.comp_slack_residuals.max()))
            if tied is not None:
                # the tied buyers share their common winning region
                assert np.all(res.u[tied] > 0)
    assert worst <= 1e-12


def _assert_certified_and_checked(inst):
    res = solve(inst)
    assert res.gap <= 1e-8
    report = check_equilibrium(inst, res.allocation, res.beta, tol=1e-6,
                               delta=res.delta)
    assert report.passed, report.to_json()
    if inst.mode == "linear":
        assert fairness(inst, res.allocation, tol=1e-6).passed


CROWDED_SWEEP = [(mode, n, k, seed)
                 for mode in ("linear", "quasilinear")
                 for n, k, seeds in ((40, 1, range(5)), (80, 5, range(5)),
                                     (120, 20, range(5)), (300, 5, range(2)))
                 for seed in seeds]
# perfbench crowded --seed 9801, case 3: after 80 exact Newton steps (672
# evaluations) six buyers still win nothing; it certifies after 712
CROWDED_SWEEP.append(("linear", 300, 5, 3155723043))


@pytest.mark.parametrize(
    "mode,n,k,seed", CROWDED_SWEEP,
    ids=[f"{m}-{n}x{k}-{s}" for m, n, k, s in CROWDED_SWEEP])
def test_crowded_sweep_certifies(mode, n, k, seed):
    # many buyers on few segments: most buyers win thin slivers, and the
    # solve must still certify and pass the independent checks at 1e-6
    _assert_certified_and_checked(sample_instance(n, k, seed, mode=mode))


def test_crowded_300x5_sweep_within_evaluation_budget():
    # the line search starts from twice the last accepted step and the
    # smoothed curvature is kept through damped steps; restarting at alpha = 1
    # with fresh curvature every iteration took 2,088 evaluations here
    total = 0
    for mode, n, k, seed in CROWDED_SWEEP:
        if (n, k) == (300, 5):
            result = solve(sample_instance(n, k, seed, mode=mode))
            assert result.gap <= 1e-8
            total += result.iterations
    assert total <= 1000


def _exact_phase(inst, monkeypatch):
    """solve(inst) with the exact Newton phase recorded: one dict per
    iteration with its beta, Newton step, line-search trials and the mu of
    every smoothed-dual call made for it.  Calls before the first envelope
    evaluation belong to the smoothed start and are left out."""
    iterations = []
    curvature = []
    started = []
    evaluate = dual_solver.dual_subgradient
    smoothed = dual_solver._smoothed_dual
    newton = dual_solver._free_newton_step

    def recording_eval(instance, beta):
        started.append(True)
        if iterations:
            iterations[-1]["trials"].append(beta.copy())
        return evaluate(instance, beta)

    def recording_smoothed(instance, cells, beta, mu):
        if started:
            curvature.append((mu, beta.copy()))
        return smoothed(instance, cells, beta, mu)

    def recording_newton(H, g, beta, lo, hi):
        step = newton(H, g, beta, lo, hi)
        if started:
            iterations.append({"beta": beta.copy(), "step": step.copy(),
                               "curvature": curvature[:], "trials": []})
            curvature.clear()
        return step

    monkeypatch.setattr(dual_solver, "dual_subgradient", recording_eval)
    monkeypatch.setattr(dual_solver, "_smoothed_dual", recording_smoothed)
    monkeypatch.setattr(dual_solver, "_free_newton_step", recording_newton)
    return solve(inst), iterations


def _accepted_steps(inst, iterations):
    """(first trial's step length, accepted step length) of every iteration
    but the last, whose accepted step is read off the next one's beta."""
    lo, hi = beta_bounds(inst)
    out = []
    for it, nxt in zip(iterations, iterations[1:]):
        hits = [j for j, b in enumerate(it["trials"])
                if np.array_equal(b, nxt["beta"])]
        assert len(hits) == 1
        first = None
        for alpha in 0.5 ** np.arange(50.0):
            if np.array_equal(np.clip(it["beta"] + alpha * it["step"], lo, hi),
                              it["trials"][0]):
                first = alpha
                break
        assert first is not None
        out.append((first, first * 0.5 ** hits[0]))
    return out


# (n, k, seed): a crowded shape, whose line searches damp most steps, and a
# grid one
EXACT_PHASE_SHAPES = [(300, 5, 0), (50, 50, 1)]


@pytest.mark.parametrize("n,k,seed", EXACT_PHASE_SHAPES,
                         ids=[f"{n}x{k}" for n, k, _ in EXACT_PHASE_SHAPES])
def test_line_search_starts_at_twice_the_last_step(n, k, seed, monkeypatch):
    inst = sample_instance(n, k, seed)
    result, iterations = _exact_phase(inst, monkeypatch)
    assert result.gap <= 1e-8
    steps = _accepted_steps(inst, iterations)
    assert steps[0][0] == 1.0
    for (_, taken), (first, _) in zip(steps, steps[1:]):
        assert first == min(1.0, 2.0 * taken)
    if n > 2 * k:
        # both kinds of step occur, so the rule was exercised both ways
        assert any(taken < 1.0 for _, taken in steps)
        assert any(taken == 1.0 for _, taken in steps)


@pytest.mark.parametrize("n,k,seed", EXACT_PHASE_SHAPES,
                         ids=[f"{n}x{k}" for n, k, _ in EXACT_PHASE_SHAPES])
def test_curvature_refreshed_only_after_full_steps(n, k, seed, monkeypatch):
    inst = sample_instance(n, k, seed)
    result, iterations = _exact_phase(inst, monkeypatch)
    steps = _accepted_steps(inst, iterations)
    mu = _CURVATURE_MU * min(1.0, 100.0 / n)
    # the best gap each iteration starts from: one history entry per
    # evaluation, and the first iteration follows the first evaluation
    done = np.cumsum([1] + [len(it["trials"]) for it in iterations])
    refreshed = 0
    for t, it in enumerate(iterations[:-1]):
        wanted = (t == 0 or steps[t - 1][1] == 1.0)
        above = result.gap_history[done[t] - 1] > _CURVATURE_GAP
        calls = it["curvature"]
        if wanted and above:
            assert len(calls) == 1
            assert calls[0][0] == mu
            assert np.array_equal(calls[0][1], it["beta"])
            refreshed += 1
        else:
            assert calls == []
    assert refreshed >= 1
    if n > 2 * k:
        # some iterations kept the last curvature
        assert refreshed < sum(
            result.gap_history[done[t] - 1] > _CURVATURE_GAP
            for t in range(len(iterations) - 1))


@pytest.mark.parametrize("n,k,seed", [(2, 1, 0), (5, 2, 0), (12, 1, 3)])
def test_merge_twins_groups_equal_rows(n, k, seed):
    inst = sample_instance(n, k, seed)
    market, group = dual_solver._merge_twins(inst)
    assert market is inst and group is None
    # an equal first column alone makes no twins (quasilinear loading keeps
    # the distinct intercepts apart; linear would scale each to one with K = 1)
    flat = build_instance(inst.budgets, inst.grid.points,
                          np.where(np.arange(k) == 0, 0.0, inst.c), inst.d,
                          mode="quasilinear")
    market, group = dual_solver._merge_twins(flat)
    assert market is flat and group is None
    # buyers 0, 2 and 4 (when present) copy buyer 1's rows
    copies = [i for i in (0, 2, 4) if i < n]
    c, d = inst.c.copy(), inst.d.copy()
    c[copies], d[copies] = c[1], d[1]
    twins = build_instance(inst.budgets, inst.grid.points, c, d)
    market, group = dual_solver._merge_twins(twins)
    # groups are numbered by first appearance; buyer 0 opens the twins' one
    expect = [0] * n
    rest = [i for i in range(n) if i not in copies and i != 1]
    for g, i in enumerate(rest, start=1):
        expect[i] = g
    assert group.tolist() == expect
    assert market.n == 1 + len(rest)
    assert market.mode == twins.mode
    assert np.array_equal(market.c[group], twins.c)
    assert np.array_equal(market.d[group], twins.d)
    assert np.allclose(market.budgets,
                       np.bincount(group, weights=twins.budgets), rtol=0, atol=0)


def _twins_document(s, mode):
    """sample_document(2 + s % 3, 1 + (s // 3) % 3, s) with buyer 1 made a
    copy of buyer 0 and its budget scaled by U(0.2, 3)."""
    doc = sample_document(2 + s % 3, 1 + (s // 3) % 3, s, mode=mode)
    doc["c"][1] = list(doc["c"][0])
    doc["d"][1] = list(doc["d"][0])
    doc["budgets"][1] = doc["budgets"][0] * np.random.default_rng(s).uniform(0.2, 3)
    return doc


@pytest.mark.parametrize("mode", ["linear", "quasilinear"])
def test_identical_buyers_certify(mode):
    # before twins were solved as one buyer, solve raised NotConverged on 28
    # of these 40 linear markets and 14 of the quasilinear ones: the optimum
    # sits on the kink beta_0 = beta_1, which Newton reaches only to ~1e-8
    for s in range(1000, 1040):
        inst = load_instance(_twins_document(s, mode))
        _assert_certified_and_checked(inst)
        res = solve(inst)
        assert res.beta[0] == res.beta[1]
        assert np.all(res.u[:2] > 0)


@pytest.mark.parametrize("config,match", [
    (SolveConfig(gap_tol=float("nan")), "gap_tol"),
    (SolveConfig(gap_tol=float("inf")), "gap_tol"),
    (SolveConfig(gap_tol=-1.0), "gap_tol"),
    (SolveConfig(max_iter=0), "max_iter"),
    (SolveConfig(max_iter=2.0), "max_iter"),
], ids=["nan", "inf", "negative", "max-iter-0", "max-iter-float"])
def test_solve_rejects_bad_config(example5, monkeypatch, config, match):
    def never(instance, beta):
        raise AssertionError("evaluated the envelope")

    monkeypatch.setattr(dual_solver, "dual_subgradient", never)
    with pytest.raises(ValidationError, match=match):
        solve(example5, config)


@pytest.mark.parametrize("n,k", [(1, 1), (2, 4), (3, 3), (4, 2), (5, 2), (7, 3),
                                 (40, 1), (80, 5), (300, 5)])
def test_smoothed_start_schedule_follows_buyers_per_segment(n, k, monkeypatch):
    # at most two buyers per segment stop at the _FEW_BUYERS_LEVELS-th level;
    # more (every crowded shape among them) visit every level
    inst = sample_instance(n, k, 7)
    seen = []

    def recorder(evaluate):
        def recording(instance, cells, beta, mu):
            seen.append(mu)
            return evaluate(instance, cells, beta, mu)
        return recording

    for name in ("_smoothed_dual", "_smoothed_value"):
        monkeypatch.setattr(dual_solver, name, recorder(getattr(dual_solver, name)))
    _smoothed_start(inst, _smoothing_cells(inst))
    levels = _FEW_BUYERS_LEVELS if n <= 2 * k else len(_SMOOTH_MUS)
    assert list(dict.fromkeys(seen)) == list(_SMOOTH_MUS[:levels])


def _reference_smoothed_start(instance, cells):
    """The smoothed start as it was before line-search trials skipped the
    Hessian: every trial is evaluated with it.  Returns the start and the
    number of steps taken."""
    lo, hi = beta_bounds(instance)
    mus = (_SMOOTH_MUS[:_FEW_BUYERS_LEVELS]
           if instance.n <= 2 * instance.num_segments else _SMOOTH_MUS)
    w, V = cells
    beta = np.clip(instance.budgets.sum() / float(np.dot(w, V.max(axis=0))), lo, hi)
    steps = 0
    for mu in mus:
        f, g, H = _smoothed_dual(instance, cells, beta, mu)
        for _ in range(_SMOOTH_ITERS):
            step = _free_newton_step(H, g, beta, lo, hi)
            if -float(np.dot(g, step)) <= _SMOOTH_DECREMENT * mu:
                break
            alpha = 1.0
            while alpha > 1e-10:
                cand = np.clip(beta + alpha * step, lo, hi)
                trial = _smoothed_dual(instance, cells, cand, mu)
                if trial[0] <= f + 1e-4 * float(np.dot(g, cand - beta)):
                    break
                alpha *= 0.5
            else:
                break
            beta = cand
            f, g, H = trial
            steps += 1
    return beta, steps


@pytest.mark.parametrize("n,k,mode", [(300, 5, "linear"), (80, 5, "quasilinear"),
                                      (40, 1, "linear"), (50, 50, "linear"),
                                      (7, 3, "quasilinear"), (2, 4, "linear")])
def test_smoothed_start_builds_one_hessian_per_step(n, k, mode, monkeypatch):
    # trials are evaluated without the Hessian, which is finished once at
    # each accepted point and at each level's start; the start is the
    # reference's to the bit
    inst = sample_instance(n, k, 3, mode=mode)
    cells = _smoothing_cells(inst)
    want, steps = _reference_smoothed_start(inst, cells)
    hessians = []
    finish = dual_solver._smoothed_hessian

    def recording(*args):
        hessians.append(args[3])
        return finish(*args)

    monkeypatch.setattr(dual_solver, "_smoothed_hessian", recording)
    assert np.array_equal(_smoothed_start(inst, cells), want)
    levels = _FEW_BUYERS_LEVELS if n <= 2 * k else len(_SMOOTH_MUS)
    assert len(hessians) == levels + steps


# at most two buyers per segment, where the smoothed start stops early
FEW_BUYERS_SWEEP = [(mode, n, k, seed)
                    for mode in ("linear", "quasilinear")
                    for n, k in ((3, 6), (10, 20), (25, 50), (4, 4), (12, 12),
                                 (50, 50), (6, 3), (16, 8), (40, 20))
                    for seed in range(3)]


@pytest.mark.parametrize(
    "mode,n,k,seed", FEW_BUYERS_SWEEP,
    ids=[f"{m}-{n}x{k}-{s}" for m, n, k, s in FEW_BUYERS_SWEEP])
def test_few_buyers_per_segment_sweep_certifies(mode, n, k, seed):
    _assert_certified_and_checked(sample_instance(n, k, seed, mode=mode))


def test_quasilinear_40x1_certified_result_passes_kkt():
    # this instance used to certify (gap 6e-11) with utility-price and
    # budget residuals of about 2e-6
    _assert_certified_and_checked(
        sample_instance(40, 1, 3442769812, mode="quasilinear"))


def test_polish_stops_once_best_iterate_meets_targets():
    # the fifth evaluation reaches gap 1e-15 and projected gradient 2e-13,
    # after which psi is flat to one ulp; an exit that tests the current
    # iterate instead of the best one can wander here for the whole
    # line-search budget (1,847 evaluations)
    inst = sample_instance(40, 1, 2207086485, mode="quasilinear")
    result = solve(inst)
    assert result.gap <= 1e-12
    assert result.iterations <= 20


def test_flat_psi_ends_polish_when_best_iterate_stops_improving():
    # perfbench crowded --seed 1125, case 3: the best gap reaches roundoff
    # while the projected gradient stays above 1e-11, and every later step
    # is accepted on a one-ulp drop in psi without improving the returned
    # iterate; polishing on until the budget runs out takes 2,000 evaluations
    result = solve(sample_instance(300, 5, 3718883549))
    assert result.gap <= 1e-12
    assert result.iterations <= 422


@pytest.mark.parametrize("shape", [None, (50, 50, 1), (80, 5, 1193474401)],
                         ids=["example5", "50x50", "80x5"])
def test_every_evaluation_at_a_distinct_beta(example5, monkeypatch, shape):
    # the result is built from the best iterate's stored evaluation, not by
    # evaluating the envelope again at a beta already evaluated; in the 80x5
    # case (perfbench crowded --seed 9814, case 1) a line search halves its
    # step below the float spacing at beta, so later trials would equal beta
    inst = example5 if shape is None else sample_instance(*shape)
    betas = []
    evaluate = dual_solver.dual_subgradient

    def recording(instance, beta):
        betas.append(beta.tobytes())
        return evaluate(instance, beta)

    monkeypatch.setattr(dual_solver, "dual_subgradient", recording)
    result = solve(inst)
    assert len(betas) == result.iterations
    assert len(set(betas)) == len(betas)


@pytest.mark.parametrize("mode", ["linear", "quasilinear"])
def test_smoothed_dual_derivatives_match_finite_differences(mode):
    inst = sample_instance(7, 3, 21, mode=mode)
    cells = _smoothing_cells(inst)
    lo, hi = beta_bounds(inst)
    rng = np.random.default_rng(5)
    beta = lo + (hi - lo) * rng.uniform(0.2, 0.8, inst.n)
    # at mu = 1e-4, below the last smoothing level, the exp clamp is active;
    # the derivatives scale like powers of 1 / mu, so the step keeps h / mu
    for mu in (1e-2, 1e-4):
        h = 1e-4 * mu
        f, g, H = _smoothed_dual(inst, cells, beta, mu)
        fd_g = np.empty(inst.n)
        fd_H = np.empty((inst.n, inst.n))
        for i in range(inst.n):
            e = np.zeros(inst.n)
            e[i] = h
            f_p, g_p, _ = _smoothed_dual(inst, cells, beta + e, mu)
            f_m, g_m, _ = _smoothed_dual(inst, cells, beta - e, mu)
            fd_g[i] = (f_p - f_m) / (2 * h)
            fd_H[:, i] = (g_p - g_m) / (2 * h)
        assert np.allclose(g, fd_g, rtol=1e-6, atol=1e-7)
        assert np.allclose(H, fd_H, rtol=1e-5, atol=1e-5)
        assert np.allclose(H, H.T, atol=1e-12)


def _reference_smoothed_dual(instance, beta, mu, hessian=True):
    """The smoothed dual as computed before the one-pass form: densities
    rebuilt per call in blocks of 128 cells, exp of unclamped exponents, and
    the rank-one terms of each block over the buyers live on that block."""
    K = instance.num_segments
    S = max(8, -(-320 // K))
    pts = instance.grid.points
    width = np.diff(pts) / S
    seg = np.repeat(np.arange(K), S)
    mid = pts[seg] + (np.tile(np.arange(S), K) + 0.5) * width[seg]
    wt = width[seg]
    B = instance.budgets
    f = -float(np.dot(B, np.log(beta)))
    g = -B / beta
    H = np.diag(B / beta ** 2) if hessian else None
    scale = beta[:, None] / mu
    for s in range(0, seg.size, 128):
        k = seg[s:s + 128]
        w = wt[s:s + 128]
        V = instance.c[:, k] * mid[s:s + 128] + instance.d[:, k]
        Z = V * scale
        zmax = Z.max(axis=0)
        Z -= zmax
        np.exp(Z, out=Z)
        tot = Z.sum(axis=0)
        f += mu * float(np.dot(w, zmax + np.log(tot)))
        Z *= w / tot
        if hessian:
            rows = np.flatnonzero((Z > 1e-12 * w).any(axis=1))
        Z *= V
        g += Z.sum(axis=1)
        if hessian:
            H[np.diag_indices_from(H)] += np.einsum("ij,ij->i", Z, V) / mu
            A = Z[rows] / np.sqrt(w * mu)
            H[np.ix_(rows, rows)] -= A @ A.T
    return f, g, H


SMOOTHING_SHAPES = [(7, 3, "linear"), (100, 100, "linear"), (300, 5, "linear"),
                    (80, 5, "quasilinear")]


def _smoothing_point(n, k, mode):
    inst = sample_instance(n, k, 21, mode=mode)
    lo, hi = beta_bounds(inst)
    beta = lo + (hi - lo) * np.random.default_rng(5).uniform(0.2, 0.8, n)
    return inst, _smoothing_cells(inst), beta


@pytest.mark.parametrize("n,k,mode", SMOOTHING_SHAPES,
                         ids=[f"{m}-{n}x{k}" for n, k, m in SMOOTHING_SHAPES])
def test_smoothed_dual_never_underflows(n, k, mode):
    # at the small smoothing levels most exponents lie far below -708; exp
    # must never see them
    inst, cells, beta = _smoothing_point(n, k, mode)
    with np.errstate(under="raise"):
        for mu in _SMOOTH_MUS + (_CURVATURE_MU,):
            for evaluate in (_smoothed_dual, _smoothed_value):
                evaluate(inst, cells, beta, mu)


def _hessian_term_scale(inst, cells, beta, mu):
    """Largest diagonal entry of H before the rank-one terms are subtracted.
    Where one buyer's weight on a cell is near 1 the two nearly cancel, so
    this, not max |H|, is the scale of H's roundoff."""
    w, V = cells
    Z = V * (beta[:, None] / mu)
    Z = np.exp(np.maximum(Z - Z.max(axis=0), -700.0))
    Z /= Z.sum(axis=0)
    return float(((Z * V * V) @ w / mu + inst.budgets / beta ** 2).max())


@pytest.mark.parametrize("n,k,mode", SMOOTHING_SHAPES,
                         ids=[f"{m}-{n}x{k}" for n, k, m in SMOOTHING_SHAPES])
def test_smoothed_dual_matches_blocked_reference(n, k, mode):
    inst, cells, beta = _smoothing_point(n, k, mode)
    for mu in _SMOOTH_MUS + (_CURVATURE_MU,):
        f, g, H = _smoothed_dual(inst, cells, beta, mu)
        f_r, g_r, H_r = _reference_smoothed_dual(inst, beta, mu)
        assert abs(f - f_r) <= 1e-12 * abs(f_r)
        assert np.abs(g - g_r).max() <= 1e-12 * np.abs(g_r).max()
        scale = _hessian_term_scale(inst, cells, beta, mu)
        assert np.abs(H - H_r).max() <= 1e-12 * scale
        assert np.array_equal(H, H.T)
        f_v, g_v, _ = _smoothed_value(inst, cells, beta, mu)
        assert f_v == f and np.array_equal(g_v, g)
