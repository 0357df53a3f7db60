import numpy as np
import pytest

from fisher_fair import Interval, ValidationError, build_instance, solve
from fisher_fair.dual_solver import PureAllocation, duality_constant
from fisher_fair.envelope import beta_bounds, upper_envelope
from fisher_fair.sampling import sample_instance
from fisher_fair.verification import (
    FairnessReport,
    KktReport,
    check_equilibrium,
    discretized_oracle,
    fairness,
)
from fisher_fair.feasible import partition_segment


def test_example5_equilibrium_passes(example5):
    res = solve(example5)
    rep = check_equilibrium(example5, res.allocation, res.beta, tol=1e-6)
    assert rep.passed
    assert rep.duality_gap <= 1e-6
    assert rep.price_mass_residual <= 1e-6


def test_perturbed_endpoint_fails(example5):
    res = solve(example5)
    intervals = [list(ivs) for ivs in res.allocation.intervals]
    moved = intervals[3][0]
    intervals[3][0] = Interval(moved.lo, moved.hi - 0.01)
    intervals[0][0] = Interval(intervals[0][0].lo - 0.01, intervals[0][0].hi)
    bad = PureAllocation(intervals=intervals)
    rep = check_equilibrium(example5, bad, res.beta, tol=1e-6)
    assert not rep.passed
    worst = max(rep.comp_slack_residuals.max(), rep.budget_residuals.max())
    assert worst > 1e-3


def test_single_buyer_full_allocation_zero_residuals():
    inst = build_instance([1.0], [0, 1], [[0.8]], [[0.6]])
    alloc = PureAllocation(intervals=[[Interval(0.0, 1.0)]])
    rep = check_equilibrium(inst, alloc, np.array([1.0]), tol=1e-9)
    assert rep.passed
    assert rep.market_clear_residual == pytest.approx(0.0, abs=1e-12)
    assert rep.comp_slack_residuals[0] == pytest.approx(0.0, abs=1e-12)
    assert rep.budget_residuals[0] == pytest.approx(0.0, abs=1e-12)


def test_overlapping_allocation_rejected(example5):
    alloc = PureAllocation(intervals=[[Interval(0.0, 0.6)], [Interval(0.4, 1.0)],
                                      [], []])
    with pytest.raises(ValidationError, match="overlap"):
        check_equilibrium(example5, alloc, np.ones(4))


def test_fairness_at_equilibrium(example5):
    res = solve(example5)
    rep = fairness(example5, res.allocation)
    assert rep.passed
    assert rep.envy.max() <= 1e-6
    assert rep.proportionality.min() >= -1e-6
    assert rep.pareto_gap <= 1e-6
    assert not rep.ceei  # budgets differ


def test_fairness_proportional_share_partition(example5):
    # a pure allocation worth exactly the proportional share for the first
    # n-1 buyers in cut order: slacks vanish there and stay nonnegative
    share = example5.budgets * example5.total_values
    parts = partition_segment(example5, 0, share)
    alloc = PureAllocation(intervals=[[p] for p in parts])
    rep = fairness(example5, alloc)
    order_last = int(np.argmin([0 if p.length else 1 for p in parts]))
    slack = rep.proportionality
    assert np.all(slack >= -1e-9)
    assert np.sum(np.abs(slack) <= 1e-9) >= example5.n - 1
    del order_last


def test_fairness_detects_envy_after_swap(example5):
    res = solve(example5)
    intervals = [list(ivs) for ivs in res.allocation.intervals]
    intervals[0], intervals[3] = intervals[3], intervals[0]
    rep = fairness(example5, PureAllocation(intervals=intervals))
    assert rep.envy.max() > 1e-3
    assert not rep.passed


def test_fairness_ceei_flag():
    inst = build_instance([0.5, 0.5], [0, 1], [[-0.4], [0.8]], [[1.2], [0.6]])
    res = solve(inst)
    rep = fairness(inst, res.allocation)
    assert rep.ceei
    assert rep.passed


def test_oracle_example5(example5):
    res = solve(example5)
    orc = discretized_oracle(example5, 2000)
    assert np.abs(orc.beta - res.beta).max() <= 5e-3


def test_oracle_single_cell_proportional_split(example5):
    orc = discretized_oracle(example5, 1)
    assert np.allclose(orc.u, example5.budgets * example5.total_values, atol=1e-8)


def test_oracle_symmetric_instance():
    inst = build_instance([0.5, 0.5], [0, 1], [[0.8], [0.8]], [[0.6], [0.6]])
    orc = discretized_oracle(inst, 400)
    assert orc.beta[0] == pytest.approx(orc.beta[1], abs=1e-6)


def test_oracle_consistency_as_cells_double(example5):
    res = solve(example5)
    errs = []
    for m in (500, 1000, 2000):
        orc = discretized_oracle(example5, m)
        errs.append(np.linalg.norm(orc.beta - res.beta))
    assert errs[1] <= errs[0] * 1.2
    assert errs[2] <= errs[1] * 1.2


def test_gap_certificate_transfers_to_utilities(random_instance):
    for seed in (3, 14, 25):
        inst = random_instance(5, 3, seed=seed)
        res = solve(inst)
        rep = check_equilibrium(inst, res.allocation, res.beta)
        assert rep.duality_gap <= 1e-8
        assert np.abs(res.u - inst.budgets / res.beta).max() <= 1e-4


def test_quasilinear_report_fields(random_instance):
    inst = random_instance(4, 2, seed=31, mode="quasilinear")
    res = solve(inst)
    rep = check_equilibrium(inst, res.allocation, res.beta, delta=res.delta)
    assert rep.passed
    assert rep.ql_delta_residuals.max() <= 1e-9
    doc = rep.to_json()
    assert set(doc) >= {"market_clear_residual", "budget_residuals",
                        "utility_price_residuals", "comp_slack_residuals",
                        "price_mass_residual", "duality_gap",
                        "ql_delta_residuals", "pass"}


# Reference checkers: one Python step per buyer, interval and envelope piece
# or grid segment.  The array walks of check_equilibrium and fairness must
# report exactly what these do.

def _reference_validate(allocation):
    spans = []
    for i, ivs in enumerate(allocation.intervals):
        for iv in ivs:
            if iv.lo < -1e-12 or iv.hi > 1.0 + 1e-12:
                raise ValidationError(f"buyer {i} interval {iv} leaves [0, 1]")
            if iv.length > 0:
                spans.append((iv.lo, iv.hi))
    for iv in allocation.leftover:
        if iv.length > 0:
            spans.append((iv.lo, iv.hi))
    spans.sort()
    for (l1, h1), (l2, h2) in zip(spans, spans[1:]):
        if l2 < h1 - 1e-9:
            raise ValidationError(
                f"allocation intervals overlap: [{l1}, {h1}] and [{l2}, {h2}]")


def _reference_inner_product(env, instance, i, iv, scaled_beta):
    b = env.breakpoints
    j0 = int(env.locate(iv.lo))
    j1 = int(env.locate(np.nextafter(iv.hi, iv.lo)))
    p_mass = v_mass = sup = 0.0
    for j in range(j0, j1 + 1):
        lo, hi = max(iv.lo, b[j]), min(iv.hi, b[j + 1])
        if hi <= lo:
            continue
        k = env.segments[j]
        mid = 0.5 * (lo + hi)
        length = hi - lo
        p_mass += length * (env.cs[j] * mid + env.ds[j])
        vi_c, vi_d = instance.c[i, k], instance.d[i, k]
        v_mass += length * (vi_c * mid + vi_d)
        for x in (lo, hi):
            gap = (env.cs[j] * x + env.ds[j]) - scaled_beta * (vi_c * x + vi_d)
            sup = max(sup, gap)
    return p_mass, v_mass, sup


def _reference_kkt(instance, allocation, beta, tol=1e-6, delta=None):
    n, B = instance.n, instance.budgets
    delta = np.zeros(n) if delta is None else np.asarray(delta, dtype=float)
    _reference_validate(allocation)
    env = upper_envelope(instance, beta)
    p_total = env.integral()
    budget, uprice, comp, u = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    covered = 0.0
    for i in range(n):
        spend = 0.0
        for iv in allocation.intervals[i]:
            if iv.length <= 0:
                continue
            p_mass, v_mass, sup = _reference_inner_product(env, instance, i, iv,
                                                           beta[i])
            spend += p_mass
            u[i] += v_mass
            comp[i] = max(comp[i], sup)
        covered += spend
        budget[i] = abs(spend - (B[i] - delta[i]))
        uprice[i] = abs(u[i] - (B[i] / beta[i] - delta[i]))
    ueg = u + delta
    with np.errstate(divide="ignore"):
        primal = (float(np.dot(B, np.log(ueg)) - delta.sum())
                  if np.all(ueg > 0) else -np.inf)
    dual = p_total - float(np.dot(B, np.log(beta)))
    mass_target = float(B.sum() - delta.sum())
    return KktReport(market_clear_residual=float(abs(p_total - covered)),
                     budget_residuals=budget, utility_price_residuals=uprice,
                     comp_slack_residuals=comp,
                     price_mass_residual=float(abs(p_total - mass_target)),
                     duality_gap=float(dual - (primal + duality_constant(instance))),
                     ql_delta_residuals=np.abs(delta * (1.0 - beta)), tol=tol)


def _reference_interval_values(instance, iv):
    """(n,) value of every buyer over one interval, summed segment by segment."""
    total = np.zeros(instance.n)
    pts = instance.grid.points
    k0 = int(instance.grid.locate(iv.lo))
    k1 = int(instance.grid.locate(np.nextafter(iv.hi, iv.lo)))
    for k in range(k0, k1 + 1):
        lo = max(iv.lo, pts[k])
        hi = min(iv.hi, pts[k + 1])
        if hi > lo:
            mid = 0.5 * (lo + hi)
            total += (hi - lo) * (instance.c[:, k] * mid + instance.d[:, k])
    return total


def _reference_fairness(instance, allocation, tol=1e-6):
    _reference_validate(allocation)
    n, B = instance.n, instance.budgets
    vals = np.zeros((n, n))
    for j in range(n):
        for iv in allocation.intervals[j]:
            if iv.length <= 0:
                continue
            vals[:, j] += _reference_interval_values(instance, iv)
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
    return FairnessReport(envy=envy, proportionality=prop, pareto_gap=float(gap),
                          ceei=bool(np.allclose(B, B[0])), tol=tol)


def _assert_reports_match_reference(inst, allocation, beta, delta=None):
    pairs = [(check_equilibrium(inst, allocation, beta, delta=delta),
              _reference_kkt(inst, allocation, beta, delta=delta)),
             (fairness(inst, allocation), _reference_fairness(inst, allocation))]
    for report, reference in pairs:
        # repr keeps the sign of zero and every bit of each float
        assert repr(report.to_json()) == repr(reference.to_json())


@pytest.mark.parametrize("mode", ["linear", "quasilinear"])
def test_array_walk_matches_reference_on_solve_results(mode):
    for n, k, seed in ((2, 1, 1), (6, 4, 2), (20, 10, 3), (40, 3, 4)):
        inst = sample_instance(n, k, seed, mode=mode)
        res = solve(inst)
        _assert_reports_match_reference(inst, res.allocation, res.beta, res.delta)


def _random_allocation(rng, n, pieces, zero=0, empty=(), leftover=0):
    """A JSON allocation splitting [0, 1] at random points into ``pieces``
    intervals owned by random buyers (none owned by the ``empty`` buyers),
    ``zero`` more of length 0, and ``leftover`` of the pieces left over."""
    cuts = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, pieces - 1)), [1.0]))
    spans = list(zip(cuts[:-1].tolist(), cuts[1:].tolist()))
    spans += [(x, x) for x in rng.uniform(0.0, 1.0, zero).tolist()]
    rng.shuffle(spans)
    doc = {"intervals": [[] for _ in range(n)], "leftover": spans[:leftover]}
    owners = [i for i in range(n) if i not in empty]
    for span in spans[leftover:]:
        doc["intervals"][owners[rng.integers(len(owners))]].append(span)
    return PureAllocation.from_json(doc)


@pytest.mark.parametrize("mode", ["linear", "quasilinear"])
def test_array_walk_matches_reference_on_spanning_intervals(mode):
    # intervals cross several grid segments and many envelope pieces
    rng = np.random.default_rng(5)
    crossed = 0
    for n, k, seed in ((3, 2, 1), (8, 12, 2), (30, 20, 3)):
        inst = sample_instance(n, k, seed, mode=mode)
        lo, hi = beta_bounds(inst)
        for pieces in (1, 4, 25):
            beta = lo + rng.uniform(0.1, 0.9, n) * (hi - lo)
            alloc = _random_allocation(rng, n, pieces)
            delta = rng.uniform(0.0, 0.1, n) if mode == "quasilinear" else None
            _assert_reports_match_reference(inst, alloc, beta, delta)
            ends = upper_envelope(inst, beta).breakpoints
            crossed = max(crossed, *(np.sum((ends > iv.lo) & (ends < iv.hi))
                                     for ivs in alloc.intervals for iv in ivs))
    assert crossed >= 10


def test_array_walk_matches_reference_with_empty_parts():
    # zero-length intervals, a buyer with no interval and leftover
    rng = np.random.default_rng(6)
    inst = sample_instance(5, 6, 4)
    beta = inst.budgets * 2.0
    for _ in range(5):
        alloc = _random_allocation(rng, 5, 12, zero=4, empty=(2,), leftover=3)
        assert alloc.intervals[2] == [] and alloc.leftover
        _assert_reports_match_reference(inst, alloc, beta)
    # every buyer but one empty: u = 0 makes the primal -inf
    alloc = PureAllocation(intervals=[[Interval(0.0, 1.0)], [], [], [],
                                      [Interval(0.3, 0.3)]])
    _assert_reports_match_reference(inst, alloc, beta)


@pytest.mark.parametrize("bad", [
    [[Interval(0.0, 0.5), Interval(0.4, 0.6)], [Interval(0.7, 1.0)],
     [Interval(0.2, 0.3)]],
    [[Interval(0.6, 1.0)], [Interval(0.0, 0.7)],
     [Interval(0.1, 0.2), Interval(0.65, 0.8)]],
    [[Interval(0.0, 0.5)], [Interval(0.5, 1.0 + 1e-9)], [Interval(-1e-9, 0.2)]],
    [[Interval(0.3, 0.3)], [Interval(-0.5, -0.5)], [Interval(0.0, 1.0)]],
], ids=["overlap", "overlap-later", "outside", "outside-empty"])
def test_array_walk_names_the_same_first_offender(bad):
    inst = sample_instance(3, 2, seed=1)
    alloc = PureAllocation(intervals=bad)
    with pytest.raises(ValidationError) as expected:
        _reference_validate(alloc)
    for check in (lambda: check_equilibrium(inst, alloc, np.ones(3)),
                  lambda: fairness(inst, alloc)):
        with pytest.raises(ValidationError) as got:
            check()
        assert str(got.value) == str(expected.value)


def test_checkers_need_one_interval_list_per_buyer():
    inst = sample_instance(3, 2, seed=1)
    res = solve(inst)
    for intervals in (res.allocation.intervals[:2], res.allocation.intervals + [[]]):
        alloc = PureAllocation(intervals=intervals)
        with pytest.raises(ValidationError, match="interval lists for 3 buyers"):
            check_equilibrium(inst, alloc, res.beta)
        with pytest.raises(ValidationError, match="interval lists for 3 buyers"):
            fairness(inst, alloc)


@pytest.mark.parametrize("delta", [0.0, [0.0, 0.0], [0.0, np.nan, 0.0], [[0.0] * 3]],
                         ids=["scalar", "short", "nan", "2d"])
def test_check_equilibrium_needs_finite_delta_per_buyer(delta):
    inst = sample_instance(3, 2, seed=1, mode="quasilinear")
    res = solve(inst)
    with pytest.raises(ValidationError, match="delta"):
        check_equilibrium(inst, res.allocation, res.beta, delta=delta)


def test_leftover_outside_unit_interval_rejected():
    inst = sample_instance(3, 2, seed=1)
    res = solve(inst)
    alloc = PureAllocation(intervals=res.allocation.intervals,
                           leftover=[Interval(1.0, 1.5)])
    for check in (lambda: check_equilibrium(inst, alloc, res.beta),
                  lambda: fairness(inst, alloc)):
        with pytest.raises(ValidationError,
                           match=r"leftover interval .* leaves \[0, 1\]"):
            check()
