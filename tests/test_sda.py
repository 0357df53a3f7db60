import tracemalloc
import warnings

import numpy as np
import pytest

from fisher_fair import build_instance, dual_subgradient, solve
from fisher_fair.envelope import beta_bounds
from fisher_fair.errors import ValidationError
from fisher_fair.market import load_instance
from fisher_fair.sampling import sample_instance
from fisher_fair.sda import (
    _BLOCK,
    _checkpoint_list,
    mse_curve,
    mse_theory_bound,
    sda_run,
    subgradient_bound,
)
from tests.conftest import EX5_BETA, example5_document


def _reference_sda(instance, iters, seed):
    """The per-sample loop the streamed ``sda_run`` replaced: all T sample
    values at once as an (n, T) array, and the averaged subgradient gbar
    rescaled every sample.  Returns (checkpoints, beta, beta_avg)."""
    n = instance.n
    B = instance.budgets
    lower, upper = beta_bounds(instance)
    rng = np.random.default_rng(seed)
    thetas = rng.random(iters)
    seg = instance.grid.locate(thetas)
    values = instance.c[:, seg] * thetas[None, :] + instance.d[:, seg]
    checkpoints = _checkpoint_list(iters)
    want = {int(t): r for r, t in enumerate(checkpoints)}
    beta = upper.copy()
    gbar = np.zeros(n)
    beta_sum = np.zeros(n)
    out_beta = np.zeros((checkpoints.size, n))
    out_avg = np.zeros((checkpoints.size, n))
    for t in range(1, iters + 1):
        col = values[:, t - 1]
        winner = int(np.argmax(beta * col))
        beta_sum += beta
        gbar *= (t - 1) / t
        gbar[winner] += col[winner] / t
        with np.errstate(divide="ignore"):
            beta = np.where(gbar > 0.0, np.minimum(np.maximum(B / gbar, lower),
                                                   upper), upper)
        r = want.get(t)
        if r is not None:
            out_beta[r] = beta
            out_avg[r] = beta_sum / t
    return checkpoints, out_beta, out_avg


_EQUIVALENCE_INSTANCES = {
    "example5": lambda: load_instance(example5_document()),
    "quasilinear_6x3": lambda: sample_instance(6, 3, seed=21, mode="quasilinear"),
    "linear_300x5": lambda: sample_instance(300, 5, seed=22),
    # both buyers value [0.5, 1] at zero, so some samples charge nothing
    "zero_values": lambda: build_instance([0.5, 0.5], [0, 0.5, 1],
                                          [[0, 0], [-1, 0]], [[1, 0], [1, 0]]),
}


@pytest.mark.parametrize("iters", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   3 * _BLOCK + 7])
@pytest.mark.parametrize("name", sorted(_EQUIVALENCE_INSTANCES))
def test_matches_reference_loop(name, iters):
    inst = _EQUIVALENCE_INSTANCES[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = sda_run(inst, iters, seed=5)
    checkpoints, beta, beta_avg = _reference_sda(inst, iters, seed=5)
    assert np.array_equal(trace.checkpoints, checkpoints)
    assert np.allclose(trace.beta, beta, rtol=0.0, atol=1e-12)
    assert np.allclose(trace.beta_avg, beta_avg, rtol=0.0, atol=1e-12)


def _clamped_reference(instance, iters, seed, beta_ref):
    """The streamed loop as it was before the clamp could be skipped: every
    iterate is clamped to the box.  Returns (checkpoints, beta, beta_avg,
    sq_err)."""
    n = instance.n
    ref = np.asarray(beta_ref, dtype=float)
    lower, upper = beta_bounds(instance)
    ct, dt = instance.c.T, instance.d.T
    rng = np.random.default_rng(seed)
    checkpoints = _checkpoint_list(iters)
    G = [0.0] * n
    Bl = instance.budgets.tolist()
    ratio = np.full(n, np.inf)
    beta_sum = np.zeros(n)
    betas = np.empty((_BLOCK + 1, n))
    betas[0] = upper
    rows = list(betas)
    out_beta = np.zeros((checkpoints.size, n))
    out_avg = np.zeros((checkpoints.size, n))
    sq = np.zeros(checkpoints.size)
    t = 0
    for r, stop in enumerate(checkpoints):
        while t < stop:
            m = min(_BLOCK, int(stop) - t)
            thetas = rng.random(m)
            seg = instance.grid.locate(thetas)
            values = ct[seg] * thetas[:, None] + dt[seg]
            for j, vals in enumerate(values):
                w = (rows[j] * vals).argmax()
                g = G[w] + vals.item(w)
                G[w] = g
                ratio[w] = Bl[w] / g if g > 0.0 else np.inf
                row = rows[j + 1]
                np.multiply(ratio, t + j + 1, out=row)
                np.minimum(row, upper, out=row)
                np.maximum(row, lower, out=row)
            beta_sum += betas[:m].sum(axis=0)
            betas[0] = betas[m]
            t += m
        out_beta[r] = betas[0]
        avg = beta_sum / t
        out_avg[r] = avg
        diff = avg - ref
        sq[r] = float(np.dot(diff, diff))
    return checkpoints, out_beta, out_avg, sq


# instances on which each bound of the clamp binds
_CLAMP_INSTANCES = {
    # 9 of the 40 buyers never win and sit at their upper bound
    "never_wins_quasilinear_40x1": lambda: sample_instance(40, 1, seed=0,
                                                           mode="quasilinear"),
    # lower = upper = 1: both halves of the clamp bind at every step
    "single_buyer": lambda: build_instance([1.0], [0, 1], [[0.8]], [[0.6]]),
    "zero_values": _EQUIVALENCE_INSTANCES["zero_values"],
    "linear_300x5": _EQUIVALENCE_INSTANCES["linear_300x5"],
}


@pytest.mark.parametrize("iters", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   3 * _BLOCK + 7, 20000])
@pytest.mark.parametrize("name", sorted(_CLAMP_INSTANCES))
def test_skipped_clamp_bit_identical(name, iters):
    inst = _CLAMP_INSTANCES[name]()
    lo, hi = beta_bounds(inst)
    ref = 0.5 * (lo + hi)
    trace = sda_run(inst, iters, seed=5, beta_ref=ref)
    checkpoints, beta, beta_avg, sq_err = _clamped_reference(inst, iters, 5, ref)
    assert np.array_equal(trace.checkpoints, checkpoints)
    assert np.array_equal(trace.beta, beta)
    assert np.array_equal(trace.beta_avg, beta_avg)
    assert np.array_equal(trace.sq_err, sq_err)
    if name.startswith("never_wins"):
        assert (beta == hi).all(axis=0).sum() >= 9


def test_memory_independent_of_iters():
    # an (n, T) array of sample values alone would take 48 MB here
    inst = sample_instance(300, 5, seed=1)
    tracemalloc.start()
    try:
        sda_run(inst, 20_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("iters", [0, -3, 2.5, True, False, "10", None,
                                   np.float64(4.0)])
def test_bad_iters_raise_validation_error(example5, iters):
    with pytest.raises(ValidationError, match="iters"):
        sda_run(example5, iters, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_bad_seed_raises_validation_error(example5, seed):
    with pytest.raises(ValidationError, match="seed"):
        sda_run(example5, 10, seed)


def test_numpy_integer_iters(example5):
    a = sda_run(example5, np.int64(100), seed=2)
    b = sda_run(example5, 100, seed=2)
    assert a.iterations == 100 and type(a.iterations) is int
    assert np.array_equal(a.beta_avg, b.beta_avg)


@pytest.mark.parametrize("ref", [[0.5], [0.5] * 3, [float("nan")] * 4,
                                 [0.5, 0.5, np.inf, 0.5], "x"],
                         ids=["one", "short", "nan", "inf", "string"])
def test_bad_beta_ref_raises_validation_error(example5, ref):
    with pytest.raises(ValidationError, match="beta_ref"):
        sda_run(example5, 64, 0, beta_ref=ref)
    with pytest.raises(ValidationError, match="beta_ref"):
        mse_curve(example5, 64, seeds=[0], beta_ref=ref)


def test_subgradient_bound_example5(example5):
    assert subgradient_bound(example5) == pytest.approx(1.9)


def test_single_buyer_converges_to_one():
    inst = build_instance([1.0], [0, 1], [[0.8]], [[0.6]])
    trace = sda_run(inst, 4096, seed=0)
    assert trace.beta[-1][0] == pytest.approx(1.0, abs=1e-12)
    assert trace.beta_avg[-1][0] == pytest.approx(1.0, abs=0.05)


def test_example5_average_approaches_reference(example5):
    trace = sda_run(example5, 100_000, seed=11, beta_ref=EX5_BETA)
    assert np.sqrt(trace.sq_err[-1]) <= 0.05


def test_iterates_stay_in_box(example5):
    lo, hi = beta_bounds(example5)
    trace = sda_run(example5, 2048, seed=3)
    assert np.all(trace.beta >= lo[None, :] - 1e-15)
    assert np.all(trace.beta <= hi[None, :] + 1e-15)


def test_same_seed_bitwise_identical(example5):
    a = sda_run(example5, 4096, seed=42)
    b = sda_run(example5, 4096, seed=42)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.beta_avg, b.beta_avg)
    c = sda_run(example5, 4096, seed=43)
    assert not np.array_equal(a.beta, c.beta)


def test_stochastic_subgradient_unbiased(example5):
    # averaging the sampled subgradient over a dense deterministic grid
    # reproduces the winning utilities
    rng = np.random.default_rng(1)
    lo, hi = beta_bounds(example5)
    beta = rng.uniform(lo, hi)
    theta = (np.arange(1_000_000) + 0.5) / 1_000_000
    vals = example5.values_at(theta)
    winners = np.argmax(beta[:, None] * vals, axis=0)
    est = np.zeros(example5.n)
    np.add.at(est, winners, vals[winners, np.arange(theta.size)])
    est /= theta.size
    assert np.allclose(est, dual_subgradient(example5, beta)[2].sum(axis=1), atol=1e-3)


def test_symmetric_constant_valuations_cross_check():
    inst = build_instance([0.5, 0.5], [0, 1], [[0.0], [0.0]], [[1.0], [1.0]])
    ref = solve(inst).beta
    trace = sda_run(inst, 50_000, seed=7, beta_ref=ref)
    assert np.sqrt(trace.sq_err[-1]) <= 0.05


def test_mse_curve_below_theory(example5):
    ref = solve(example5).beta
    curve = mse_curve(example5, 16384, seeds=range(5), beta_ref=ref)
    assert np.all(curve["mse"] <= curve["bound"])
    assert curve["replications"] == 5


def test_mse_single_replication_equals_run(example5):
    ref = solve(example5).beta
    curve = mse_curve(example5, 2048, seeds=[9], beta_ref=ref)
    trace = sda_run(example5, 2048, seed=9, beta_ref=ref)
    assert np.allclose(curve["mse"], trace.sq_err)


def test_theory_bound_decreases_past_small_t(example5):
    t = np.array([8, 16, 32, 64, 128, 1024, 65536])
    bound = mse_theory_bound(example5, t)
    assert np.all(np.diff(bound) < 0)


def test_trace_csv_shape(example5):
    trace = sda_run(example5, 1000, seed=1, beta_ref=EX5_BETA)
    header, rows = trace.csv_rows()
    assert header[0] == "t"
    assert header[-1] == "sqerr"
    assert len(header) == 1 + 2 * example5.n + 1
    assert rows[-1][0] == 1000
