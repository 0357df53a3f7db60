import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisher_fair import (
    DomainError,
    NotConverged,
    SolveConfig,
    ValidationError,
    build_instance,
    dual_subgradient,
    load_instance,
    solve,
    upper_envelope,
)
from fisher_fair.envelope import (
    PiecewiseLinearFunction,
    beta_bounds,
    certify_envelope,
    plot_data,
)
from fisher_fair.sampling import sample_document
from tests.conftest import EX5_BETA, EX5_CUTS, EX5_U


def owner_sequence(env):
    seq = []
    for j in range(env.num_pieces):
        if env.breakpoints[j + 1] - env.breakpoints[j] <= 0:
            continue
        if not seq or seq[-1] != env.owners[j]:
            seq.append(int(env.owners[j]))
    return seq


def test_envelope_example5_structure(example5):
    env = upper_envelope(example5, EX5_BETA)
    interior = env.breakpoints[1:-1]
    assert np.allclose(sorted(interior), EX5_CUTS, atol=1e-3)
    assert owner_sequence(env) == [3, 0, 1, 2]


def test_envelope_single_buyer():
    inst = build_instance([1.0], [0, 1], [[0.8]], [[0.6]])
    env = upper_envelope(inst, np.array([0.7]))
    assert env.num_pieces == 1
    assert owner_sequence(env) == [0]
    theta = np.linspace(0, 1, 101)
    assert np.allclose(env(theta), 0.7 * inst.values_at(theta)[0], atol=1e-14)


def test_envelope_identical_buyers_tie_to_smallest_index():
    inst = build_instance([0.5, 0.5], [0, 1], [[0.8], [0.8]], [[0.6], [0.6]])
    env = upper_envelope(inst, np.array([0.9, 0.9]))
    assert owner_sequence(env) == [0]


def test_envelope_concurrent_lines_go_to_steepest():
    # three lines through (0.5, 1): the flat one leads on the left, and of the
    # two that overtake it at 0.5 the steeper one leads on the right
    inst = build_instance([1 / 3] * 3, [0, 1], [[0.0], [1.0], [2.0]],
                          [[1.0], [0.5], [0.0]])
    env = upper_envelope(inst, np.full(3, 0.5))
    assert owner_sequence(env) == [0, 2]
    assert env.breakpoints[1] == 0.5


def assert_exact_envelope(inst, beta, env):
    theta = np.linspace(0.0, 1.0, 5001)
    direct = np.max(beta[:, None] * inst.values_at(theta), axis=0)
    assert np.abs(env(theta) - direct).max() <= 1e-12
    assert certify_envelope(inst, beta, env)


def test_envelope_piecewise_constant_ties_to_smallest_index():
    # the paper's case: every slope 0.  Each row is a permutation of the same
    # integers on equal segments, so the totals agree but their float sums
    # do not: after normalization the tied heights are ulps apart, and on
    # four segments the exact maximum is not the smallest index
    rng = np.random.default_rng(2)
    n = 300
    pts = np.linspace(0.0, 1.0, 6)
    heights = np.array([rng.permutation([1.0, 1.0, 2.0, 2.0, 3.0]) for _ in range(n)])
    inst = build_instance(np.ones(n), pts, np.zeros((n, 5)), heights)
    beta = np.full(n, 0.7)
    env = upper_envelope(inst, beta)
    highest = [int(np.flatnonzero(col == col.max())[0]) for col in heights.T]
    assert env.segments.tolist() == list(range(5))
    assert env.owners.tolist() == highest
    assert np.count_nonzero(env.owners != np.argmax(inst.d, axis=0)) == 4
    assert_exact_envelope(inst, beta, env)


def test_envelope_parallel_lines_go_to_the_higher():
    # dyadic data with equal totals, so normalization keeps slopes equal:
    # buyers 0 and 1 are parallel on segment 0, 1 the higher; buyer 2 is
    # flat below them there and the highest on segment 1
    inst = build_instance([1 / 3] * 3, [0, 0.5, 1], [[1, 0], [1, 0], [0, 0]],
                          [[0.25, 0.75], [0.5, 0.5], [0.25, 1.0]])
    beta = np.ones(3)
    env = upper_envelope(inst, beta)
    assert owner_sequence(env) == [1, 2]
    assert env.breakpoints[1] == 0.5
    assert_exact_envelope(inst, beta, env)


def test_envelope_identical_lines_apart_in_index():
    # equal totals again.  On segment 0 buyers 0 and 2 have one line and
    # buyer 1 a parallel lower one, which sits between them in slope order;
    # the steeper buyer 3 overtakes at 1/3, and buyer 1 leads on segment 1
    inst = build_instance([0.25] * 4, [0, 0.5, 1],
                          [[0.5, 0], [0.5, 0], [0.5, 0], [2, 0]],
                          [[0.5, 0.25], [0.25, 0.5], [0.5, 0.25], [0, 0.375]])
    beta = np.ones(4)
    env = upper_envelope(inst, beta)
    assert owner_sequence(env) == [0, 3, 1]
    assert env.breakpoints[1] == pytest.approx(1 / 3, abs=1e-15)
    assert_exact_envelope(inst, beta, env)


def test_envelope_crowded_segment():
    # n >> K near the equilibrium, where every buyer wins something: a
    # segment holds many pieces
    inst = load_instance(sample_document(300, 5, 1))
    with pytest.raises(NotConverged) as exc:
        solve(inst, SolveConfig(max_iter=1))
    beta = exc.value.result.beta
    env = upper_envelope(inst, beta)
    assert np.bincount(env.segments).max() > 50
    assert_exact_envelope(inst, beta, env)


def test_envelope_rejects_nonpositive_beta(example5):
    # a NaN or infinite entry makes the crossings NaN
    for bad in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            upper_envelope(example5, np.array([0.5, 0.5, bad, 0.5]))


def test_envelope_dominance_dense(example5, random_instance):
    from fisher_fair.envelope import certify_envelope
    rng = np.random.default_rng(5)
    for inst in [example5, random_instance(6, 4, seed=11),
                 random_instance(3, 7, seed=12)]:
        lo, hi = beta_bounds(inst)
        beta = rng.uniform(lo, hi)
        env = upper_envelope(inst, beta)
        theta = rng.random(1000)
        direct = np.max(beta[:, None] * inst.values_at(theta), axis=0)
        assert np.abs(env(theta) - direct).max() <= 1e-10
        assert certify_envelope(inst, beta, env)


def test_integral_at_optimum_is_budget_mass(example5, random_instance):
    for inst in [example5, random_instance(5, 3, seed=21)]:
        res = solve(inst)
        assert upper_envelope(inst, res.beta).integral() == pytest.approx(1.0, abs=1e-6)


def test_integral_zero_function():
    f = PiecewiseLinearFunction(breakpoints=np.array([0.0, 1.0]),
                                cs=np.zeros(1), ds=np.zeros(1))
    assert f.integral() == 0.0


def test_integral_example5_weighted_utilities(example5):
    env = upper_envelope(example5, EX5_BETA)
    assert env.integral() == pytest.approx(float(EX5_BETA @ EX5_U), abs=1e-3)


def test_winning_utilities_example5(example5):
    u = dual_subgradient(example5, EX5_BETA)[2].sum(axis=1)
    assert np.allclose(u, EX5_U, atol=1e-3)


def test_winning_utilities_single_buyer():
    inst = build_instance([1.0], [0, 1], [[1.0]], [[0.5]])
    assert dual_subgradient(inst, np.array([0.4]))[2].sum(axis=1)[0] == pytest.approx(1.0)


def test_winning_utilities_dominated_buyer(example5):
    beta = EX5_BETA.copy()
    beta[0] = 1e-6
    u = dual_subgradient(example5, beta)[2].sum(axis=1)
    assert u[0] == 0.0
    # cross-check by dense sampling: buyer 0 never attains the max
    theta = np.linspace(0, 1, 10001)
    scaled = beta[:, None] * example5.values_at(theta)
    assert np.all(np.argmax(scaled, axis=0) != 0)


def test_dual_objective_example5_matches_shifted_primal(example5):
    from fisher_fair.dual_solver import duality_constant
    res = solve(example5)
    z = float(np.dot(example5.budgets, np.log(res.u)))
    psi = dual_subgradient(example5, res.beta)[0]
    assert psi == pytest.approx(z + duality_constant(example5), abs=1e-9)


def test_dual_objective_single_buyer_closed_form():
    inst = build_instance([1.0], [0, 1], [[0.0]], [[1.0]])
    for beta in (0.3, 0.7, 1.0, 1.8):
        assert dual_subgradient(inst, np.array([beta]))[0] == pytest.approx(
            beta - np.log(beta), abs=1e-12)
    values = [dual_subgradient(inst, np.array([b]))[0]
              for b in (0.9, 0.95, 1.0, 1.05, 1.1)]
    assert min(values) == values[2]


def test_dual_objective_against_riemann_sum(random_instance):
    inst = random_instance(5, 4, seed=33)
    rng = np.random.default_rng(7)
    lo, hi = beta_bounds(inst)
    beta = rng.uniform(lo, hi)
    theta = (np.arange(1_000_000) + 0.5) / 1_000_000
    riemann = float(np.max(beta[:, None] * inst.values_at(theta), axis=0).mean())
    expected = riemann - float(np.dot(inst.budgets, np.log(beta)))
    assert dual_subgradient(inst, beta)[0] == pytest.approx(expected, abs=1e-5)


def test_dual_objective_rejects_nonpositive(example5):
    with pytest.raises(DomainError):
        dual_subgradient(example5, np.zeros(4))[0]


def test_subgradient_inequality(random_instance):
    inst = random_instance(6, 3, seed=44)
    rng = np.random.default_rng(9)
    lo, hi = beta_bounds(inst)
    for _ in range(25):
        b1 = rng.uniform(lo, hi)
        b2 = rng.uniform(lo, hi)
        psi1, g1, _, _ = dual_subgradient(inst, b1)
        psi2 = dual_subgradient(inst, b2)[0]
        assert psi2 >= psi1 + float(g1 @ (b2 - b1)) - 1e-9


def test_price_invariance_under_valuation_scaling():
    doc_c = [[-0.4], [0.8]]
    doc_d = [[1.2], [0.6]]
    base = build_instance([0.4, 0.6], [0, 1], doc_c, doc_d)
    scaled = build_instance([0.4, 0.6], [0, 1],
                            [[-0.4 * 5], [0.8]], [[1.2 * 5], [0.6]])
    rb = solve(base)
    rs = solve(scaled)
    theta = np.linspace(0, 1, 501)
    assert np.abs(rb.prices(theta) - rs.prices(theta)).max() <= 1e-8


def test_quasilinear_box_bounds(random_instance):
    inst = random_instance(4, 2, seed=5, mode="quasilinear")
    lo, hi = beta_bounds(inst)
    assert np.allclose(lo, inst.budgets / (inst.total_values + inst.budgets))
    assert np.all(hi == 1.0)


def test_plot_data_includes_envelope_breakpoints(example5):
    header, rows = plot_data(example5, EX5_BETA, num_points=100)
    assert header[:2] == ["theta", "p_star"]
    theta = rows[:, 0]
    env = upper_envelope(example5, EX5_BETA)
    for b in env.breakpoints:
        assert np.any(np.isclose(theta, b, atol=1e-12))
    # p_star column equals the per-row max of the scaled valuation columns
    assert np.allclose(rows[:, 1], rows[:, 2:].max(axis=1), atol=1e-10)


def test_plot_data_rejects_negative_points(example5):
    with pytest.raises(ValidationError):
        plot_data(example5, EX5_BETA, num_points=-1)
    header, rows = plot_data(example5, EX5_BETA, num_points=0)
    env = upper_envelope(example5, EX5_BETA)
    assert np.array_equal(rows[:, 0], env.breakpoints)


@st.composite
def envelope_cases(draw):
    """(instance, beta): n and K in 1..30 with some buyers copied from others
    at equal beta.  A plain copy ties its source exactly; a copy rotated on
    one segment about the segment midpoint keeps its total value, so it still
    meets its source and the source's other rotations at that midpoint."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 30))
    mode = draw(st.sampled_from(["linear", "quasilinear"]))
    doc = sample_document(n, k, draw(st.integers(0, 2**32 - 1)), mode=mode)
    pts = doc["breakpoints"]
    # few sources, so that several rotations of one line meet at one point
    copy = st.tuples(st.integers(0, min(n, 3) - 1), st.integers(0, n - 1),
                     st.integers(0, k - 1), st.floats(-1.0, 1.0), st.booleans())
    copies = draw(st.lists(copy, max_size=n))
    for src, dst, seg, tilt, rotate in copies:
        doc["c"][dst] = list(doc["c"][src])
        doc["d"][dst] = list(doc["d"][src])
        if rotate:
            mid = 0.5 * (pts[seg] + pts[seg + 1])
            v_mid = doc["c"][src][seg] * mid + doc["d"][src][seg]
            slope = tilt * v_mid / (0.5 * (pts[seg + 1] - pts[seg]))
            doc["c"][dst][seg] = slope
            doc["d"][dst][seg] = v_mid - slope * mid
    inst = build_instance(doc["budgets"], pts, doc["c"], doc["d"], mode=mode)
    lo, hi = beta_bounds(inst)
    t = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    beta = lo + t * (hi - lo)
    for src, dst, *_ in copies:
        beta[dst] = beta[src]
    return inst, beta


@settings(max_examples=150, deadline=None)
@given(envelope_cases())
def test_batched_envelope_properties(case):
    inst, beta = case
    env = upper_envelope(inst, beta)
    theta = np.linspace(0.0, 1.0, 2000)
    direct = np.max(beta[:, None] * inst.values_at(theta), axis=0)
    assert np.abs(env(theta) - direct).max() <= 1e-10
    assert certify_envelope(inst, beta, env)
    U = dual_subgradient(inst, beta)[2]
    # price mass per segment, exactly from the pieces (each lies in one segment)
    b = env.breakpoints
    mid = 0.5 * (b[:-1] + b[1:])
    mass = (b[1:] - b[:-1]) * (env.cs * mid + env.ds)
    per_segment = np.bincount(env.segments, weights=mass, minlength=inst.num_segments)
    np.testing.assert_allclose(beta @ U, per_segment, rtol=1e-12, atol=1e-15)
