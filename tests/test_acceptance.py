"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The suite is heavier than the unit tests; expect around ten minutes.
"""

import os
import subprocess
import sys
import time

import numpy as np

import fisher_fair
from fisher_fair import solve, upper_envelope
from fisher_fair.ellipsoid import ellipsoid_solve
from fisher_fair.feasible import membership, partition_segment, segment_feasibility_certificate
from fisher_fair.market import Interval, LinearPiece, cut, eval_interval
from fisher_fair.sampling import sample_instance
from fisher_fair.sda import mse_curve
from fisher_fair.verification import check_equilibrium, discretized_oracle, fairness
from tests.conftest import EX5_BETA, EX5_CUTS, EX5_U
from tests.test_feasible import (
    knapsack_bruteforce_membership,
    membership_test_points,
    segment_from_coeffs,
)


def _report(num, ok, detail):
    # bypass pytest's capture so every criterion prints its line even on
    # plain (quiet) runs
    sys.__stdout__.write(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}\n")
    sys.__stdout__.flush()
    return ok


def test_acceptance_1_linear_golden(example5):
    t0 = time.perf_counter()
    res = solve(example5)
    elapsed = time.perf_counter() - t0
    cuts = sorted(iv.hi for ivs in res.allocation.intervals for iv in ivs
                  if iv.hi < 1.0)
    ok = (np.allclose(res.beta, EX5_BETA, atol=1e-3)
          and np.allclose(res.u, EX5_U, atol=1e-3)
          and np.allclose(cuts, EX5_CUTS, atol=1e-3)
          and elapsed < 1.0)
    assert _report(1, ok,
                   f"4-buyer linear golden: beta/u/cuts within 1e-3, "
                   f"{elapsed:.2f}s (< 1s)")


def test_acceptance_2_example6_certified(example6):
    res = solve(example6, None)
    rep = check_equilibrium(example6, res.allocation, res.beta, tol=1e-6)
    ok = res.gap <= 1e-6 and rep.passed
    assert _report("2a", ok,
                   f"4-buyer 3-segment instance certified: gap {res.gap:.2e} "
                   f"(<= 1e-6), KKT pass at 1e-6: {rep.passed}")


def test_acceptance_2_example6_segment2_walkthrough(example6):
    """Golden targets (0.3789, 0.5815) for the middle-segment partition.

    The certified equilibrium of the printed instance yields (0.4001, 0.5603)
    instead; proportional-response dynamics on a 6000-cell discretization and
    a derivative-free minimization of the quadrature-evaluated dual both
    reproduce (0.4001, 0.5603) to four digits, so the golden endpoint pair is
    inconsistent with the instance data and this criterion cannot pass.  The
    assertion is kept at its stated tolerance rather than widened."""
    res = solve(example6)
    parts = partition_segment(example6, 1, res.useg[:, 1])
    interior = sorted(p.hi for p in parts
                      if p.length > 1e-9 and p.hi < 0.8147 - 1e-9)
    expected = (0.3789, 0.5815)
    ok = len(interior) == 2 and np.allclose(interior, expected, atol=2e-3)
    _report("2b", ok,
            f"segment-2 partition endpoints {np.round(interior, 5).tolist()} "
            f"vs golden {list(expected)} within 2e-3")
    assert ok, (
        f"computed certified endpoints {np.round(interior, 5).tolist()} differ "
        f"from the golden pair {list(expected)}; two independent methods "
        "(proportional response on a fine grid, quadrature-based dual descent) "
        "agree with the computed values, so the golden pair appears "
        "inconsistent with the printed instance data")


def test_acceptance_3_cross_solver_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    combos = [(n, k) for n in (2, 3, 4, 5) for k in (2, 3, 4, 5)]
    for trial in range(30):
        n, k = combos[trial % len(combos)]
        inst = sample_instance(n, k, seed=300 + trial)
        b_dual = solve(inst).beta
        b_ell = ellipsoid_solve(inst, 1e-4).beta
        b_orc = discretized_oracle(inst, 2000).beta
        worst = max(worst,
                    np.abs(b_dual - b_ell).max(),
                    np.abs(b_dual - b_orc).max(),
                    np.abs(b_ell - b_orc).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-3 and elapsed < 300.0
    assert _report(3, ok,
                   f"30 instances, 3 solvers: worst pairwise beta gap "
                   f"{worst:.2e} (<= 5e-3) in {elapsed:.0f}s (< 300s)")


def test_acceptance_4_kkt_fairness_suite():
    tol = 1e-6
    worst = {}
    for trial in range(100):
        n = 2 + trial % 9
        k = 1 + trial % 5
        inst = sample_instance(n, k, seed=400 + trial)
        res = solve(inst)
        rep = check_equilibrium(inst, res.allocation, res.beta, tol=tol)
        fair = fairness(inst, res.allocation, tol=tol)
        checks = {
            "market clearance": rep.market_clear_residual,
            "budget depletion": rep.budget_residuals.max(),
            "complementary slackness": rep.comp_slack_residuals.max(),
            "price mass": rep.price_mass_residual,
            "envy": fair.envy.max(),
            "proportionality": -fair.proportionality.min(),
        }
        for name, val in checks.items():
            worst[name] = max(worst.get(name, 0.0), float(val))
    ok = all(v <= tol for v in worst.values())
    assert _report(4, ok,
                   "100 instances: worst residuals "
                   + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
                   + f" (all <= {tol:g})")


def test_acceptance_5_sda_convergence(example5):
    t0 = time.perf_counter()
    beta_ref = solve(example5).beta
    curve = mse_curve(example5, 100_000, seeds=range(20), beta_ref=beta_ref)
    elapsed = time.perf_counter() - t0
    below = bool(np.all(curve["mse"] <= curve["bound"]))
    hits = int(np.sum(curve["final_errors"] <= 0.05))
    ok = below and hits >= 18 and elapsed < 120.0
    assert _report(5, ok,
                   f"20 runs x 1e5 samples: MSE under the guarantee curve at "
                   f"every checkpoint ({below}), final error <= 0.05 in "
                   f"{hits}/20 runs, {elapsed:.0f}s (< 120s)")


def test_acceptance_6_membership_threeway():
    rng = np.random.default_rng(600)
    pairs = 0
    disagreements = 0
    while pairs < 1000:
        cs, ds, lo, hi, cases = membership_test_points(rng)
        seg = segment_from_coeffs(cs, ds, lo, hi)
        for u, _ in cases:
            greedy = membership(seg, u[seg.active])
            certif, _ = segment_feasibility_certificate(seg, u[seg.active])
            brute = knapsack_bruteforce_membership(cs, ds, lo, hi, u,
                                                   cells=10000)
            if not bool(greedy) == bool(certif) == bool(brute):
                disagreements += 1
            pairs += 1
    ok = disagreements == 0
    assert _report(6, ok,
                   f"{pairs} (segment, u) pairs: greedy vs constraint system "
                   f"vs 1e4-cell brute force, {disagreements} disagreements")


def test_acceptance_7_bench_scaling(tmp_path):
    import csv
    # a fresh interpreter, so that OpenBLAS starts with one thread: waking a
    # second BLAS thread adds tens of milliseconds to the first 100x100 cell,
    # which is noise in a K-doubling ratio of cells taking about 0.1 s
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [os.path.dirname(os.path.dirname(fisher_fair.__file__)),
                    os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "bench.csv"
    t0 = time.perf_counter()
    assert subprocess.run(
        [sys.executable, "-m", "fisher_fair.cli", "bench", "--grid",
         "50,100:50,100", "--seeds", "1,2,3", "--gap-tol", "1e-6", "--out",
         str(out)], env=env, timeout=600).returncode == 0
    elapsed = time.perf_counter() - t0
    rows = list(csv.reader(open(out)))
    cells = {(int(r[0]), int(r[1])): float(r[7]) for r in rows[1:]}
    per_cell_ok = all(v < 60.0 for v in cells.values())
    ratios = [cells[(n, 100)] / cells[(n, 50)] for n in (50, 100)]
    trend_ok = all(1.2 <= r <= 3.5 for r in ratios)
    ok = per_cell_ok and trend_ok
    assert _report(7, ok,
                   f"cells {dict((k, round(v, 2)) for k, v in cells.items())}s "
                   f"(each < 60s), K-doubling ratios "
                   f"{[round(r, 2) for r in ratios]} within [1.2, 3.5]; "
                   f"total {elapsed:.0f}s")


def test_acceptance_8_quasilinear_suite():
    tol = 1e-6
    worst_kkt = 0.0
    worst_beta = 0.0
    for trial in range(30):
        n = 2 + trial % 5
        k = 1 + trial % 4
        inst = sample_instance(n, k, seed=800 + trial, mode="quasilinear")
        res = solve(inst)
        rep = check_equilibrium(inst, res.allocation, res.beta, tol=tol,
                                delta=res.delta)
        worst_kkt = max(worst_kkt,
                        rep.market_clear_residual,
                        float(rep.budget_residuals.max()),
                        float(rep.utility_price_residuals.max()),
                        float(rep.comp_slack_residuals.max()),
                        float(rep.ql_delta_residuals.max()),
                        rep.duality_gap)
        orc = discretized_oracle(inst, 2000)
        worst_beta = max(worst_beta, float(np.abs(res.beta - orc.beta).max()))
    ok = worst_kkt <= tol and worst_beta <= 5e-3
    assert _report(8, ok,
                   f"30 quasilinear instances: worst KKT residual "
                   f"{worst_kkt:.1e} (<= 1e-6), worst oracle beta gap "
                   f"{worst_beta:.2e} (<= 5e-3)")


def test_acceptance_9_primitive_roundtrips():
    rng = np.random.default_rng(900)
    worst_cut = 0.0
    for _ in range(10_000):
        y0, y1 = rng.uniform(0.0, 2.0, 2)
        a = float(rng.uniform(0.0, 1.0))
        piece = LinearPiece(y1 - y0, y0)
        total = eval_interval(piece, Interval(a, 1.0))
        if total <= 1e-9:
            continue
        u0 = float(rng.uniform(0.0, 1.0)) * total
        b = cut(piece, a, u0, 1.0)
        worst_cut = max(worst_cut,
                        abs(eval_interval(piece, Interval(a, b)) - u0))
    worst_env = 0.0
    for trial in range(30):
        inst = sample_instance(2 + trial % 8, 1 + trial % 6, seed=900 + trial)
        lo, hi = inst.budgets, np.ones(inst.n)
        beta = rng.uniform(lo, hi)
        env = upper_envelope(inst, beta)
        theta = rng.random(1000)
        direct = np.max(beta[:, None] * inst.values_at(theta), axis=0)
        worst_env = max(worst_env, float(np.abs(env(theta) - direct).max()))
    ok = worst_cut <= 1e-10 and worst_env <= 1e-10
    assert _report(9, ok,
                   f"1e4 cut/eval roundtrips: worst {worst_cut:.1e} "
                   f"(<= 1e-10); envelope dominance over 30x1000 points: "
                   f"worst {worst_env:.1e} (<= 1e-10)")
