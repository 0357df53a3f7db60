"""Workload compositions, the operations the benchmark times, and the output
checks that decide whether an operation failed.

Every instance seed is derived from the run's ``--seed``, the workload name
and the instance's position, and the library receives only the generated
documents through ``market.load_instance``.  Each workload is a fixed list of
cases, so the work counts of one seed never depend on how fast the code is.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass

import numpy as np

from fisher_fair import (dual_solver, ellipsoid, envelope, feasible, market, sampling,
                         sda, verification)
from fisher_fair.errors import FisherFairError, NotConverged

MODULES = {"dual_solver": dual_solver, "ellipsoid": ellipsoid, "feasible": feasible,
           "market": market, "sda": sda, "verification": verification}

CHECK_TOL = 1e-6          # check_equilibrium and fairness tolerance
ELLIPSOID_EPS = 1e-4
ORACLE_CELLS = 2000
AGREE_TOL = 5e-3          # worst pairwise beta gap between the three solvers
SDA_SAMPLES = 20000       # fixed T per SDA run on crowded
FAIRNESS_SKIP = ("fairness skipped in quasilinear mode: buyers keep money, so "
                 "proportionality does not hold at a quasilinear equilibrium")


@dataclass(frozen=True)
class Case:
    kind: str      # "dual", "crowded" (dual + SDA) or "crosscheck"
    n: int
    k: int
    mode: str = "linear"


WORKLOADS = {
    # the envelope sweep dominates; ellipsoid, oracle and SDA never run
    "grid": [Case("dual", 50, 50)] * 3 + [Case("dual", 100, 100),
                                          Case("dual", 50, 50, "quasilinear")],
    # n >> K: dual-solver self time and the failure path dominate; the only
    # workload running SDA, and the only one with a large memory footprint
    "crowded": [Case("crowded", 40, 1), Case("crowded", 80, 5),
                Case("crowded", 120, 20), Case("crowded", 300, 5),
                Case("crowded", 40, 1, "quasilinear"),
                Case("crowded", 80, 5, "quasilinear")],
    # acceptance-3-style small instances: the ellipsoid and the oracle do
    # nearly all the work; growth with dimension shows from 2x2 to 4x4
    "crosscheck": [Case("crosscheck", 2, 2), Case("crosscheck", 2, 3),
                   Case("crosscheck", 3, 2), Case("crosscheck", 3, 3),
                   Case("crosscheck", 4, 4)],
}

# each shape is instantiated this many times, on distinct seeds, so that a
# workload total averages over instances and depends less on the run's seed
ROUNDS = {"grid": 2, "crowded": 2, "crosscheck": 1}

# one small operation per workload, run untimed before the timed phase
WARMUP = {"grid": Case("dual", 10, 10), "crowded": Case("crowded", 20, 1),
          "crosscheck": Case("crosscheck", 2, 2)}


def cases(workload):
    """The timed cases of a workload: every shape, ROUNDS[workload] times."""
    return WORKLOADS[workload] * ROUNDS[workload]


def instance_seed(seed, workload, index):
    """Seed of the index-th instance of a workload, derived from the run seed."""
    ss = np.random.SeedSequence([seed % 2 ** 63, zlib.crc32(workload.encode()), index])
    return int(ss.generate_state(1)[0])


def documents(workload, seed):
    """(case, document) pairs of the timed cases, then the warm-up case."""
    timed = cases(workload) + [WARMUP[workload]]
    return [(c, sampling.sample_document(c.n, c.k, instance_seed(seed, workload, i),
                                         mode=c.mode))
            for i, c in enumerate(timed)]


class Stopwatch:
    """Wall times of the stages of one case run, and when each stage ran."""

    def __init__(self):
        self.times, self.intervals = {}, []
        self._t0 = None

    def start(self):
        self._t0 = time.perf_counter()

    def stop(self, key):
        """End the stage begun by start(); record and return its wall time."""
        t1 = time.perf_counter()
        self.intervals.append((key, self._t0, t1))
        self.times[key] = self.times.get(key, 0.0) + t1 - self._t0
        return t1 - self._t0


def check_dual(inst, allocation, beta, delta, sw=None):
    """Output checks of a dual result: (reasons it fails, kkt_s, fairness_s).

    An allocation the checkers reject as malformed (intervals overlapping or
    leaving [0, 1]) fails too.
    """
    sw = sw or Stopwatch()
    reasons = []
    sw.start()
    try:
        kkt = verification.check_equilibrium(inst, allocation, beta, tol=CHECK_TOL,
                                             delta=delta)
        if not kkt.passed:
            reasons.append("check_equilibrium failed")
    except FisherFairError as exc:
        reasons.append(f"check_equilibrium rejected the allocation: {exc}")
    kkt_s = sw.stop("kkt_s")
    fairness_s = 0.0
    if inst.mode == market.LINEAR:
        sw.start()
        try:
            if not verification.fairness(inst, allocation, tol=CHECK_TOL).passed:
                reasons.append("fairness failed")
        except FisherFairError as exc:
            reasons.append(f"fairness rejected the allocation: {exc}")
        fairness_s = sw.stop("fairness_s")
    return reasons, kkt_s, fairness_s


def _dual(inst, rec, sw):
    """Dual solve plus verification; returns (beta or None, certified)."""
    sw.start()
    try:
        res = dual_solver.solve(inst)
        certified = True
    except NotConverged as exc:
        res, certified = exc.result, False
        rec["reasons"].append(f"solve: {exc}")
    except Exception as exc:  # noqa: BLE001 - any raise is a counted failure
        res, certified = None, False
        rec["reasons"].append(f"solve raised {type(exc).__name__}: {exc}")
    sw.stop("solve_s")
    if res is None:
        return None, False
    rec["evals"] = int(res.iterations)
    reasons = check_dual(inst, res.allocation, res.beta, res.delta, sw)[0]
    rec["reasons"] += reasons
    if certified and reasons:
        rec["wrong"].append("certified result failed its output checks")
    rec["certified_ok"] = int(certified and not reasons)
    return res.beta, certified


def _sda(inst, seed, rec, sw):
    """SDA at fixed T, then allocation_from_beta on the final average."""
    sw.start()
    try:
        trace = sda.sda_run(inst, SDA_SAMPLES, seed)
    except Exception as exc:  # noqa: BLE001 - any raise is a counted failure
        rec["sda_reasons"].append(f"sda_run raised {type(exc).__name__}: {exc}")
        return
    finally:
        sw.stop("sda_s")
    rec["sda_samples"] = int(trace.iterations)
    avg = np.asarray(trace.beta_avg[-1], dtype=float)
    lo, hi = envelope.beta_bounds(inst)
    if not (np.all(np.isfinite(avg)) and np.all(avg >= lo * (1 - 1e-12))
            and np.all(avg <= hi * (1 + 1e-12))):
        rec["sda_reasons"].append("SDA average non-finite or outside beta_bounds")
        return
    sw.start()
    try:
        res = dual_solver.allocation_from_beta(inst, avg)
        rec["sda_finite_gap"] = int(math.isfinite(res.gap))
    except Exception as exc:  # noqa: BLE001
        rec["sda_reasons"].append(
            f"allocation_from_beta raised {type(exc).__name__}: {exc}")
    sw.stop("alloc_s")


def _crosscheck(inst, beta_dual, dual_certified, rec, sw):
    """Ellipsoid and oracle on the same instance; the three betas must agree."""
    betas = [] if beta_dual is None else [beta_dual]
    sw.start()
    try:
        ell = ellipsoid.ellipsoid_solve(inst, ELLIPSOID_EPS)
        rec["ellipsoid_calls"] = int(ell.calls)
        if ell.certified:
            betas.append(ell.beta)
        else:
            rec["reasons"].append("ellipsoid uncertified")
    except Exception as exc:  # noqa: BLE001
        rec["reasons"].append(f"ellipsoid raised {type(exc).__name__}: {exc}")
    sw.stop("ellipsoid_s")
    sw.start()
    try:
        orc = verification.discretized_oracle(inst, ORACLE_CELLS)
        rec["oracle_rounds"] = int(orc.rounds)
        rec["oracle_cell_rounds"] = int(orc.rounds) * int(orc.cells)
        betas.append(orc.beta)
    except Exception as exc:  # noqa: BLE001
        rec["reasons"].append(f"oracle raised {type(exc).__name__}: {exc}")
    sw.stop("oracle_s")
    if len(betas) == 3:
        gap = max(float(np.abs(a - b).max())
                  for i, a in enumerate(betas) for b in betas[i + 1:])
        if gap > AGREE_TOL:
            rec["reasons"].append(f"worst pairwise beta gap {gap:.2e} > {AGREE_TOL}")
            if dual_certified:
                rec["wrong"].append("certified solvers disagree")


TIMES = ("solve_s", "kkt_s", "fairness_s", "ellipsoid_s", "oracle_s", "sda_s",
         "alloc_s")


def new_record():
    return {"evals": 0,
            "ellipsoid_calls": 0, "oracle_rounds": 0, "oracle_cell_rounds": 0,
            "sda_samples": 0, "sda_finite_gap": 0, "certified_ok": 0,
            "reasons": [], "sda_reasons": [], "wrong": []}


def run_case(case, inst, sda_seed):
    """Run one case's operations; returns its record (times, counts, checks).

    Stage times are wall times (``op_s`` is their sum) and ``intervals``
    says when each stage ran.  ``attempted``/``failed`` count operations:
    one per case, plus the SDA operation on crowded cases.
    """
    sw = Stopwatch()
    rec = new_record()
    beta, certified = _dual(inst, rec, sw)
    if case.kind == "crowded":
        _sda(inst, sda_seed, rec, sw)
    elif case.kind == "crosscheck":
        _crosscheck(inst, beta, certified, rec, sw)
    rec.update({k: sw.times.get(k, 0.0) for k in TIMES})
    rec["op_s"] = sum(sw.times.values())
    rec["intervals"] = sw.intervals
    rec["attempted"] = 2 if case.kind == "crowded" else 1
    rec["failed"] = int(bool(rec["reasons"])) + int(bool(rec["sda_reasons"]))
    return rec
