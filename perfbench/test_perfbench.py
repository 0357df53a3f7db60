"""Self-tests of the benchmark: patches are restored, spans nest, and the
output checks count a corrupted allocation as a failure.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from fisher_fair.dual_solver import PureAllocation, solve  # noqa: E402
from fisher_fair.market import Interval, load_instance  # noqa: E402
from fisher_fair.sampling import sample_document  # noqa: E402


def _originals():
    return {(m, a): getattr(wl.MODULES[m], a) for m, a, _, _ in spans.PATCHES}


@pytest.fixture(scope="module")
def traced():
    """One traced crosscheck operation on a 2x2 instance (every layer runs)."""
    inst = load_instance(sample_document(2, 2, 5))
    before = _originals()
    tracer = spans.Tracer()
    with spans.installed(tracer, wl.MODULES) as missing:
        tracer.op = 0
        rec = wl.run_case(wl.Case("crosscheck", 2, 2), inst, 0)
    return tracer, before, missing, rec


def test_patched_names_restored(traced):
    tracer, before, missing, rec = traced
    assert not missing
    assert _originals() == before
    assert all(getattr(wl.MODULES[m], a) is obj for (m, a), obj in before.items())
    assert rec["failed"] == 0 and tracer.spans


def test_patches_restored_when_operation_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer(), wl.MODULES):
            raise RuntimeError("operation failed mid-run")
    assert all(getattr(wl.MODULES[m], a) is obj for (m, a), obj in before.items())


def test_child_spans_inside_parent(traced):
    tracer = traced[0]
    by_id = {s["id"]: s for s in tracer.spans}
    names = {s["name"] for s in tracer.spans}
    assert {"dual_solver.solve", "dual_solver.dual_subgradient",
            "ellipsoid.ellipsoid_solve", "verification.discretized_oracle"} <= names
    for s in tracer.spans:
        assert s["start"] <= s["end"]
        assert s["end"] - s["start"] - s["child_s"] >= -1e-9
        parent = by_id.get(s["parent"])
        if parent is not None:
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    layers = spans.layer_record(tracer, 0, 0)
    assert layers["envelope.evals"] == traced[3]["evals"]
    assert layers["ellipsoid.separation_calls"] > 0 and layers["market.cut_calls"] > 0


def test_corrupted_allocation_counts_as_failure():
    inst = load_instance(sample_document(4, 3, 7))
    res = solve(inst)
    assert wl.check_dual(inst, res.allocation, res.beta, res.delta)[0] == []
    i = max(range(inst.n), key=lambda b: sum(iv.length for iv in res.allocation.intervals[b]))
    for move in ("shift", "shrink"):
        ivs = [list(v) for v in res.allocation.intervals]
        iv = ivs[i][0]
        step = 0.25 * iv.length
        ivs[i][0] = (Interval(iv.lo + step, iv.hi + step) if move == "shift"
                     else Interval(iv.lo + step, iv.hi))
        bad = PureAllocation(intervals=ivs, leftover=res.allocation.leftover)
        assert wl.check_dual(inst, bad, res.beta, res.delta)[0], move


def test_speed_log_scales_stretches_between_probes():
    log = run.SpeedLog(1.0)
    # probes at [0, 1] and [3, 4] timed REF_S, at [6, 7] timed 3 * REF_S
    log.marks = [(0.0, 1.0, run.REF_S), (3.0, 4.0, run.REF_S), (6.0, 7.0, 3 * run.REF_S)]
    assert log.net(2.0, 5.0) == pytest.approx(2.0)
    assert log.scaled(2.0, 5.0) == pytest.approx(1.0 + 1.0 / 2)
    assert log.scaled(4.5, 5.5) == pytest.approx(0.5)
    with log:
        time.sleep(0.01)
    assert len(log.marks) == 5 and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_count_mismatch_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    counts = {"cases": [{"evals": 10}], "fail_ratio": 0.0}
    assert run.check_counts("grid", 3, counts) == []
    assert run.check_counts("grid", 3, counts) == []
    assert run.check_counts("grid", 3, {"cases": [{"evals": 11}], "fail_ratio": 0.0})


def test_declared_metrics_match_benchmark_json():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.NAMES) == list(wl.WORKLOADS)


def test_tail_percentile():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(1, 21))) == (50, 10)
    p, _ = run.tail_percentile(list(range(100)))
    assert p == 90
