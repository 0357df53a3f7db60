"""Spans at the library's module boundaries, recorded from the benchmark.

Tracing replaces a function in the module that calls it (the module
attribute the caller looks up at call time), records one span per call and
puts every original object back when the traced run ends.  A span holds its
name, the layer (module) of the called function, start, end, parent span and
the operation it belongs to.  Calls made hundreds of thousands of times per
operation (the ellipsoid's oracles and the closed-form ``cut``) are folded
into a call count and a total time per operation instead.

Self time of a span is its duration minus the time of its direct children,
folded calls included.  Children never overlap: the library is driven from
one thread, so nested calls are strictly nested.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# (calling module, attribute, layer of the called function, folded)
PATCHES = (
    ("dual_solver", "solve", "dual_solver", False),
    ("dual_solver", "allocation_from_beta", "dual_solver", False),
    ("dual_solver", "dual_subgradient", "envelope", False),
    ("dual_solver", "partition_segment", "feasible", False),
    ("ellipsoid", "ellipsoid_solve", "ellipsoid", False),
    ("ellipsoid", "build_perturbed_system", "ellipsoid", False),
    ("ellipsoid", "separation_oracle", "ellipsoid", True),
    ("ellipsoid", "first_order_oracle", "ellipsoid", True),
    ("ellipsoid", "membership", "feasible", False),
    ("ellipsoid", "partition_segment", "feasible", False),
    ("ellipsoid", "cut", "market", True),
    ("feasible", "cut", "market", True),
    ("verification", "check_equilibrium", "verification", False),
    ("verification", "fairness", "verification", False),
    ("verification", "discretized_oracle", "verification", False),
    ("sda", "sda_run", "sda", False),
)


def _annotate(name, span, out):
    """Work counts read from a traced call's return value."""
    try:
        if name == "dual_solver.dual_subgradient":
            span["pieces"] = int(out[3].num_pieces)
        elif name == "ellipsoid.build_perturbed_system":
            span["dim"] = int(out.dim)
    except (AttributeError, IndexError, TypeError):
        pass


class Tracer:
    """In-memory span store; ``op`` tags every span and folded call."""

    def __init__(self):
        self.spans = []
        self.folded = defaultdict(lambda: [0, 0.0])   # (op, name) -> [calls, s]
        self.op = None
        self._stack = []

    def wrap(self, name, layer, fn):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = {"id": len(spans), "name": name, "layer": layer,
                    "parent": None if parent is None else parent["id"],
                    "op": self.op, "start": 0.0, "end": 0.0, "child_s": 0.0}
            spans.append(span)
            stack.append(span)
            span["start"] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = perf()
                stack.pop()
                if parent is not None:
                    parent["child_s"] += span["end"] - span["start"]
            _annotate(name, span, out)
            return out

        return traced

    def fold(self, name, layer, fn):
        folded, stack = self.folded, self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                slot = folded[(self.op, name)]
                slot[0] += 1
                slot[1] += dt
                if stack:
                    stack[-1]["child_s"] += dt

        return traced


@contextlib.contextmanager
def installed(tracer, modules):
    """Patch every name in PATCHES that exists; restore all on exit.

    Yields the list of names that were absent (a refactor may remove one);
    their layer metrics then read zero instead of the run failing.
    """
    saved = []
    missing = []
    try:
        for mod_name, attr, layer, folded in PATCHES:
            mod = modules[mod_name]
            if not hasattr(mod, attr):
                missing.append(f"{mod_name}.{attr}")
                continue
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            make = tracer.fold if folded else tracer.wrap
            setattr(mod, attr, make(f"{mod_name}.{attr}", layer, original))
        yield missing
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def _dur(span):
    return span["end"] - span["start"]


def layer_record(tracer, op, first_span):
    """Per-layer counts and times of one traced operation.

    ``first_span`` is len(tracer.spans) when the operation started; the
    operation's spans are the contiguous tail from there.
    """
    spans = tracer.spans[first_span:]
    by_id = {s["id"]: s for s in spans}
    rec = defaultdict(float)
    for s in spans:
        name, d = s["name"], _dur(s)
        parent = by_id.get(s["parent"])
        if name == "dual_solver.dual_subgradient":
            rec["envelope.evals"] += 1
            rec["envelope.s"] += d
            rec["envelope.pieces"] += s.get("pieces", 0)
            if parent is not None and parent["name"] == "dual_solver.solve":
                rec["envelope.in_solve_s"] += d
        elif name == "dual_solver.solve":
            rec["dual_solver.span_s"] += d
            rec["dual_solver.self_s"] += d - s["child_s"]
        elif name.endswith(".partition_segment"):
            rec["feasible.partition_calls"] += 1
            rec["feasible.partition_s"] += d
        elif name == "ellipsoid.membership":
            rec["feasible.membership_calls"] += 1
            rec["feasible.membership_s"] += d
        elif name == "ellipsoid.ellipsoid_solve":
            rec["ellipsoid.span_s"] += d
            rec["ellipsoid.self_s"] += d - s["child_s"]
        elif name == "ellipsoid.build_perturbed_system":
            rec["ellipsoid.dim"] += s.get("dim", 0)
        elif name == "verification.check_equilibrium":
            rec["verification.kkt_s"] += d
        elif name == "verification.fairness":
            rec["verification.fairness_s"] += d
        elif name == "verification.discretized_oracle":
            rec["verification.oracle_s"] += d
        elif name == "sda.sda_run":
            rec["sda.s"] += d
    for (o, name), (calls, secs) in tracer.folded.items():
        if o != op:
            continue
        if name.endswith(".cut"):
            rec["market.cut_calls"] += calls
            rec["market.cut_s"] += secs
        elif name == "ellipsoid.separation_oracle":
            rec["ellipsoid.separation_calls"] += calls
            rec["ellipsoid.separation_s"] += secs
    return dict(rec)
