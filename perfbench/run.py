"""fisher-fair benchmark: time to a certified, verified allocation, end to end
and per layer, on the workloads defined in ``workloads.py``.

Run from the repository root::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every workload

A run generates its instances from ``--seed`` (the set-up), runs one untimed
warm-up operation, then one timed pass over every case of the workload.
While ``--seconds`` are left it repeats cases whose last run fits in the
remaining time.  A case's time is the median of its runs and a workload
total is the sum over cases.  The set-up is repeated before every case run,
so that its rounds are spread over the whole run, and ``setup_s`` is their
median.  Work counts come from the first pass and every repeat must
reproduce them exactly.

The gated times are reference-scaled.  Once a second (``SpeedLog``) a
SIGALRM handler times a fixed computation (``reference``); every
stretch of a set-up round or of a case's stages (solve, each check, SDA,
ellipsoid, oracle) between two such probes counts as its wall time times
``REF_S`` over the mean of the two probe times.  The speed of the shared
machines this runs on drifts by tens of percent over seconds to minutes,
and the probe slows down with the library's code, so the scaled times vary
less between runs than the raw ones.  The raw wall times (probes left out)
are printed beside them.

With ``--trace 1`` every case run is a pair: the case untraced, then the
case with the calls crossing module boundaries traced (``spans.py``).  The
tracing overhead is the traced minus the untraced wall time of the pairs.
Per-layer times are raw wall times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced, the per-layer metrics traced.  Everything else, including
the stage metrics that are not gated, is printed above it and written
to ``perfbench/out/``.
"""

import os

# one thread per BLAS: the library is driven from a single process and the
# machines this runs on have few cores shared with other work
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
NAMES = ("grid", "crowded", "crosscheck")
SETUP_FIRST_ROUNDS = 5
REF_LOOPS = 100_000
REF_NP_LOOPS = 1500
# typical wall time of reference() on the 2-vCPU x86-64 KVM guest the
# benchmark was tuned on (from the median of about 560 probes), so that
# scaled times read as seconds there
REF_S = 0.028
PROBE_EVERY_S = 1.0
COUNT_KEYS = ("evals", "ellipsoid_calls", "oracle_rounds", "sda_samples",
              "attempted", "failed")

# gated metrics, as declared in BENCHMARK.json: name -> unit
END_TO_END = {"setup_s": "s", "certify_s": "s", "verified_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "envelope.evals": "count", "envelope.s": "s", "envelope.ms_per_eval": "ms",
    "envelope.share": "ratio", "envelope.pieces_per_eval": "count",
    "dual_solver.self_s": "s", "dual_solver.evals_per_solve": "count",
    "dual_solver.solve_s": "s",
    "feasible.partition_calls": "count", "feasible.partition_s": "s",
    "feasible.membership_calls": "count", "feasible.membership_s": "s",
    "market.load_s": "s", "market.cut_calls": "count",
    "ellipsoid.calls": "count", "ellipsoid.dim": "count", "ellipsoid.us_per_call": "us",
    "ellipsoid.separation_s": "s", "ellipsoid.separation_share": "ratio",
    "ellipsoid.self_s": "s", "ellipsoid.solve_s": "s",
    "verification.kkt_s": "s", "verification.fairness_s": "s",
    "verification.oracle_rounds": "count", "verification.oracle_s": "s",
    "verification.oracle_ns_per_cell_round": "ns",
    "sda.samples": "count", "sda.us_per_sample": "us", "sda.samples_per_s": "1/s",
    "sda.finite_gap_ratio": "ratio",
    "ops.fail_ratio": "ratio", "ops.certified_per_s": "1/s",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def code_hash():
    """Fingerprint of the library and benchmark sources ("the same code")."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "fisher_fair").rglob("*.py")) + sorted(BENCH.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def tail_percentile(samples):
    """(p, value): the highest whole percentile with at least ten samples
    beyond it (nearest rank), or None below twenty samples."""
    n = len(samples)
    if n < 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(samples)
    return p, ordered[max(math.ceil(p / 100 * n) - 1, 0)]


def reference():
    """Wall time of a fixed computation, a probe of the machine's speed.

    It mixes the two kinds of work the library does: interpreted Python and
    numpy on small arrays.  Either alone tracked one of the dual solver and
    the ellipsoid less well than the mix.
    """
    t0 = time.perf_counter()
    s, d = 0, {}
    for i in range(REF_LOOPS):
        s += i * i
        d[i & 255] = s
    m, v = np.eye(10) + 0.01, np.full(10, 0.3)
    for _ in range(REF_NP_LOOPS):
        g = m @ v
        m = m * 0.999 + np.outer(g, g) * 1e-6
    return time.perf_counter() - t0


class SpeedLog:
    """Probes the machine's speed every ``every`` seconds of wall time.

    A probe is one ``reference()`` call, made by a SIGALRM handler between
    two bytecodes of whatever the benchmark is running, and once when the
    log opens and closes.  The speed over a stretch between two probes is
    taken from the mean of their times.
    """

    def __init__(self, every):
        self.every = every
        self.marks = []     # (start, end, reference time), in time order

    def _probe(self, *_):
        t0 = time.perf_counter()
        ref = reference()
        self.marks.append((t0, time.perf_counter(), ref))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._probe()

    def stretches(self, a, b):
        """(wall time, mean reference time around it) of each stretch of
        [a, b] between probes; the probes' own time is left out."""
        marks = self.marks
        i = bisect.bisect_right([m[0] for m in marks], a)
        t = a
        while True:
            end = min(b, marks[i][0]) if i < len(marks) else b
            if end > t:
                yield end - t, statistics.fmean(m[2] for m in marks[max(i - 1, 0):i + 1])
            if i >= len(marks) or marks[i][0] >= b:
                return
            t = marks[i][1]
            i += 1

    def scaled(self, a, b):
        """[a, b] in seconds at the speed where reference() takes REF_S."""
        return sum(d * REF_S / ref for d, ref in self.stretches(a, b))

    def net(self, a, b):
        """Wall time of [a, b] without the probes inside it."""
        return sum(d for d, _ in self.stretches(a, b))


class Run:
    def __init__(self, args):
        import spans
        import workloads as wl
        self.wl, self.spans, self.args = wl, spans, args
        self.name = args.workload
        self.cases = wl.cases(self.name)
        self.mismatches = []
        self.setup_spans, self.load_s = [], []
        self.tracer = spans.Tracer() if args.trace else None
        self.missing = []

    def setup(self):
        """Generate and load every instance of the workload (one set-up round)."""
        wl = self.wl
        t0 = time.perf_counter()
        docs = wl.documents(self.name, self.args.seed)
        t1 = time.perf_counter()
        insts = [wl.market.load_instance(doc) for _, doc in docs]
        t2 = time.perf_counter()
        self.setup_spans.append((t0, t2))
        self.load_s.append(t2 - t1)
        self.insts = insts[:-1]
        self.warm = (docs[-1][0], insts[-1])
        n = len(docs)
        self.sda_seeds = [wl.instance_seed(self.args.seed, self.name, n + i)
                          for i in range(n)]

    def case(self, i, rep=0):
        """One run of case i; when tracing, an untraced and a traced run."""
        wl = self.wl
        self.setup()
        rec = wl.run_case(self.cases[i], self.insts[i], self.sda_seeds[i])
        rec["cost_s"] = rec["op_s"]
        if self.tracer is None:
            return rec
        tracer = self.tracer
        tracer.op = (i, rep)
        first = len(tracer.spans)
        with self.spans.installed(tracer, wl.MODULES) as self.missing:
            traced = wl.run_case(self.cases[i], self.insts[i], self.sda_seeds[i])
        traced.update(self.spans.layer_record(tracer, tracer.op, first))
        tracer.op = None
        traced["untraced"] = rec
        traced["cost_s"] = rec["op_s"] + traced["op_s"]
        return traced

    def timed(self, deadline):
        """One pass over every case, then repeats that fit before deadline."""
        recs = [[self.case(i)] for i in range(len(self.cases))]
        i, skipped = 0, 0
        while skipped < len(self.cases):
            left = deadline - time.perf_counter()
            if left <= 0:
                break
            if recs[i][-1]["cost_s"] <= left:
                recs[i].append(self.case(i, len(recs[i])))
                skipped = 0
            else:
                skipped += 1
            i = (i + 1) % len(self.cases)
        for i, rs in enumerate(recs):
            for r in rs[1:]:
                for key in COUNT_KEYS:
                    if r[key] != rs[0][key]:
                        self.mismatches.append(
                            f"case {i}: {key} {r[key]} on a repeat, {rs[0][key]} first")
        return recs


def rescale(recs, to_s):
    """The case runs with each stage time replaced by to_s(start, end),
    summed over the stage's intervals."""
    def one(r):
        times = defaultdict(float)
        for key, a, b in r["intervals"]:
            times[key] += to_s(a, b)
        return {**r, **times, "op_s": sum(times.values())}
    return [[one(r) for r in rs] for rs in recs]


def total(recs, key):
    """Sum over cases of the median over each case's runs."""
    return sum(statistics.median(r.get(key, 0.0) for r in rs) for rs in recs)


def first(recs, key):
    return sum(rs[0].get(key, 0) for rs in recs)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(recs, setup_s):
    solve_s = total(recs, "solve_s")
    verify_s = total(recs, "kkt_s") + total(recs, "fairness_s")
    ell_s, orc_s = total(recs, "ellipsoid_s"), total(recs, "oracle_s")
    sda_s = total(recs, "sda_s")
    certify_s = solve_s + ell_s + sda_s + total(recs, "alloc_s")
    return {
        "setup_s": setup_s, "certify_s": certify_s, "verified_s": certify_s + verify_s,
        "solve_s": solve_s, "verify_s": verify_s,
        "certified_per_s": ratio(first(recs, "certified_ok"), solve_s + verify_s),
        "fail_ratio": ratio(first(recs, "failed"), first(recs, "attempted")),
        "ellipsoid_s": ell_s, "oracle_s": orc_s,
        "sda_samples_per_s": ratio(first(recs, "sda_samples"), sda_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


E2E_UNITS = {"setup_s": "s", "certify_s": "s", "verified_s": "s", "solve_s": "s",
             "verify_s": "s",
             "certified_per_s": "1/s", "fail_ratio": "ratio", "ellipsoid_s": "s",
             "oracle_s": "s", "sda_samples_per_s": "1/s", "peak_rss_mb": "MB"}
# per-run samples behind each timing (one per case run) for the tail percentile
E2E_SAMPLES = {"solve_s": ("solve_s",), "verify_s": ("kkt_s", "fairness_s"),
               "ellipsoid_s": ("ellipsoid_s",), "oracle_s": ("oracle_s",),
               "certify_s": ("solve_s", "ellipsoid_s", "sda_s", "alloc_s"),
               "verified_s": ("solve_s", "ellipsoid_s", "sda_s", "alloc_s", "kkt_s",
                              "fairness_s")}


def per_layer(recs_u, recs_t, load_s):
    evals = first(recs_t, "envelope.evals")
    calls = first(recs_u, "ellipsoid_calls")
    samples = first(recs_u, "sda_samples")
    sda_ops = sum(1 for rs in recs_u if rs[0]["sda_samples"])
    envelope_s = total(recs_t, "envelope.s")
    untraced_op = total(recs_u, "op_s")
    overhead = total(recs_t, "op_s") - untraced_op
    iters = [rs[0]["evals"] for rs in recs_u]
    e2e = end_to_end(recs_u, 0.0)
    return {
        "envelope.evals": evals, "envelope.s": envelope_s,
        "envelope.ms_per_eval": 1e3 * ratio(envelope_s, evals),
        "envelope.share": ratio(total(recs_t, "envelope.in_solve_s"),
                                total(recs_t, "dual_solver.span_s")),
        "envelope.pieces_per_eval": ratio(first(recs_t, "envelope.pieces"), evals),
        "dual_solver.self_s": total(recs_t, "dual_solver.self_s"),
        "dual_solver.evals_per_solve": statistics.median(iters),
        "dual_solver.solve_s": e2e["solve_s"],
        "feasible.partition_calls": first(recs_t, "feasible.partition_calls"),
        "feasible.partition_s": total(recs_t, "feasible.partition_s"),
        "feasible.membership_calls": first(recs_t, "feasible.membership_calls"),
        "feasible.membership_s": total(recs_t, "feasible.membership_s"),
        "market.load_s": load_s,
        "market.cut_calls": first(recs_t, "market.cut_calls"),
        "ellipsoid.calls": calls, "ellipsoid.dim": first(recs_t, "ellipsoid.dim"),
        "ellipsoid.us_per_call": 1e6 * ratio(e2e["ellipsoid_s"], calls),
        "ellipsoid.separation_s": total(recs_t, "ellipsoid.separation_s"),
        "ellipsoid.separation_share": ratio(total(recs_t, "ellipsoid.separation_s"),
                                            total(recs_t, "ellipsoid.span_s")),
        "ellipsoid.self_s": total(recs_t, "ellipsoid.self_s"),
        "ellipsoid.solve_s": e2e["ellipsoid_s"],
        "verification.kkt_s": total(recs_t, "verification.kkt_s"),
        "verification.fairness_s": total(recs_t, "verification.fairness_s"),
        "verification.oracle_rounds": first(recs_u, "oracle_rounds"),
        "verification.oracle_s": total(recs_t, "verification.oracle_s"),
        "verification.oracle_ns_per_cell_round": 1e9 * ratio(
            total(recs_t, "verification.oracle_s"), first(recs_u, "oracle_cell_rounds")),
        "sda.samples": samples,
        "sda.us_per_sample": 1e6 * ratio(total(recs_t, "sda.s"), samples),
        "sda.samples_per_s": e2e["sda_samples_per_s"],
        "sda.finite_gap_ratio": ratio(first(recs_u, "sda_finite_gap"), sda_ops),
        "ops.fail_ratio": e2e["fail_ratio"],
        "ops.certified_per_s": e2e["certified_per_s"],
        "trace.overhead_s": overhead,
        "trace.overhead_share": ratio(overhead, untraced_op),
    }


def exact_counts(recs):
    return {"cases": [{k: rs[0][k] for k in COUNT_KEYS} for rs in recs],
            "fail_ratio": ratio(first(recs, "failed"), first(recs, "attempted"))}


def check_counts(name, seed, counts):
    """Compare with an earlier run of the same code and seed, if any."""
    path = OUT / "counts" / f"{name}-seed{seed}-{code_hash()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            return [f"exact counts differ from an earlier run of the same code "
                    f"and seed ({path.name}): {before} vs {counts}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts))
    os.replace(tmp, path)
    return []


def environment():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                                   "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_workload(args):
    run = Run(args)
    wl = run.wl
    # the speed probes would land inside traced spans, so a traced run has none
    log = None if args.trace else SpeedLog(PROBE_EVERY_S)
    with log or contextlib.nullcontext():
        for _ in range(SETUP_FIRST_ROUNDS):
            run.setup()
        wl.run_case(*run.warm, run.sda_seeds[-1])
        start = time.perf_counter()
        recs = run.timed(start + args.seconds)
    if args.trace:
        recs_u = [[r["untraced"] for r in rs] for rs in recs]
        metrics = per_layer(recs_u, recs, statistics.median(run.load_s))
        units = PER_LAYER
        run.mismatches += [f"case {i}: {k} {r['untraced'][k]} untraced, {r[k]} traced"
                           for i, rs in enumerate(recs) for r in rs for k in COUNT_KEYS
                           if r["untraced"][k] != r[k]]
    else:
        recs_u = recs
        setup_s = statistics.median(log.scaled(a, b) for a, b in run.setup_spans)
        metrics = end_to_end(rescale(recs, log.scaled), setup_s)
        raw = end_to_end(rescale(recs, log.net),
                         statistics.median(log.net(a, b) for a, b in run.setup_spans))
        units = E2E_UNITS
    counts = exact_counts(recs_u)
    run.mismatches += check_counts(run.name, args.seed, counts)
    wrong = sorted({w for rs in recs for r in rs for w in r["wrong"]})
    attempted, failed = first(recs_u, "attempted"), first(recs_u, "failed")
    correct = not run.mismatches and not wrong

    runs = sum(len(rs) for rs in recs)
    lines = [f"workload {run.name}  seed {args.seed}  trace {args.trace}  "
             f"cases {len(run.cases)}  case runs {runs}  "
             f"timed {time.perf_counter() - start:.1f}s",
             f"environment {json.dumps(environment())}",
             f"operations attempted {attempted}  failed {failed}"]
    for i, rs in enumerate(recs_u):
        r, c = rs[0], run.cases[i]
        why = "; ".join(r["reasons"] + r["sda_reasons"]) or "ok"
        lines.append(f"  case {i} {c.kind} {c.mode} {c.n}x{c.k}: evals {r['evals']} "
                     f"runs {len(recs[i])}  {why}")
        if c.mode != "linear":
            lines.append(f"    {wl.FAIRNESS_SKIP}")
    for name, value in metrics.items():
        unit = units[name]
        extra = (f"set-up rounds {len(run.setup_spans)}"
                 if name in ("setup_s", "market.load_s")
                 else f"case runs {runs}")
        keys = E2E_SAMPLES.get(name)
        if keys and not args.trace:
            tail = tail_percentile([sum(r[k] for k in keys)
                                    for rs in rescale(recs, log.scaled) for r in rs])
            if tail:
                extra += f"  p{tail[0]} {tail[1]:.6g} {unit}"
            extra += f"  raw {raw[name]:.6g} {unit}"
        elif name == "setup_s" and not args.trace:
            extra += f"  raw {raw[name]:.6g} {unit}"
        lines.append(f"  {name:40s} {value:14.6g} {unit:6s} {extra}  failures {failed}")
    for m in run.missing:
        lines.append(f"  not traced (name absent): {m}")
    for m in run.mismatches + wrong:
        lines.append(f"ERROR {m}")
    print("\n".join(lines))

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{run.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": run.name, "seed": args.seed, "seconds": args.seconds,
        "environment": environment(), "metrics": metrics, "units": units,
        "counts": counts, "errors": run.mismatches + wrong, "not_traced": run.missing,
        "setup_rounds": len(run.setup_spans), "case_runs": [len(rs) for rs in recs],
        "probes": [m[2] for m in log.marks] if log else [],
        "reasons": [rs[0]["reasons"] + rs[0]["sda_reasons"] for rs in recs_u],
    }, indent=1))
    if run.tracer is not None:
        with open(OUT / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for s in run.tracer.spans:
                fh.write(json.dumps(s) + "\n")
            for (op, name), (n, secs) in run.tracer.folded.items():
                fh.write(json.dumps({"folded": name, "op": op, "calls": n,
                                     "s": secs}) + "\n")
    declared = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in declared.items()}}))
    return 0


def run_all(args):
    """Every workload in its own process, one after the other."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "fisher_fair" / "__init__.py").is_file():
        print(f"error: no library sources at {ROOT / 'src' / 'fisher_fair'}; run "
              "the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
