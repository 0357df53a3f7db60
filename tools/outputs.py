"""Record the library's outputs on the benchmark documents, and compare two
recordings field by field.

    python3 tools/outputs.py record ROOT OUT [--seeds 1111,1112,1113]
    python3 tools/outputs.py compare A B

``record`` imports ``fisher_fair`` from ``ROOT/src`` and replays the
documents that ``ROOT/perfbench/workloads.py`` builds for the grid, crowded
and crosscheck workloads of each seed, warm-up documents included.  For every
document it records:

* ``solve``: the result (beta, gap, iterations, u, per-segment utilities,
  delta, quasilinear net utilities, the allocation), ``gap_history``, the
  price envelope's pieces and any ``NotConverged`` message;
* ``cli``: the exit code and a SHA-256 of the file ``solve --out`` writes;
* ``conic``: a SHA-256 of each key of ``emit_conic_program(...).to_json()``
  except ``meta``;
* ``envelope``: the pieces of ``upper_envelope`` at the solved beta, at both
  corners of ``beta_bounds`` and at five seeded perturbations of the solved
  beta by up to 3%, so envelopes that the solver never visits count too;

on crowded documents ``sda``: the checkpoints, iterates and averages of an
SDA run of the benchmark's length and seed, and ``allocation_from_beta`` at
its last average; and on crosscheck documents
``ellipsoid``: ``ellipsoid_solve(inst, 1e-4, collect_log=True)``, log
included, and ``oracle``: beta, u, rounds and cells of
``discretized_oracle`` at the benchmark's cell count, or its ``NotConverged``
message.  Every solve, sda and ellipsoid record carries the ``to_json()`` of
``check_equilibrium`` and ``fairness`` on its allocation.  Floats are stored by their shortest
round-trip repr, so two recordings agree field for field exactly when the
outputs are bit-identical.

``compare`` prints the number of identical records of each kind and names
every record and field that differs or exists on one side only, with the
field's largest absolute difference; then, for every field that differs
anywhere, the number of records it differs in and its largest absolute
difference over them; then, for each workload, the sum of the solve
records' ``iterations`` (exact evaluations) on each side and the number of
solve records whose ``iterations`` changed, over the records present on both
sides; then every record in which a boolean verdict (``certified``,
``kkt.pass``, ``fairness.pass``, ``fairness.ceei``) changed, and the number
of such verdict flips.  It exits 1 when anything differs, so
status 0 means bit-identical.  Run each side from its own checkout with one
BLAS thread (the script sets ``OPENBLAS_NUM_THREADS=1`` before importing
numpy).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

WORKLOADS = ("grid", "crowded", "crosscheck")


def _sha(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _pieces(env, prefix=""):
    return {f"{prefix}{name}": getattr(env, name).tolist()
            for name in ("breakpoints", "cs", "ds", "owners", "segments")}


def _result_fields(res):
    """Every output of a result, as JSON values."""
    fields = res.to_json()
    fields["gap_history"] = res.gap_history
    fields.update(_pieces(res.prices, "prices."))
    return fields


def _checked(lib, wl, inst, res):
    """The result's fields plus its KKT and fairness reports."""
    fields = _result_fields(res)
    for name, check in (("kkt", lambda: lib.verification.check_equilibrium(
                            inst, res.allocation, res.beta, tol=wl.CHECK_TOL,
                            delta=res.delta)),
                        ("fairness", lambda: lib.verification.fairness(
                            inst, res.allocation, tol=wl.CHECK_TOL))):
        try:
            fields[name] = check().to_json()
        except lib.errors.FisherFairError as exc:
            fields[name] = f"{type(exc).__name__}: {exc}"
    return fields


def _records(lib, wl, workload, seed, tmp):
    docs = wl.documents(workload, seed)
    for i, (case, doc) in enumerate(docs):
        key = f"{workload}/{seed}/{i}/{case.mode}-{case.n}x{case.k}"
        inst = lib.market.load_instance(doc)
        try:
            res, message = lib.dual_solver.solve(inst), None
        except lib.errors.NotConverged as exc:
            res, message = exc.result, str(exc)
        fields = _checked(lib, wl, inst, res)
        fields["not_converged"] = message
        yield "solve", key, fields

        lo, hi = lib.envelope.beta_bounds(inst)
        rng = np.random.default_rng([seed, i])
        betas = [("solved", res.beta), ("lo", lo), ("hi", hi)] + [
            (f"perturbed{j}", res.beta * rng.uniform(0.97, 1.03, inst.n))
            for j in range(5)]
        for label, beta in betas:
            yield "envelope", f"{key}/{label}", _pieces(
                lib.envelope.upper_envelope(inst, beta))

        path = Path(tmp) / "instance.json"
        out = Path(tmp) / "result.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            code = lib.cli.main(["solve", "--instance", str(path), "--out", str(out)])
        yield "cli", key, {"exit": code,
                           "sha256": hashlib.sha256(out.read_bytes()).hexdigest()}

        conic = lib.feasible.emit_conic_program(inst).to_json()
        conic.pop("meta", None)
        yield "conic", key, {name: _sha(value) for name, value in conic.items()}

        if case.kind == "crowded":
            sda_seed = wl.instance_seed(seed, workload, len(docs) + i)
            trace = lib.sda.sda_run(inst, wl.SDA_SAMPLES, sda_seed)
            res = lib.dual_solver.allocation_from_beta(inst, trace.beta_avg[-1])
            yield "sda", key, {"trace.checkpoints": trace.checkpoints.tolist(),
                               "trace.beta": trace.beta.tolist(),
                               "trace.beta_avg": trace.beta_avg.tolist(),
                               **_checked(lib, wl, inst, res)}
        elif case.kind == "crosscheck":
            res = lib.ellipsoid.ellipsoid_solve(inst, wl.ELLIPSOID_EPS,
                                                collect_log=True)
            fields = _checked(lib, wl, inst, res)
            fields["log"] = [list(entry) for entry in res.log]
            yield "ellipsoid", key, fields
            try:
                fields = lib.verification.discretized_oracle(
                    inst, wl.ORACLE_CELLS).to_json()
            except lib.errors.NotConverged as exc:
                fields = {"not_converged": str(exc)}
            yield "oracle", key, fields


def record(root, out_path, seeds):
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads as wl
    from fisher_fair import (cli, dual_solver, ellipsoid, envelope, errors, feasible,
                             market, sda, verification)
    lib = argparse.Namespace(cli=cli, dual_solver=dual_solver, ellipsoid=ellipsoid,
                             envelope=envelope, errors=errors, feasible=feasible,
                             market=market, sda=sda, verification=verification)
    counts = Counter()
    with open(out_path, "w", encoding="utf-8") as fh, \
            tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for workload in WORKLOADS:
                for kind, key, fields in _records(lib, wl, workload, seed, tmp):
                    fh.write(json.dumps({"kind": kind, "key": key,
                                         "fields": fields}) + "\n")
                    counts[kind] += 1
    print(", ".join(f"{n} {kind}" for kind, n in sorted(counts.items())),
          f"records written to {out_path}")


def _load(path):
    with open(path, encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh]
    return {(r["kind"], r["key"]): r["fields"] for r in recs}


def _max_diff(x, y):
    """Largest absolute difference between the numbers of two JSON values of
    one shape, or None when their shapes or any non-numbers differ."""
    numbers = (int, float)
    if isinstance(x, numbers) and isinstance(y, numbers):
        return 0.0 if x == y else abs(x - y)
    if isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        parts = [_max_diff(a, b) for a, b in zip(x, y)]
    elif isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
        parts = [_max_diff(x[key], y[key]) for key in x]
    else:
        return 0.0 if x == y else None
    return None if None in parts else max(parts, default=0.0)


def _flags(value, path=""):
    """Every boolean in a JSON value, by its dotted path."""
    if isinstance(value, bool):
        return {path: value}
    if isinstance(value, dict):
        return {flag: v for name, x in value.items()
                for flag, v in _flags(x, f"{path}.{name}" if path else name).items()}
    return {}


def _describe(diff):
    return "not numeric" if diff is None else f"max |diff| {diff:.3g}"


def compare(path_a, path_b):
    a, b = _load(path_a), _load(path_b)
    same, differ = Counter(), 0
    fields = {}                       # (kind, field) -> [records, largest diff]
    flips = []                        # (kind, key, changed verdicts)
    evals = {}                        # workload -> [sum A, sum B, records changed]
    for kind, key in sorted(a.keys() | b.keys()):
        if (kind, key) not in a or (kind, key) not in b:
            side = path_b if (kind, key) in b else path_a
            print(f"{kind} {key}: only in {side}")
            differ += 1
            continue
        fa, fb = a[kind, key], b[kind, key]
        if kind == "solve":
            slot = evals.setdefault(key.split("/")[0], [0, 0, 0])
            slot[0] += fa["iterations"]
            slot[1] += fb["iterations"]
            slot[2] += fa["iterations"] != fb["iterations"]
        bad = {name: _max_diff(fa.get(name), fb.get(name))
               for name in sorted(fa.keys() | fb.keys())
               if json.dumps(fa.get(name)) != json.dumps(fb.get(name))}
        if bad:
            print(f"{kind} {key}: differs in "
                  + ", ".join(f"{name} ({_describe(d)})" for name, d in bad.items()))
            differ += 1
            ga, gb = _flags(fa), _flags(fb)
            changed = [f"{flag} {ga.get(flag)} -> {gb.get(flag)}"
                       for flag in sorted(ga.keys() | gb.keys())
                       if ga.get(flag) != gb.get(flag)]
            if changed:
                flips.append((kind, key, changed))
            for name, d in bad.items():
                slot = fields.setdefault((kind, name), [0, 0.0])
                slot[0] += 1
                slot[1] = None if d is None or slot[1] is None else max(slot[1], d)
        else:
            same[kind] += 1
    print("identical:", ", ".join(f"{n} {kind}" for kind, n in sorted(same.items())))
    for (kind, name), (records, d) in sorted(fields.items()):
        print(f"{kind} {name}: differs in {records} records, {_describe(d)}")
    for workload, (sum_a, sum_b, changed) in sorted(evals.items()):
        print(f"{workload} solve iterations: {sum_a} -> {sum_b}, "
              f"changed in {changed} records")
    for kind, key, changed in flips:
        print(f"verdict flip {kind} {key}: " + ", ".join(changed))
    print(f"verdict flips: {len(flips)}")
    print(f"differing: {differ}")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record", help="record outputs of the library under ROOT")
    p.add_argument("root")
    p.add_argument("out")
    p.add_argument("--seeds", default="1111,1112,1113")
    p = sub.add_parser("compare", help="compare two recordings")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.root, args.out, [int(s) for s in args.seeds.split(",")])
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
