"""Command-line interface.

Subcommands: solve (``--mode dual`` or ``sda``), verify, emit-conic, sda,
ellipsoid (the only path to the ellipsoid solver, with an optional ``--log``
CSV), oracle, sample-instance, plot-data, bench.  Exit codes: 0 success
(certified where applicable), 1 input or validation error, including paths
that cannot be opened, result files that lack a required key or hold a value
of the wrong type or shape (the error names the file), malformed ``bench``
arguments, a ``--gap-tol`` that is not a finite number >= 0, a ``--seed`` or
``--seeds`` value below 0 or an ``--iters`` below 1 (all checked before
anything is loaded) and usage errors, 2 solver finished without a certificate
(the best iterate is still written).
``bench`` times each (n, k, seed) cell as the fastest of three build+solve
runs, one cell at a time so that cells do not compete for cores, and appends
the evaluation and envelope-piece counts of those runs summed over the seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import time

import numpy as np

from . import sda as sda_mod
from .dual_solver import (
    EquilibriumResult,
    SolveConfig,
    allocation_from_beta,
    solve,
)
from .ellipsoid import ellipsoid_solve
from .envelope import plot_data
from .errors import (DomainError, FisherFairError, NotConverged, ValidationError,
                     check_count, check_tolerance)
from .feasible import emit_conic_program
from .market import load_instance
from .sampling import sample_document
from .verification import check_equilibrium, discretized_oracle, fairness

# a bench cell's time is the fastest of this many build+solve runs; the first
# linear solves after an idle stretch can run several times slower
_BENCH_REPEATS = 3


def _write_json(doc, path):
    if path == "-":
        json.dump(doc, sys.stdout, indent=1)
        sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _write_csv(path, header, rows):
    out = sys.stdout if path == "-" else open(path, "w", newline="", encoding="utf-8")
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


def _read_result(path, keys, parse):
    """``parse`` applied to the JSON document of a result file.  Every key in
    ``keys`` must be present, and a value that ``parse`` cannot convert is a
    ValidationError naming the file; the library functions that take the
    parsed values check their shapes."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    missing = [k for k in keys if not isinstance(doc, dict) or k not in doc]
    if missing:
        raise ValidationError(f"result file {path} lacks {', '.join(missing)}")
    try:
        return parse(doc)
    except (TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"result file {path} is malformed: {exc}") from exc


@contextlib.contextmanager
def _result_values(path):
    """Re-raise the library's rejection of a value read from result file
    ``path`` as a ValidationError naming the file; without a file (``path``
    None) the error passes unchanged.  A command checks its own options
    before it enters this, so their errors never name the file."""
    try:
        yield
    except (ValidationError, DomainError) as exc:
        if path is None:
            raise
        raise ValidationError(f"result file {path}: {exc}") from exc


def _read_beta(path):
    return _read_result(path, ("beta",),
                        lambda doc: np.asarray(doc["beta"], dtype=float))


def _cmd_solve(args):
    check_tolerance("--gap-tol", args.gap_tol)
    if args.mode == "sda":
        check_count("--iters", args.iters, 1)
        check_count("--seed", args.seed, 0)
    instance = load_instance(args.instance)
    if args.mode == "sda":
        trace = sda_mod.sda_run(instance, args.iters, args.seed)
        result = allocation_from_beta(instance, trace.beta_avg[-1])
        result.iterations = args.iters
        if args.out:
            _write_json(result.to_json(), args.out)
        print(f"sda average after {args.iters} samples, gap {result.gap:.3e}")
        return 0 if result.gap <= args.gap_tol else 2
    try:
        result = solve(instance, SolveConfig(gap_tol=args.gap_tol))
        code = 0
    except NotConverged as exc:
        result = exc.result
        code = 2
    if args.out:
        _write_json(result.to_json(), args.out)
    print(f"gap {result.gap:.3e} after {result.iterations} evaluations")
    return code


def _cmd_verify(args):
    instance = load_instance(args.instance)
    result = _read_result(args.result, ("beta", "u", "u_segments", "intervals"),
                          EquilibriumResult.from_json)
    with _result_values(args.result):
        report = check_equilibrium(instance, result.allocation, result.beta,
                                   tol=args.tol, delta=result.delta)
        fair = fairness(instance, result.allocation, tol=args.tol)
    out = {"kkt": report.to_json(), "fairness": fair.to_json()}
    _write_json(out, args.out)
    ok = report.passed and fair.passed
    print(f"kkt {'pass' if report.passed else 'FAIL'}, "
          f"fairness {'pass' if fair.passed else 'FAIL'} at tol {args.tol:g}")
    return 0 if ok else 2


def _cmd_emit_conic(args):
    instance = load_instance(args.instance)
    program = emit_conic_program(instance)
    _write_json(program.to_json(), args.out)
    counts = program.cone_counts()
    print(f"{program.num_vars} variables, {program.num_rows} rows, "
          f"{program.nonzeros()} nonzeros, {counts['soc3']} soc3, "
          f"{counts['exp3']} exp3 cones")
    return 0


def _cmd_sda(args):
    check_count("--iters", args.iters, 1)       # outside the file-value wrap
    check_count("--seed", args.seed, 0)
    instance = load_instance(args.instance)
    beta_ref = None
    if args.ref:
        beta_ref = _read_beta(args.ref)
    with _result_values(args.ref):
        trace = sda_mod.sda_run(instance, args.iters, args.seed, beta_ref=beta_ref)
    header, rows = trace.csv_rows()
    _write_csv(args.out, header, rows)
    print(f"trace with {len(rows)} checkpoints written")
    return 0


def _cmd_ellipsoid(args):
    instance = load_instance(args.instance)
    res = ellipsoid_solve(instance, args.epsilon, collect_log=bool(args.log))
    if args.log:
        _write_csv(args.log, ["iteration", "feasible", "objective", "cut", "volume_proxy"],
                   [(it, fe, "" if f is None else f, kind, vol)
                    for it, fe, f, kind, vol in res.log])
    if args.out:
        _write_json(res.to_json(), args.out)
    print(f"{res.calls} oracle calls (budget {res.call_budget}), dim {res.dim}, "
          f"certified={res.certified}")
    return 0 if res.certified else 2


def _cmd_oracle(args):
    instance = load_instance(args.instance)
    try:
        res = discretized_oracle(instance, args.cells)
    except NotConverged as exc:
        _write_json(exc.result.to_json(), args.out)
        print(exc)
        return 2
    _write_json(res.to_json(), args.out)
    print(f"proportional response converged in {res.rounds} rounds")
    return 0


def _cmd_sample(args):
    check_count("--seed", args.seed, 0)
    doc = sample_document(args.n, args.k, args.seed, mode=args.mode)
    _write_json(doc, args.out)
    return 0


def _cmd_plot_data(args):
    instance = load_instance(args.instance)
    check_count("--points", args.points, 0)     # outside the file-value wrap
    beta = _read_beta(args.result)
    with _result_values(args.result):
        header, rows = plot_data(instance, beta, num_points=args.points)
    _write_csv(args.out, header, [list(row) for row in rows])
    return 0


def _bench_cell(n, k, seed, gap_tol):
    """(build s, solve s, evaluations, envelope pieces) of the fastest of
    _BENCH_REPEATS build+solve runs of one cell."""
    best = None
    for _ in range(_BENCH_REPEATS):
        t0 = time.perf_counter()
        instance = load_instance(sample_document(n, k, seed))
        t1 = time.perf_counter()
        try:
            result = solve(instance, SolveConfig(gap_tol=gap_tol))
        except NotConverged as exc:
            result = exc.result
        t2 = time.perf_counter()
        if best is None or t2 - t0 < best[0] + best[1]:
            best = (t1 - t0, t2 - t1, result.iterations,
                    result.prices.num_pieces)
    return best


def _cmd_bench(args):
    check_tolerance("--gap-tol", args.gap_tol)
    try:
        n_part, k_part = args.grid.split(":")
        ns = [int(v) for v in n_part.split(",") if v]
        ks = [int(v) for v in k_part.split(",") if v]
    except ValueError as exc:
        raise FisherFairError(f"bad --grid value {args.grid!r}; "
                              "expected N1,N2,..:K1,K2,..") from exc
    try:
        seeds = [int(v) for v in args.seeds.split(",") if v]
    except ValueError as exc:
        raise FisherFairError(f"bad --seeds value {args.seeds!r}; "
                              "expected S1,S2,..") from exc
    for seed in seeds:
        check_count("--seeds", seed, 0)
    cells = sorted({(n, k) for n in ns for k in ks}) if seeds else []
    rows = []
    for n, k in cells:
        samples = [_bench_cell(n, k, s, args.gap_tol) for s in seeds]
        build = np.array([s[0] for s in samples])
        slv = np.array([s[1] for s in samples])
        total = build + slv
        rows.append([n, k, len(samples),
                     float(build.mean()), _stderr(build),
                     float(slv.mean()), _stderr(slv),
                     float(total.mean()), _stderr(total),
                     sum(s[2] for s in samples), sum(s[3] for s in samples)])
    _write_csv(args.out, ["n", "k", "samples", "build_mean", "build_stderr",
                          "solve_mean", "solve_stderr", "total_mean",
                          "total_stderr", "evals", "pieces"], rows)
    return 0


def _stderr(a):
    if a.size <= 1:
        return 0.0
    return float(a.std(ddof=1) / math.sqrt(a.size))


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, like every input error;
    exit code 2 means a solver finished without a certificate."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="fisher-fair",
        description="Market equilibria and fair divisions of [0, 1] under "
                    "piecewise-linear valuations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute a certified equilibrium")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", choices=["dual", "sda"], default="dual")
    p.add_argument("--out", default=None, help="result JSON path")
    p.add_argument("--gap-tol", type=float, default=1e-8, dest="gap_tol")
    p.add_argument("--iters", type=int, default=100000,
                   help="samples for --mode sda")
    p.add_argument("--seed", type=int, default=0, help="seed for --mode sda")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="KKT and fairness report for a result file")
    p.add_argument("--instance", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("emit-conic", help="write the conic program as JSON")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_emit_conic)

    p = sub.add_parser("sda", help="stochastic dual averaging trace")
    p.add_argument("--instance", required=True)
    p.add_argument("--iters", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ref", default=None,
                   help="result JSON supplying a reference beta for sqerr")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_sda)

    p = sub.add_parser("ellipsoid", help="run the ellipsoid solver")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--out", default=None)
    p.add_argument("--log", default=None, help="diagnostic CSV path")
    p.set_defaults(func=_cmd_ellipsoid)

    p = sub.add_parser("oracle", help="discretized proportional-response check")
    p.add_argument("--instance", required=True)
    p.add_argument("--cells", type=int, default=2000)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sample-instance", help="generate a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["linear", "quasilinear"], default="linear")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("plot-data", help="envelope and scaled valuations as CSV")
    p.add_argument("--instance", required=True)
    p.add_argument("--result", required=True, help="result JSON with beta")
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_plot_data)

    p = sub.add_parser("bench", help="timing table over an n x k grid")
    p.add_argument("--grid", required=True, help="N1,N2,..:K1,K2,..")
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8")
    p.add_argument("--gap-tol", type=float, default=1e-6, dest="gap_tol")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FisherFairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON input ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
