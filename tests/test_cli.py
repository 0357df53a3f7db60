import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from fisher_fair import cli, dual_solver, verification
from fisher_fair.cli import build_parser, main
from fisher_fair.dual_solver import SolveConfig
from fisher_fair.errors import NotConverged
from fisher_fair.sampling import sample_document
from tests.conftest import example5_document


@pytest.fixture
def ex5_file(tmp_path):
    path = tmp_path / "ex5.json"
    path.write_text(json.dumps(example5_document()))
    return str(path)


def test_solve_verify_roundtrip(tmp_path, ex5_file):
    out = str(tmp_path / "res.json")
    assert main(["solve", "--instance", ex5_file, "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["gap"] <= 1e-8
    report = str(tmp_path / "rep.json")
    assert main(["verify", "--instance", ex5_file, "--result", out,
                 "--out", report]) == 0
    rep = json.loads(open(report).read())
    assert rep["kkt"]["pass"] and rep["fairness"]["pass"]


def test_solve_malformed_file_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"mode\": \"linear\", \"budgets\": [1.0]}")
    assert main(["solve", "--instance", str(bad)]) == 1
    bad.write_text("not json at all")
    assert main(["solve", "--instance", str(bad)]) == 1
    assert main(["solve", "--instance", str(tmp_path / "missing.json")]) == 1


def test_solve_invalid_instance_names_invariant(tmp_path, capsys):
    doc = example5_document()
    doc["budgets"][0] = -1.0
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert "budget" in err


def test_sample_instance_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["sample-instance", "--n", "4", "--k", "3", "--seed", "7",
                 "--out", str(a)]) == 0
    assert main(["sample-instance", "--n", "4", "--k", "3", "--seed", "7",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert len(doc["budgets"]) == 4
    assert len(doc["breakpoints"]) == 4


def test_sample_instance_loads_and_solves(tmp_path):
    inst_path = tmp_path / "inst.json"
    res_path = tmp_path / "res.json"
    assert main(["sample-instance", "--n", "5", "--k", "4", "--seed", "3",
                 "--out", str(inst_path)]) == 0
    assert main(["solve", "--instance", str(inst_path), "--out",
                 str(res_path)]) == 0


def test_solve_mode_sda_and_exit_codes(tmp_path, ex5_file):
    out = str(tmp_path / "sda.json")
    code = main(["solve", "--instance", ex5_file, "--mode", "sda",
                 "--iters", "20000", "--seed", "5", "--out", out,
                 "--gap-tol", "1e-3"])
    assert code in (0, 2)
    doc = json.loads(open(out).read())
    assert len(doc["beta"]) == 4


def test_solve_mode_sda_quasilinear_gap_finite(tmp_path):
    # 2000 samples leave some of the 40 buyers winning nothing at the
    # average; in quasilinear mode each keeps its budget, so the gap is finite
    inst_path = str(tmp_path / "ql.json")
    out = str(tmp_path / "sda.json")
    assert main(["sample-instance", "--n", "40", "--k", "1", "--seed", "7",
                 "--mode", "quasilinear", "--out", inst_path]) == 0
    assert main(["solve", "--instance", inst_path, "--mode", "sda",
                 "--iters", "2000", "--seed", "1", "--out", out]) == 2
    doc = json.loads(open(out).read())
    assert min(map(sum, doc["u_segments"])) == 0.0
    assert np.isfinite(doc["gap"]) and doc["gap"] >= 0.0


def test_ellipsoid_command_cross_checks_dual(tmp_path):
    inst_path = tmp_path / "i32.json"
    assert main(["sample-instance", "--n", "3", "--k", "2", "--seed", "11",
                 "--out", str(inst_path)]) == 0
    dual_out = str(tmp_path / "dual.json")
    ell_out = str(tmp_path / "ell.json")
    assert main(["solve", "--instance", str(inst_path), "--out", dual_out]) == 0
    assert main(["ellipsoid", "--instance", str(inst_path), "--epsilon", "1e-4",
                 "--out", ell_out]) == 0
    ud = np.asarray(json.loads(open(dual_out).read())["u"])
    ue = np.asarray(json.loads(open(ell_out).read())["u"])
    assert np.abs(ud - ue).max() <= 5e-4


def test_ellipsoid_result_passes_verify(tmp_path):
    inst_path = tmp_path / "inst.json"
    assert main(["sample-instance", "--n", "3", "--k", "2", "--seed", "11",
                 "--out", str(inst_path)]) == 0
    ell_out = tmp_path / "ell.json"
    assert main(["ellipsoid", "--instance", str(inst_path), "--epsilon", "1e-4",
                 "--out", str(ell_out)]) == 0
    report = tmp_path / "rep.json"
    assert main(["verify", "--instance", str(inst_path), "--result", str(ell_out),
                 "--tol", "1e-3", "--out", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["kkt"]["pass"] and rep["fairness"]["pass"]


def test_segment_no_buyer_values_commands(tmp_path):
    # [0, 0.5] is worth nothing to either buyer
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "mode": "linear", "budgets": [0.5, 0.5], "breakpoints": [0, 0.5, 1],
        "c": [[0, 0], [0, 0]], "d": [[0, 1], [0, 2]]}))
    out = tmp_path / "ell.json"
    assert main(["ellipsoid", "--instance", str(inst_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["leftover"] == [[0.0, 0.5]]
    assert main(["emit-conic", "--instance", str(inst_path),
                 "--out", str(tmp_path / "conic.json")]) == 0


@pytest.mark.parametrize("argv", [
    ["bench", "--grid", "3:2", "--seeds", "1", "--gap-tol", "abc"],
    ["solve", "--instance", "x.json", "--mode", "bogus"],
], ids=["bench-gap-tol", "solve-mode"])
def test_usage_errors_exit_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_emit_conic_and_oracle(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(["sample-instance", "--n", "3", "--k", "2", "--seed", "2",
          "--out", str(inst_path)])
    conic = tmp_path / "conic.json"
    assert main(["emit-conic", "--instance", str(inst_path),
                 "--out", str(conic)]) == 0
    doc = json.loads(conic.read_text())
    assert set(doc) == {"objective", "rows", "cones", "var_names", "meta"}
    orc = tmp_path / "orc.json"
    assert main(["oracle", "--instance", str(inst_path), "--cells", "300",
                 "--out", str(orc)]) == 0
    assert len(json.loads(orc.read_text())["beta"]) == 3


def test_sda_trace_csv(tmp_path, ex5_file):
    res = tmp_path / "res.json"
    main(["solve", "--instance", ex5_file, "--out", str(res)])
    trace = tmp_path / "trace.csv"
    assert main(["sda", "--instance", ex5_file, "--iters", "4096",
                 "--seed", "1", "--ref", str(res), "--out", str(trace)]) == 0
    rows = list(csv.reader(open(trace)))
    assert rows[0][0] == "t"
    assert rows[0][-1] == "sqerr"
    assert int(rows[-1][0]) == 4096


def test_plot_data_csv(tmp_path, ex5_file):
    res = tmp_path / "res.json"
    main(["solve", "--instance", ex5_file, "--out", str(res)])
    plot = tmp_path / "plot.csv"
    assert main(["plot-data", "--instance", ex5_file, "--result", str(res),
                 "--points", "200", "--out", str(plot)]) == 0
    rows = list(csv.reader(open(plot)))
    assert rows[0][:2] == ["theta", "p_star"]
    data = np.asarray(rows[1:], dtype=float)
    # envelope column is the max of the scaled valuation columns
    assert np.allclose(data[:, 1], data[:, 2:].max(axis=1), atol=1e-10)


def test_bench_csv_shape(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--grid", "3:2", "--seeds", "1,2,3",
                 "--gap-tol", "1e-6", "--out", str(out)]) == 0
    rows = list(csv.reader(open(out)))
    assert rows[0][:3] == ["n", "k", "samples"]
    assert len(rows) == 2
    assert rows[1][:3] == ["3", "2", "3"]


def test_bench_work_columns(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--grid", "3,4:2", "--seeds", "1,2",
                 "--out", str(out)]) == 0
    rows = list(csv.reader(open(out)))
    assert rows[0][-2:] == ["evals", "pieces"]
    assert len(rows) == 3
    for row in rows[1:]:
        for value in row[-2:]:
            assert value.isdigit() and int(value) > 0


def test_bench_empty_grid(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["bench", "--grid", ":", "--seeds", "1", "--out", str(out)]) == 0
    rows = list(csv.reader(open(out)))
    assert len(rows) == 1  # header only


def test_ellipsoid_command_with_log(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["sample-instance", "--n", "2", "--k", "2", "--seed", "4",
          "--out", str(inst_path)])
    log = tmp_path / "log.csv"
    out = tmp_path / "eres.json"
    capsys.readouterr()
    assert main(["ellipsoid", "--instance", str(inst_path), "--epsilon", "1e-3",
                 "--out", str(out), "--log", str(log)]) == 0
    rows = list(csv.reader(open(log)))
    assert rows[0] == ["iteration", "feasible", "objective", "cut", "volume_proxy"]
    assert len(rows) > 10
    # 2 buyers on 2 segments: y = (uhat, s, t) has 2 * (2 + 1 + 1) coordinates
    doc = json.loads(out.read_text())
    assert doc["dim"] == 8
    printed = capsys.readouterr().out
    assert f"(budget {doc['call_budget']}), dim 8, certified=True" in printed


def test_verify_flags_bad_result(tmp_path, ex5_file):
    out = tmp_path / "res.json"
    main(["solve", "--instance", ex5_file, "--out", str(out)])
    doc = json.loads(open(out).read())
    lo, hi = doc["intervals"][0][0]
    doc["intervals"][0] = [[lo, 0.5 * (lo + hi)]]  # starved buyer, no overlap
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--instance", ex5_file, "--result", str(bad),
                 "--out", str(tmp_path / "rep.json")]) == 2


@pytest.mark.parametrize("doc", [{"beta": [0.5]}, example5_document()],
                         ids=["missing-u", "instance-as-result"])
def test_verify_result_missing_keys_exits_one(tmp_path, ex5_file, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--instance", ex5_file, "--result", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


WRONG_TYPES = {
    "beta-string": {"beta": "x", "u": [1], "u_segments": [[1]], "intervals": []},
    "beta-length": {"beta": [0.5, 0.5], "u": [1], "u_segments": [[1]],
                    "intervals": [[], [], [], []]},
    "interval-string": {"beta": [0.5] * 4, "u": [1], "u_segments": [[1]],
                        "intervals": [[["a", "b"]], [], [], []]},
    "intervals-count": {"beta": [0.5] * 4, "u": [1], "u_segments": [[1]],
                        "intervals": []},
    "beta-nan": {"beta": [0.5, float("nan"), 0.5, 0.5], "u": [1],
                 "u_segments": [[1]], "intervals": [[], [], [], []]},
    "beta-inf": {"beta": [0.5, 0.5, float("inf"), 0.5], "u": [1],
                 "u_segments": [[1]], "intervals": [[], [], [], []]},
}


@pytest.mark.parametrize("doc", list(WRONG_TYPES.values()), ids=list(WRONG_TYPES))
def test_verify_result_wrong_types_exit_one(tmp_path, ex5_file, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--instance", ex5_file, "--result", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["x", [0.5, 0.5], [[0.5], 0.5]],
                         ids=["string", "length", "ragged"])
def test_sda_ref_wrong_types_exit_one(tmp_path, ex5_file, capsys, beta):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"beta": beta}))
    assert main(["sda", "--instance", ex5_file, "--iters", "10",
                 "--ref", str(bad), "--out", str(tmp_path / "t.csv")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["x", [0.5, 0.5], [[0.5], 0.5],
                                  [0.5, float("nan"), 0.5, 0.5],
                                  [0.5, 0.5, float("inf"), 0.5]],
                         ids=["string", "length", "ragged", "nan", "inf"])
def test_plot_data_result_wrong_types_exit_one(tmp_path, ex5_file, capsys, beta):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"beta": beta}))
    assert main(["plot-data", "--instance", ex5_file, "--result", str(bad),
                 "--out", str(tmp_path / "p.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def _three_buyer_result(tmp_path):
    """(instance path, solved result document) of a 3-buyer instance."""
    inst = tmp_path / "three.json"
    inst.write_text(json.dumps(sample_document(3, 2, 5)))
    res = tmp_path / "res.json"
    assert main(["solve", "--instance", str(inst), "--out", str(res)]) == 0
    return str(inst), json.loads(res.read_text())


# values the result-file parser accepts and the library rejects
LIBRARY_REJECTS = {
    "verify-beta-length": ("verify", {"beta": [0.5, 0.5]}),
    "verify-delta-length": ("verify", {"delta": [0.1]}),
    "verify-intervals-count": ("verify", {"intervals": [[], []]}),
    "plot-data-beta-length": ("plot-data", {"beta": [0.5, 0.5]}),
    "sda-beta-length": ("sda", {"beta": [0.5, 0.5]}),
}


@pytest.mark.parametrize("command, change", list(LIBRARY_REJECTS.values()),
                         ids=list(LIBRARY_REJECTS))
def test_result_value_rejected_names_file(tmp_path, capsys, command, change):
    inst, doc = _three_buyer_result(tmp_path)
    bad = tmp_path / "bad_values.json"
    bad.write_text(json.dumps({**doc, **change}))
    flag = "--ref" if command == "sda" else "--result"
    argv = [command, "--instance", inst, flag, str(bad),
            "--out", str(tmp_path / "out.txt")]
    if command == "sda":
        argv += ["--iters", "10"]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: result file {bad}: ")


@pytest.mark.parametrize("argv, message", [
    (["plot-data", "--points", "-1", "--result", "RES"],
     "--points must be an integer >= 0, got -1"),
    (["sda", "--iters", "0", "--ref", "RES"], "--iters must be an integer >= 1, got 0"),
    (["sda", "--iters", "0"], "--iters must be an integer >= 1, got 0")],
    ids=["plot-data", "sda-ref", "sda"])
def test_bad_option_not_blamed_on_result_file(tmp_path, capsys, argv, message):
    inst, _ = _three_buyer_result(tmp_path)
    argv = [str(tmp_path / "res.json") if arg == "RES" else arg for arg in argv]
    capsys.readouterr()
    assert main(argv + ["--instance", inst, "--out", str(tmp_path / "out.txt")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["solve"], ["solve", "--mode", "sda"], ["bench", "--grid", "3:2", "--seeds", "1"]],
    ids=["solve", "solve-sda", "bench"])
@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_bad_gap_tol_exits_one_before_loading(tmp_path, capsys, monkeypatch,
                                              argv, value):
    # the option is checked before any instance is built or loaded, so a
    # missing instance file is never reached
    def never(*args, **kwargs):
        raise AssertionError("built an instance")

    monkeypatch.setattr(cli, "load_instance", never)
    if argv[0] == "solve":
        argv = argv + ["--instance", str(tmp_path / "missing.json")]
    capsys.readouterr()
    assert main(argv + ["--gap-tol", value]) == 1
    assert capsys.readouterr().err == (
        f"error: --gap-tol must be a finite number >= 0, got {float(value)!r}\n")


@pytest.mark.parametrize("argv, message", [
    (["solve", "--mode", "sda", "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
    (["solve", "--mode", "sda", "--iters", "0"], "--iters must be an integer >= 1, got 0"),
    (["sda", "--seed", "-2"], "--seed must be an integer >= 0, got -2"),
    (["sda", "--iters", "0"], "--iters must be an integer >= 1, got 0"),
    (["sample-instance", "--n", "2", "--k", "2", "--seed", "-1"],
     "--seed must be an integer >= 0, got -1"),
    (["bench", "--grid", "2:2", "--seeds=-1"], "--seeds must be an integer >= 0, got -1"),
    (["bench", "--grid", "2:2", "--seeds", "1,-3"],
     "--seeds must be an integer >= 0, got -3")],
    ids=["solve-sda-seed", "solve-sda-iters", "sda-seed", "sda-iters", "sample-seed",
         "bench-seed", "bench-second-seed"])
def test_bad_seed_or_iters_exits_one_before_loading(tmp_path, capsys, monkeypatch,
                                                   argv, message):
    def never(*args, **kwargs):
        raise AssertionError("built an instance")

    monkeypatch.setattr(cli, "load_instance", never)
    monkeypatch.setattr(cli, "sample_document", never)
    if argv[0] in ("solve", "sda"):
        argv = argv + ["--instance", str(tmp_path / "missing.json")]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_solve_dual_ignores_sda_options(ex5_file):
    assert main(["solve", "--instance", ex5_file, "--iters", "0", "--seed", "-1"]) == 0


@pytest.mark.parametrize("flag", ["--instance", "--out"])
def test_solve_directory_path_exits_one(tmp_path, ex5_file, capsys, flag):
    argv = {"--instance": ex5_file, "--out": str(tmp_path / "res.json")}
    argv[flag] = str(tmp_path)
    assert main(["solve", *[v for pair in argv.items() for v in pair]]) == 1
    assert "error:" in capsys.readouterr().err


def test_plot_data_negative_points_exits_one(tmp_path, ex5_file, capsys):
    res = tmp_path / "res.json"
    main(["solve", "--instance", ex5_file, "--out", str(res)])
    plot = tmp_path / "plot.csv"
    assert main(["plot-data", "--instance", ex5_file, "--result", str(res),
                 "--points", "-1", "--out", str(plot)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["plot-data", "--instance", ex5_file, "--result", str(res),
                 "--points", "0", "--out", str(plot)]) == 0


def test_solve_non_finite_breakpoint_exits_one(tmp_path, capsys):
    # json reads NaN, which the grid dedup would drop with every segment after it
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"budgets": [1.0, 1.0],
                                "breakpoints": [0.0, 0.5, float("nan"), 1.0],
                                "c": [[0.0] * 3] * 2, "d": [[1, 2, 3], [3, 2, 1]]}))
    out = tmp_path / "res.json"
    assert main(["solve", "--instance", str(path), "--out", str(out)]) == 1
    assert "breakpoints must be finite" in capsys.readouterr().err
    assert not out.exists()


def _capped_solve(monkeypatch):
    """Make the CLI's dual solve stop after one evaluation; returns the list
    that collects the NotConverged each call raises."""
    raised = []

    def capped(instance, config):
        try:
            return dual_solver.solve(instance, SolveConfig(max_iter=1,
                                                           gap_tol=config.gap_tol))
        except NotConverged as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(cli, "solve", capped)
    return raised


def test_solve_not_converged_exits_two(tmp_path, ex5_file, monkeypatch):
    raised = _capped_solve(monkeypatch)
    out = tmp_path / "res.json"
    assert main(["solve", "--instance", ex5_file, "--out", str(out)]) == 2
    assert len(raised) == 1
    doc = json.loads(out.read_text())
    assert doc["gap"] == raised[0].gap
    assert doc["iterations"] == 1
    assert doc["beta"] == raised[0].result.beta.tolist()


def test_bench_keeps_not_converged_cells(tmp_path, monkeypatch):
    raised = _capped_solve(monkeypatch)
    out = tmp_path / "bench.csv"
    assert main(["bench", "--grid", "3:2", "--seeds", "1,2",
                 "--out", str(out)]) == 0
    assert raised
    rows = list(csv.reader(open(out)))
    assert len(rows) == 2
    assert dict(zip(rows[0], rows[1]))["evals"] == "2"


def test_oracle_not_converged_exits_two(tmp_path, monkeypatch, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(sample_document(3, 2, 5)))
    monkeypatch.setattr(verification, "ORACLE_MAX_ROUNDS", 64)
    out = tmp_path / "orc.json"
    assert main(["oracle", "--instance", str(inst_path), "--out", str(out)]) == 2
    assert "after 64 rounds" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["rounds"] == 64 and doc["cells"] == 2000
    assert len(doc["beta"]) == len(doc["u"]) == 3


def test_bench_bad_seeds_exits_one(capsys):
    assert main(["bench", "--grid", "3:2", "--seeds", "1,x"]) == 1
    assert "error:" in capsys.readouterr().err


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("fisher-fair ")]
    assert commands
    parser = build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])
