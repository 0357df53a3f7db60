import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisher_fair import (
    Interval,
    LinearPiece,
    ValidationError,
    build_instance,
    cut,
    eval_interval,
    load_instance,
    merge_valuations,
)
from fisher_fair.errors import UnreachableUtility
from fisher_fair.verification import _values
from tests.conftest import example5_document, example6_document


def test_eval_normalized_line_total():
    piece = LinearPiece(c=-0.4, d=1.2)
    assert eval_interval(piece, Interval(0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_eval_zero_length_interval():
    piece = LinearPiece(c=0.7, d=0.3)
    assert eval_interval(piece, Interval(0.4, 0.4)) == 0.0


def test_eval_steep_line_prefix():
    piece = LinearPiece(c=-1.8, d=1.9)
    assert eval_interval(piece, Interval(0.0, 0.3713)) == pytest.approx(0.5814, abs=1e-3)


def test_cut_recovers_known_breakpoint():
    piece = LinearPiece(c=-1.8, d=1.9)
    assert cut(piece, 0.0, 0.5814, 1.0) == pytest.approx(0.3713, abs=1e-3)


def test_cut_zero_utility_returns_start():
    piece = LinearPiece(c=0.5, d=0.2)
    assert cut(piece, 0.37, 0.0, 1.0) == 0.37


def test_cut_constant_density_is_linear():
    piece = LinearPiece(c=0.0, d=2.0)
    assert cut(piece, 0.25, 0.5, 1.0) == pytest.approx(0.5, abs=1e-14)


def test_cut_beyond_capacity_raises():
    piece = LinearPiece(c=0.0, d=1.0)
    with pytest.raises(UnreachableUtility):
        cut(piece, 0.5, 0.6, 1.0)


def test_cut_degenerate_piece_raises():
    from fisher_fair.errors import DegeneratePiece
    # 1e-6 is within NONNEG_TOL of the zero piece's remaining value, so the
    # capacity check passes and the degenerate piece is reached
    with pytest.raises((DegeneratePiece, UnreachableUtility)):
        cut(LinearPiece(c=0.0, d=0.0), 0.0, 1e-6, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    y0=st.floats(0.0, 2.0),
    y1=st.floats(0.0, 2.0),
    a=st.floats(0.0, 1.0),
    frac=st.floats(0.0, 1.0),
)
def test_cut_eval_roundtrip(y0, y1, a, frac):
    piece = LinearPiece(c=y1 - y0, d=y0)
    total = eval_interval(piece, Interval(a, 1.0))
    if total < 1e-9:
        return
    u0 = frac * total
    b = cut(piece, a, u0, 1.0)
    assert eval_interval(piece, Interval(a, b)) == pytest.approx(u0, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    y0=st.floats(0.0, 2.0),
    y1=st.floats(0.0, 2.0),
    pts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_eval_additive_and_monotone(y0, y1, pts):
    piece = LinearPiece(c=y1 - y0, d=y0)
    a, b, c = sorted(pts)
    left = eval_interval(piece, Interval(a, b))
    right = eval_interval(piece, Interval(b, c))
    whole = eval_interval(piece, Interval(a, c))
    assert left + right == pytest.approx(whole, abs=1e-12)
    assert -1e-12 <= left <= whole + 1e-12


def test_load_example6_shape(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(example6_document()))
    inst = load_instance(path)
    assert inst.n == 4
    assert inst.num_segments == 3
    assert inst.budgets.sum() == pytest.approx(1.0, abs=1e-12)
    # every valuation integrates to one after load-time normalization
    assert np.allclose(inst.segment_values().sum(axis=1), 1.0, atol=1e-12)


def test_load_trivial_single_buyer():
    inst = load_instance({"mode": "linear", "budgets": [1.0],
                          "breakpoints": [0.0, 1.0], "c": [[0.0]], "d": [[1.0]]})
    assert inst.n == 1
    assert inst.total_values[0] == pytest.approx(1.0)


def test_load_negative_density_rejected():
    doc = {"mode": "linear", "budgets": [1.0], "breakpoints": [0.0, 1.0],
           "c": [[2.0]], "d": [[-0.5]]}  # v(0) = -0.5
    with pytest.raises(ValidationError, match="negative density"):
        load_instance(doc)


def test_load_zero_value_buyer_rejected():
    doc = {"mode": "linear", "budgets": [0.5, 0.5], "breakpoints": [0.0, 1.0],
           "c": [[0.0], [0.0]], "d": [[1.0], [0.0]]}
    with pytest.raises(ValidationError, match="zero total value"):
        load_instance(doc)


def test_load_nonpositive_budget_rejected():
    doc = example5_document()
    doc["budgets"][2] = 0.0
    with pytest.raises(ValidationError, match="budget"):
        load_instance(doc)


def test_load_unsorted_grid_rejected():
    doc = example6_document()
    doc["breakpoints"] = [0.0, 0.8, 0.3, 1.0]
    with pytest.raises(ValidationError):
        load_instance(doc)


@pytest.mark.parametrize("breakpoints, c, d, name", [
    ([0.0, 0.5, float("nan"), 1.0], [[0.0] * 3] * 2, [[1, 2, 3], [3, 2, 1]],
     "breakpoints"),
    ([0.0, 1.0], [[float("nan")], [0.0]], [[1.0], [1.0]], "c"),
    ([0.0, 1.0], [[0.0], [0.0]], [[float("inf")], [1.0]], "d"),
], ids=["breakpoints-nan", "c-nan", "d-inf"])
def test_load_non_finite_array_rejected(breakpoints, c, d, name):
    with pytest.raises(ValidationError, match=f"^{name} must be finite"):
        build_instance([1.0, 1.0], breakpoints, c, d)


def test_normalization_idempotent():
    doc = example6_document()
    # scale budgets and one valuation arbitrarily; loading must normalize
    doc["budgets"] = [b * 7.5 for b in doc["budgets"]]
    doc["c"][2] = [v * 3.0 for v in doc["c"][2]]
    doc["d"][2] = [v * 3.0 for v in doc["d"][2]]
    once = load_instance(doc)
    twice = load_instance({"mode": once.mode, "budgets": once.budgets.tolist(),
                           "breakpoints": once.grid.points.tolist(),
                           "c": once.c.tolist(), "d": once.d.tolist()})
    assert np.allclose(once.budgets, twice.budgets, atol=1e-14)
    assert np.allclose(once.c, twice.c, atol=1e-12)
    assert np.allclose(once.d, twice.d, atol=1e-12)


def test_duplicate_breakpoints_merged():
    doc = {"mode": "linear", "budgets": [1.0],
           "breakpoints": [0.0, 0.5, 0.5 + 1e-15, 1.0],
           "c": [[0.0, 0.0, 0.0]], "d": [[1.0, 9.9, 1.0]]}
    inst = load_instance(doc)
    assert inst.num_segments == 2
    assert inst.grid.points.tolist() == [0.0, 0.5, 1.0]


def test_merge_valuations_unifies_grids():
    pts, c, d = merge_valuations([
        ([0.0, 0.5, 1.0], [0.0, 0.0], [1.0, 3.0]),
        ([0.0, 0.25, 1.0], [1.0, 0.0], [0.0, 2.0]),
    ])
    assert pts.tolist() == [0.0, 0.25, 0.5, 1.0]
    # buyer 0 keeps its first-piece coefficients on both split halves
    assert d[0].tolist() == [1.0, 1.0, 3.0]
    assert d[1].tolist() == [0.0, 2.0, 2.0]
    inst = build_instance([0.5, 0.5], pts, c, d)
    assert inst.num_segments == 3


def test_quasilinear_load_scales_jointly():
    doc = example6_document()
    doc["mode"] = "quasilinear"
    doc["budgets"] = [2.0, 1.0, 1.0, 1.0]
    inst = load_instance(doc)
    assert inst.budgets.sum() == pytest.approx(1.0)
    # valuations divided by the same raw budget total, not individually
    assert np.allclose(inst.c, np.asarray(doc["c"]) / 5.0)
    assert np.allclose(inst.total_values,
                       np.asarray([sum(
                           (doc["c"][i][k] / 2 * (doc["breakpoints"][k + 1] ** 2
                                                  - doc["breakpoints"][k] ** 2)
                            + doc["d"][i][k] * (doc["breakpoints"][k + 1]
                                                - doc["breakpoints"][k]))
                           for k in range(3)) for i in range(4)]) / 5.0)


def test_buyer_value_spans_segments(example6):
    # one interval [0.2, 0.9] owned by buyer 0: column 0 of <v_i, x_j>
    values = _values(example6, np.array([0]), np.array([0.2]), np.array([0.9]))
    for i in range(example6.n):
        direct = values[i, 0]
        theta = np.linspace(0.2, 0.9, 200001)
        approx = np.trapezoid(example6.values_at(theta)[i], theta)
        # trapezoid carries O(h) error at the density jumps between segments
        assert direct == pytest.approx(approx, abs=1e-5)
