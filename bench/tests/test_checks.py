"""Each independent check accepts a correct output and rejects a corrupted one.

The correct outputs are built from the mathematics with the checks' own
field arithmetic, not by running eamod, so these tests take well under
a second:

    python3 -m pytest bench/tests -q
"""

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402

F27_IRR = (1, 2, 0, 1)  # x^3 + 2x + 1
F9_IRR = (2, 2, 1)  # x^2 + 2x + 2


@pytest.fixture
def sweep_out():
    field = checks.Fq(3, F27_IRR)
    pts = field.projective_points(3)
    on = [pt for pt in pts if field.pk(pt) == 0]
    return {
        "dim": 21,
        "points": [[field.coeffs(c) for c in pt] for pt in pts],
        "types": [[3, 3, 4] if pt in on else [0, 0, 7] for pt in pts],
        "variety": [[field.coeffs(c) for c in pt] for pt in on],
        "verdict": "Equal",
    }


def sweep_problems(out):
    return checks.check_sweep(out, 3, 3, 2, F27_IRR)


def test_sweep_accepts_correct_output(sweep_out):
    assert sweep_problems(sweep_out) == []


def test_sweep_rejects_wrong_dim(sweep_out):
    sweep_out["dim"] = 20
    assert any("C(7,2)" in p for p in sweep_problems(sweep_out))


def test_sweep_rejects_missing_point(sweep_out):
    del sweep_out["points"][-1]
    del sweep_out["types"][-1]
    assert any("757" in p for p in sweep_problems(sweep_out))


def test_sweep_rejects_extra_variety_point(sweep_out):
    free_pt = next(
        pt for pt, t in zip(sweep_out["points"], sweep_out["types"]) if t == [0, 0, 7]
    )
    sweep_out["variety"].append(free_pt)
    assert any("V(p_3)" in p for p in sweep_problems(sweep_out))


def test_sweep_rejects_wrong_free_type(sweep_out):
    i = sweep_out["types"].index([0, 0, 7])
    sweep_out["types"][i] = [0, 3, 5]
    assert any("free point" in p for p in sweep_problems(sweep_out))


def test_sweep_rejects_free_type_on_variety(sweep_out):
    i = sweep_out["types"].index([3, 3, 4])
    sweep_out["types"][i] = [0, 0, 7]
    assert any("non-free point" in p for p in sweep_problems(sweep_out))


def test_sweep_rejects_wrong_verdict(sweep_out):
    sweep_out["verdict"] = "Superset"
    assert any("comparison" in p for p in sweep_problems(sweep_out))


@pytest.fixture
def jordan_out():
    return {
        "dim": 715,
        "queries": [
            {"point": [0, 2, 0], "type": [70, 0, 0, 0, 129], "free": False},
            {"point": [1, 2, 3], "type": [0, 0, 0, 0, 143], "free": True},
        ],
    }


def jordan_problems(out):
    return checks.check_jordan(out, 5, 3, 4)


def test_jordan_accepts_correct_output(jordan_out):
    assert jordan_problems(jordan_out) == []


def test_jordan_rejects_wrong_dim(jordan_out):
    jordan_out["dim"] = 714
    assert any("C(13,4)" in p for p in jordan_problems(jordan_out))


def test_jordan_rejects_wrong_off_variety_type(jordan_out):
    jordan_out["queries"][1]["type"] = [70, 0, 0, 0, 129]
    assert any("off-variety" in p for p in jordan_problems(jordan_out))


def test_jordan_rejects_free_axis_point(jordan_out):
    jordan_out["queries"][0]["free"] = True
    assert any("reported free" in p for p in jordan_problems(jordan_out))


def test_jordan_rejects_wrong_total(jordan_out):
    jordan_out["queries"][0]["type"] = [69, 0, 0, 0, 129]
    assert any("does not total" in p for p in jordan_problems(jordan_out))


def _line_module(field, direction):
    """X_1 = -b J, X_2 = a J on F^3: not free exactly on the line through (a, b)."""
    a, b = (field.code(c) for c in direction)
    shift = [[1 if i == j + 1 else 0 for j in range(3)] for i in range(3)]
    gens = []
    for s in (field.neg(b), a):
        gens.append([[field.coeffs(field.mul(s, v)) for v in row] for row in shift])
    return gens


@pytest.fixture
def decompose_case():
    field = checks.Fq(3, F9_IRR)
    directions = [[field.coeffs(1), field.coeffs(c)] for c in range(9)]
    directions.append([field.coeffs(0), field.coeffs(1)])
    out = {"status": "decomposed", "summands": [_line_module(field, d) for d in directions]}
    return out, directions


def decompose_problems(out, directions):
    return checks.check_decompose(out, 3, F9_IRR, directions)


def test_decompose_accepts_correct_output(decompose_case):
    assert decompose_problems(*decompose_case) == []


def test_decompose_rejects_missing_summand(decompose_case):
    out, directions = decompose_case
    out["summands"].pop()
    assert any("9 summands" in p for p in decompose_problems(out, directions))


def test_decompose_rejects_wrong_dimension(decompose_case):
    out, directions = decompose_case
    out["summands"][0] = [[row[:2] for row in g[:2]] for g in out["summands"][0]]
    assert any("is not two 3x3" in p for p in decompose_problems(out, directions))


def test_decompose_rejects_invalid_summand(decompose_case):
    out, directions = decompose_case
    out["summands"][4][0][0][0] = (1, 0)  # X_1 gains a diagonal 1: no longer nilpotent
    assert any("X^3 != 0" in p for p in decompose_problems(out, directions))


def test_decompose_rejects_summand_without_line(decompose_case):
    out, directions = decompose_case
    zero = [[(0, 0)] * 3 for _ in range(3)]
    out["summands"][2] = [zero, copy.deepcopy(zero)]
    assert any("10 points" in p for p in decompose_problems(out, directions))


def test_decompose_rejects_repeated_line(decompose_case):
    out, directions = decompose_case
    out["summands"][3] = copy.deepcopy(out["summands"][5])
    assert any("share a line" in p for p in decompose_problems(out, directions))


def test_decompose_rejects_lines_not_built_from(decompose_case):
    out, directions = decompose_case
    field = checks.Fq(3, F9_IRR)
    # summands claim the ten lines, but the module was built from a different tenth direction
    directions = directions[:-1] + [[field.coeffs(1), field.coeffs(1)]]
    assert any("directions" in p for p in decompose_problems(out, directions))


def test_decompose_rejects_wrong_status(decompose_case):
    out, directions = decompose_case
    out["status"] = "no_split_found"
    assert any("status" in p for p in decompose_problems(out, directions))
