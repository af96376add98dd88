"""Report emission: one walk that converts, checks and formats, against the two-pass route in oracles."""

import json
import math
import os
from enum import Enum, IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fisherflow.cli
import oracles
from fisherflow import NumericalAccuracyError
from fisherflow.cli import _report_text, main

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
WITNESS = os.path.join(SCENARIO_DIR, "counterexample_witness.json")


class Colour(Enum):
    RED = "réd"
    BLUE = 2


class Level(IntEnum):
    LOW = -1
    HIGH = 7


class Tag(str, Enum):
    PLAIN = "plain"
    MARKED = "märked\n"


class Weight(float, Enum):
    LIGHT = 0.1
    HEAVY = 1e300


DTYPES = (
    "bool", "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64",
    "float16", "float32", "float64",
)

ARRAYS = st.sampled_from(DTYPES).flatmap(
    lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
)

NUMPY_SCALARS = st.sampled_from(DTYPES).flatmap(
    lambda dtype: hnp.from_dtype(np.dtype(dtype)).map(np.dtype(dtype).type)
)

LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=5)
    | st.sampled_from([*Colour, *Level, *Tag, *Weight])
    | NUMPY_SCALARS
    | ARRAYS
)

KEYS = st.text(max_size=4) | st.tuples(st.integers(0, 12), st.integers(0, 12)) | st.floats() | st.integers(-2, 2)

TREES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=400)
@given(results=TREES, checks=TREES)
def test_single_walk_matches_two_pass_route(results, checks):
    report = {"schema": "fisherflow-report-v1", "results": results, "checks": checks, "passed": True}
    path = oracles.first_nonfinite(report)
    if path is None:
        assert _report_text(report) == oracles.report_text_plain(report)
    else:
        with pytest.raises(ValueError):
            oracles.report_text_plain(report)
        with pytest.raises(NumericalAccuracyError) as err:
            _report_text(report)
        assert str(err.value) == f"non-finite value at {path}"


def test_text_of_a_mixed_report():
    report = {
        "b": {(2, 0): np.float64(0.1), (0, 1): -1.5},
        "a": [np.arange(3, dtype=np.int32), np.array([[True], [False]]), Colour.RED, "é\t", None, [], {}],
        1.0: np.float32(0.1),
    }
    assert _report_text(report) == (
        "{\n"
        '  "1.0": 0.10000000149011612,\n'
        '  "a": [\n    [\n      0,\n      1,\n      2\n    ],\n    [\n      [\n        true\n      ],\n'
        '      [\n        false\n      ]\n    ],\n    "r\\u00e9d",\n    "\\u00e9\\t",\n    null,\n    [],\n    {}\n  ],\n'
        '  "b": {\n    "0<-1": -1.5,\n    "2<-0": 0.1\n  }\n'
        "}\n"
    )


@pytest.mark.parametrize(
    "results, where",
    [
        ({"b": [1.0, math.nan], "a": math.inf}, "results.b[1]"),
        ({"m": np.array([[0.0, 1.0], [np.nan, -np.inf]])}, "results.m[1][0]"),
        ({(0, 1): {"x": np.float64(-np.inf)}}, "results.0<-1.x"),
        ({"z": 1.0, "y": np.float32(np.nan)}, "results.y"),
    ],
)
def test_first_non_finite_in_insertion_order_is_named(results, where):
    assert oracles.first_nonfinite({"results": results}) == where
    with pytest.raises(NumericalAccuracyError, match=r"^non-finite value at " + where.replace("[", r"\[") + "$"):
        _report_text({"results": results})


@pytest.fixture
def witness_returns(monkeypatch):
    """Make the witness command return the given results and checks."""
    fisherflow.cli._build_parser()  # built from the real commands, before one is replaced

    def set_payload(results, checks):
        monkeypatch.setitem(
            fisherflow.cli._COMMANDS, "witness", lambda scn, outdir: (results, checks, [])
        )

    return set_payload


def test_non_finite_result_exits_2_and_keeps_old_report(tmp_path, capsys, witness_returns):
    (tmp_path / "witness.json").write_text("old\n")
    witness_returns({"b": [1.0, math.nan], "a": math.nan}, {"ok": {"observed": 1.0, "limit": 1.0, "ok": True}})
    assert main(["witness", "--scenario", WITNESS, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", "fisherflow: numerical accuracy: non-finite value at results.b[1]\n")
    assert (tmp_path / "witness.json").read_text() == "old\n"
    assert os.listdir(tmp_path) == ["witness.json"]


def test_non_finite_check_exits_2_naming_its_path(tmp_path, capsys, witness_returns):
    witness_returns({"rate": 1.0}, {"ratio": {"observed": math.nan, "limit": 0.05, "ok": False}})
    assert main(["witness", "--scenario", WITNESS, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "fisherflow: numerical accuracy: non-finite value at checks.ratio.observed\n"
    assert not os.listdir(tmp_path)


def test_bundled_report_matches_two_pass_route(tmp_path):
    assert main(["witness", "--scenario", WITNESS, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "witness.json").read_text()
    assert text == oracles.report_text_plain(json.loads(text))
