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

import fisherflow as ff
import fisherflow.cli
import oracles
from fisherflow import NumericalAccuracyError
from fisherflow.cli import _report_text, main

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
WITNESS = os.path.join(SCENARIO_DIR, "counterexample_witness.json")


class Colour(Enum):
    RED = "réd"


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
    | st.sampled_from([*Level, *Tag, *Weight])
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
        "a": [np.arange(3, dtype=np.int32), np.array([[True], [False]]), "é\t", None, [], {}],
        1.0: np.float32(0.1),
    }
    assert _report_text(report) == (
        "{\n"
        '  "1.0": 0.10000000149011612,\n'
        '  "a": [\n    [\n      0,\n      1,\n      2\n    ],\n    [\n      [\n        true\n      ],\n'
        '      [\n        false\n      ]\n    ],\n    "\\u00e9\\t",\n    null,\n    [],\n    {}\n  ],\n'
        '  "b": {\n    "0<-1": -1.5,\n    "2<-0": 0.1\n  }\n'
        "}\n"
    )


def test_plain_enum_is_not_serializable():
    # IntEnum, str and float enums are written by their base type; a plain Enum has none, as in json.dumps
    with pytest.raises(TypeError, match="Object of type Colour is not JSON serializable"):
        _report_text({"x": Colour.RED})


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


# --------------------------------------------------------------------------
# scan.json's violations are written by template; the oracle is the json.dumps route


def _eleven_state_generator():
    """Eleven states with negative rates at (1, 0) and (10, 0): ``"10<-0"`` sorts before ``"1<-0"``."""
    r = np.full((11, 11), 0.05)
    r[1, 0], r[10, 0] = -0.01, -0.02
    np.fill_diagonal(r, 0.0)
    np.fill_diagonal(r, -r.sum(axis=0))
    return r.tolist()


SCAN_SCENARIOS = {
    "eleven_states": {
        "dynamics": {"kind": "generator", "matrix": _eleven_state_generator()},
        "grid": {"t0": 0.0, "t1": 1.0, "points": 5},
        "analyses": {},
    },
    "markovian": {
        "dynamics": {"kind": "generator", "matrix": [[-1.0, 0.5], [1.0, -0.5]]},
        "grid": {"t0": 0.0, "t1": 1.0, "points": 17},
        "analyses": {},
    },
    "case_study_2049": {
        "dynamics": {"kind": "case_study"},
        "grid": {"t0": 0.0, "t1": 3.0, "points": 2049},
        "analyses": {"divisibility": {"rate_tol": 1e-9}},
    },
    "bundled": os.path.join(SCENARIO_DIR, "case_study_scan.json"),
    "to_t40": os.path.join(SCENARIO_DIR, "edge", "case_study_to_t40.json"),
}


def _scan_run(tmp_path, name):
    """Run ``scan`` on ``SCAN_SCENARIOS[name]``, or on ``name`` if it is a scenario dict.

    Returns the scenario path, exit code, report text and CSV text.
    """
    scenario = SCAN_SCENARIOS[name] if isinstance(name, str) else name
    if isinstance(scenario, dict):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        scenario = str(path)
    code = main(["scan", "--scenario", scenario, "--out", str(tmp_path)])
    return scenario, code, (tmp_path / "scan.json").read_text(), (tmp_path / "scan.csv").read_text()


def _oracle_scan(path):
    """``oracles.scan_loop`` on a scenario file's dynamics, grid and rate tolerance."""
    scn = ff.load_scenario(path)
    block = scn.analyses.divisibility
    rate_tol = 1e-9 if block is None else block.rate_tol
    grid = scn.grid.times()
    dyn = ff.build_dynamics(scn.dynamics)
    return grid, oracles.scan_loop(lambda t: ff.generator_of(dyn, t), grid, rate_tol, ff.FisherflowError)


@pytest.mark.parametrize("name", sorted(SCAN_SCENARIOS))
def test_scan_outputs_are_the_two_pass_route_s(tmp_path, capsys, name):
    path, code, text, csv = _scan_run(tmp_path, name)
    grid, (min_rates, violations, failures, windows) = _oracle_scan(path)
    report = json.loads(text)
    results = report["results"]
    # the report's other values are read back from the file; the violations are the oracle's
    results["violations"] = [{"t": t, "min_rate": min(neg.values()), "rates": neg} for t, neg in violations]
    assert text == oracles.report_text_plain(report)
    assert results["windows"] == [list(w) for w in windows]
    assert results["failures"] == [list(f) for f in failures]
    assert code == (0 if not failures else 2)

    counts = {t: len(neg) for t, neg in violations}
    rows = [
        f"{t:.17g},{m:.17g},{counts.get(t, 0)}\n"
        for t, m in zip(grid.tolist(), min_rates.tolist())
        if not math.isnan(m)
    ]
    assert csv == "".join(["# t,min_rate,n_negative\n"] + rows)


def test_scan_edge_cases_are_covered(tmp_path, capsys):
    """The parametrized scans include the key-order edge, skipped failed points and no violations."""
    _, _, text, _ = _scan_run(tmp_path, "eleven_states")
    assert text.index('"10<-0"') < text.index('"1<-0"')
    _, code, text, csv = _scan_run(tmp_path, "to_t40")
    assert (code, len(json.loads(text)["results"]["failures"]), csv.count("\n")) == (2, 13, 1 + 41 - 13)
    _, code, text, _ = _scan_run(tmp_path, "markovian")
    assert code == 0 and '"violations": []' in text
    _, _, text, _ = _scan_run(tmp_path, "case_study_2049")
    violations = json.loads(text)["results"]["violations"]
    assert len(violations) > 1600 and len({tuple(v["rates"]) for v in violations}) > 1


def test_negative_rate_tol_exits_1(tmp_path, capsys):
    # a negative tolerance would count zero rates, of either sign, as violations
    scenario = {
        "dynamics": {"kind": "generator", "matrix": [[-1.0, 0.0, 1.0], [1.0, -1.0, -0.0], [-0.0, 1.0, -1.0]]},
        "grid": {"t0": 0.0, "t1": 1.0, "points": 3},
        "analyses": {"divisibility": {"rate_tol": -0.5}},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["scan", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "fisherflow: invalid input: divisibility.rate_tol must be at least 0\n"
    assert not (tmp_path / "scan.json").exists()


def test_failed_scan_names_scan_clean(tmp_path, capsys):
    _, code, text, _ = _scan_run(tmp_path, "to_t40")
    assert code == 2
    assert capsys.readouterr().err == "fisherflow: numerical accuracy: scan: failed checks: scan_clean\n"
    checks = json.loads(text)["checks"]
    assert [name for name, entry in checks.items() if not entry["ok"]] == ["scan_clean"]


def _planted_scan(t, rates):
    """A scan result on grid ``t`` whose every point has the next two of ``rates`` at (0, 1) and (1, 0)."""
    t = np.asarray(t, dtype=float)
    index = np.repeat(np.arange(t.size), 2)
    return ff.ScanResult(
        grid=t,
        rate_tol=1e-9,
        failures=(),
        min_rates=np.ones(t.size),
        negative_index=index,
        negative_row=np.tile([0, 1], t.size),
        negative_col=np.tile([1, 0], t.size),
        negative_rate=np.asarray(rates, dtype=float),
    )


@pytest.mark.parametrize(
    "t, rates",
    [
        ([0.0, 0.5, 1.0], [-1.0, -2.0, -1.0, -np.inf, -3.0, -1.0]),
        ([0.0, np.inf, 1.0], [-1.0, -2.0, -1.0, -2.0, -np.inf, -1.0]),
        ([0.0, 0.5, np.nan], [-1.0, -2.0, -1.0, -2.0, -1.0, -1.0]),
    ],
)
def test_non_finite_violation_exits_2_naming_the_route_s_path(tmp_path, capsys, monkeypatch, t, rates):
    result = _planted_scan(t, rates)
    plain = {
        "results": {
            "violations": [
                {"t": t[k], "min_rate": min(rates[2 * k : 2 * k + 2]), "rates": {(0, 1): rates[2 * k], (1, 0): rates[2 * k + 1]}}
                for k in range(len(t))
            ]
        }
    }
    where = oracles.first_nonfinite(plain)
    assert where is not None and where.startswith("results.violations[")
    monkeypatch.setattr(fisherflow.cli, "divisibility_scan", lambda dyn, grid, rate_tol: result)
    monkeypatch.setattr(fisherflow.cli, "refinement_stable", lambda dyn, coarse: True)
    code = main(["scan", "--scenario", SCAN_SCENARIOS["bundled"], "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"fisherflow: numerical accuracy: non-finite value at {where}\n"
    assert os.listdir(tmp_path) == ["scan.csv"]
