"""What ``tools/bytecheck.py`` records of one CLI run."""

import importlib.util
import json
import os

import numpy as np

from fisherflow.cli import _FIGURE1_ROWS_PER_WORKER as ROWS_PER_WRITER, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bytecheck", os.path.join(ROOT, "tools", "bytecheck.py"))
bytecheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bytecheck)


def _run(command, path, out, capsys):
    # the runner captures file descriptors 1 and 2; pytest's own capture points
    # sys.stdout and sys.stderr elsewhere, so suspend it as a run outside pytest
    with capsys.disabled():
        return bytecheck._run_one(main, command, path, out)


def test_run_records_exit_output_and_file_digests(tmp_path, capsys):
    out = str(tmp_path / "out")
    bundled = os.path.join(ROOT, "scenarios", "nonmarkovian_quantum.json")
    ok = _run("quantum", bundled, out, capsys)
    assert (ok["exit"], ok["stdout"], ok["stderr"], ok["warnings"]) == (0, "quantum: PASS (quantum.json)\n", "", [])
    assert list(ok["files"]) == ["quantum.json"]
    assert ok["parsed"]["quantum.json"]["command"] == "quantum"
    assert _run("quantum", bundled, out, capsys) == ok

    overflow = os.path.join(ROOT, "scenarios", "edge", "quantum_extreme_rate.json")
    failed = _run("quantum", overflow, out, capsys)
    assert failed["exit"] == 2
    assert failed["stdout"] == ""
    assert failed["stderr"] == (
        "fisherflow: numerical accuracy: exact step over dt = 0.001 overflows to non-finite entries\n"
    )
    assert failed["files"] == {}


def test_generated_group_runs_each_command(tmp_path):
    runs = bytecheck._generated_runs(str(tmp_path))
    counts = {}
    for group, command, path in runs:
        assert group == "generated" and os.path.isfile(path)
        counts[command] = counts.get(command, 0) + 1
    # per seed: one scan, four retro and four quantum inputs; 40 planted and 2 no-go generators;
    # two figure1 sweeps; one scan of an eleven-state generator; one case-study retro
    assert counts == {"scan": 4, "retro": 10, "quantum": 8, "witness": 80, "nogo": 4, "filter": 4, "figure1": 4}
    sweeps = []
    for _, command, path in runs:
        if command == "figure1":
            with open(path, encoding="utf-8") as fh:
                sweeps.append(json.load(fh))
    # each sweep is long enough for two writers, and no two start from one state
    assert all(s["grid"]["points"] * s["perturbation"]["theta_points"] > ROWS_PER_WRITER for s in sweeps)
    assert len({tuple(s["initial_state"]) for s in sweeps}) == len(sweeps)
    # one scan per seed has eleven states, with negative rates at (1, 0) and (10, 0) only
    generators = []
    for _, command, path in runs:
        if command == "scan" and path.endswith("scan_n11.json"):
            with open(path, encoding="utf-8") as fh:
                generators.append(json.load(fh)["dynamics"]["matrix"])
    assert len(generators) == 2 and generators[0] != generators[1]
    for r in generators:
        assert [(i, j) for i in range(11) for j in range(11) if i != j and r[i][j] < 0.0] == [(1, 0), (10, 0)]
    # one retro per seed runs the case study on 1,024 points of [0, pi], each from a prior of its own
    retros = []
    for _, command, path in runs:
        if command == "retro" and path.endswith("retro_case_study_1024.json"):
            with open(path, encoding="utf-8") as fh:
                retros.append(json.load(fh))
    assert [(s["dynamics"]["kind"], s["grid"]["points"], s["grid"]["t1"]) for s in retros] == [("case_study", 1024, np.pi)] * 2
    assert retros[0]["analyses"]["retrodiction"]["prior"] != retros[1]["analyses"]["retrodiction"]["prior"]


def test_a_differing_run_names_the_files_and_json_paths_that_differ():
    run = {"exit": 0, "stdout": "", "stderr": "", "warnings": [], "files": {"a.csv": "1", "b.json": "2"}}
    assert bytecheck._differences(run, dict(run)) == []
    moved = dict(run, files={"a.csv": "1", "b.json": "3", "c.json": "4"})
    assert bytecheck._differences(run, moved) == ["files: b.json c.json"]
    failed = dict(run, exit=1, files=None)
    assert bytecheck._differences(run, failed) == ["exit", "files"]

    # a JSON file that parses in both runs is followed by the leaf paths that differ
    report = {"results": {"rate": 1.0, "base": [0.5, 0.5]}, "scenario": {"analyses": {"retrodiction": {"trials": 100}}}}
    moved = {"results": {"rate": 1.0, "base": [0.5, 0.25]}, "scenario": {"analyses": {"retrodiction": {}}}}
    run = {"files": {"retro.json": "1", "a.csv": "2"}, "parsed": {"retro.json": report}}
    other = {"files": {"retro.json": "3", "a.csv": "4"}, "parsed": {"retro.json": moved}}
    assert bytecheck._differences(run, other) == [
        "files: a.csv retro.json (results.base[1], scenario.analyses.retrodiction.trials)"
    ]
    # a changed list length, a key on one side only and a change of type are one leaf each
    assert list(bytecheck._leaf_paths({"a": [1, 2], "b": 1, "c": {}}, {"a": [1], "b": 1.0, "d": 0})) == ["a", "b", "c", "d"]
