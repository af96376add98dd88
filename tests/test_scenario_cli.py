"""Scenario files and the command line front end: parsing, reports, exit codes."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fisherflow as ff
import fisherflow.cli
from fisherflow.cli import _atomic_write, main

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

MINIMAL = {
    "dynamics": {"kind": "case_study"},
    "grid": {"t1": 3.141592653589793, "points": 64},
    "analyses": {"figure1": {}},
}


def _scenario(name):
    return os.path.join(SCENARIO_DIR, name)


def _write(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestScenarioParsing:
    def test_minimal_round_trip(self):
        s = ff.parse_scenario(MINIMAL)
        assert ff.parse_scenario(ff.scenario_to_dict(s)) == s

    @pytest.mark.parametrize(
        "name",
        [
            "case_study_figure1.json",
            "case_study_scan.json",
            "counterexample_witness.json",
            "counterexample_nogo.json",
            "counterexample_filter.json",
            "relaxation_retro.json",
            "nonmarkovian_quantum.json",
        ],
    )
    def test_shipped_scenarios_round_trip(self, name):
        s = ff.load_scenario(_scenario(name))
        assert ff.parse_scenario(ff.scenario_to_dict(s)) == s
        # dumping is stable JSON
        assert ff.dump_scenario(s) == ff.dump_scenario(ff.parse_scenario(ff.scenario_to_dict(s)))

    def test_unknown_top_level_key(self):
        bad = dict(MINIMAL, extra=1)
        with pytest.raises(ff.ScenarioError, match="unknown key"):
            ff.parse_scenario(bad)

    def test_unknown_analysis_block(self):
        bad = dict(MINIMAL, analyses={"witnesss": {}})
        with pytest.raises(ff.ScenarioError, match="witnesss"):
            ff.parse_scenario(bad)

    def test_unknown_block_key(self):
        bad = dict(MINIMAL, analyses={"witness": {"tim": 0.0}})
        with pytest.raises(ff.ScenarioError, match="tim"):
            ff.parse_scenario(bad)

    def test_unknown_tolerance_name(self):
        bad = dict(MINIMAL, tolerances={"trace_lw": 1e-6})
        with pytest.raises(ff.ScenarioError, match="trace_lw"):
            ff.parse_scenario(bad)

    def test_tolerance_merging(self):
        s = ff.parse_scenario(dict(MINIMAL, tolerances={"trace_law": 1e-5}))
        assert s.tolerance("trace_law") == 1e-5
        assert s.tolerance("lambda_margin") == 1e-3
        with pytest.raises(ff.ScenarioError):
            s.tolerance("bogus")

    def test_generator_needs_exactly_one_source(self):
        base = {
            "grid": {"t1": 1.0, "points": 4},
            "analyses": {"witness": {}},
        }
        with pytest.raises(ff.ScenarioError, match="exactly one"):
            ff.parse_scenario(dict(base, dynamics={"kind": "generator"}))
        with pytest.raises(ff.ScenarioError, match="exactly one"):
            ff.parse_scenario(
                dict(
                    base,
                    dynamics={
                        "kind": "generator",
                        "matrix": [[-1.0, 1.0], [1.0, -1.0]],
                        "rates": [[0, 1, 1.0]],
                        "dimension": 2,
                    },
                )
            )

    def test_rates_need_dimension(self):
        with pytest.raises(ff.ScenarioError, match="dimension"):
            ff.parse_scenario(
                {
                    "dynamics": {"kind": "generator", "rates": [[0, 1, 1.0], [1, 0, 1.0]]},
                    "grid": {"t1": 1.0, "points": 4},
                    "analyses": {},
                }
            )

    def test_perturbation_exclusivity(self):
        with pytest.raises(ff.ScenarioError, match="exactly one"):
            ff.parse_scenario(
                dict(MINIMAL, perturbation={"direction": [0.1, -0.1, 0.0], "theta_points": 8})
            )

    @pytest.mark.parametrize(
        "change",
        [
            {"dynamics": {"kind": "generator", "matrix": [[-1.0, 1.0], [1.0]]}},
            {"dynamics": {"kind": "generator", "matrix": [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]}},
            {"seed": -1},
            {"perturbation": {"theta_points": 0}},
            {"analyses": {"no_go": {"copies": None}}},
            {"analyses": {"filter": {"epsilons": []}}},
        ],
    )
    def test_malformed_fields_rejected(self, change):
        with pytest.raises(ff.ScenarioError):
            ff.parse_scenario(dict(MINIMAL, **change))

    def test_booleans_rejected_as_numbers(self):
        with pytest.raises(ff.ScenarioError, match="number"):
            ff.parse_scenario(dict(MINIMAL, grid={"t1": True, "points": 4}))

    def test_duplicate_json_key_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"dynamics": {"kind": "case_study"}, "grid": {"t1": 1.0, "points": 4},'
            ' "analyses": {}, "seed": 1, "seed": 2}',
            encoding="utf-8",
        )
        with pytest.raises(ff.ScenarioError, match="duplicate"):
            ff.load_scenario(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ff.ScenarioError, match="cannot read"):
            ff.load_scenario(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ff.ScenarioError, match="not valid JSON"):
            ff.load_scenario(str(path))

    def test_build_dynamics_kinds(self):
        case = ff.build_dynamics(ff.parse_scenario(MINIMAL).dynamics)
        assert case.kind == "case_study"
        gen = ff.build_dynamics(
            ff.parse_scenario(
                {
                    "dynamics": {"kind": "generator", "matrix": [[-1.0, 1.0], [1.0, -1.0]]},
                    "grid": {"t1": 1.0, "points": 4},
                    "analyses": {},
                }
            ).dynamics
        )
        assert isinstance(gen, ff.GeneratorDynamics)
        contraction = ff.build_dynamics(
            ff.parse_scenario(
                {
                    "dynamics": {"kind": "contraction", "target": [0.3, 0.7]},
                    "grid": {"t1": 1.0, "points": 4},
                    "analyses": {},
                }
            ).dynamics
        )
        assert contraction.kind == "contraction"


class TestCliRuns:
    def test_witness_command_passes(self, tmp_path, capsys):
        code = main(
            ["witness", "--scenario", _scenario("counterexample_witness.json"), "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "witness: PASS" in out
        report = json.loads((tmp_path / "witness.json").read_text())
        assert report["passed"] is True
        assert report["schema"] == "fisherflow-report-v1"
        assert report["command"] == "witness"
        assert "witness.json" in report["artifacts"]
        # the scenario echo itself parses back
        assert ff.parse_scenario(report["scenario"]) == ff.load_scenario(
            _scenario("counterexample_witness.json")
        )

    def test_outputs_follow_umask(self, tmp_path):
        previous = os.umask(0o022)
        try:
            code = main(
                ["witness", "--scenario", _scenario("counterexample_witness.json"), "--out", str(tmp_path)]
            )
        finally:
            os.umask(previous)
        assert code == 0
        assert (tmp_path / "witness.json").stat().st_mode & 0o777 == 0o644

    def test_atomic_write_keeps_target_when_chunks_fail(self, tmp_path):
        target = tmp_path / "figure1.csv"
        target.write_text("old\n")

        def chunks():
            yield "new\n"
            raise RuntimeError("midway")

        with pytest.raises(RuntimeError, match="midway"):
            _atomic_write(str(target), chunks())
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["figure1.csv"]

    def test_scan_command_writes_csv(self, tmp_path):
        code = main(
            ["scan", "--scenario", _scenario("case_study_scan.json"), "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[0] == "# t,min_rate,n_negative"
        t, min_rate, n_neg = lines[1].split(",")
        assert float(t) == 0.0
        float(min_rate)
        int(n_neg)
        report = json.loads((tmp_path / "scan.json").read_text())
        assert report["results"]["windows"], "case study scan must report windows"

    def test_figure1_small_grid(self, tmp_path):
        scn = {
            "dynamics": {"kind": "case_study"},
            "grid": {"t1": 3.141592653589793, "points": 128},
            "initial_state": [0.2, 0.4, 0.4],
            "perturbation": {"epsilon": 0.001, "theta_points": 32},
            "analyses": {"figure1": {}},
        }
        path = _write(tmp_path, scn)
        code = main(["figure1", "--scenario", path, "--out", str(tmp_path)])
        assert code == 0
        body = (tmp_path / "figure1.csv").read_text().splitlines()
        assert body[0] == "# t,theta,D_tr,D_fish,dDfish_dt,min_rate"
        assert len(body) == 1 + 128 * 32
        assert (tmp_path / "figure1.gp").exists()
        report = json.loads((tmp_path / "figure1.json").read_text())
        assert report["checks"]["trace_law"]["ok"] is True
        assert report["checks"]["backflow_present"]["ok"] is True

    def test_figure1_csv_rows_time_major_seventeen_digits(self, tmp_path):
        scn = {
            "dynamics": {"kind": "case_study"},
            "grid": {"t1": 3.141592653589793, "points": 5},
            "perturbation": {"epsilon": 0.001, "theta_points": 7},
            "analyses": {"figure1": {}},
        }
        assert main(["figure1", "--scenario", _write(tmp_path, scn), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "figure1.csv").read_text()
        assert text.endswith("\n") and not text.endswith("\n\n")
        rows = [line.split(",") for line in text.splitlines()[1:]]
        times = np.linspace(0.0, np.pi, 5)
        thetas = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False)
        assert [(float(r[0]), float(r[1])) for r in rows] == [(t, th) for t in times for th in thetas]
        for row in rows:
            assert len(row) == 6
            assert row == [f"{float(field):.17g}" for field in row]

    def test_figure1_evaluates_generators_once_per_run(self, tmp_path, monkeypatch):
        # sdot and mdot enter only the generator; count their calls per run
        calls = {"sdot": 0, "mdot": 0}

        def counted(build):
            def wrapped(spec):
                dyn = build(spec)
                for name in calls:
                    fn = getattr(dyn, name)

                    def spy(t, fn=fn, name=name):
                        calls[name] += 1
                        return fn(t)

                    setattr(dyn, name, spy)
                return dyn

            return wrapped

        monkeypatch.setattr(fisherflow.cli, "build_dynamics", counted(fisherflow.cli.build_dynamics))
        per_run = []
        for points in (16, 512):
            scn = {
                "dynamics": {"kind": "case_study"},
                "grid": {"t1": 3.141592653589793, "points": points},
                "perturbation": {"epsilon": 0.001, "theta_points": 8},
                "analyses": {"figure1": {}},
            }
            path = _write(tmp_path, scn, f"figure1_{points}.json")
            assert main(["figure1", "--scenario", path, "--out", str(tmp_path)]) == 0
            per_run.append(dict(calls))
            calls.update(sdot=0, mdot=0)
        assert per_run[0] == per_run[1] == {"sdot": 1, "mdot": 1}

    def test_figure1_rejects_generator_dynamics(self, tmp_path):
        scn = {
            "dynamics": {"kind": "generator", "matrix": [[-1.0, 1.0], [1.0, -1.0]]},
            "grid": {"t1": 1.0, "points": 8},
            "analyses": {"figure1": {}},
        }
        code = main(["figure1", "--scenario", _write(tmp_path, scn), "--out", str(tmp_path)])
        assert code == 1

    def test_nogo_command(self, tmp_path):
        code = main(
            ["nogo", "--scenario", _scenario("counterexample_nogo.json"), "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "nogo.json").read_text())
        assert report["checks"]["margin_met"]["ok"] is True
        assert len(report["results"]["cases"]) == 6

    def test_filter_command(self, tmp_path):
        code = main(
            ["filter", "--scenario", _scenario("counterexample_filter.json"), "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "filter.json").read_text())
        assert report["checks"]["ratio_converges"]["ok"] is True

    def test_retro_command(self, tmp_path):
        code = main(
            ["retro", "--scenario", _scenario("relaxation_retro.json"), "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "retro.json").read_text())
        assert report["checks"]["adjoint_identity"]["ok"] is True

    def test_quantum_command(self, tmp_path):
        code = main(
            ["quantum", "--scenario", _scenario("nonmarkovian_quantum.json"), "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "quantum.json").read_text())
        assert report["checks"]["cp_matches_rate_sign"]["ok"] is True


class TestCliExitCodes:
    def test_unknown_key_maps_to_1(self, tmp_path):
        payload = dict(MINIMAL, analyses={"witnesss": {}})
        code = main(["witness", "--scenario", _write(tmp_path, payload), "--out", str(tmp_path)])
        assert code == 1

    def test_failed_tolerance_maps_to_2_and_report_is_written(self, tmp_path):
        scn = {
            "dynamics": {"kind": "generator", "rates": [[0, 1, -0.5], [1, 0, 1.0]], "dimension": 2},
            "grid": {"t1": 1.0, "points": 8},
            "analyses": {"quantum": {}},
            "tolerances": {"fd_agreement": 1e-12},
        }
        code = main(["quantum", "--scenario", _write(tmp_path, scn), "--out", str(tmp_path)])
        assert code == 2
        report = json.loads((tmp_path / "quantum.json").read_text())
        assert report["passed"] is False
        assert report["checks"]["fd_agreement"]["ok"] is False

    def test_unfindable_witness_maps_to_3(self, tmp_path):
        # offense far below every ladder epsilon: the search must give up
        scn = {
            "dynamics": {
                "kind": "generator",
                "rates": [[0, 1, -1.0e-8], [1, 0, 1.0]],
                "dimension": 2,
            },
            "grid": {"t1": 1.0, "points": 8},
            "analyses": {"witness": {"fallback_samples": 50}},
        }
        code = main(["witness", "--scenario", _write(tmp_path, scn), "--out", str(tmp_path)])
        assert code == 3

    def test_negative_seed_maps_to_1(self, tmp_path):
        retro = _scenario("relaxation_retro.json")
        assert main(["retro", "--scenario", retro, "--out", str(tmp_path), "--seed", "-1"]) == 1
        with open(retro, encoding="utf-8") as fh:
            payload = dict(json.load(fh), seed=-1)
        assert main(["retro", "--scenario", _write(tmp_path, payload), "--out", str(tmp_path)]) == 1

    def test_help_maps_to_0(self):
        assert main(["--help"]) == 0

    def test_missing_arguments_map_to_1(self):
        assert main([]) == 1
        assert main(["witness"]) == 1

    def test_bad_thread_env_maps_to_1(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FISHERFLOW_THREADS", "zebra")
        code = main(
            ["witness", "--scenario", _scenario("counterexample_witness.json"), "--out", str(tmp_path)]
        )
        assert code == 1

    def test_thread_count_must_be_positive(self, tmp_path):
        code = main(
            [
                "witness",
                "--scenario",
                _scenario("counterexample_witness.json"),
                "--out",
                str(tmp_path),
                "--threads",
                "0",
            ]
        )
        assert code == 1


class TestCliDeterminism:
    def _run_twice(self, tmp_path, command, scenario_path, extra=()):
        outs = []
        for sub in ("a", "b"):
            outdir = tmp_path / sub
            code = main([command, "--scenario", scenario_path, "--out", str(outdir), *extra])
            assert code == 0
            outs.append(
                {
                    name: (outdir / name).read_bytes()
                    for name in sorted(os.listdir(outdir))
                }
            )
        return outs

    def test_witness_byte_identical(self, tmp_path):
        a, b = self._run_twice(tmp_path, "witness", _scenario("counterexample_witness.json"))
        assert a == b

    def test_scan_byte_identical(self, tmp_path):
        a, b = self._run_twice(tmp_path, "scan", _scenario("case_study_scan.json"))
        assert a == b

    def test_figure1_threads_do_not_change_bytes(self, tmp_path):
        scn = {
            "dynamics": {"kind": "case_study"},
            "grid": {"t1": 3.141592653589793, "points": 64},
            "perturbation": {"epsilon": 0.001, "theta_points": 16},
            "analyses": {"figure1": {}},
        }
        path = _write(tmp_path, scn)
        single = tmp_path / "single"
        multi = tmp_path / "multi"
        assert main(["figure1", "--scenario", path, "--out", str(single), "--threads", "1"]) == 0
        assert main(["figure1", "--scenario", path, "--out", str(multi), "--threads", "3"]) == 0
        assert (single / "figure1.csv").read_bytes() == (multi / "figure1.csv").read_bytes()
        assert (single / "figure1.json").read_bytes() == (multi / "figure1.json").read_bytes()

    def test_seed_override_recorded(self, tmp_path):
        code = main(
            [
                "witness",
                "--scenario",
                _scenario("counterexample_witness.json"),
                "--out",
                str(tmp_path),
                "--seed",
                "99",
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "witness.json").read_text())
        assert report["seed"] == 99

    def test_reports_use_seventeen_digit_floats(self, tmp_path):
        main(["scan", "--scenario", _scenario("case_study_scan.json"), "--out", str(tmp_path)])
        lines = (tmp_path / "scan.csv").read_text().splitlines()[1:]
        for line in lines[:5]:
            t = line.split(",")[0]
            assert float(t) == float(f"{float(t):.17g}")


#: Bundled scenarios and the command each one drives; figure1's sweep is too
#: slow to run once per example.
FUZZ_COMMANDS = {
    "case_study_scan.json": "scan",
    "counterexample_witness.json": "witness",
    "counterexample_nogo.json": "nogo",
    "counterexample_filter.json": "filter",
    "relaxation_retro.json": "retro",
    "nonmarkovian_quantum.json": "quantum",
}

#: Arbitrary JSON. Integers stay small because they size grids, tensor
#: products and Choi matrices: the fuzz probes validation, not capacity.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)


def _field_paths(value, path=()):
    """Every object key and array position nested in ``value``, as a path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


class TestScenarioFuzz:
    @pytest.mark.parametrize("name", sorted(FUZZ_COMMANDS))
    @given(data=st.data())
    def test_one_replaced_field_never_raises(self, name, data):
        with open(_scenario(name), encoding="utf-8") as fh:
            payload = json.load(fh)
        path = data.draw(st.sampled_from(list(_field_paths(payload))))
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(JSON_VALUES)
        with tempfile.TemporaryDirectory() as tmp:
            scenario = os.path.join(tmp, "scenario.json")
            with open(scenario, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            code = main([FUZZ_COMMANDS[name], "--scenario", scenario, "--out", tmp])
        assert code in (0, 1, 2, 3)
