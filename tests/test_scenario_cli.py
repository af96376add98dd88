"""Scenario files and the command line front end: parsing, reports, exit codes."""

import argparse
import errno
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fisherflow as ff
import fisherflow.cli
import fisherflow.scenario
from fisherflow.cli import _atomic_write, main
import oracles

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

MINIMAL = {
    "dynamics": {"kind": "case_study"},
    "grid": {"t1": 3.141592653589793, "points": 64},
    "analyses": {},
}


#: A 5 x 7 figure1 sweep: small enough to run many times.
FIGURE1_SMALL = {
    "dynamics": {"kind": "case_study"},
    "grid": {"t1": 3.141592653589793, "points": 5},
    "perturbation": {"epsilon": 0.001, "theta_points": 7},
    "analyses": {},
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

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"perturbation": {"direction": [0.1, -0.1, 0.0], "theta_points": 8}}, "['direction'] in perturbation"),
            ({"perturbation": {"epsilon": 0.01}}, "missing key(s) ['theta_points'] in perturbation"),
            ({"dynamics": {"kind": "case_study", "horizon": 40.0}}, "['horizon'] in dynamics"),
            ({"analyses": {"filter": {"ancilla_dim": 2}}}, "['ancilla_dim'] in analyses.filter"),
            ({"tolerances": {"rate_tol": 1e-9}}, "unknown tolerance 'rate_tol'"),
        ],
        ids=["direction", "sweep-needs-theta-points", "horizon", "ancilla-dim", "rate-tol-tolerance"],
    )
    def test_deleted_keys_rejected(self, change, message):
        with pytest.raises(ff.ScenarioError) as caught:
            ff.parse_scenario(dict(MINIMAL, **change))
        assert message in str(caught.value)

    @pytest.mark.parametrize(
        "change",
        [
            {"dynamics": {"kind": "generator", "matrix": [[-1.0, 1.0], [1.0]]}},
            {"dynamics": {"kind": "generator", "matrix": [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]}},
            {"seed": -1},
            {"perturbation": {"theta_points": 0}},
            {"analyses": {"no_go": {"copies": None}}},
            {"analyses": {"filter": {"epsilons": []}}},
            {"grid": {"t0": -710.0, "t1": 1.0, "points": 4}},
            {"analyses": {"quantum": {"dim": -1}}},
            # filter divides by eps**2, which underflows
            {"analyses": {"filter": {"epsilons": [1e-2, 1e-160]}}},
            {"analyses": {"retrodiction": {}}},
            {"analyses": {"figure1": {"points": 4}}},
            {"dynamics": {"kind": "contraction"}},
            {"dynamics": {"kind": "case_study", "target": [0.5, 0.5]}},
            # no_go and witness values that the commands would drop or misuse
            {"analyses": {"no_go": {"ancilla_dims": [0, 1, 2]}}},
            {"analyses": {"no_go": {"ancilla_dims": [-2]}}},
            {"analyses": {"no_go": {"ancilla_dims": []}}},
            {"analyses": {"no_go": {"copies": []}}},
            {"analyses": {"no_go": {"copies": [1, 0]}}},
            {"analyses": {"no_go": {"margin": -1e-3}}},
            {"analyses": {"witness": {"time": -1.0}}},
        ],
    )
    def test_malformed_fields_rejected(self, change):
        with pytest.raises(ff.ScenarioError):
            ff.parse_scenario(dict(MINIMAL, **change))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"tolerances": {"filter_ratio": float("nan")}}, "tolerances.filter_ratio must be a finite number, got nan"),
            ({"grid": {"t1": float("inf"), "points": 8}}, "grid.t1 must be a finite number, got inf"),
            ({"grid": {"t1": 1.0, "t0": -(10**400), "points": 8}}, "grid.t0 must be a finite number, got -inf"),
            ({"initial_state": [0.2, float("nan"), 0.4]}, "initial_state entry must be a finite number, got nan"),
            (
                {"dynamics": {"kind": "generator", "rates": [[0, 1, -float("inf")], [1, 0, 1.0]], "dimension": 2}},
                "dynamics.rates must be a finite number, got -inf",
            ),
            ({"analyses": {"quantum": {"dt": float("nan")}}}, "quantum.dt must be a finite number, got nan"),
            (
                {"perturbation": {"epsilon": float("inf"), "theta_points": 4}},
                "perturbation.epsilon must be a finite number, got inf",
            ),
        ],
        ids=["tolerance", "grid-bound", "long-integer", "vector-entry", "rate-triple", "analyses-block", "perturbation"],
    )
    def test_non_finite_numbers_exit_1(self, tmp_path, capsys, change, message):
        # json.dumps writes NaN and Infinity, which json.load reads back as floats
        path = _write(tmp_path, dict(MINIMAL, **change))
        assert main(["scan", "--scenario", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"fisherflow: invalid input: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            # the kind is checked before every other field, and the keys it takes with it
            ({"dynamics": {"kind": "bogus", "matrix": [[-1.0, 1.0], [1.0]]}}, "unknown dynamics kind 'bogus'"),
            (
                {"dynamics": {"kind": "contraction", "target": "x", "matrix": [[-1.0, 1.0], [1.0]]}},
                "dynamics kind 'contraction' takes no key(s) ['matrix'] in dynamics",
            ),
            # unknown keys before foreign ones
            ({"dynamics": {"kind": "case_study", "target": [1.0], "extra": 1}}, "unknown key(s) ['extra'] in dynamics"),
            # a retired key is never checked
            ({"analyses": {"quantum": {"kind": "bogus", "dim": "x"}}}, "quantum.dim must be an integer"),
            # unknown keys before missing ones, missing ones before values
            ({"analyses": {"retrodiction": {"trials": "x", "extra": 1}}}, "unknown key(s) ['extra'] in analyses.retrodiction"),
            ({"analyses": {"retrodiction": {"trials": "x"}}}, "missing key(s) ['prior'] in analyses.retrodiction"),
            # fields in declaration order, blocks in AnalysesSpec order
            ({"grid": {"t0": "x", "points": "y", "t1": 1.0}}, "grid.points must be an integer"),
            ({"analyses": {"quantum": {"dim": "x"}, "no_go": {"copies": "y"}}}, "no_go.copies must be an array of integers"),
            ({"analyses": {"filter": []}}, "analyses.filter must be an object, got list"),
            # the empty figure1 block is gone: no command read it
            ({"analyses": {"figure1": {}}}, "unknown key(s) ['figure1'] in analyses"),
        ],
    )
    def test_first_error_is_named(self, change, message):
        with pytest.raises(ff.ScenarioError) as caught:
            ff.parse_scenario(dict(MINIMAL, **change))
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "name, raw, dumped",
        [
            ("divisibility", {}, {"rate_tol": 1e-9}),
            ("witness", {}, {"time": 0.0}),
            ("no_go", {}, {"copies": [1, 2], "ancilla_dims": [0, 2, 4]}),
            ("filter", {}, {"epsilons": [1e-2, 1e-3, 1e-4], "ancilla_displacement": [0.1, -0.1]}),
            # the prior has no default
            ("retrodiction", {"prior": [0.5, 0.5]}, {"prior": [0.5, 0.5]}),
            (
                "quantum",
                {},
                {"dim": 2, "rates": [[0, 1, -0.5], [1, 0, 1.0]], "dt": 1e-3, "eta": 1e-6, "eps": 1e-3},
            ),
        ],
    )
    def test_empty_analyses_block_takes_defaults(self, name, raw, dumped):
        s = ff.parse_scenario(dict(MINIMAL, analyses={name: raw}))
        spec = getattr(s.analyses, name)
        assert spec == type(spec)(**{k: tuple(v) for k, v in raw.items()})
        assert json.loads(json.dumps(ff.scenario_to_dict(s)))["analyses"] == {name: dumped}

    @pytest.mark.parametrize(
        "dynamics",
        [{"kind": "generator", "matrix": [[-1.0, 1.0], [1.0, -1.0]], "decay_rate": 1.0}, {"kind": "case_study", "decay_rate": 1}],
        ids=["generator", "case_study"],
    )
    def test_foreign_key_at_the_contraction_default_rejected(self, dynamics):
        # a foreign key is rejected at any value, the contraction's default decay_rate included
        with pytest.raises(ff.ScenarioError) as caught:
            ff.parse_scenario(dict(MINIMAL, dynamics=dynamics))
        assert str(caught.value) == f"dynamics kind {dynamics['kind']!r} takes no key(s) ['decay_rate'] in dynamics"

    @pytest.mark.parametrize(
        "dynamics",
        [
            {"kind": "case_study"},
            {"kind": "generator", "matrix": [[-1.0, 1.0], [1.0, -1.0]]},
            {"kind": "contraction", "target": [0.5, 0.5]},
            {"kind": "contraction", "target": [0.5, 0.5], "decay_rate": 1.0},
        ],
        ids=["case_study", "generator", "contraction", "contraction-rate"],
    )
    def test_echo_holds_only_the_keys_set(self, dynamics):
        s = ff.parse_scenario(dict(MINIMAL, dynamics=dynamics))
        assert ff.scenario_to_dict(s)["dynamics"] == dynamics
        assert ff.parse_scenario(ff.scenario_to_dict(s)) == s

    def test_contraction_without_decay_rate_relaxes_at_rate_one(self):
        s = ff.parse_scenario(dict(MINIMAL, dynamics={"kind": "contraction", "target": [0.3, 0.7]}))
        grid = np.linspace(0.0, 2.0, 9)
        got = fisherflow.scenario.build_dynamics(s.dynamics).propagators_at(grid)
        want = ff.contraction_to_target([0.3, 0.7], decay_rate=1.0).propagators_at(grid)
        assert np.array_equal(got, want)

    def test_dynamics_spec_checks_its_sources(self):
        with pytest.raises(ff.ScenarioError, match="needs a target"):
            fisherflow.scenario.DynamicsSpec(kind="contraction")

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"seed": "\xe9"}')
        with pytest.raises(ff.ScenarioError, match="not valid JSON"):
            ff.load_scenario(str(path))

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
        assert np.array_equal(case.propagators_at([0.3]), ff.case_study_dynamics().propagators_at([0.3]))
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
        # the contraction relaxes every state to its target
        assert np.allclose(contraction.propagators_at([50.0])[0], [[0.3, 0.3], [0.7, 0.7]], rtol=0.0, atol=1e-15)


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
            "analyses": {},
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
        path = _write(tmp_path, FIGURE1_SMALL)
        assert main(["figure1", "--scenario", path, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "figure1.csv").read_text()
        assert text.endswith("\n") and not text.endswith("\n\n")
        rows = [line.split(",") for line in text.splitlines()[1:]]
        times = np.linspace(0.0, np.pi, 5)
        thetas = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False)
        assert [(float(r[0]), float(r[1])) for r in rows] == [(t, th) for t in times for th in thetas]
        for row in rows:
            assert len(row) == 6
            assert row == [f"{float(field):.17g}" for field in row]

    def test_figure1_trace_law_matches_the_oracle(self, tmp_path):
        path = _write(tmp_path, FIGURE1_SMALL)
        assert main(["figure1", "--scenario", path, "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in (tmp_path / "figure1.csv").read_text().splitlines()[1:]]
        report = json.loads((tmp_path / "figure1.json").read_text())
        dyn = ff.case_study_dynamics()
        p0 = np.array(fisherflow.cli._FIGURE1_P0)
        times = np.linspace(0.0, np.pi, 5)
        thetas = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False)
        dirs = [0.001 * (np.cos(th) * fisherflow.cli._SWEEP_U1 + np.sin(th) * fisherflow.cli._SWEEP_U2) for th in thetas]
        want = [
            float(np.sum(np.abs(oracles.mixing_propagator_point(dyn.s, dyn.m, float(t)) @ d))) for t in times for d in dirs
        ]
        assert [float(r[2]) for r in rows] == pytest.approx(want, rel=1e-12, abs=0.0)
        defect = max(oracles.trace_scaling_check(dyn, p0 + d, p0, times) for d in dirs)
        assert defect <= 1e-15
        assert report["results"]["trace_law_defect"] <= 1e-15
        assert report["checks"]["trace_law"]["ok"] is True

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
                "analyses": {},
            }
            path = _write(tmp_path, scn, f"figure1_{points}.json")
            assert main(["figure1", "--scenario", path, "--out", str(tmp_path)]) == 0
            per_run.append(dict(calls))
            calls.update(sdot=0, mdot=0)
        assert per_run[0] == per_run[1] == {"sdot": 1, "mdot": 1}

    def test_figure1_boundary_base_exits_1_without_warning(self, tmp_path, capsys):
        # RuntimeWarning is an error under pytest, so a division by the zero
        # entry before the interior check would end in a traceback instead
        scn = dict(FIGURE1_SMALL, initial_state=[0.0, 0.5, 0.5])
        assert main(["figure1", "--scenario", _write(tmp_path, scn), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "fisherflow: invalid input: base distribution has an entry 0.000e+00"
            " below the interior floor 1e-12\n"
        )

    def test_figure1_boundary_base_comes_before_a_later_undefined_generator(self, tmp_path, capsys, monkeypatch):
        real = fisherflow.cli.generator_grid

        def undefined_at_3(dyn, times):
            return real(dyn, times)._replace(errors={3: ff.DomainError("undefined generator")})

        monkeypatch.setattr(fisherflow.cli, "generator_grid", undefined_at_3)
        scn = dict(FIGURE1_SMALL, initial_state=[0.0, 0.5, 0.5])
        assert main(["figure1", "--scenario", _write(tmp_path, scn), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "fisherflow: invalid input: base distribution has an entry 0.000e+00"
            " below the interior floor 1e-12\n"
        )
        assert not (tmp_path / "figure1.csv").exists()

    def test_figure1_rejects_generator_dynamics(self, tmp_path):
        scn = {
            "dynamics": {"kind": "generator", "matrix": [[-1.0, 1.0], [1.0, -1.0]]},
            "grid": {"t1": 1.0, "points": 8},
            "analyses": {},
        }
        code = main(["figure1", "--scenario", _write(tmp_path, scn), "--out", str(tmp_path)])
        assert code == 1

    def test_nogo_command(self, tmp_path, monkeypatch):
        calls = []
        verify = fisherflow.cli.no_go_verify
        monkeypatch.setattr(fisherflow.cli, "no_go_verify", lambda *a, **k: calls.append(k) or verify(*a, **k))
        code = main(
            ["nogo", "--scenario", _scenario("counterexample_nogo.json"), "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "nogo.json").read_text())
        assert report["checks"]["margin_met"]["ok"] is True
        assert len(report["results"]["cases"]) == 6
        # one contraction form per case: the offender comes from the first
        assert len(calls) == 6

    @pytest.mark.parametrize(
        "matrix, base, detail",
        [
            ([[-1.0, 1.0], [1.0, -1.0]], [0.5, 0.5], "need exactly one negative rate, found 0"),
            (
                [[-1.0, -0.5], [1.0, 0.5]],
                [0.1, 0.9],
                "reverse rate too weak: rate(1<-0)*pi[0] = 0.1 must exceed |rate(0<-1)|*pi[1] = 0.45",
            ),
        ],
        ids=["markovian", "weak-reverse"],
    )
    def test_nogo_names_the_failed_condition(self, tmp_path, capsys, matrix, base, detail):
        scn = {
            "dynamics": {"kind": "generator", "matrix": matrix},
            "grid": {"t1": 1.0, "points": 2},
            "analyses": {"no_go": {"base": base}},
        }
        assert main(["nogo", "--scenario", _write(tmp_path, scn), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "fisherflow: invalid input: generator does not satisfy the single-offender condition"
            f" at this base: {detail}\n"
        )

    def test_filter_command(self, tmp_path, monkeypatch):
        calls = []
        rate = fisherflow.cli.filter_witness_rate
        monkeypatch.setattr(fisherflow.cli, "filter_witness_rate", lambda *a: calls.append(a[3]) or rate(*a))
        code = main(
            ["filter", "--scenario", _scenario("counterexample_filter.json"), "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "filter.json").read_text())
        assert report["checks"]["ratio_converges"]["ok"] is True
        # one rate per epsilon; each ratio is derived from it
        assert len(calls) == len(set(calls)) == len(report["results"]["epsilon_rates"])

    def test_filter_checks_its_generator_once(self, tmp_path, monkeypatch):
        # both trace witnesses take the command's GeneratorCheck instead of deciding it again
        calls = []
        real = fisherflow.simplex.is_markovian_generator

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fisherflow.cli, "is_markovian_generator", counted)
        monkeypatch.setattr(fisherflow.witnesses, "_generator_check", counted)
        code = main(["filter", "--scenario", _scenario("counterexample_filter.json"), "--out", str(tmp_path)])
        assert code == 0
        assert json.loads((tmp_path / "filter.json").read_text())["checks"]["trace_witnesses_positive"]["ok"] is True
        assert len(calls) == 1

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

    def test_quantum_checks_complete_positivity_once(self, tmp_path, monkeypatch):
        # the witness takes the command's CP report instead of solving the Choi spectrum again
        calls = []
        real = fisherflow.quantum.cp_check

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fisherflow.cli, "cp_check", counted)
        monkeypatch.setattr(fisherflow.quantum, "cp_check", counted)
        code = main(["quantum", "--scenario", _scenario("nonmarkovian_quantum.json"), "--out", str(tmp_path)])
        assert code == 0
        assert json.loads((tmp_path / "quantum.json").read_text())["results"]["cp"] is False
        assert len(calls) == 1

    def test_quantum_witness_uses_scenario_cp_tolerance(self, tmp_path):
        # the Choi minimum, about -1e-11, is below the scenario's cp tolerance
        # but above the witness's own default of -1e-10
        scn = {
            "dynamics": {"kind": "generator", "matrix": [[-1.0, 1.0], [1.0, -1.0]]},
            "grid": {"t1": 1.0, "points": 2},
            "analyses": {"quantum": {"rates": [[0, 1, -0.5], [1, 0, 1.0]], "dt": 4e-11}},
            "tolerances": {"cp": 1e-14},
        }
        code = main(["quantum", "--scenario", _write(tmp_path, scn), "--out", str(tmp_path)])
        assert code == 0
        results = json.loads((tmp_path / "quantum.json").read_text())["results"]
        assert results["cp"] is False
        assert results["witness"]["found"] is True

    def test_cp_matches_rate_sign_fails_inside_the_cp_tolerance(self, tmp_path, capsys):
        # the same step under the default cp tolerance of 1e-10: a Choi minimum of about
        # -1e-11 reads as CP although the rates are not Markovian
        scn = {
            "dynamics": {"kind": "generator", "matrix": [[-1.0, 1.0], [1.0, -1.0]]},
            "grid": {"t1": 1.0, "points": 2},
            "analyses": {"quantum": {"rates": [[0, 1, -0.5], [1, 0, 1.0]], "dt": 4e-11}},
        }
        assert main(["quantum", "--scenario", _write(tmp_path, scn), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "fisherflow: numerical accuracy: quantum: failed checks: cp_matches_rate_sign\n"
        assert "witness" not in json.loads((tmp_path / "quantum.json").read_text())["results"]

    def test_quantum_witness_past_sixteen_states_maps_to_1(self, tmp_path, capsys):
        # the witness state lives on the system and a copy: 5 x 5 = 25 states
        scn = {
            "dynamics": {"kind": "generator", "matrix": [[-1.0, 1.0], [1.0, -1.0]]},
            "grid": {"t1": 1.0, "points": 2},
            "analyses": {"quantum": {"dim": 5, "rates": [[0, 1, -0.5], [1, 0, 1.0]]}},
        }
        assert main(["quantum", "--scenario", _write(tmp_path, scn), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "fisherflow: invalid input: extended dimension 25 exceeds 16\n"
        assert not (tmp_path / "quantum.json").exists()

    def test_fd_agreement_fails_on_a_frame_generator_off_by_5e_4(self, tmp_path, capsys, monkeypatch):
        # the twice-extrapolated secant sits within about 1e-6 of the witness rate, so a frame
        # generator 0.05% off fails the default tolerance of 1e-5
        real = fisherflow.quantum._diagonal_transition_generator
        monkeypatch.setattr(
            fisherflow.quantum, "_diagonal_transition_generator", lambda step, frame: 1.0005 * real(step, frame)
        )
        code = main(["quantum", "--scenario", _scenario("nonmarkovian_quantum.json"), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "fisherflow: numerical accuracy: quantum: failed checks: fd_agreement\n"

    def test_witness_found_fails_on_a_negated_frame_generator(self, tmp_path, capsys, monkeypatch):
        real = fisherflow.quantum._diagonal_transition_generator
        monkeypatch.setattr(
            fisherflow.quantum, "_diagonal_transition_generator", lambda step, frame: -real(step, frame)
        )
        code = main(["quantum", "--scenario", _scenario("nonmarkovian_quantum.json"), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "fisherflow: numerical accuracy: quantum: failed checks: fd_agreement, witness_found\n"


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs figure1 may run on; with one writer per CSV row, they and the time rows bound W."""
    monkeypatch.setattr(fisherflow.cli, "_FIGURE1_ROWS_PER_WORKER", 1)

    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    return set_cpus


class TestFigure1Writers:
    def test_one_cpu_never_forks(self, tmp_path, cpus, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork called")

        cpus(1)
        monkeypatch.setattr(os, "fork", no_fork)
        path = _write(tmp_path, FIGURE1_SMALL)
        assert main(["figure1", "--scenario", path, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize(
        "in_child, stage",
        [(True, "formatting"), (False, "formatting"), (True, "computing"), (False, "computing")],
        ids=["child-fails", "parent-fails", "child-fails-computing", "parent-fails-computing"],
    )
    def test_failed_writer_keeps_old_csv(self, tmp_path, cpus, monkeypatch, capfd, in_child, stage):
        cpus(3)
        parent = os.getpid()
        rows, block = fisherflow.cli._figure1_rows, fisherflow.cli._figure1_block

        def fail_here():
            if (os.getpid() != parent) == in_child:
                raise RuntimeError(f"{stage} failed")

        def failing_rows(*args):
            for chunk in rows(*args):
                fail_here()
                yield chunk

        def failing_block(*args):
            fail_here()
            return block(*args)

        if stage == "formatting":
            monkeypatch.setattr(fisherflow.cli, "_figure1_rows", failing_rows)
        else:
            monkeypatch.setattr(fisherflow.cli, "_figure1_block", failing_block)
        (tmp_path / "figure1.csv").write_text("old\n")
        path = _write(tmp_path, FIGURE1_SMALL)
        expected = "exited with status 1" if in_child else f"{stage} failed"
        with pytest.raises(RuntimeError, match=expected):
            main(["figure1", "--scenario", path, "--out", str(tmp_path)])
        assert os.getpid() == parent
        assert (tmp_path / "figure1.csv").read_text() == "old\n"
        assert not [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]
        if in_child:
            assert f"RuntimeError: {stage} failed" in capfd.readouterr().err

    def test_no_process_holds_the_whole_sweep(self, tmp_path, cpus):
        # one writer computes and formats every block in this process, under the trace
        cpus(1)
        scn = dict(FIGURE1_SMALL, grid={"t1": math.pi, "points": 512}, perturbation={"theta_points": 256})
        whole = 512 * 256 * 3 * 8  # bytes of the sweep's (T, A, 3) float64 values
        assert whole >= 3 * 2**20
        args = ["figure1", "--scenario", _write(tmp_path, scn), "--out", str(tmp_path)]
        assert main(args) == 0  # imports and caches fill outside the trace
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole / 2


class TestCliExitCodes:
    def test_unknown_key_maps_to_1(self, tmp_path):
        payload = dict(MINIMAL, analyses={"witnesss": {}})
        code = main(["witness", "--scenario", _write(tmp_path, payload), "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize(
        "change, message",
        [
            (
                {"dynamics": {"kind": "generator", "rates": [[0, 1, 0.5], [1, 0, 1.0], [0, 1, -0.5]], "dimension": 2}},
                "dynamics.rates repeats the pair [0, 1]",
            ),
            (
                {"analyses": {"quantum": {"rates": [[0, 1, 0.5], [0, 1, -0.5], [1, 0, 1.0]]}}},
                "quantum.rates repeats the pair [0, 1]",
            ),
        ],
        ids=["dynamics", "quantum"],
    )
    def test_repeated_rate_pair_maps_to_1(self, tmp_path, capsys, change, message):
        path = _write(tmp_path, dict(MINIMAL, **change))
        assert main(["quantum", "--scenario", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"fisherflow: invalid input: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "dynamics, foreign",
        [
            (
                {"kind": "generator", "matrix": [[-1.0, 1.0], [1.0, -1.0]], "target": [0.5, 0.5], "decay_rate": 2.0},
                ["decay_rate", "target"],
            ),
            ({"kind": "case_study", "dimension": 3}, ["dimension"]),
        ],
        ids=["generator", "case_study"],
    )
    def test_foreign_dynamics_key_maps_to_1(self, tmp_path, capsys, dynamics, foreign):
        # a key of another kind is not ignored, where the scan was that of the block without it;
        # scenarios/edge/dynamics_foreign_key.json gives a contraction a matrix
        path = _write(tmp_path, dict(MINIMAL, dynamics=dynamics, analyses={}))
        assert main(["scan", "--scenario", path, "--out", str(tmp_path / "out")]) == 1
        message = f"dynamics kind {dynamics['kind']!r} takes no key(s) {foreign} in dynamics"
        assert capsys.readouterr().err == f"fisherflow: invalid input: {message}\n"
        assert not (tmp_path / "out").exists()

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

    def test_small_offense_is_witnessed(self, tmp_path):
        # an offense of 1e-8 needs eps near 1e-9, which the closed form gives at once
        scn = {
            "dynamics": {
                "kind": "generator",
                "rates": [[0, 1, -1.0e-8], [1, 0, 1.0]],
                "dimension": 2,
            },
            "grid": {"t1": 1.0, "points": 8},
            "analyses": {"witness": {}},
        }
        assert main(["witness", "--scenario", _write(tmp_path, scn), "--out", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "witness.json").read_text())["results"]
        assert results["method"] == "closed-form"
        assert results["rate_value"] > 0.0
        assert results["recompute_defect"] <= 1e-12

    def test_epsilon_below_interior_floor_maps_to_3(self, tmp_path, capsys):
        # a 2e-9 offense, just past the 1e-9 rate tolerance, beside rates of 1e3:
        # S = 5e3, so eps = 2e-9 / 2e4 lies below 1e-12
        rates = [[i, j, 1.0e3] for i in range(3) for j in range(3) if i != j and (i, j) != (0, 1)]
        scn = {
            "dynamics": {"kind": "generator", "rates": [[0, 1, -2.0e-9], *rates], "dimension": 3},
            "grid": {"t1": 1.0, "points": 8},
            "analyses": {"witness": {}},
        }
        assert main(["witness", "--scenario", _write(tmp_path, scn), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "fisherflow: witness not found: the closed-form epsilon 1.000e-13 for rate(0, 1) = -2.000e-09 "
            "is below the interior floor 1e-12\n"
        )
        assert not (tmp_path / "witness.json").exists()

    def test_negative_seed_maps_to_1(self, tmp_path):
        retro = _scenario("relaxation_retro.json")
        assert main(["retro", "--scenario", retro, "--out", str(tmp_path), "--seed", "-1"]) == 1
        with open(retro, encoding="utf-8") as fh:
            payload = dict(json.load(fh), seed=-1)
        assert main(["retro", "--scenario", _write(tmp_path, payload), "--out", str(tmp_path)]) == 1

    def test_parser_built_once_per_process(self, monkeypatch):
        fisherflow.cli._build_parser.cache_clear()
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counted_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        assert main(["witness"]) == 1
        first = len(built)
        assert main(["--help"]) == 0
        assert built.count("fisherflow") == 1 and len(built) == first

    def test_help_maps_to_0(self):
        assert main(["--help"]) == 0

    def test_missing_arguments_map_to_1(self):
        assert main([]) == 1
        assert main(["witness"]) == 1

    @pytest.mark.parametrize(
        "out, message",
        [
            ("a_file", "cannot create output directory {out}: " + os.strerror(errno.EEXIST)),
            ("a_file/sub", "cannot create output directory {out}: " + os.strerror(errno.ENOTDIR)),
            ("taken", "cannot write {out}/witness.json: a directory has its name"),
        ],
        ids=["out-is-a-file", "out-under-a-file", "report-name-is-a-directory"],
    )
    def test_unusable_output_path_maps_to_1(self, tmp_path, capsys, out, message):
        (tmp_path / "a_file").write_text("")
        (tmp_path / "taken" / "witness.json").mkdir(parents=True)
        outdir = str(tmp_path / out)
        witness = _scenario("counterexample_witness.json")
        assert main(["witness", "--scenario", witness, "--out", outdir]) == 1
        assert capsys.readouterr().err == f"fisherflow: invalid input: {message.format(out=outdir)}\n"
        assert not [name for _, _, names in os.walk(tmp_path) for name in names if name.startswith(".tmp-")]


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

    def test_figure1_writer_count_does_not_change_bytes(self, tmp_path, cpus, monkeypatch):
        forks = []
        real_fork = os.fork

        def counted_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        path = _write(tmp_path, FIGURE1_SMALL)
        files = ["figure1.csv", "figure1.gp", "figure1.json"]
        outputs = {}
        # 5 time rows: 9 CPUs would allow more writers than rows, and get 5
        for count, writers in ((1, 1), (2, 2), (3, 3), (9, 5)):
            cpus(count)
            out = tmp_path / f"cpus-{count}"
            forks.clear()
            assert main(["figure1", "--scenario", path, "--out", str(out)]) == 0
            assert len(forks) == writers - 1
            assert sorted(os.listdir(out)) == files
            outputs[count] = {name: (out / name).read_bytes() for name in files}
        assert all(files == outputs[1] for files in outputs.values())

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


class TestRetiredInputs:
    """``--threads``, ``FISHERFLOW_THREADS`` and the retired scenario keys are accepted and change no byte."""

    @staticmethod
    def _outputs(out, argv):
        assert main([*argv, "--out", str(out)]) == 0
        return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}

    def test_threads_flag_and_environment_are_ignored(self, tmp_path, monkeypatch):
        argv = ["figure1", "--scenario", _write(tmp_path, FIGURE1_SMALL)]
        plain = self._outputs(tmp_path / "plain", argv)
        assert self._outputs(tmp_path / "zero", [*argv, "--threads", "0"]) == plain
        monkeypatch.setenv("FISHERFLOW_THREADS", "zebra")
        assert self._outputs(tmp_path / "env", argv) == plain

    def test_threads_flag_is_not_listed(self, capsys):
        assert main(["figure1", "--help"]) == 0
        assert "--threads" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["witness", "retro", "quantum"])
    def test_out_of_range_retired_keys_are_ignored(self, tmp_path, command):
        with open(os.path.join(SCENARIO_DIR, "edge", "retired_keys.json"), encoding="utf-8") as fh:
            retired = json.load(fh)
        blocks = retired["analyses"]
        assert (blocks["witness"]["fallback_samples"], blocks["retrodiction"]["trials"]) == (-1, -3)
        assert blocks["quantum"]["kind"] == "bogus"
        plain = dict(retired, analyses={
            "witness": {"time": 0.0}, "retrodiction": {"prior": [0.35, 0.65]}, "quantum": {}
        })
        argv = [command, "--scenario"]
        assert self._outputs(tmp_path / "retired", [*argv, _write(tmp_path, retired, "retired.json")]) == (
            self._outputs(tmp_path / "plain", [*argv, _write(tmp_path, plain, "plain.json")])
        )

    @pytest.mark.parametrize("command", ["figure1", "scan", "retro"])
    @pytest.mark.parametrize("block, rate_tol", [(None, 1e-9), ({"rate_tol": 1e-7}, 1e-7)])
    def test_every_scan_reads_the_divisibility_rate_tol(self, tmp_path, monkeypatch, command, block, rate_tol):
        seen = []
        real = fisherflow.cli.divisibility_scan
        monkeypatch.setattr(
            fisherflow.cli, "divisibility_scan", lambda *a, **k: seen.append(k["rate_tol"]) or real(*a, **k)
        )
        payload = FIGURE1_SMALL
        if command == "retro":
            with open(_scenario("relaxation_retro.json"), encoding="utf-8") as fh:
                payload = json.load(fh)
        if block is not None:
            payload = dict(payload, analyses=dict(payload["analyses"], divisibility=block))
        assert main([command, "--scenario", _write(tmp_path, payload), "--out", str(tmp_path / "out")]) == 0
        assert seen == [rate_tol]


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

#: JSON scalars, with the NaN and Infinity that json.dump writes and
#: json.load reads; they get a branch of their own, since st.floats() draws
#: them too rarely for 50 examples. Integers stay small because they size
#: grids, tensor products and Choi matrices: the fuzz probes validation,
#: not capacity.
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(max_size=6)
)

#: A replacement field: a scalar half of the time, else arbitrary JSON.
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
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
