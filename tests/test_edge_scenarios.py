"""Every command on every edge scenario: a documented exit code, no traceback, only the listed warnings, repeatable bytes."""

import json
import os
import warnings

import numpy as np
import pytest

from fisherflow.cli import main

EDGE_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios", "edge")

COMMANDS = ("figure1", "scan", "witness", "nogo", "filter", "retro", "quantum")

#: Exit code of each command, in ``COMMANDS`` order, on each edge scenario.
EXIT_CODES = {
    "boundary_initial_state.json": "1201110",
    "boundary_retro_target.json": "1201110",
    "case_study_to_t40.json": "1211110",
    "decay_rate_1e9.json": "1201110",
    # a key of another dynamics kind is not ignored
    "dynamics_foreign_key.json": "1111111",
    "filter_tiny_epsilon.json": "1111111",
    "filter_zero_ancilla_entry.json": "1000010",
    "grid_from_t0_half.json": "1001110",
    "infinite_grid_end.json": "1111111",
    "nan_tolerance.json": "1111111",
    "nogo_ancilla_dim_one.json": "1111111",
    "quantum_extreme_rate.json": "1000012",
    "quantum_large_eta.json": "1000012",
    # out-of-range values of the retired keys: ignored, so nothing fails on them
    "retired_keys.json": "1001100",
    "retro_boundary_prior.json": "1001110",
    "retro_nonmarkovian_generator.json": "1000010",
    "retro_stiff_block.json": "1001110",
    "retro_time_off_grid.json": "1001100",
    "retro_time_outside_grid.json": "1001110",
    "saturated_mixing_weight.json": "1211110",
    "witness_negative_time.json": "1111111",
    "zero_generator.json": "1001100",
}

#: Exact standard error of some runs.
STDERR = {
    # the first failing grid time's entry, not the most negative entry of the whole grid
    ("retro_nonmarkovian_generator.json", "retro"): "entry -1.242e-02 below the clamp window",
    ("boundary_retro_target.json", "retro"): "output 0 has zero probability under the prior; posterior undefined",
    # an equivalence time past t1 would snap to the grid end without a word in the report
    ("retro_time_outside_grid.json", "retro"): (
        "analyses.retrodiction.equivalence_times entry 2.0 lies outside the grid [0.0, 1.5]"
    ),
    # exp(dt L) overflows: an error, not numpy warnings and an eigensolver traceback
    ("quantum_extreme_rate.json", "quantum"): "exact step over dt = 0.001 overflows to non-finite entries",
    # at eta = 0.4 the scaled witness rate is far from its eta -> 0 limit: 1.053e-9 at eta, 1.570e-9 at eta / 2
    ("quantum_large_eta.json", "quantum"): "quantum: failed checks: witness_stable",
    # 9 points over [0, pi] step over a negative-rate window around t = pi/16
    ("boundary_initial_state.json", "scan"): "scan: failed checks: refinement_stable",
    **{
        ("nan_tolerance.json", command): "tolerances.filter_ratio must be a finite number, got nan"
        for command in COMMANDS
    },
    **{("infinite_grid_end.json", command): "grid.t1 must be a finite number, got inf" for command in COMMANDS},
    # filter divides by eps**2, which is 0 here
    **{
        ("filter_tiny_epsilon.json", command): (
            "filter.epsilons[0] = 1.1125369292536007e-308 is too small: its square underflows"
        )
        for command in COMMANDS
    },
    # nogo would skip the one-state ancilla without a word
    **{
        ("nogo_ancilla_dim_one.json", command): "no_go.ancilla_dims must be a non-empty list of 0 or integers >= 2"
        for command in COMMANDS
    },
    **{
        ("dynamics_foreign_key.json", command): "dynamics kind 'contraction' takes no key(s) ['matrix'] in dynamics"
        for command in COMMANDS
    },
    # the case study's generator before the dynamics starts
    **{
        ("witness_negative_time.json", command): "witness.time must be at least 0: every dynamics starts at time 0"
        for command in COMMANDS
    },
}


#: Warnings some runs give, in order; every other run gives none.
WARNINGS = {
    # the check runs at the snapped grid time, and the report records that time
    ("retro_time_off_grid.json", "retro"): ["time 0.33333 off the retrodiction grid; snapping to 0.325"],
}


def test_corpus_is_listed():
    assert sorted(name for name in os.listdir(EDGE_DIR) if name.endswith(".json")) == sorted(EXIT_CODES)


def _run(command, scenario, outdir, capfd):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--scenario", scenario, "--out", str(outdir)])
    out, err = capfd.readouterr()
    assert "Traceback" not in err and "Warning" not in err
    # a scenario that does not load leaves the output directory unmade
    names = sorted(os.listdir(outdir)) if outdir.exists() else []
    files = {name: (outdir / name).read_bytes() for name in names}
    return code, out, err, files, [str(w.message) for w in caught]


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_every_command_exits_cleanly_and_repeats(name, tmp_path, capfd):
    scenario = os.path.join(EDGE_DIR, name)
    for command, expected in zip(COMMANDS, EXIT_CODES[name]):
        first = _run(command, scenario, tmp_path / command / "a", capfd)
        again = _run(command, scenario, tmp_path / command / "b", capfd)
        assert first[0] == int(expected), (command, first[2])
        assert first == again, command
        assert first[4] == WARNINGS.get((name, command), []), command
        if (name, command) in STDERR:
            kind = "numerical accuracy" if first[0] == 2 else "invalid input"
            assert first[2] == f"fisherflow: {kind}: {STDERR[name, command]}\n"


def test_off_grid_equivalence_time_reports_the_snapped_time(tmp_path, capfd):
    scenario = os.path.join(EDGE_DIR, "retro_time_off_grid.json")
    code, _, _, files, _ = _run("retro", scenario, tmp_path, capfd)
    assert code == 0
    (entry,) = json.loads(files["retro.json"])["results"]["equivalence"]
    assert entry["t"] == float(np.linspace(0.0, 1.5, 61)[13]) == 0.325
