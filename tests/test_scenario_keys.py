"""Every scenario key changes a result: a key that nothing reads is not kept."""

import copy
import json
import os
from dataclasses import is_dataclass
from typing import get_args, get_type_hints

import pytest

from fisherflow.cli import main
from fisherflow.scenario import TOLERANCE_DEFAULTS, Scenario

#: A 5 x 7 figure1 sweep of the case study.
FIGURE1 = {
    "dynamics": {"kind": "case_study"},
    "grid": {"t1": 3.141592653589793, "points": 5},
    "initial_state": [0.2, 0.4, 0.4],
    "perturbation": {"epsilon": 0.001, "theta_points": 7},
    "analyses": {},
}
CASE_STUDY = {"dynamics": {"kind": "case_study"}, "grid": {"t1": 3.141592653589793, "points": 33}, "analyses": {}}
RELAXATION = {
    "dynamics": {"kind": "generator", "matrix": [[-1.0, 1.0], [1.0, -1.0]]},
    "grid": {"t1": 1.5, "points": 16},
    "analyses": {"retrodiction": {"prior": [0.35, 0.65]}},
}
RATES = {
    "dynamics": {"kind": "generator", "rates": [[0, 1, 0.5], [1, 0, 1.0]], "dimension": 2},
    "grid": {"t1": 1.0, "points": 9},
    "analyses": {},
}
CONTRACTION = {
    "dynamics": {"kind": "contraction", "target": [0.3, 0.7]},
    "grid": {"t1": 1.0, "points": 9},
    "analyses": {},
}
OFFENDER = {
    "dynamics": {"kind": "generator", "matrix": [[-1.0, -0.5], [1.0, 0.5]]},
    "grid": {"t1": 1.0, "points": 2},
    "analyses": {"witness": {}, "no_go": {"base": [0.5, 0.5]}, "filter": {}, "quantum": {}},
}
WITNESS = dict(CASE_STUDY, analyses={"witness": {"time": 0.2}})

#: Per scenario key: the command that reads it, the scenario it runs on, and a second value.
#: A block takes only its kind's keys, so a second value of ``kind`` is the whole block.
READERS = {
    "dynamics.kind": ("scan", CONTRACTION, {"kind": "generator", "matrix": [[-1.0, 1.0], [1.0, -1.0]]}),
    "dynamics.matrix": ("scan", RELAXATION, [[-0.5, 1.0], [0.5, -1.0]]),
    "dynamics.rates": ("scan", RATES, [[0, 1, 0.25], [1, 0, 1.0]]),
    "dynamics.dimension": ("scan", RATES, 3),
    "dynamics.target": ("scan", CONTRACTION, [0.6, 0.4]),
    "dynamics.decay_rate": ("scan", CONTRACTION, 2.0),
    "grid.t1": ("scan", RELAXATION, 2.0),
    "grid.points": ("scan", RELAXATION, 17),
    "grid.t0": ("scan", RELAXATION, 0.5),
    "initial_state": ("figure1", FIGURE1, [0.3, 0.3, 0.4]),
    "perturbation.epsilon": ("figure1", FIGURE1, 0.002),
    "perturbation.theta_points": ("figure1", FIGURE1, 5),
    "analyses.divisibility.rate_tol": ("scan", CASE_STUDY, 0.5),
    "analyses.witness.time": ("witness", WITNESS, 0.4),
    "analyses.no_go.base": ("nogo", OFFENDER, [0.4, 0.6]),
    "analyses.no_go.copies": ("nogo", OFFENDER, [1]),
    "analyses.no_go.ancilla_dims": ("nogo", OFFENDER, [0, 3]),
    "analyses.no_go.margin": ("nogo", OFFENDER, 1e-3),
    "analyses.filter.epsilons": ("filter", OFFENDER, [0.02, 0.002]),
    "analyses.filter.ancilla_displacement": ("filter", OFFENDER, [0.2, -0.2]),
    "analyses.retrodiction.prior": ("retro", RELAXATION, [0.4, 0.6]),
    "analyses.retrodiction.equivalence_times": ("retro", RELAXATION, [0.5]),
    "analyses.quantum.dim": ("quantum", OFFENDER, 3),
    "analyses.quantum.rates": ("quantum", OFFENDER, [[0, 1, -0.25], [1, 0, 1.0]]),
    "analyses.quantum.dt": ("quantum", OFFENDER, 2e-3),
    "analyses.quantum.eta": ("quantum", OFFENDER, 2e-6),
    "analyses.quantum.eps": ("quantum", OFFENDER, 2e-3),
    "tolerances.trace_law": ("figure1", FIGURE1, 1e-30),
    "tolerances.lambda_margin": ("nogo", OFFENDER, 1.0),
    "tolerances.filter_ratio": ("filter", OFFENDER, 1e-6),
    "tolerances.adjoint": ("retro", RELAXATION, 1e-30),
    "tolerances.equivalence_band": ("retro", RELAXATION, 1.0),
    "tolerances.cp": ("quantum", OFFENDER, 1.0),
    "tolerances.fd_agreement": ("quantum", OFFENDER, 1e-12),
    # the recovery map keeps the prior, so its spectrum reaches 1: a negative slack fails the check
    "tolerances.spectrum_slack": ("retro", RELAXATION, -1e-3),
    "tolerances.recompute": ("witness", OFFENDER, 1e-30),
}

#: Keys that change no result by design.
EXEMPT = {
    "seed": "only echoed as the report's seed key, which the determinism acceptance test reads",
    "output_dir": "says where the files go, not what they hold",
}


def _keys(cls, prefix=""):
    """The dotted path of every leaf key a scenario may set, read off the spec dataclasses.

    A block with no fields is a leaf itself: its presence is all it can set.
    """
    for name, hint in get_type_hints(cls).items():
        block = next((arg for arg in (hint, *get_args(hint)) if is_dataclass(arg)), None)
        if block is not None and get_type_hints(block):
            yield from _keys(block, f"{prefix}{name}.")
        elif name == "tolerances":
            yield from (f"tolerances.{tol}" for tol in TOLERANCE_DEFAULTS)
        else:
            yield prefix + name


def _with(scenario, path, value):
    """``scenario`` with ``path`` set to ``value``; a ``kind`` key's block is replaced by ``value`` whole."""
    changed = copy.deepcopy(scenario)
    *blocks, key = path.split(".")
    parent = changed
    for block in blocks:
        parent = parent.setdefault(block, {})
    if key == "kind":
        parent.clear()
        parent.update(value)
    else:
        parent[key] = value
    return changed


def _outcome(command, scenario, workdir):
    """Exit code, report without its scenario echo, and every other output file's bytes."""
    os.makedirs(workdir)
    path = os.path.join(workdir, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh)
    out = os.path.join(workdir, "out")
    code = main([command, "--scenario", path, "--out", out])
    if code not in (0, 2):
        return code, None, {}
    files = {name: open(os.path.join(out, name), "rb").read() for name in sorted(os.listdir(out))}
    report = json.loads(files.pop(f"{command}.json"))
    del report["scenario"]
    return code, report, files


def test_every_key_has_a_reader_or_a_reason():
    keys = set(_keys(Scenario))
    unlisted = sorted(keys - READERS.keys() - EXEMPT.keys())
    assert not unlisted, f"keys with no reader listed: {unlisted}"
    stale = sorted((READERS.keys() | EXEMPT.keys()) - keys)
    assert not stale, f"listed keys the scenario does not have: {stale}"


@pytest.mark.parametrize("key", sorted(READERS))
def test_changing_the_key_changes_a_result(key, tmp_path, capsys):
    command, scenario, value = READERS[key]
    # both runs write a report, so what moves is a result and not an error
    first = _outcome(command, scenario, tmp_path / "first")
    second = _outcome(command, _with(scenario, key, value), tmp_path / "second")
    assert first[0] in (0, 2) and second[0] in (0, 2), capsys.readouterr().err
    assert first != second
