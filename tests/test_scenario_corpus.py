"""Every command on every bundled and edge scenario: each check it writes has a README row, and the
``scan``, ``retro`` and ``quantum`` passes run no scipy code outside the stiff rows of ``expm``."""

import glob
import json
import os
import re
import warnings

import pytest
import scipy.linalg

from fisherflow import propagation, quantum
from fisherflow.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCENARIOS = sorted(
    glob.glob(os.path.join(ROOT, "scenarios", "*.json")) + glob.glob(os.path.join(ROOT, "scenarios", "edge", "*.json"))
)
COMMANDS = ("figure1", "scan", "witness", "nogo", "filter", "retro", "quantum")
DYNAMICS_COMMANDS = ("scan", "retro", "quantum")

#: Runs with a generator that needs more than 16 squarings: those rows of ``expm`` go to scipy's.
#: ``quantum_extreme_rate.json``'s step needs 9 and overflows in the kernel, so it is not one of them.
STIFF_RUNS = {("retro_stiff_block.json", "retro")}


def _run(command: str, path: str, outdir) -> tuple[int, dict | None]:
    """Exit code of one run and its report's ``checks``, None when it writes no report."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an off-grid time's snap
        code = main([command, "--scenario", path, "--out", str(outdir)])
    report = outdir / f"{command}.json"
    if not report.exists():
        return code, None
    with open(report, encoding="utf-8") as fh:
        return code, json.load(fh)["checks"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``(scenario file name, command) -> (exit code, checks)`` of every command on every scenario."""
    out = tmp_path_factory.mktemp("corpus")
    return {
        (os.path.basename(path), command): _run(command, path, out / f"{k}-{command}")
        for k, path in enumerate(SCENARIOS)
        for command in COMMANDS
    }


def _readme_checks() -> dict[str, set[str]]:
    """The checks named in each row of the README's check table, by command."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        table = fh.read().split("| command | check | fails on | pinned by |\n")[1]
    rows: dict[str, set[str]] = {}
    for line in table.splitlines()[1:]:
        if not line.startswith("|"):
            break
        _, command, checks, *_ = line.split("|")
        rows.setdefault(command.strip().strip("`"), set()).update(re.findall(r"`(\w+)`", checks))
    return rows


def test_every_check_written_has_a_readme_row(runs):
    listed = _readme_checks()
    written: dict[str, set[str]] = {}
    for (_, command), (_, checks) in runs.items():
        written.setdefault(command, set()).update(checks or ())
    assert sorted(written) == sorted(COMMANDS)
    missing = sorted(
        (command, name) for command, names in written.items() for name in names - listed.get(command, set())
    )
    assert missing == []
    # and no row names a check that no report writes
    assert listed == written


def test_quantum_takes_the_stacked_kernel():
    assert quantum.expm is propagation.expm


def test_passes_make_no_scipy_expm_call(runs, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.expm called")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    checked = 0
    for (name, command), (code, _) in runs.items():
        if command in DYNAMICS_COMMANDS and (name, command) not in STIFF_RUNS:
            path = next(p for p in SCENARIOS if os.path.basename(p) == name)
            assert _run(command, path, tmp_path / f"{name}-{command}")[0] == code, (name, command)
            checked += 1
    assert checked == len(SCENARIOS) * len(DYNAMICS_COMMANDS) - len(STIFF_RUNS)


@pytest.mark.parametrize("name, command", sorted(STIFF_RUNS))
def test_stiff_runs_reach_scipy_expm(runs, name, command, tmp_path, monkeypatch):
    calls = []
    real = scipy.linalg.expm

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    path = os.path.join(ROOT, "scenarios", "edge", name)
    assert _run(command, path, tmp_path)[0] == runs[name, command][0]
    assert calls
