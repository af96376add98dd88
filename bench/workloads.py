"""The operations each benchmark workload performs, and their set-up.

A workload is built from the manifest and input files that ``gen.py``
wrote. ``operations()`` lists the pass: (label, callable) pairs that call
the program through ``fisherflow.cli.main`` or through the package's public
functions, always looked up on the module at call time so that a tracer
that swaps module attributes sees them. An operation returns what the
checks need and nothing the program computes after the clock stops.
"""

from __future__ import annotations

import json
import os

import numpy as np

import fisherflow
import fisherflow.cli


def _load(root: str, rel: str):
    with open(os.path.join(root, rel), encoding="utf-8") as fh:
        return json.load(fh)


class CliRun:
    """One CLI invocation writing into its own output directory."""

    def __init__(self, root: str, outdir: str, command: str, scenario: str, extra: list[str], seed: int):
        self.command = command
        self.scenario = os.path.join(root, scenario)
        self.outdir = outdir
        self.argv = [command, "--scenario", self.scenario, "--out", outdir, "--seed", str(seed), *extra]
        os.makedirs(outdir, exist_ok=True)

    def __call__(self) -> int:
        return fisherflow.cli.main(self.argv)

    def report(self) -> dict:
        with open(os.path.join(self.outdir, f"{self.command}.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def path(self, name: str) -> str:
        return os.path.join(self.outdir, name)


class Workload:
    name = ""

    def __init__(self, root: str, manifest: dict, outroot: str):
        self.root = root
        self.manifest = manifest
        self.seed = int(manifest["seed"])
        # operation label -> CLI run; the label is how checks and digests find the run
        self.cli_runs = {
            f"cli:{k:02d}:{cmd}": CliRun(root, os.path.join(outroot, f"{k:02d}-{cmd}"), cmd, scenario, extra, self.seed)
            for k, (cmd, scenario, extra) in enumerate(manifest["cli"])
        }

    def operations(self) -> list[tuple[str, object]]:
        return list(self.cli_runs.items())


class Figure1(Workload):
    name = "figure1"


class Forms(Workload):
    name = "forms"

    def __init__(self, root, manifest, outroot):
        super().__init__(root, manifest, outroot)
        data = _load(root, f"{manifest['input_dir']}/forms.json")
        self.markov = [(np.array(m["base"]), np.array(m["generator"])) for m in data["markov"]]
        self.planted = [(np.array(m["generator"]), int(m["search_seed"])) for m in data["planted"]]
        nogo = manifest["nogo"]
        self.nogo = [
            (np.array(m["base"]), np.array(m["generator"]), copies, ancilla)
            for m in data["nogo"]
            for copies in nogo["copies"]
            for ancilla in nogo["ancilla_dims"]
        ]

    def operations(self):
        ops = []
        for k, (p, r) in enumerate(self.markov):
            ops.append((f"markov:{k}", lambda p=p, r=r: np.array(fisherflow.contraction_form(p, r).eigenvalues)))
        for k, (r, seed) in enumerate(self.planted):
            ops.append((f"planted:{k}", lambda r=r, seed=seed: fisherflow.dilation_direction_search(r, seed=seed)))
        for k, (pi, r, copies, ancilla) in enumerate(self.nogo):
            ops.append(
                (f"nogo:{k}", lambda pi=pi, r=r, c=copies, m=ancilla: fisherflow.no_go_verify(pi, r, copies=c, ancilla_dim=m))
            )
        return ops + super().operations()


class OscillatingGenerator:
    """R(t) = steady + sin(frequency t) oscillating, counting its evaluations."""

    def __init__(self, steady, oscillating, frequency):
        self.steady = np.array(steady)
        self.oscillating = np.array(oscillating)
        self.frequency = float(frequency)
        self.calls = 0

    def __call__(self, t: float) -> np.ndarray:
        self.calls += 1
        return self.steady + np.sin(self.frequency * t) * self.oscillating


class Dynamics(Workload):
    name = "dynamics"

    def __init__(self, root, manifest, outroot):
        super().__init__(root, manifest, outroot)
        spec = _load(root, f"{manifest['input_dir']}/callable.json")
        self.rate = OscillatingGenerator(spec["steady"], spec["oscillating"], spec["frequency"])
        self.dimension = int(spec["dimension"])
        self.prior = np.array(spec["prior"])
        self.steps = int(spec["steps"])
        self.retro_grid = np.linspace(0.0, 1.0, int(spec["retro_points"]))

    def _dynamics(self):
        return fisherflow.GeneratorDynamics(self.rate, dimension=self.dimension)

    def operations(self):
        return super().operations() + [
            ("propagate", lambda: fisherflow.propagate(self._dynamics(), 0.0, 1.0, steps=self.steps)),
            ("retro_context", lambda: fisherflow.retrodiction_context(self.prior, self._dynamics(), self.retro_grid)),
        ]


WORKLOADS = {cls.name: cls for cls in (Figure1, Forms, Dynamics)}
