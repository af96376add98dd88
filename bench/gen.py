"""Seeded input generator for the benchmark workloads.

``generate(workload, seed, root, rel_dir)`` writes the workload's
generated inputs as JSON into ``root/rel_dir`` and returns a manifest
describing their make-up. The same seed gives byte-identical files. Sizes do not depend on
the seed, only the values do, so every seed asks for the same amount of
work. Bundled scenario files are referenced by their path under
``scenarios/``.
"""

from __future__ import annotations

import json
import os

import numpy as np

#: Markovian ensemble for ``forms``: (dimension, count).
FORMS_MARKOV = ((2, 40), (3, 40), (4, 40), (5, 40), (6, 40), (8, 8), (16, 4), (32, 2), (64, 1))
#: Planted-negative generators for the dilation search, dimensions cycled.
FORMS_PLANTED = tuple(range(2, 10)) * 5
#: No-go sweep: single-offender two-state generators, replicas and ancillas.
NOGO_GENERATORS = 2
NOGO_COPIES = (1, 2, 3)
NOGO_ANCILLAS = (0, 2, 4, 8)
#: Bundled scenarios that the ``forms`` and ``dynamics`` workloads run through the CLI.
FORMS_CLI = (
    ("witness", "scenarios/counterexample_witness.json"),
    ("nogo", "scenarios/counterexample_nogo.json"),
    ("filter", "scenarios/counterexample_filter.json"),
)
DYNAMICS_CLI = (
    ("scan", "scenarios/case_study_scan.json"),
    ("retro", "scenarios/relaxation_retro.json"),
)
FIGURE1_SCENARIO = "scenarios/case_study_figure1.json"
SCAN_POINTS = 2049
RETRO_DIMS = (3, 4, 5, 6)
#: Generated quantum rate sets: (dimension, metric kind, with a negative rate).
QUANTUM_SETS = ((2, "sld", True), (3, "kmb", True), (4, "wy", True), (3, "sld", False))
CALLABLE_DIM = 4
CALLABLE_STEPS = 256
CALLABLE_RETRO_POINTS = 129


def _markov(rng: np.random.Generator, n: int, low: float, high: float) -> np.ndarray:
    r = rng.uniform(low, high, size=(n, n))
    np.fill_diagonal(r, 0.0)
    np.fill_diagonal(r, -r.sum(axis=0))
    return r


def _interior(rng: np.random.Generator, n: int) -> np.ndarray:
    p = 0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n
    return p / p.sum()


def _write(root: str, rel_dir: str, name: str, payload) -> str:
    rel = f"{rel_dir}/{name}"
    with open(os.path.join(root, rel), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
    return rel


def _forms(rng: np.random.Generator, root: str, rel_dir: str, seed: int) -> dict:
    markov = []
    for n, count in FORMS_MARKOV:
        for _ in range(count):
            markov.append(
                {"base": _interior(rng, n).tolist(), "generator": _markov(rng, n, 0.05, 1.5).tolist()}
            )
    planted = []
    for n in FORMS_PLANTED:
        r = _markov(rng, n, 0.05, 1.5)
        i0, j0 = rng.choice(n, size=2, replace=False)
        r[j0, j0] += r[i0, j0]
        r[i0, j0] = -rng.uniform(0.1, 1.0)
        r[j0, j0] -= r[i0, j0]
        planted.append({"generator": r.tolist(), "search_seed": int(rng.integers(1 << 31))})
    nogo = []
    for _ in range(NOGO_GENERATORS):
        p0 = rng.uniform(0.3, 0.7)
        neg = rng.uniform(0.1, 1.0)
        # reverse rate dominates: rate(1<-0) pi_0 exceeds |rate(0<-1)| pi_1 two- to fourfold
        rev = neg * (1.0 - p0) / p0 * rng.uniform(2.0, 4.0)
        nogo.append({"base": [p0, 1.0 - p0], "generator": [[-rev, -neg], [rev, neg]]})
    _write(root, rel_dir, "forms.json", {"markov": markov, "planted": planted, "nogo": nogo})
    return {
        "markov_forms": {str(n): c for n, c in FORMS_MARKOV},
        "planted_searches": {str(n): FORMS_PLANTED.count(n) for n in sorted(set(FORMS_PLANTED))},
        "nogo": {
            "generators": NOGO_GENERATORS,
            "copies": list(NOGO_COPIES),
            "ancilla_dims": list(NOGO_ANCILLAS),
            "max_extended_dim": max(2**c * max(m, 1) for c in NOGO_COPIES for m in NOGO_ANCILLAS),
        },
        "cli": [[cmd, path, []] for cmd, path in FORMS_CLI],
        "cli_seed": seed,
    }


def _dynamics(rng: np.random.Generator, root: str, rel_dir: str, seed: int) -> dict:
    cli = [[cmd, path, []] for cmd, path in DYNAMICS_CLI]
    t1 = float(rng.uniform(2.8, np.pi))
    scan = {
        "dynamics": {"kind": "case_study"},
        "grid": {"t0": 0.0, "t1": t1, "points": SCAN_POINTS},
        "analyses": {"divisibility": {"rate_tol": 1e-9}},
        "seed": seed,
    }
    cli.append(["scan", _write(root, rel_dir, "scan_fine.json", scan), []])
    for n in RETRO_DIMS:
        retro = {
            "dynamics": {"kind": "generator", "matrix": _markov(rng, n, 0.2, 1.2).tolist()},
            "grid": {"t0": 0.0, "t1": 1.5, "points": 61},
            "analyses": {"retrodiction": {"prior": _interior(rng, n).tolist(), "trials": 100}},
            "seed": int(rng.integers(1 << 31)),
        }
        cli.append(["retro", _write(root, rel_dir, f"retro_n{n}.json", retro), []])
    for d, kind, negative in QUANTUM_SETS:
        pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
        chosen = rng.choice(len(pairs), size=min(len(pairs), d + 1), replace=False)
        rates = [[pairs[k][0], pairs[k][1], float(rng.uniform(0.2, 1.0))] for k in sorted(chosen)]
        if negative:
            rates[0][2] = -float(rng.uniform(0.2, 0.6))
        quantum = {
            "dynamics": {"kind": "generator", "matrix": [[-1.0, 1.0], [1.0, -1.0]]},
            "grid": {"t0": 0.0, "t1": 1.0, "points": 2},
            "analyses": {"quantum": {"dim": d, "rates": rates, "dt": 1e-3, "eta": 1e-6, "eps": 1e-3, "kind": kind}},
            "seed": seed,
        }
        name = f"quantum_d{d}_{kind}{'_neg' if negative else ''}.json"
        cli.append(["quantum", _write(root, rel_dir, name, quantum), []])
    n = CALLABLE_DIM
    callable_gen = {
        "dimension": n,
        "steady": _markov(rng, n, 0.3, 1.2).tolist(),
        # the oscillating part stays below the steady rates, so R(t) is Markovian
        "oscillating": _markov(rng, n, 0.0, 0.25).tolist(),
        "frequency": float(rng.uniform(4.0, 8.0)),
        "prior": _interior(rng, n).tolist(),
        "steps": CALLABLE_STEPS,
        "retro_points": CALLABLE_RETRO_POINTS,
    }
    _write(root, rel_dir, "callable.json", callable_gen)
    return {
        "cli": cli,
        "cli_seed": seed,
        "scan_fine": {"points": SCAN_POINTS, "t1": t1},
        "retro_dims": list(RETRO_DIMS),
        "quantum_sets": [list(q) for q in QUANTUM_SETS],
        "callable": {"dimension": n, "steps": CALLABLE_STEPS, "retro_points": CALLABLE_RETRO_POINTS},
    }


def _figure1(rng: np.random.Generator, root: str, rel_dir: str, seed: int) -> dict:
    return {
        "cli": [["figure1", FIGURE1_SCENARIO, []], ["figure1", FIGURE1_SCENARIO, ["--threads", "2"]]],
        "cli_seed": seed,
        "rows_per_run": 1024 * 256,
    }


WORKLOADS = {"figure1": _figure1, "forms": _forms, "dynamics": _dynamics}


def generate(workload: str, seed: int, root: str, rel_dir: str) -> dict:
    """Write ``workload``'s inputs for ``seed`` into ``root/rel_dir``; return their make-up.

    Paths in the manifest are relative to ``root``, the checkout.
    """
    os.makedirs(os.path.join(root, rel_dir), exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    manifest = WORKLOADS[workload](rng, root, rel_dir, seed)
    manifest["workload"] = workload
    manifest["seed"] = seed
    manifest["input_dir"] = rel_dir
    _write(root, rel_dir, "manifest.json", manifest)
    return manifest
