"""Check that this checkout's CLI writes the same bytes as another revision.

Usage: ``python tools/bytecheck.py --against <rev>``

The revision is checked out with ``git worktree add`` under the
gitignored ``.bench_build/`` and removed again afterwards. Each tree runs
``fisherflow.cli.main`` in a process of its own, with that tree's
``src/`` on the path and the tree as the working directory, on:

- the bundled scenarios, each with all seven commands;
- the edge scenarios in ``scenarios/edge/``, each with all seven commands;
- generated input from ``bench/gen.py``, for two seeds: the ``scan``,
  ``retro`` and ``quantum`` inputs of the ``dynamics`` workload, and
  scenarios written from the ``forms`` workload's ``forms.json``: a
  ``witness`` scenario per planted generator, seeded with its search
  seed, and one scenario per no-go generator, with its base and the
  sweep's copies and ancilla dimensions, run with ``nogo`` and ``filter``;
  per seed, the case-study ``figure1`` sweeps of ``FIGURE1_SWEEPS``
  from initial states drawn from the seed; per seed, a ``scan`` of a
  constant generator on ``SCAN_STATES`` states with rates drawn from the
  seed, negative at (1, 0) and (10, 0), whose keys ``"10<-0"`` and
  ``"1<-0"`` sort by text; and, per seed, a ``retro`` of the case-study
  family over [0, pi] on ``RETRO_POINTS`` points from a prior drawn from
  the seed, whose equivalence check covers every grid time.

Scenario paths are passed relative to the tree and every run writes into
the same output path in both trees, so messages that name a path match.
For every run the output files, exit code, stdout, stderr (both captured
at the file descriptor, so forked writers are included) and warnings are
compared; a differing run prints one ``differs:`` line naming what
differs, and for output files the names of those whose digests differ,
each JSON one followed by the leaf paths at which the two parsed files
differ, such as ``(results.fd_rate, scenario.analyses.quantum.eta)``.
Outputs are held in memory, as digests and, for JSON files, parsed
values, and the files are deleted; nothing is stored. The last line printed is a one-line summary,
and the exit code is 0 when every run is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("figure1", "scan", "witness", "nogo", "filter", "retro", "quantum")
#: Seeds of the generated inputs.
SEEDS = (1, 2)
#: Commands of the generated ``dynamics`` inputs.
GENERATED_COMMANDS = ("scan", "retro", "quantum")
#: Grid of the scenarios written from the ``forms`` inputs; their commands read the generator at t = 0.
FORMS_GRID = {"t0": 0.0, "t1": 1.0, "points": 2}
#: (time points, angles) of the generated ``figure1`` sweeps. Each has more
#: than 32,768 CSV rows, so two or more CPUs split it among writer processes,
#: and neither splits evenly into the writers' ranges or their time blocks.
FIGURE1_SWEEPS = ((129, 300), (1025, 33))
#: States of the generated ``scan`` generator.
SCAN_STATES = 11
#: Grid points of the generated case-study ``retro``.
RETRO_POINTS = 1024


def _scenario_runs(tree: str) -> list[list[str]]:
    """[group, command, path] for the bundled and edge scenarios, paths relative to ``tree``."""
    runs = []
    for group, pattern in (("bundled", "scenarios/*.json"), ("edge", "scenarios/edge/*.json")):
        for path in sorted(os.path.relpath(p, tree) for p in glob.glob(os.path.join(tree, pattern))):
            runs += [[group, command, path] for command in COMMANDS]
    return runs


def _generated_runs(inputs: str) -> list[list[str]]:
    """Write ``bench/gen.py``'s inputs, and scenarios built from them, per seed; [group, command, path] of each."""
    spec = importlib.util.spec_from_file_location("bytecheck_gen", os.path.join(ROOT, "bench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    runs = []
    for seed in SEEDS:
        manifest = gen.generate("dynamics", seed, inputs, f"seed{seed}")
        for command, path, _ in manifest["cli"]:
            if command in GENERATED_COMMANDS and path.startswith(manifest["input_dir"] + "/"):
                runs.append(["generated", command, os.path.join(inputs, path)])
        runs += _forms_runs(gen, seed, inputs)
        runs += _figure1_runs(seed, inputs)
        runs += _scan_runs(seed, inputs)
        runs += _retro_runs(seed, inputs)
    return runs


def _retro_runs(seed: int, inputs: str) -> list[list[str]]:
    """Write a case-study ``retro`` scenario with a prior drawn from ``seed``; [group, command, path]."""
    rng = random.Random(seed)
    scenario = {
        "dynamics": {"kind": "case_study"},
        "grid": {"t1": 3.141592653589793, "points": RETRO_POINTS},
        "analyses": {"retrodiction": {"prior": [round(rng.uniform(0.05, 1.0), 6) for _ in range(3)]}},
    }
    directory = os.path.join(inputs, f"seed{seed}-retro")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"retro_case_study_{RETRO_POINTS}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh)
    return [["generated", "retro", path]]


def _scan_runs(seed: int, inputs: str) -> list[list[str]]:
    """Write a ``scan`` scenario of a ``SCAN_STATES``-state generator drawn from ``seed``; [group, command, path]."""
    rng = random.Random(seed)
    n = SCAN_STATES
    rates = [[0.0 if i == j else round(rng.uniform(0.05, 1.0), 6) for j in range(n)] for i in range(n)]
    rates[1][0] = -round(rng.uniform(0.01, 0.04), 6)
    rates[10][0] = -round(rng.uniform(0.01, 0.04), 6)
    for j in range(n):
        rates[j][j] = -sum(rates[i][j] for i in range(n))
    scenario = {
        "dynamics": {"kind": "generator", "matrix": rates},
        "grid": {"t0": 0.0, "t1": 1.0, "points": 33},
        "analyses": {"divisibility": {"rate_tol": 1e-9}},
    }
    directory = os.path.join(inputs, f"seed{seed}-scan")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"scan_n{n}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh)
    return [["generated", "scan", path]]


def _figure1_runs(seed: int, inputs: str) -> list[list[str]]:
    """Write a case-study ``figure1`` scenario per sweep of ``FIGURE1_SWEEPS``; [group, command, path] of each."""
    rng = random.Random(seed)
    directory = os.path.join(inputs, f"seed{seed}-figure1")
    os.makedirs(directory, exist_ok=True)
    runs = []
    for points, angles in FIGURE1_SWEEPS:
        scenario = {
            "dynamics": {"kind": "case_study"},
            "grid": {"t1": 3.141592653589793, "points": points},
            "initial_state": [round(rng.uniform(0.05, 1.0), 6) for _ in range(3)],
            "perturbation": {"epsilon": 0.001, "theta_points": angles},
            "analyses": {},
        }
        path = os.path.join(directory, f"figure1_{points}x{angles}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        runs.append(["generated", "figure1", path])
    return runs


def _forms_runs(gen, seed: int, inputs: str) -> list[list[str]]:
    """Write the ``forms`` inputs of ``seed`` and scenarios built from them; [group, command, path] of each."""
    manifest = gen.generate("forms", seed, inputs, f"seed{seed}-forms")
    directory = os.path.join(inputs, manifest["input_dir"])
    with open(os.path.join(directory, "forms.json"), encoding="utf-8") as fh:
        forms = json.load(fh)

    def write(name: str, matrix, analyses: dict, **extra) -> str:
        path = os.path.join(directory, name)
        scenario = {"dynamics": {"kind": "generator", "matrix": matrix}, "grid": FORMS_GRID, "analyses": analyses}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(scenario, **extra), fh)
        return path

    runs = []
    for k, planted in enumerate(forms["planted"]):
        path = write(f"witness_{k:02d}.json", planted["generator"], {"witness": {}}, seed=planted["search_seed"])
        runs.append(["generated", "witness", path])
    sweep = {key: manifest["nogo"][key] for key in ("copies", "ancilla_dims")}
    for k, case in enumerate(forms["nogo"]):
        path = write(f"nogo_{k}.json", case["generator"], {"no_go": dict(sweep, base=case["base"])})
        runs += [["generated", "nogo", path], ["generated", "filter", path]]
    return runs


@contextlib.contextmanager
def _captured_fd(fd: int):
    """Redirect file descriptor ``fd`` into a temporary file; yields a reader of what was written."""
    sys.stdout.flush()
    sys.stderr.flush()
    saved = os.dup(fd)
    with tempfile.TemporaryFile() as sink:
        os.dup2(sink.fileno(), fd)
        try:
            yield lambda: (sink.seek(0), sink.read().decode("utf-8", "replace"))[1]
        finally:
            os.dup2(saved, fd)
            os.close(saved)


def _outputs(outdir: str) -> tuple[dict[str, str], dict[str, object]]:
    """The digest of every file in ``outdir``, and the parsed value of every JSON one that parses."""
    digests, parsed = {}, {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        if name.endswith(".json"):
            with contextlib.suppress(ValueError):
                parsed[name] = json.loads(data)
    return digests, parsed


def _leaf_paths(a, b, path: str = ""):
    """Yield the path of every leaf at which two parsed JSON values differ, in sorted key order.

    A key present on one side only, or a list whose length changed, is one
    leaf. Values of different types differ even when equal (``1`` and ``1.0``).
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                yield from _leaf_paths(a[key], b[key], sub)
            else:
                yield sub
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (x, y) in enumerate(zip(a, b)):
            yield from _leaf_paths(x, y, f"{path}[{k}]")
    elif type(a) is not type(b) or a != b:
        yield path


def _run_one(main, command: str, path: str, outdir: str) -> dict:
    shutil.rmtree(outdir, ignore_errors=True)
    with _captured_fd(1) as out, _captured_fd(2) as err, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main([command, "--scenario", path, "--out", outdir])
        except Exception as exc:  # noqa: BLE001 - a raising run is an outcome to compare
            code = f"raised {type(exc).__name__}: {exc}"
        sys.stdout.flush()
        sys.stderr.flush()
        stdout, stderr = out(), err()
    digests, parsed = _outputs(outdir) if os.path.isdir(outdir) else (None, {})
    return {
        "exit": code,
        "stdout": stdout,
        "stderr": stderr,
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "files": digests,
        "parsed": parsed,
    }


def _differences(a: dict, b: dict) -> list[str]:
    """The outcome keys on which two runs differ.

    ``files`` names the output files whose digests differ, each JSON file
    that parses in both runs followed by the leaf paths that differ.
    """
    out = []
    for key in [key for key in a if key != "parsed"]:
        if a[key] == b[key]:
            continue
        if key == "files" and a[key] is not None and b[key] is not None:
            names = []
            for name in sorted(a[key].keys() | b[key].keys()):
                if a[key].get(name) == b[key].get(name):
                    continue
                trees = [run.get("parsed", {}).get(name) for run in (a, b)]
                if None not in trees:
                    name += f" ({', '.join(_leaf_paths(*trees))})"
                names.append(name)
            out.append(f"files: {' '.join(names)}")
        else:
            out.append(key)
    return out


def _worker(outdir: str) -> None:
    """Run the runs read as JSON from stdin in this process; write their outcomes as JSON to stdout."""
    from fisherflow.cli import main

    runs = json.load(sys.stdin)
    results = [_run_one(main, command, path, outdir) for _, command, path in runs]
    shutil.rmtree(outdir, ignore_errors=True)
    json.dump(results, sys.stdout)


def _run_tree(tree: str, runs: list[list[str]], outdir: str) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", outdir],
        input=json.dumps(runs),
        capture_output=True,
        text=True,
        cwd=tree,
        env=env,
        check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"bytecheck: runner in {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="git revision to compare this checkout with")
    parser.add_argument("--worker", metavar="OUTDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.worker)
        return 0
    if not args.against:
        parser.error("--against is required")

    rev = subprocess.run(
        ["git", "rev-parse", "--short", f"{args.against}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    build = os.path.join(ROOT, ".bench_build")
    other = os.path.join(build, f"bytecheck-{rev}")
    os.makedirs(build, exist_ok=True)
    if os.path.exists(other):
        subprocess.run(["git", "worktree", "remove", "--force", other], cwd=ROOT, check=False)
        shutil.rmtree(other, ignore_errors=True)
    subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=True)
    subprocess.run(
        ["git", "worktree", "add", "--detach", "--quiet", other, rev], cwd=ROOT, check=True
    )
    try:
        with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
            generated = _generated_runs(os.path.join(tmp, "inputs"))
            outdir = os.path.join(tmp, "out")
            # a scenario present in only one tree shows up as a run the other tree fails
            runs = sorted({tuple(r) for r in _scenario_runs(ROOT) + _scenario_runs(other)}) + generated
            mine = _run_tree(ROOT, runs, outdir)
            theirs = _run_tree(other, runs, outdir)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", other], cwd=ROOT, check=False)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)

    groups: dict[str, int] = {}
    differing = 0
    for (group, command, path), a, b in zip(runs, mine, theirs):
        groups[group] = groups.get(group, 0) + 1
        keys = _differences(a, b)
        if keys:
            differing += 1
            print(f"differs: {command} {path}: {', '.join(keys)}")
    made_up = ", ".join(f"{n} {g}" for g, n in groups.items())
    if differing:
        print(f"bytecheck: {differing} of {len(runs)} runs differ from {rev} ({made_up})")
        return 1
    print(f"bytecheck: {len(runs)} runs identical to {rev} ({made_up})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
