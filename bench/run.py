"""fisherflow benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {figure1,forms,dynamics} --seed N --seconds S --trace {0,1}

The run generates the workload's inputs from the seed, then starts fresh
Python processes one after another (a closed loop: each operation waits
for the previous one) until ``--seconds`` are spent. Each process times
its set-up and first pass, then repeats the pass for
``PROCESS_BUDGET_S``. The first process checks all its outputs
against ``reference.py``; every later pass and process must reproduce
them byte for byte or pass the same checks.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run. The last line of standard output is the JSON
result; the full record, with versions and per-process samples, goes to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import gen

#: Full processes a run starts at least, however long they take.
MIN_PROCESSES = 3
#: Seconds of later passes in each full process (it runs at least one).
PROCESS_BUDGET_S = 1.5
#: ``python -X importtime`` samples of a traced run.
IMPORTTIME_SAMPLES = 3
#: Wall-clock limit of a whole run.
DEADLINE_S = 170.0
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "FISHERFLOW_THREADS",
)


class RunFailed(Exception):
    pass


def _declared_units(root: str, kind: str) -> dict[str, str]:
    """Metric name -> unit for ``kind`` ("end_to_end" or "per_layer") from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class Runner:
    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.bench = os.path.dirname(os.path.abspath(__file__))
        self.work_rel = f".bench_work/{workload}/seed-{seed}"
        self.work = os.path.join(root, self.work_rel)
        self.started = time.monotonic()
        self.count = 0
        self.digests = None

    def remaining(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise RunFailed(f"run exceeded {DEADLINE_S:.0f} s")
        return left

    def worker(self, manifest_rel: str, *extra: str) -> dict:
        self.count += 1
        if self.digests:
            extra = (*extra, "--digests", self.digests)
        result = os.path.join(self.work, f"proc-{self.count}.json")
        cmd = [
            sys.executable, os.path.join(self.bench, "worker.py"),
            "--root", self.root, "--manifest", manifest_rel,
            "--outroot", os.path.join(self.work, "out"), "--result", result, *extra,
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=self.remaining(),
            )
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise RunFailed(f"worker exited with {proc.returncode}:\n{proc.stderr}")
        with open(result, encoding="utf-8") as fh:
            out = json.load(fh)
        if out.get("digests") and not self.digests:
            self.digests = result
        return out

    def full_processes(self, manifest_rel: str, seconds: float, *extra: str) -> list[dict]:
        """Full processes one after another until ``seconds`` are spent, at least ``MIN_PROCESSES``."""
        start = time.monotonic()
        procs = []
        while len(procs) < MIN_PROCESSES or time.monotonic() - start < seconds:
            procs.append(self.worker(manifest_rel, "--budget", f"{PROCESS_BUDGET_S}", *extra))
        return procs

    def importtime(self) -> dict[str, float]:
        code = f"import sys; sys.path.insert(0, {os.path.join(self.root, 'src')!r}); import fisherflow"
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code], cwd=self.root,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=self.remaining(),
        )
        if proc.returncode != 0:
            raise RunFailed(f"import probe failed:\n{proc.stderr}")
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("fisherflow", "scipy.linalg"):
                found[parts[2].strip()] = int(parts[1].strip()) * 1e-6
        if set(found) != {"fisherflow", "scipy.linalg"}:
            raise RunFailed("import probe did not report fisherflow and scipy.linalg")
        return found


def _environment(procs: list[dict]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "expm_probe_ms": [p["expm_probe_ms"] for p in procs],
        "expm_slow_processes": sum(p["expm_slow"] for p in procs),
        "expm_probed_processes": len(procs),
    }


def _measure(runner: Runner, manifest_rel: str, seconds: float) -> tuple[dict, list[dict]]:
    full = runner.full_processes(manifest_rel, seconds)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in full),
        "first_pass_s": statistics.median(p["first_pass_s"] for p in full),
        "pass_s": statistics.median(s for p in full for s in p["later_pass_s"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in full),
    }
    return _with_units(runner.root, "end_to_end", metrics), full


def _measure_traced(runner: Runner, manifest_rel: str, seconds: float) -> tuple[dict, list[dict]]:
    imports = [runner.importtime() for _ in range(IMPORTTIME_SAMPLES)]
    procs = runner.full_processes(manifest_rel, seconds, "--trace", "1")
    layers = [layer for p in procs for layer in p["layers"]]
    values = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    untraced = statistics.median(s for p in procs for s in p["later_pass_s"])
    values["trace.overhead_s"] = values["trace.pass_s"] - untraced
    values["import.fisherflow_s"] = statistics.median(i["fisherflow"] for i in imports)
    values["import.scipy_linalg_s"] = statistics.median(i["scipy.linalg"] for i in imports)
    return _with_units(runner.root, "per_layer", values), procs


def _with_units(root: str, kind: str, values: dict) -> dict:
    units = _declared_units(root, kind)
    if set(units) != set(values):
        raise RunFailed(f"{kind} metrics {sorted(set(units) ^ set(values))} do not match BENCHMARK.json")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "fisherflow", "cli.py")) or not os.path.isdir(
        os.path.join(root, "scenarios")
    ):
        print(f"bench: no fisherflow sources (src/fisherflow, scenarios/) under {root}", file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.seed)
    shutil.rmtree(runner.work, ignore_errors=True)
    manifest = gen.generate(args.workload, args.seed, root, f"{runner.work_rel}/inputs")
    manifest_rel = f"{runner.work_rel}/inputs/manifest.json"
    try:
        if args.trace:
            metrics, procs = _measure_traced(runner, manifest_rel, args.seconds)
        else:
            metrics, procs = _measure(runner, manifest_rel, args.seconds)
    except RunFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(runner.work, "out"), ignore_errors=True)

    failures = [f for p in procs for f in p["failures"]]
    problems = [msg for p in procs for msg in p["problems"]]
    line = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in procs),
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": manifest,
        "environment": _environment(procs),
        "processes": [{k: v for k, v in p.items() if k != "layers"} for p in procs],
        "failures": failures,
        "problems": problems,
        "wall_s": time.monotonic() - runner.started,
        "result": line,
    }
    results = os.path.join(root, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for msg in (failures + problems)[:20]:
        print(f"bench: {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} operations attempted = {line['attempted']}, failed = {line['failed']}, correct = {line['correct']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
