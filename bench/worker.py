"""One fresh benchmark process: set up, run passes, check them, write a result file.

Started by ``run.py``; not meant to be run by hand. The clock for
``setup_s`` starts before fisherflow is imported, so set-up covers the
import and the loading of the workload's inputs. The first pass runs
right after, with whatever lazy initialisation it triggers. Later passes
run until the time budget is spent, at least ``MIN_LATER`` of them. With
tracing, later passes alternate between untraced and traced.

Outputs are checked in full unless ``--digests`` names the digests of a
pass that an earlier process checked in full; an output whose digest
differs from those is checked in full.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import spans

#: Later passes (of each kind, with tracing) a process runs at least, whatever its budget.
MIN_LATER = 1
#: A 2x2 ``scipy.linalg.expm`` slower than this marks the process as on the slow path.
EXPM_SLOW_MS = 1.0


def _run_pass(ops) -> dict:
    outputs, failures, elapsed = {}, [], 0.0
    for label, op in ops:
        start = time.perf_counter()
        try:
            value = op()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            value = exc
        elapsed += time.perf_counter() - start
        if isinstance(value, Exception):
            failures.append(f"{label}: {type(value).__name__}: {value}")
        elif label.startswith("cli:") and value != 0:
            failures.append(f"{label}: exit code {value}")
        else:
            outputs[label] = value
    return {"seconds": elapsed, "outputs": outputs, "failures": failures, "attempted": len(ops)}


def _bytes_written(workload) -> int:
    total = 0
    for run in workload.cli_runs.values():
        for name in os.listdir(run.outdir):
            if not name.startswith("."):
                total += os.path.getsize(os.path.join(run.outdir, name))
    return total


def _expm_probe_ms() -> float:
    import numpy as np
    from scipy.linalg import expm

    m = np.array([[-1.0, 1.0], [1.0, -1.0]])
    samples = []
    for _ in range(21):
        start = time.perf_counter()
        expm(m)
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--outroot", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--digests", default=None, help="digests of a pass checked in full")
    args = ap.parse_args()

    start = time.perf_counter()
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import fisherflow

    if not os.path.abspath(fisherflow.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"fisherflow imported from {fisherflow.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    with open(os.path.join(args.root, args.manifest), encoding="utf-8") as fh:
        manifest = json.load(fh)
    workload = workloads.WORKLOADS[manifest["workload"]](args.root, manifest, args.outroot)
    ops = workload.operations()
    result = {"setup_s": time.perf_counter() - start}

    first = _run_pass(ops)
    result["first_pass_s"] = first["seconds"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    digests = {label: checks.digest(workload, label, v) for label, v in first["outputs"].items()}
    known = {}
    if args.digests:
        with open(args.digests, encoding="utf-8") as fh:
            known = json.load(fh)["digests"]
    unchecked = {label: v for label, v in first["outputs"].items() if known.get(label) != digests[label]}
    problems = checks.check_digests(workload, digests)
    problems += checks.check_pass(workload, unchecked) if unchecked else []
    attempted, failures = first["attempted"], list(first["failures"])

    tracer = spans.Tracer() if args.trace else None
    untraced, traced, layers = [], [], []
    budget_start = time.perf_counter()
    while True:
        spent = time.perf_counter() - budget_start
        if spent >= args.budget and len(untraced) >= MIN_LATER and (not tracer or len(traced) >= MIN_LATER):
            break
        tracing = tracer is not None and len(traced) < len(untraced)
        if tracing:
            first_span = len(tracer.spans)
            tracer.reset_counters()
            rate_calls = getattr(getattr(workload, "rate", None), "calls", 0)
            tracer.install()
            try:
                done = _run_pass(ops)
            finally:
                tracer.uninstall()
            layers.append(_layer_metrics(tracer, first_span, done["seconds"], workload, rate_calls))
            traced.append(done["seconds"])
        else:
            done = _run_pass(ops)
            untraced.append(done["seconds"])
        attempted += done["attempted"]
        failures += done["failures"]
        fresh = {label: checks.digest(workload, label, v) for label, v in done["outputs"].items()}
        changed = {label: done["outputs"][label] for label in fresh if fresh[label] != digests.get(label)}
        problems += checks.check_digests(workload, fresh)
        if changed:
            problems += checks.check_pass(workload, changed)

    probe_ms = _expm_probe_ms()
    result.update(
        digests=digests if not problems and not failures else {},
        later_pass_s=untraced,
        traced_pass_s=traced,
        layers=layers,
        attempted=attempted,
        failures=failures,
        problems=problems,
        expm_probe_ms=probe_ms,
        expm_slow=probe_ms > EXPM_SLOW_MS,
    )
    if tracer is not None:
        with open(args.result + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    return _write(args.result, result)


def _layer_metrics(tracer, first_span: int, seconds: float, workload, rate_calls: int) -> dict:
    self_s = spans.self_times(tracer.spans, first_span)
    calls = spans.call_counts(tracer.spans, first_span)
    out = {
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.bytes_written": _bytes_written(workload),
        "scenario.load_s": self_s.get("scenario.load", 0.0),
        "distances.fisher_rates.rows": tracer.rows,
        "distances.contraction_form.flow_bytes": tracer.max_flow_bytes,
        "propagation.rate_evals": getattr(getattr(workload, "rate", None), "calls", 0) - rate_calls,
        "retrodiction.checks.s": self_s.get("retrodiction.checks", 0.0),
        "trace.pass_s": seconds,
        "trace.unaccounted_s": seconds - sum(self_s.values()),
    }
    for name in spans.SPAN_NAMES:
        if name in ("cli.main", "scenario.load", "retrodiction.checks"):
            continue
        out[f"{name}.s"] = self_s.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    return out


def _write(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
