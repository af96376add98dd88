"""Command line front end.

Every command reads one scenario file, runs a single analysis, and writes
a JSON report (plus CSV/gnuplot artifacts where they make sense) into the
output directory. Reports echo the scenario and the resolved seed so a run
can be reproduced from its output alone. Writes are atomic and the content
is a pure function of the scenario and the seed, so repeated runs produce
byte-identical files.

Exit codes: 0 on success, 1 on invalid input (bad scenario, inapplicable
analysis), 2 on a numerical-accuracy failure (including failed tolerance
checks; the report is still written), 3 when a required witness could not
be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from enum import Enum

import numpy as np

from .distances import fisher_rates, forward_trace_rate
from .errors import (
    FisherflowError,
    InvalidInputError,
    NumericalAccuracyError,
    ScenarioError,
    WitnessNotApplicableError,
    WitnessNotFoundError,
)
from .propagation import divisibility_scan, generator_grid, generator_of, refinement_stable
from .quantum import (
    MonotoneKind,
    channel_step,
    cp_check,
    quantum_dilation_witness,
    quantum_witness_fd_rate,
    semiclassical_lindbladian,
)
from .retrodiction import (
    adjoint_identity_check,
    retrodiction_context,
    retrodiction_distance_sq,
    retrodiction_equivalence_check,
)
from .scenario import (
    DivisibilitySpec,
    FilterSpec,
    NoGoSpec,
    QuantumSpec,
    Scenario,
    WitnessSpec,
    build_dynamics,
    load_scenario,
    scenario_to_dict,
)
from .simplex import (
    extend_generator,
    is_markovian_generator,
    prob_vec,
    rate_matrix_from_rates,
    tangent_vec,
    zero_sum_basis,
)
from .witnesses import (
    dilation_direction_search,
    filter_witness,
    filter_witness_rate,
    no_go_verify,
    trace_ancilla_witness,
)

__all__ = ["main"]

_REPORT_SCHEMA = "fisherflow-report-v1"

#: Orthonormal zero-sum pair spanning the sweep plane of the figure1 fixture.
_SWEEP_U1 = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
_SWEEP_U2 = np.array([2.0, -1.0, -1.0]) / np.sqrt(6.0)
_FIGURE1_P0 = (0.2, 0.4, 0.4)


def _plain(value):
    """Recursively convert report payloads to JSON-compatible plain types."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {_plain_key(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _plain_key(key) -> str:
    if isinstance(key, tuple):
        return "<-".join(str(int(k)) for k in key)
    return str(key)


def _assert_finite(obj, where: str = "report") -> None:
    if obj is None or isinstance(obj, (bool, str)):
        return
    if isinstance(obj, (int, float)):
        if not math.isfinite(obj):
            raise NumericalAccuracyError(f"non-finite value at {where}")
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _assert_finite(v, f"{where}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _assert_finite(v, f"{where}[{i}]")


def _atomic_write(path: str, chunks) -> None:
    """Write the text chunks of an iterable to ``path``, replacing it only once all are written."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check(observed, limit, ok) -> dict:
    return {"observed": observed, "limit": limit, "ok": bool(ok)}


def _check_max(observed: float, limit: float) -> dict:
    return _check(float(observed), float(limit), float(observed) <= float(limit))


def _check_true(flag: bool) -> dict:
    return _check(bool(flag), True, bool(flag))


def _generator_for(scn: Scenario, t: float) -> np.ndarray:
    return generator_of(build_dynamics(scn.dynamics), t)


# --------------------------------------------------------------------------
# figure1


#: (t, theta) rows per batched figure1 step; keeps each temporary near 0.1 MB,
#: so blocks reuse heap memory instead of raising the peak resident size.
_FIGURE1_BLOCK_ROWS = 4096


def _figure1_block(dyn, gens, dirs0, p0, tr_ref):
    """Trace distance, Fisher distance and Fisher rate per (t, theta), and trace-law defects.

    ``gens`` is the generator grid of ``dyn``; the sweep stops with the
    error of the first time whose generator is undefined.
    """
    times = gens.times
    stop = min(gens.errors, default=times.shape[0])
    values = np.empty((times.shape[0], dirs0.shape[0], 3))
    defects = np.empty(times.shape[0])
    step = max(1, _FIGURE1_BLOCK_ROWS // dirs0.shape[0])
    for lo in range(0, stop, step):
        span = slice(lo, min(lo + step, stop))
        props = dyn.propagators_at(times[span])
        bases = props @ p0
        disps = dirs0 @ props.transpose(0, 2, 1)
        tr = np.abs(disps).sum(axis=2)
        values[span, :, 0] = tr
        values[span, :, 1] = np.sqrt((disps**2 / (2.0 * bases[:, None, :])).sum(axis=2))
        values[span, :, 2] = fisher_rates(bases, disps, gens.generators[span])
        defects[span] = np.abs(tr - (1.0 - dyn.s(times[span]))[:, None] * tr_ref).max(axis=1)
    if gens.errors:
        raise gens.errors[stop]
    return values, defects


def _figure1_csv(times, thetas, values, min_rates):
    """Yield figure1.csv: the header, then the rows of one time at a time.

    Each time's rows come from one ``%`` template whose float cells are
    ``%.17g``, so a block is formatted by a single C-level operation.
    """
    yield "# t,theta,D_tr,D_fish,dDfish_dt,min_rate\n"
    cells = [f",{theta:.17g},%.17g,%.17g,%.17g," for theta in thetas.tolist()]
    for t, block, min_rate in zip(times.tolist(), values, min_rates.tolist()):
        ts, mr = f"{t:.17g}", f"{min_rate:.17g}"
        template = ts + f"{mr}\n{ts}".join(cells) + f"{mr}\n"
        yield template % tuple(block.ravel().tolist())


_FIGURE1_GP = """\
# Companion plots for figure1.csv (same directory).
set datafile separator ","
set terminal pngcairo size 1000,750
set output "figure1.png"
set key left
set xlabel "t"
plot \\
  "figure1.csv" using 1:($2 == 0 ? $3 : 1/0) with lines title "trace distance (theta = 0)", \\
  "figure1.csv" using 1:($2 == 0 ? $4 : 1/0) with lines title "Fisher distance (theta = 0)", \\
  "figure1.csv" using 1:($2 == 0 ? $6 : 1/0) with lines title "minimal transition rate"
"""


def cmd_figure1(scn: Scenario, outdir: str, seed: int):
    """Sweep a plane of perturbations through the bundled mixing family.

    Writes one CSV row per (t, theta) with the trace distance, the local
    Fisher distance, its squared-distance rate, and the minimal transition
    rate of the generator at that time.
    """
    dyn = build_dynamics(scn.dynamics)
    if getattr(dyn, "kind", "") != "case_study":
        raise WitnessNotApplicableError("figure1 runs only on case_study dynamics")
    if scn.grid.t0 != 0.0:
        raise ScenarioError("figure1 grid must start at t0 = 0")
    pert = scn.perturbation
    if pert is not None and pert.direction is not None:
        raise ScenarioError("figure1 needs a theta sweep, not an explicit direction")
    theta_points = pert.theta_points if pert is not None else 256
    epsilon = pert.epsilon if pert is not None else 1e-3
    p0 = prob_vec(scn.initial_state if scn.initial_state is not None else _FIGURE1_P0)
    if p0.shape[0] != 3:
        raise ScenarioError("figure1 initial state must have 3 entries")

    times = scn.grid.times()
    thetas = np.linspace(0.0, 2.0 * np.pi, theta_points, endpoint=False)
    dirs0 = epsilon * (
        np.cos(thetas)[:, None] * _SWEEP_U1 + np.sin(thetas)[:, None] * _SWEEP_U2
    )
    tr_ref = np.abs(dirs0).sum(axis=1)

    gens = generator_grid(dyn, times)
    values, defects = _figure1_block(dyn, gens, dirs0, p0, tr_ref)
    max_rates = values[:, :, 2].max(axis=1)
    scan = divisibility_scan(dyn, times, rate_tol=scn.tolerance("rate_tol"), generators=gens)
    min_rates = scan.min_rates
    windows = scan.windows()
    backflow_per_window = []
    for lo, hi in windows:
        inside = (times >= lo) & (times <= hi)
        backflow_per_window.append(bool(np.any(max_rates[inside] > 0.0)))

    _atomic_write(
        os.path.join(outdir, "figure1.csv"), _figure1_csv(times, thetas, values, min_rates)
    )
    _atomic_write(os.path.join(outdir, "figure1.gp"), [_FIGURE1_GP])

    argmin = int(np.argmin(min_rates))
    results = {
        "theta_points": theta_points,
        "time_points": int(times.shape[0]),
        "epsilon": epsilon,
        "trace_law_defect": float(defects.max()),
        "negative_rate_windows": [[lo, hi] for lo, hi in windows],
        "backflow_per_window": backflow_per_window,
        "min_rate_overall": float(min_rates[argmin]),
        "min_rate_time": float(times[argmin]),
        "scan_failures": list(scan.failures),
    }
    checks = {
        "trace_law": _check_max(defects.max(), scn.tolerance("trace_law")),
        "windows_present": _check_true(bool(windows)),
        "backflow_present": _check_true(any(backflow_per_window)),
        "scan_clean": _check_true(not scan.failures),
    }
    return results, checks, ["figure1.csv", "figure1.gp"]


# --------------------------------------------------------------------------
# scan


def cmd_scan(scn: Scenario, outdir: str, seed: int):
    """Report every grid time whose generator carries a negative rate."""
    dyn = build_dynamics(scn.dynamics)
    block = scn.analyses.divisibility or DivisibilitySpec()
    times = scn.grid.times()
    result = divisibility_scan(dyn, times, rate_tol=block.rate_tol)
    stable = refinement_stable(dyn, result)

    failed = {t for t, _ in result.failures}
    negatives = {v.t: len(v.negative_rates) for v in result.violations}
    rows = ["# t,min_rate,n_negative\n"]
    for t, min_rate in zip(result.grid.tolist(), result.min_rates.tolist()):
        if t not in failed:
            rows.append("%.17g,%.17g,%d\n" % (t, min_rate, negatives.get(t, 0)))
    _atomic_write(os.path.join(outdir, "scan.csv"), rows)

    results = {
        "rate_tol": block.rate_tol,
        "markovian_on_grid": result.markovian_on_grid,
        "windows": [[lo, hi] for lo, hi in result.windows()],
        "violations": [
            {"t": v.t, "min_rate": v.min_rate, "rates": v.negative_rates}
            for v in result.violations
        ],
        "failures": list(result.failures),
        "refinement_stable": stable,
    }
    checks = {
        "scan_clean": _check_true(not result.failures),
        "refinement_stable": _check_true(stable),
    }
    return results, checks, ["scan.csv"]


# --------------------------------------------------------------------------
# witness


def cmd_witness(scn: Scenario, outdir: str, seed: int):
    """Search for a base and direction with a positive squared-Fisher rate."""
    block = scn.analyses.witness or WitnessSpec()
    r = _generator_for(scn, block.time)
    verdict = is_markovian_generator(r)
    report = dilation_direction_search(r, fallback_samples=block.fallback_samples, seed=seed)

    results = {
        "time": block.time,
        "markovian": verdict.markovian,
        "found": report.found,
        "method": report.method,
        "epsilon_used": report.epsilon_used,
        "rate_value": report.rate_value,
        "base": report.base,
        "direction": report.direction,
        "offender": report.offender,
        "offender_rate": report.offender_rate,
    }
    checks = {"search_settled": _check_true(report.found != verdict.markovian)}
    if report.found:
        defect = abs(report.recompute_rate() - report.rate_value)
        results["recompute_defect"] = defect
        checks["rate_positive"] = _check_true(report.rate_value > 0.0)
        checks["recompute"] = _check_max(defect, scn.tolerance("recompute"))
    return results, checks, []


# --------------------------------------------------------------------------
# nogo


def cmd_nogo(scn: Scenario, outdir: str, seed: int):
    """Certify strict contraction on replicated and ancilla-extended spaces."""
    block = scn.analyses.no_go or NoGoSpec()
    r = _generator_for(scn, 0.0)
    n = r.shape[0]
    pi = prob_vec(block.base if block.base is not None else np.full(n, 1.0 / n))

    cases = []
    all_passed = True
    condition_met = True
    for copies in block.copies:
        for m in block.ancilla_dims:
            if m == 1:
                continue
            rep = no_go_verify(pi, r, copies=copies, ancilla_dim=m, margin=block.margin)
            condition_met = condition_met and rep.condition_met
            all_passed = all_passed and rep.passed
            cases.append(
                {
                    "copies": copies,
                    "ancilla_dim": m,
                    "lambda_max_on_image": rep.lambda_max_on_image,
                    "lambda_max_full": rep.lambda_max_full,
                    "margin": rep.margin,
                    "passed": rep.passed,
                }
            )
    if not cases:
        raise ScenarioError("no_go produced no cases; check copies/ancilla_dims")
    if not condition_met:
        raise WitnessNotApplicableError(
            "generator does not satisfy the single-offender condition at this base"
        )

    first = no_go_verify(pi, r, copies=block.copies[0], ancilla_dim=0, margin=block.margin)
    results = {
        "base": pi,
        "offender": first.offender,
        "offender_rate": first.offender_rate,
        "cases": cases,
        "lambda_margin": scn.tolerance("lambda_margin"),
    }
    checks = {
        "all_cases_contract": _check_true(all_passed),
        "margin_met": _check_true(
            all(c["lambda_max_on_image"] <= -scn.tolerance("lambda_margin") for c in cases)
        ),
    }
    return results, checks, []


# --------------------------------------------------------------------------
# filter


def cmd_filter(scn: Scenario, outdir: str, seed: int):
    """Run the filtered-distance witness on an ancilla extension."""
    block = scn.analyses.filter or FilterSpec()
    r = _generator_for(scn, 0.0)
    verdict = is_markovian_generator(r)
    if verdict.markovian:
        raise WitnessNotApplicableError("filter witness needs a negative rate")
    offender = min(verdict.negative_rates, key=verdict.negative_rates.get)
    source = offender[1]

    extended = extend_generator(r, copies=1, ancilla_dim=block.ancilla_dim)
    anc = tangent_vec(block.ancilla_displacement)
    unit = np.zeros(r.shape[0])
    unit[source] = 1.0
    direction = np.kron(unit, anc)

    report = filter_witness(extended, direction, epsilons=block.epsilons)
    ratios = {
        eps: filter_witness_rate(report.base, direction, extended, eps) / eps**2
        for eps in block.epsilons
    }
    strength = float(np.abs(direction).sum())
    reference = 2.0 * strength * forward_trace_rate(direction, extended)

    ancilla_rep = trace_ancilla_witness(r, mode="ancilla-M2")
    extra_rep = trace_ancilla_witness(r, mode="extra-state")

    max_ratio_error = max(abs(v / reference - 1.0) for v in ratios.values())
    results = {
        "offender": offender,
        "offender_rate": verdict.negative_rates[offender],
        "ancilla_dim": block.ancilla_dim,
        "direction": direction,
        "base": report.base,
        "epsilon_rates": {eps: filter_witness_rate(report.base, direction, extended, eps)
                          for eps in block.epsilons},
        "epsilon_ratios": ratios,
        "limit_reference": reference,
        "trace_witness_rates": {
            "ancilla-M2": ancilla_rep.rate_value,
            "extra-state": extra_rep.rate_value,
        },
    }
    checks = {
        "witness_found": _check_true(report.found),
        "ratio_converges": _check_max(max_ratio_error, scn.tolerance("filter_ratio")),
        "trace_witnesses_positive": _check_true(
            ancilla_rep.rate_value > 0.0 and extra_rep.rate_value > 0.0
        ),
    }
    return results, checks, []


# --------------------------------------------------------------------------
# retro


def cmd_retro(scn: Scenario, outdir: str, seed: int):
    """Check recovery-map identities and the contraction/retrodiction link."""
    block = scn.analyses.retrodiction
    if block is None:
        raise ScenarioError("retro needs an analyses.retrodiction block")
    dyn = build_dynamics(scn.dynamics)
    grid = scn.grid.times()
    prior = prob_vec(block.prior)
    ctx = retrodiction_context(prior, dyn, grid)

    scan = divisibility_scan(dyn, grid, rate_tol=scn.tolerance("rate_tol"))
    markovian = scan.markovian_on_grid and not scan.failures

    idx = np.unique(np.linspace(0, grid.shape[0] - 1, num=min(grid.shape[0], 9)).astype(int))
    sample_times = [float(grid[i]) for i in idx]
    adjoint_max = max(
        adjoint_identity_check(ctx, t, trials=block.trials, seed=seed) for t in sample_times
    )

    spec_min = math.inf
    spec_max = -math.inf
    for t in sample_times:
        vals = ctx.recovery_spectrum(t)
        spec_min = min(spec_min, float(vals.min()))
        spec_max = max(spec_max, float(vals.max()))

    n = prior.shape[0]
    bump = 1e-3 * float(prior.min()) * zero_sum_basis(n)[:, 0]
    p0 = prior + bump
    retro_curve = [retrodiction_distance_sq(p0, ctx, float(t)) for t in grid]
    drops = [retro_curve[i + 1] - retro_curve[i] for i in range(len(retro_curve) - 1)]
    monotone = all(step >= -1e-12 for step in drops)

    if block.equivalence_times is not None:
        eq_times = list(block.equivalence_times)
    else:
        eq_times = sorted(
            {float(grid[int(f * (grid.shape[0] - 1))]) for f in (0.25, 0.5, 0.75)} - {float(grid[0])}
        )
    equivalence = []
    verdicts_ok = True
    for t in eq_times:
        rep = retrodiction_equivalence_check(ctx, t, band=scn.tolerance("equivalence_band"))
        verdicts_ok = verdicts_ok and rep.verdict != "inconsistent"
        equivalence.append(
            {
                "t": t,
                "lambda_max": rep.lambda_max,
                "curvature_min": rep.curvature_min,
                "band": rep.band,
                "verdict": rep.verdict,
            }
        )

    results = {
        "prior": prior,
        "markovian_on_grid": markovian,
        "prior_recovery_defect": ctx.prior_recovery_defect(),
        "self_adjoint_defect": ctx.self_adjoint_defect(),
        "adjoint_identity_max": adjoint_max,
        "recovery_spectrum": {"min": spec_min, "max": spec_max},
        "retro_distance_initial": retro_curve[0],
        "retro_distance_final": retro_curve[-1],
        "retro_monotone": monotone,
        "equivalence": equivalence,
    }
    checks = {
        "adjoint_identity": _check_max(adjoint_max, scn.tolerance("adjoint")),
        "no_inconsistent_verdicts": _check_true(verdicts_ok),
    }
    if markovian:
        slack = scn.tolerance("spectrum_slack")
        checks["spectrum_in_unit_interval"] = _check_true(
            spec_min >= -slack and spec_max <= 1.0 + slack
        )
        checks["retro_monotone"] = _check_true(monotone)
    return results, checks, []


# --------------------------------------------------------------------------
# quantum


def cmd_quantum(scn: Scenario, outdir: str, seed: int):
    """Classify a semiclassical step by complete positivity and witness it."""
    block = scn.analyses.quantum or QuantumSpec()
    rates = {(i, j): v for i, j, v in block.rates}
    lind = semiclassical_lindbladian(rates, block.dim)
    step = channel_step(lind, block.dt, mode="exact")
    cp = cp_check(step, tol=scn.tolerance("cp"))
    classical = rate_matrix_from_rates(rates, block.dim)
    markovian = is_markovian_generator(classical).markovian

    results = {
        "dim": block.dim,
        "dt": block.dt,
        "markovian": markovian,
        "choi_min_eigenvalue": cp.min_eigenvalue,
        "cp": cp.cp,
        "metric": block.kind,
    }
    checks = {"cp_matches_rate_sign": _check_true(cp.cp == markovian)}
    if not cp.cp:
        witness = quantum_dilation_witness(
            step, eta=block.eta, eps=block.eps, kind=MonotoneKind(block.kind)
        )
        fd = quantum_witness_fd_rate(step, witness)
        agreement = abs(fd - witness.rate_value) / abs(witness.rate_value)
        results["witness"] = {
            "found": witness.found,
            "rate_value": witness.rate_value,
            "scaled_rate": witness.scaled_rate,
            "scaled_rate_half_eta": witness.scaled_rate_half_eta,
            "stable": witness.stable,
            "eta": witness.eta,
            "eps": witness.eps,
            "fd_rate": fd,
            "fd_agreement": agreement,
        }
        checks["witness_found"] = _check_true(witness.found)
        checks["witness_stable"] = _check_true(witness.stable)
        checks["fd_agreement"] = _check_max(agreement, scn.tolerance("fd_agreement"))
    return results, checks, []


# --------------------------------------------------------------------------
# driver

_COMMANDS = {
    "figure1": cmd_figure1,
    "scan": cmd_scan,
    "witness": cmd_witness,
    "nogo": cmd_nogo,
    "filter": cmd_filter,
    "retro": cmd_retro,
    "quantum": cmd_quantum,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fisherflow",
        description="Fisher-distance contraction analyses driven by scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        sp = sub.add_parser(name, help=handler.__doc__.splitlines()[0])
        sp.add_argument("--scenario", required=True, help="path to the scenario JSON file")
        sp.add_argument("--out", default=None, help="output directory (default: scenario or cwd)")
        sp.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        sp.add_argument(
            "--threads",
            type=int,
            default=None,
            help="thread count, validated only: sweeps run on one thread (default: FISHERFLOW_THREADS or 1)",
        )
    return parser


def _check_threads(value: int | None) -> None:
    if value is None:
        raw = os.environ.get("FISHERFLOW_THREADS", "1")
        try:
            value = int(raw)
        except ValueError as exc:
            raise InvalidInputError(f"FISHERFLOW_THREADS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InvalidInputError(f"thread count must be >= 1, got {value}")


def _run(args) -> int:
    scn = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scn.seed
    if seed < 0:
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed}")
    _check_threads(args.threads)
    outdir = args.out or scn.output_dir or "."
    os.makedirs(outdir, exist_ok=True)

    results, checks, artifacts = _COMMANDS[args.command](scn, outdir, seed)
    passed = all(entry["ok"] for entry in checks.values())
    report = {
        "schema": _REPORT_SCHEMA,
        "command": args.command,
        "seed": seed,
        "scenario": scenario_to_dict(scn),
        "results": _plain(results),
        "checks": _plain(checks),
        "artifacts": artifacts + [f"{args.command}.json"],
        "passed": passed,
    }
    _assert_finite(report["results"], "results")
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _atomic_write(os.path.join(outdir, f"{args.command}.json"), [text])
    print(f"{args.command}: {'PASS' if passed else 'FAIL'} ({args.command}.json)")
    if not passed:
        failed = sorted(name for name, entry in checks.items() if not entry["ok"])
        raise NumericalAccuracyError(f"{args.command}: failed checks: {', '.join(failed)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _run(args)
    except WitnessNotFoundError as exc:
        print(f"fisherflow: witness not found: {exc}", file=sys.stderr)
        return 3
    except NumericalAccuracyError as exc:
        print(f"fisherflow: numerical accuracy: {exc}", file=sys.stderr)
        return 2
    except FisherflowError as exc:
        print(f"fisherflow: invalid input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
