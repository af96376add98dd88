"""Command line front end.

Every command reads one scenario file, runs a single analysis, and writes
a JSON report (plus CSV/gnuplot artifacts where they make sense) into the
output directory. Reports echo the scenario, so a run can be reproduced
from its output alone, and the resolved seed, which no command reads: it
is only echoed. Writes are atomic and the content is a pure function of
the scenario and that echo, so repeated runs produce byte-identical files.

Exit codes: 0 on success, 1 on invalid input (bad scenario, inapplicable
analysis), 2 on a numerical-accuracy failure (including failed tolerance
checks; the report is still written), 3 when a required witness could not
be found.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import mmap
import os
import signal
import sys
import tempfile
import traceback

import numpy as np

from ._report import _Column, _Records, _report_text
from .distances import _forward_trace_rate, _require_interior, fisher_rates
from .errors import (
    FisherflowError,
    InvalidInputError,
    NumericalAccuracyError,
    ScenarioError,
    WitnessNotApplicableError,
    WitnessNotFoundError,
)
from .propagation import ScanResult, divisibility_scan, generator_grid, generator_of, refinement_stable
from .quantum import (
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
    filter_witness_rate,
    no_go_verify,
    regularize_direction,
    special_base_point,
    trace_ancilla_witness,
)

__all__ = ["main"]

_REPORT_SCHEMA = "fisherflow-report-v1"

#: Orthonormal zero-sum pair spanning the sweep plane of the figure1 fixture.
_SWEEP_U1 = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
_SWEEP_U2 = np.array([2.0, -1.0, -1.0]) / np.sqrt(6.0)
_FIGURE1_P0 = (0.2, 0.4, 0.4)


def _atomic_write(path: str, chunks, parts=()) -> None:
    """Write the text chunks of an iterable to ``path``, replacing it only once all are written.

    Each of ``parts``, also an iterable of text chunks, is written by a forked
    child process while this process writes ``chunks``; the parts are then
    appended in order with ``os.sendfile``, so the file holds ``chunks``
    followed by every part. If anything fails, every child is reaped and
    ``path`` stays as it was.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    pids, part_fds = [], []  # children not yet reaped; descriptors of their part files
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for part in parts:
                pid, part_fd = _fork_writer(directory, part)
                pids.append(pid)
                part_fds.append(part_fd)
            fh.writelines(chunks)
            fh.flush()
            for part_fd in part_fds:
                pid = pids[0]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                pids.pop(0)
                if code != 0:
                    raise RuntimeError(f"writer process {pid} for {path} exited with status {code}")
                size = os.fstat(part_fd).st_size
                offset = 0
                while offset < size:
                    offset += os.sendfile(fh.fileno(), part_fd, offset, size - offset)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        try:
            os.replace(tmp, path)
        except IsADirectoryError:
            raise InvalidInputError(f"cannot write {path}: a directory has its name") from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part_fd in part_fds:
            os.close(part_fd)


def _fork_writer(directory: str, chunks) -> tuple[int, int]:
    """Fork a child that writes ``chunks`` to a new file; return its pid and the file's descriptor.

    The file is made by ``mkstemp`` in ``directory`` and unlinked at once, so
    it disappears with its last descriptor whatever happens. The child leaves
    with ``os._exit`` (status 0 once everything is written, else 1 after
    printing the traceback): it never returns into the caller and runs none
    of the parent's exit handlers or buffer flushes.
    """
    fd, name = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    os.unlink(name)
    try:
        pid = os.fork()
    except BaseException:
        os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
            code = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    return pid, fd


def _check(observed, limit, ok) -> dict:
    return {"observed": observed, "limit": limit, "ok": bool(ok)}


def _check_max(observed: float, limit: float) -> dict:
    return _check(float(observed), float(limit), float(observed) <= float(limit))


def _check_true(flag: bool) -> dict:
    return _check(bool(flag), True, bool(flag))


def _rate_tol(scn: Scenario) -> float:
    """The tolerance of every divisibility scan: ``analyses.divisibility.rate_tol``, else its default."""
    return (scn.analyses.divisibility or DivisibilitySpec()).rate_tol


# --------------------------------------------------------------------------
# figure1


#: (t, theta) rows per batched figure1 step; keeps each temporary near 0.1 MB,
#: so blocks reuse heap memory instead of raising the peak resident size.
_FIGURE1_BLOCK_ROWS = 4096

#: figure1.csv rows per writer process. On 2 cores, with the writers
#: computing their rows as well as formatting them, a second writer made a
#: 256-angle sweep 41% slower at 4,096 rows, 15% faster at 8,192 and 25-33%
#: faster from 10,240 to 16,384 rows (medians of 22 to 78 runs a size), so
#: every sweep of up to 8,192 rows stays on one process.
_FIGURE1_ROWS_PER_WORKER = 8192


def _figure1_block(dyn, gens, dirs0, p0, span):
    """Trace distance, Fisher distance and Fisher rate per (t, theta) for the times in ``span``.

    ``gens`` is the generator grid of ``dyn``; the bases ``T(t) p0`` of the
    span must already be known to be interior.
    """
    props = dyn.propagators_at(gens.times[span])
    bases = props @ p0
    disps = dirs0 @ props.transpose(0, 2, 1)
    values = np.empty(disps.shape[:2] + (3,))
    values[:, :, 0] = np.abs(disps).sum(axis=2)
    values[:, :, 1] = np.sqrt((disps**2 / (2.0 * bases[:, None, :])).sum(axis=2))
    values[:, :, 2] = fisher_rates(bases, disps, gens.generators[span])
    return values


def _figure1_rows(cells, dyn, gens, dirs0, p0, min_rates, reduced, lo, hi):
    """Compute and yield the figure1.csv rows of times ``lo`` to ``hi``, one time at a time.

    The values are computed one ``_FIGURE1_BLOCK_ROWS`` block at a time;
    each time's largest Fisher rate goes to ``reduced[0]`` and its
    trace-law defect to ``reduced[1]``. ``cells`` holds one
    ``,theta,%.17g,%.17g,%.17g,`` cell per angle, so a time's rows come
    from one ``%`` template and are formatted by a single C-level operation.
    """
    tr_ref = np.abs(dirs0).sum(axis=1)
    step = max(1, _FIGURE1_BLOCK_ROWS // dirs0.shape[0])
    for start in range(lo, hi, step):
        span = slice(start, min(start + step, hi))
        times = gens.times[span]
        values = _figure1_block(dyn, gens, dirs0, p0, span)
        reduced[0, span] = values[:, :, 2].max(axis=1)
        reduced[1, span] = np.abs(values[:, :, 0] - (1.0 - dyn.s(times))[:, None] * tr_ref).max(axis=1)
        for t, block, min_rate in zip(times.tolist(), values, min_rates[span].tolist()):
            ts, mr = f"{t:.17g}", f"{min_rate:.17g}"
            template = ts + f"{mr}\n{ts}".join(cells) + f"{mr}\n"
            yield template % tuple(block.ravel().tolist())


def _write_figure1_csv(path, dyn, gens, thetas, dirs0, p0, min_rates):
    """Compute and write figure1.csv, its time rows split into contiguous ranges among forked writers.

    Returns a ``(2, T)`` array holding each time's largest Fisher rate and
    its trace-law defect. One writer per ``_FIGURE1_ROWS_PER_WORKER`` CSV
    rows, but never more than the CPUs this process may run on or one per
    time. The first range is computed and formatted here, each other one
    in a child process (see ``_atomic_write``) that records its times'
    reductions in an anonymous shared mapping; so no process holds the
    values of the whole sweep, and the bytes do not depend on the number
    of writers. Every check that can reject the sweep has run before the
    writers start.

    Forking is safe although numpy's and scipy's OpenBLAS started their
    worker threads when they loaded: importing fisherflow pins every
    OpenBLAS in the process to one thread (``_blas``), so the small matrix
    products the children run execute on the calling thread and never
    wait for a pool worker, which a fork does not copy. The children leave
    with ``os._exit``. (Python 3.12 and later warn with a
    ``DeprecationWarning`` when a process with threads forks.)
    """
    count = gens.times.shape[0]
    writers = 1
    # splicing needs os.fork and a file-to-file os.sendfile, which only Linux has
    if hasattr(os, "fork") and sys.platform.startswith("linux"):
        cpus = len(os.sched_getaffinity(0))
        rows = count * thetas.shape[0]
        writers = min(cpus, -(-rows // _FIGURE1_ROWS_PER_WORKER), count)
    reduced = np.frombuffer(mmap.mmap(-1, 16 * count)).reshape(2, count)
    cells = [f",{theta:.17g},%.17g,%.17g,%.17g," for theta in thetas.tolist()]
    bounds = [count * k // writers for k in range(writers + 1)]
    ranges = [
        _figure1_rows(cells, dyn, gens, dirs0, p0, min_rates, reduced, lo, hi)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    header = "# t,theta,D_tr,D_fish,dDfish_dt,min_rate\n"
    _atomic_write(path, itertools.chain([header], ranges[0]), parts=ranges[1:])
    return reduced


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


def cmd_figure1(scn: Scenario, outdir: str):
    """Sweep a plane of perturbations through the bundled mixing family.

    Writes one CSV row per (t, theta) with the trace distance, the local
    Fisher distance, its squared-distance rate, and the minimal transition
    rate of the generator at that time.
    """
    dyn = build_dynamics(scn.dynamics)
    if scn.dynamics.kind != "case_study":
        raise WitnessNotApplicableError("figure1 runs only on case_study dynamics")
    if scn.grid.t0 != 0.0:
        raise ScenarioError("figure1 grid must start at t0 = 0")
    pert = scn.perturbation
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

    gens = generator_grid(dyn, times)
    # the first boundary base, else the first undefined generator, rejects the sweep
    stop = min(gens.errors, default=times.shape[0])
    _require_interior(dyn.propagators_at(times[:stop]) @ p0)
    if gens.errors:
        raise gens.errors[stop]
    scan = divisibility_scan(dyn, times, rate_tol=_rate_tol(scn), generators=gens)
    min_rates = scan.min_rates
    windows = scan.windows()

    max_rates, defects = _write_figure1_csv(
        os.path.join(outdir, "figure1.csv"), dyn, gens, thetas, dirs0, p0, min_rates
    )
    _atomic_write(os.path.join(outdir, "figure1.gp"), [_FIGURE1_GP])
    backflow_per_window = []
    for lo, hi in windows:
        inside = (times >= lo) & (times <= hi)
        backflow_per_window.append(bool(np.any(max_rates[inside] > 0.0)))

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


def _violations(result: ScanResult, n: int) -> _Records:
    """``scan.json``'s violations: ``{"t", "min_rate", "rates"}`` per grid time with a negative rate.

    ``rates`` maps ``(i, j)`` to each rate below ``-rate_tol``, in row-major
    order, and ``min_rate`` is the smallest of them. Grid times with the
    same transitions below ``-rate_tol`` share one shape.
    """
    index, rates = result.negative_index, result.negative_rate
    first = np.flatnonzero(np.diff(index, prepend=-1))  # each record's first entry
    record = np.repeat(np.arange(first.size), np.diff(first, append=index.size))
    cells = np.zeros((first.size, n * n), dtype=bool)
    cells[record, result.negative_row * n + result.negative_col] = True
    # one bytes key per record, which numpy's unique sorts far faster than rows
    keys = np.packbits(cells, axis=1)
    _, exemplars, kinds = np.unique(keys.view(f"V{keys.shape[1]}").ravel(), return_index=True, return_inverse=True)
    shapes = []
    for row in cells[exemplars]:
        transitions = np.flatnonzero(row).tolist()
        rates_of = {divmod(c, n): _Column(2 + m) for m, c in enumerate(transitions)}
        shapes.append({"t": _Column(0), "min_rate": _Column(1), "rates": rates_of})
    starts = first + 2 * np.arange(first.size)
    values = np.empty(index.size + 2 * first.size)
    values[starts] = result.grid[index[first]]
    values[starts + 1] = np.minimum.reduceat(rates, first)
    values[np.arange(index.size) + 2 * record + 2] = rates
    return _Records(shapes, kinds.ravel(), starts, values)


def cmd_scan(scn: Scenario, outdir: str):
    """Report every grid time whose generator carries a negative rate."""
    dyn = build_dynamics(scn.dynamics)
    rate_tol = _rate_tol(scn)
    times = scn.grid.times()
    result = divisibility_scan(dyn, times, rate_tol=rate_tol)
    stable = refinement_stable(dyn, result)

    # the minimal rate is NaN exactly where extraction failed; those points are left out
    kept = ~np.isnan(result.min_rates)
    counts = np.bincount(result.negative_index, minlength=result.grid.size)
    cells = np.column_stack([result.grid, result.min_rates, counts])[kept]
    rows = "%.17g,%.17g,%d\n" * cells.shape[0] % tuple(cells.ravel().tolist())
    _atomic_write(os.path.join(outdir, "scan.csv"), ["# t,min_rate,n_negative\n", rows])

    results = {
        "rate_tol": rate_tol,
        "markovian_on_grid": result.markovian_on_grid,
        "windows": [[lo, hi] for lo, hi in result.windows()],
        "violations": _violations(result, dyn.dimension),
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


def cmd_witness(scn: Scenario, outdir: str):
    """Build a base and direction with a positive squared-Fisher rate, in closed form."""
    block = scn.analyses.witness or WitnessSpec()
    r = generator_of(build_dynamics(scn.dynamics), block.time)
    verdict = is_markovian_generator(r)
    report = dilation_direction_search(r)

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
        defect = abs(report.recompute_rate() - report.rate_value) / abs(report.rate_value)
        results["recompute_defect"] = defect
        checks["rate_positive"] = _check_true(report.rate_value > 0.0)
        checks["recompute"] = _check_max(defect, scn.tolerance("recompute"))
    return results, checks, []


# --------------------------------------------------------------------------
# nogo


def cmd_nogo(scn: Scenario, outdir: str):
    """Certify strict contraction on replicated and ancilla-extended spaces."""
    block = scn.analyses.no_go or NoGoSpec()
    r = generator_of(build_dynamics(scn.dynamics), 0.0)
    n = r.shape[0]
    pi = prob_vec(block.base if block.base is not None else np.full(n, 1.0 / n))

    reports = [
        no_go_verify(pi, r, copies=copies, ancilla_dim=m, margin=block.margin)
        for copies in block.copies
        for m in block.ancilla_dims
    ]
    failed = next((rep for rep in reports if not rep.condition_met), None)
    if failed is not None:
        raise WitnessNotApplicableError(
            f"generator does not satisfy the single-offender condition at this base: {failed.condition_detail}"
        )
    cases = [
        {
            "copies": rep.copies,
            "ancilla_dim": rep.ancilla_dim,
            "lambda_max_on_image": rep.lambda_max_on_image,
            "lambda_max_full": rep.lambda_max_full,
            "margin": rep.margin,
            "passed": rep.passed,
        }
        for rep in reports
    ]
    # the offender depends on the generator and the base only, not on the extension
    results = {
        "base": pi,
        "offender": reports[0].offender,
        "offender_rate": reports[0].offender_rate,
        "cases": cases,
        "lambda_margin": scn.tolerance("lambda_margin"),
    }
    checks = {
        "all_cases_contract": _check_true(all(rep.passed for rep in reports)),
        "margin_met": _check_true(
            all(c["lambda_max_on_image"] <= -scn.tolerance("lambda_margin") for c in cases)
        ),
    }
    return results, checks, []


# --------------------------------------------------------------------------
# filter


def cmd_filter(scn: Scenario, outdir: str):
    """Run the filtered-distance witness on an ancilla extension."""
    block = scn.analyses.filter or FilterSpec()
    r = generator_of(build_dynamics(scn.dynamics), 0.0)
    verdict = is_markovian_generator(r)
    if verdict.markovian:
        raise WitnessNotApplicableError("filter witness needs a negative rate")
    offender, offender_rate = verdict.offender
    source = offender[1]

    anc = tangent_vec(block.ancilla_displacement)
    ancilla_dim = anc.shape[0]
    extended = extend_generator(r, copies=1, ancilla_dim=ancilla_dim)
    unit = np.zeros(r.shape[0])
    unit[source] = 1.0
    direction = np.kron(unit, anc)

    base = special_base_point(regularize_direction(direction, extended)[0])
    rates = {eps: filter_witness_rate(base, direction, extended, eps) for eps in block.epsilons}
    ratios = {eps: rate / eps**2 for eps, rate in rates.items()}
    strength = float(np.abs(direction).sum())
    reference = 2.0 * strength * _forward_trace_rate(direction, extended)

    ancilla_rep = trace_ancilla_witness(r, verdict, mode="ancilla-M2")
    extra_rep = trace_ancilla_witness(r, verdict, mode="extra-state")

    max_ratio_error = max(abs(v / reference - 1.0) for v in ratios.values())
    results = {
        "offender": offender,
        "offender_rate": offender_rate,
        "ancilla_dim": ancilla_dim,
        "direction": direction,
        "base": base,
        "epsilon_rates": rates,
        "epsilon_ratios": ratios,
        "limit_reference": reference,
        "trace_witness_rates": {
            "ancilla-M2": ancilla_rep.rate_value,
            "extra-state": extra_rep.rate_value,
        },
    }
    checks = {
        "witness_found": _check_true(rates[min(block.epsilons)] > 0.0),
        "ratio_converges": _check_max(max_ratio_error, scn.tolerance("filter_ratio")),
        "trace_witnesses_positive": _check_true(
            ancilla_rep.rate_value > 0.0 and extra_rep.rate_value > 0.0
        ),
    }
    return results, checks, []


# --------------------------------------------------------------------------
# retro


def cmd_retro(scn: Scenario, outdir: str):
    """Check recovery-map identities and the contraction/retrodiction link."""
    block = scn.analyses.retrodiction
    if block is None:
        raise ScenarioError("retro needs an analyses.retrodiction block")
    for t in block.equivalence_times or ():
        # a NaN fails the comparison too
        if not scn.grid.t0 <= t <= scn.grid.t1:
            raise ScenarioError(
                f"analyses.retrodiction.equivalence_times entry {t!r} lies outside the grid "
                f"[{scn.grid.t0!r}, {scn.grid.t1!r}]"
            )
    dyn = build_dynamics(scn.dynamics)
    grid = scn.grid.times()
    ctx = retrodiction_context(block.prior, dyn, grid)
    prior = ctx.prior

    gens = generator_grid(dyn, grid)
    scan = divisibility_scan(dyn, grid, rate_tol=_rate_tol(scn), generators=gens)
    markovian = scan.markovian_on_grid and not scan.failures

    # the indices ascend, so dropping repeats keeps them sorted with no sort call (numpy's
    # first one in a process pages its sort code in)
    idx = np.linspace(0, grid.shape[0] - 1, num=min(grid.shape[0], 9)).astype(int).tolist()
    sample_times = grid[list(dict.fromkeys(idx))]
    adjoint_max = float(np.max(adjoint_identity_check(ctx, sample_times)))
    spectra = ctx.recovery_spectrum(sample_times)
    spec_min = float(spectra.min())
    spec_max = float(spectra.max())

    p0 = prior + 1e-3 * float(prior.min()) * zero_sum_basis(prior.shape[0])[:, 0]
    retro_curve = retrodiction_distance_sq(p0, ctx, grid)
    monotone = bool(np.all(np.diff(retro_curve) >= -1e-12))

    defaults = sorted({int(f * (grid.shape[0] - 1)) for f in (0.25, 0.5, 0.75)} - {0})
    rows = defaults if block.equivalence_times is None else ctx.indices_of(block.equivalence_times).tolist()
    band = scn.tolerance("equivalence_band")
    # a requested time whose generator failed raises; any other has no verdict, and the scan reports it
    for k in rows:
        if k in gens.errors:
            raise gens.errors[k]
    rep = retrodiction_equivalence_check(ctx, grid, band=band, generators=gens)
    lows = rep.curvature_min
    equivalence = [
        dict(t=grid[k], lambda_max=rep.lambda_max[k], curvature_min=lows[k], band=band, verdict=rep.verdict[k])
        for k in rows
    ]

    results = {
        "prior": prior,
        "markovian_on_grid": markovian,
        "prior_recovery_defect": ctx.prior_recovery_defect(),
        "self_adjoint_defect": ctx.self_adjoint_defect(),
        "adjoint_identity_max": adjoint_max,
        "recovery_spectrum": {"min": spec_min, "max": spec_max},
        "retro_distance_initial": float(retro_curve[0]),
        "retro_distance_final": float(retro_curve[-1]),
        "retro_monotone": monotone,
        "equivalence": equivalence,
    }
    checks = {
        "adjoint_identity": _check_max(adjoint_max, scn.tolerance("adjoint")),
        "no_inconsistent_verdicts": _check_true(not np.any(rep.verdict == "inconsistent")),
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


def cmd_quantum(scn: Scenario, outdir: str):
    """Classify a semiclassical step by complete positivity and witness it."""
    block = scn.analyses.quantum or QuantumSpec()
    rates = {(i, j): v for i, j, v in block.rates}
    lind = semiclassical_lindbladian(rates, block.dim)
    step = channel_step(lind, block.dt)
    cp = cp_check(step, tol=scn.tolerance("cp"))
    classical = rate_matrix_from_rates(rates, block.dim)
    markovian = is_markovian_generator(classical).markovian

    results = {
        "dim": block.dim,
        "dt": block.dt,
        "markovian": markovian,
        "choi_min_eigenvalue": cp.min_eigenvalue,
        "cp": cp.cp,
    }
    checks = {"cp_matches_rate_sign": _check_true(cp.cp == markovian)}
    if not cp.cp:
        witness = quantum_dilation_witness(step, cp, eta=block.eta, eps=block.eps)
        fd = quantum_witness_fd_rate(witness)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared by every later ``main``."""
    parser = argparse.ArgumentParser(
        prog="fisherflow",
        description="Fisher-distance contraction analyses driven by scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        sp = sub.add_parser(name, help=handler.__doc__.splitlines()[0])
        sp.add_argument("--scenario", required=True, help="path to the scenario JSON file")
        sp.add_argument("--out", default=None, help="output directory (default: scenario or cwd)")
        sp.add_argument("--seed", type=int, default=None, help="override the scenario seed (only echoed)")
        # retired: accepted and ignored, for command lines that still pass it (bench/gen.py does)
        sp.add_argument("--threads", help=argparse.SUPPRESS)
    return parser


def _run(args) -> int:
    scn = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scn.seed
    if seed < 0:
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed}")
    outdir = args.out or scn.output_dir or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise InvalidInputError(f"cannot create output directory {outdir}: {exc.strerror}") from None

    results, checks, artifacts = _COMMANDS[args.command](scn, outdir)
    passed = all(entry["ok"] for entry in checks.values())
    report = {
        "schema": _REPORT_SCHEMA,
        "command": args.command,
        "seed": seed,
        "scenario": scenario_to_dict(scn),
        "results": results,
        "checks": checks,
        "artifacts": artifacts + [f"{args.command}.json"],
        "passed": passed,
    }
    _atomic_write(os.path.join(outdir, f"{args.command}.json"), [_report_text(report)])
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
