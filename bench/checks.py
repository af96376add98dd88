"""Correctness checks of each workload's outputs against ``reference.py``.

``check_pass`` checks every output of one pass in full and returns a list
of problems (empty when all is well). ``digest`` condenses one output to a
hash: the program's outputs are deterministic, so a later pass whose
digests equal those of a fully checked pass is correct as well.
``check_digests`` checks what digests alone show: that ``figure1`` writes
the same bytes at every thread count.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

import reference as ref

#: Sweep plane of the figure1 fixture: an orthonormal zero-sum pair.
SWEEP_U1 = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
SWEEP_U2 = np.array([2.0, -1.0, -1.0]) / np.sqrt(6.0)
#: Default scenario tolerances, as documented for the scenario format.
DEFAULT_RATE_TOL = 1e-9
DEFAULT_TRACE_LAW = 1e-6
DEFAULT_FILTER_RATIO = 0.05


class Problems(list):
    def expect(self, ok, message: str) -> None:
        if not ok:
            self.append(message)

    def close(self, observed, expected, rtol: float, atol: float, message: str) -> None:
        observed = np.asarray(observed, dtype=float)
        expected = np.asarray(expected, dtype=float)
        if observed.shape != expected.shape:
            self.append(f"{message}: shape {observed.shape} != {expected.shape}")
            return
        err = np.abs(observed - expected) - (atol + rtol * np.abs(expected))
        if err.size and float(err.max()) > 0.0:
            worst = int(np.argmax(err))
            self.append(
                f"{message}: {observed.flat[worst]!r} vs reference {expected.flat[worst]!r} "
                f"(rtol {rtol:g}, atol {atol:g})"
            )


def _scenario(run) -> dict:
    with open(run.scenario, encoding="utf-8") as fh:
        return json.load(fh)


def _grid(scn: dict) -> np.ndarray:
    g = scn["grid"]
    return np.linspace(g.get("t0", 0.0), g["t1"], g["points"])


def _rate_tol(scn: dict, block: dict | None = None) -> float:
    if block is not None and "rate_tol" in block:
        return float(block["rate_tol"])
    return float(scn.get("tolerances", {}).get("rate_tol", DEFAULT_RATE_TOL))


def _generator(scn: dict) -> np.ndarray:
    return np.asarray(scn["dynamics"]["matrix"], dtype=float)


def _read_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


# --------------------------------------------------------------------------
# CLI reports


def _check_figure1(run, report: dict, out: Problems) -> None:
    scn = _scenario(run)
    times = _grid(scn)
    pert = scn.get("perturbation", {})
    thetas = np.linspace(0.0, 2.0 * np.pi, pert.get("theta_points", 256), endpoint=False)
    d0 = pert.get("epsilon", 1e-3) * (np.cos(thetas)[:, None] * SWEEP_U1 + np.sin(thetas)[:, None] * SWEEP_U2)
    p0 = np.asarray(scn.get("initial_state", [0.2, 0.4, 0.4]), dtype=float)

    data = _read_csv(run.path("figure1.csv"))
    nt, nth = times.size, thetas.size
    out.expect(data.shape == (nt * nth, 6), f"figure1.csv has shape {data.shape}, expected {(nt * nth, 6)}")
    if data.shape != (nt * nth, 6):
        return
    data = data.reshape(nt, nth, 6)
    out.expect(np.array_equal(data[:, 0, 0], times), "figure1.csv time column differs from the grid")
    out.expect(np.array_equal(data[0, :, 1], thetas), "figure1.csv theta column differs from the sweep")

    base = ref.case_study_base(times, p0)
    gens = ref.case_study_generators(times)
    shrink = 1.0 - ref.case_study_weight(times)
    disp = shrink[:, None, None] * d0[None, :, :]
    fisher = np.sqrt((disp**2 / (2.0 * base[:, None, :])).sum(axis=2))
    rates = np.stack([ref.fisher_rate_direct(base[k], disp[k], gens[k]) for k in range(nt)])
    min_rates = ref.case_study_columns(times).min(axis=1)
    rate_scale = float(np.abs(rates).max())

    out.close(data[:, :, 2], ref.case_study_trace_law(times, d0), 1e-12, 0.0, "figure1 trace distance")
    out.close(data[:, :, 3], fisher, 1e-12, 0.0, "figure1 Fisher distance")
    out.close(data[:, :, 4], rates, 1e-9, 1e-12 * rate_scale, "figure1 Fisher rate")
    out.close(data[:, :, 5], np.repeat(min_rates[:, None], nth, axis=1), 1e-12, 1e-15, "figure1 minimal rate")

    res = report["results"]
    windows = ref.negative_windows(times, min_rates, _rate_tol(scn))
    out.expect(res["negative_rate_windows"] == windows, "figure1 negative-rate windows differ from the closed form")
    backflow = [bool(np.any(rates[(times >= lo) & (times <= hi)].max(axis=1) > 0.0)) for lo, hi in windows]
    out.expect(res["backflow_per_window"] == backflow, "figure1 backflow per window differs from the reference rates")
    out.expect(res["trace_law_defect"] <= DEFAULT_TRACE_LAW, "figure1 trace-law defect above tolerance")
    out.close(res["min_rate_overall"], min_rates.min(), 1e-12, 0.0, "figure1 overall minimal rate")


def _check_scan(run, report: dict, out: Problems) -> None:
    scn = _scenario(run)
    times = _grid(scn)
    tol = _rate_tol(scn, scn["analyses"].get("divisibility"))
    cols = ref.case_study_columns(times)
    min_rates = cols.min(axis=1)
    data = _read_csv(run.path("scan.csv"))
    out.expect(data.shape == (times.size, 3), f"scan.csv has shape {data.shape}")
    if data.shape == (times.size, 3):
        out.expect(np.array_equal(data[:, 0], times), "scan.csv time column differs from the grid")
        out.close(data[:, 1], min_rates, 1e-12, 1e-15, "scan minimal rate")
        # each row of the case-study generator carries its rate on both off-diagonal entries
        out.expect(np.array_equal(data[:, 2], 2 * (cols < -tol).sum(axis=1)), "scan negative-rate counts differ")
    out.expect(report["results"]["windows"] == ref.negative_windows(times, min_rates, tol), "scan windows differ")


def _check_retro(run, report: dict, out: Problems) -> None:
    scn = _scenario(run)
    grid = _grid(scn)
    r = _generator(scn)
    prior = np.asarray(scn["analyses"]["retrodiction"]["prior"], dtype=float)
    prior = prior / prior.sum()
    # the report summarizes the spectrum at up to nine evenly spread grid indices
    idx = np.unique(np.linspace(0, grid.size - 1, num=min(grid.size, 9)).astype(int))
    spectra = np.concatenate([ref.recovery_spectrum(ref.eig_propagator(r, grid[i]), prior) for i in idx])
    res = report["results"]
    out.close(res["recovery_spectrum"]["min"], spectra.min(), 1e-9, 1e-12, "retro recovery spectrum minimum")
    out.close(res["recovery_spectrum"]["max"], spectra.max(), 1e-9, 1e-12, "retro recovery spectrum maximum")
    out.expect(res["prior_recovery_defect"] <= 1e-12, "retro round trip does not fix the prior")


def _check_quantum(run, report: dict, out: Problems) -> None:
    block = _scenario(run)["analyses"]["quantum"]
    d = block["dim"]
    step = ref.taylor_exp(block["dt"] * ref.semiclassical_superoperator(block["rates"], d))
    expected = float(np.linalg.eigvalsh(ref.choi_by_reshape(step, d)).min())
    res = report["results"]
    out.close(res["choi_min_eigenvalue"], expected, 1e-8, 1e-14, "quantum Choi minimum eigenvalue")
    markovian = all(a >= 0.0 for _, _, a in block["rates"])
    out.expect(res["cp"] == markovian, "quantum CP verdict disagrees with the rate signs")
    out.expect(res["markovian"] == markovian, "quantum Markovian verdict disagrees with the rate signs")


def _check_witness(run, report: dict, out: Problems) -> None:
    res = report["results"]
    out.expect(res["found"], "witness not found")
    if res["found"]:
        direct = ref.fisher_rate_direct(res["base"], res["direction"], _generator(_scenario(run)))[0]
        out.expect(res["rate_value"] > 0.0, "witness rate is not positive")
        out.close(res["rate_value"], direct, 1e-8, 0.0, "witness rate against the direct formula")


def _nogo_reference(pi, r, copies: int, ancilla: int) -> tuple[float, float]:
    base = ref.replicate_base(pi, copies, ancilla)
    gen = ref.replicate_generator(r, copies, ancilla)
    sys_dim = len(pi) ** copies
    image = ref.vanishing_ancilla_marginal_space(sys_dim, ancilla) if ancilla >= 2 else None
    return ref.laplacian_spectrum(base, gen, image).max(), ref.laplacian_spectrum(base, gen).max()


def _check_nogo(run, report: dict, out: Problems) -> None:
    scn = _scenario(run)
    r = _generator(scn)
    pi = np.asarray(scn["analyses"]["no_go"].get("base", np.full(r.shape[0], 1.0 / r.shape[0])), dtype=float)
    for case in report["results"]["cases"]:
        image, full = _nogo_reference(pi, r, case["copies"], case["ancilla_dim"])
        where = f"nogo copies={case['copies']} ancilla={case['ancilla_dim']}"
        out.close(case["lambda_max_on_image"], image, 1e-8, 1e-12, f"{where} image lambda")
        out.close(case["lambda_max_full"], full, 1e-8, 1e-12, f"{where} full lambda")
        out.expect(case["passed"], f"{where} did not pass")


def _check_filter(run, report: dict, out: Problems) -> None:
    scn = _scenario(run)
    block = scn["analyses"]["filter"]
    r = _generator(scn)
    off = r - np.diag(np.diag(r))
    _, j0 = np.unravel_index(np.argmin(off + np.diag(np.full(r.shape[0], np.inf))), r.shape)
    trace_rate = 2.0 * float(-off[:, j0][off[:, j0] < 0.0].sum())
    res = report["results"]
    for mode, value in res["trace_witness_rates"].items():
        out.close(value, trace_rate, 1e-12, 0.0, f"filter trace witness {mode}")
    m = block.get("ancilla_dim", 2)
    direction = np.kron(np.eye(r.shape[0])[j0], np.asarray(block.get("ancilla_displacement", [0.1, -0.1])))
    limit = 2.0 * np.abs(direction).sum() * ref.forward_trace_rate(direction, ref.replicate_generator(r, 1, m))
    out.close(res["limit_reference"], limit, 1e-12, 0.0, "filter limit reference")
    tol = float(scn.get("tolerances", {}).get("filter_ratio", DEFAULT_FILTER_RATIO))
    for eps, ratio in res["epsilon_ratios"].items():
        out.expect(abs(ratio / limit - 1.0) <= tol, f"filter ratio at eps={eps} is {ratio}, limit {limit}")


CLI_CHECKS = {
    "figure1": _check_figure1,
    "scan": _check_scan,
    "retro": _check_retro,
    "quantum": _check_quantum,
    "witness": _check_witness,
    "nogo": _check_nogo,
    "filter": _check_filter,
}


def _check_cli(run, out: Problems) -> None:
    where = f"{run.command} on {os.path.basename(run.scenario)}"
    report = run.report()
    out.expect(report["passed"], f"{where} report did not pass")
    before = len(out)
    CLI_CHECKS[run.command](run, report, out)
    out[before:] = [f"{where}: {msg}" for msg in out[before:]]


# --------------------------------------------------------------------------
# library outputs


def _check_forms(w, label: str, value, out: Problems) -> None:
    kind, k = label.split(":")
    k = int(k)
    if kind == "markov":
        p, r = w.markov[k]
        expected = ref.laplacian_spectrum(p, r)
        scale = float(np.abs(expected).max())
        out.expect(value.max() <= 1e-10 * scale, f"markov form {k} (n={len(p)}) has lambda_max {value.max():.3e} > 0")
        out.close(np.sort(value), expected, 0.0, 1e-9 * scale, f"markov form {k} (n={len(p)}) spectrum")
    elif kind == "planted":
        r, _ = w.planted[k]
        out.expect(value.found, f"planted generator {k} has no witness")
        if value.found:
            out.expect(value.rate_value > 0.0, f"planted witness {k} rate is not positive")
            direct = ref.fisher_rate_direct(value.base, value.direction, r)[0]
            out.close(value.rate_value, direct, 1e-8, 0.0, f"planted witness {k} rate")
    elif kind == "nogo":
        pi, r, copies, ancilla = w.nogo[k]
        image, full = _nogo_reference(pi, r, copies, ancilla)
        where = f"no-go case {k} (copies={copies}, ancilla={ancilla})"
        out.expect(value.passed, f"{where} did not pass")
        out.expect(value.lambda_max_on_image <= -value.margin, f"{where} image lambda above -margin")
        scale = float(np.abs(r).max())
        out.close(value.lambda_max_on_image, image, 1e-8, 1e-12 * scale, f"{where} image lambda")
        out.close(value.lambda_max_full, full, 1e-8, 1e-12 * scale, f"{where} full lambda")


def _reference_rate(w):
    return lambda t: w.rate.steady + np.sin(w.rate.frequency * t) * w.rate.oscillating


#: Accuracy the integrator promises: its step-halving estimate stays below this.
RK4_TOL = 1e-6


def _check_dynamics(w, label: str, value, out: Problems) -> None:
    if label == "propagate":
        expected = ref.ode_propagators(_reference_rate(w), w.dimension, value.times)
        out.close(value.propagators, expected, 0.0, RK4_TOL, "RK4 propagators")
    elif label == "retro_context":
        expected = ref.ode_propagators(_reference_rate(w), w.dimension, w.retro_grid)
        out.close(value.forward_maps, expected, 0.0, RK4_TOL, "retrodiction forward maps")
        recoveries = np.stack([ref.bayes_inverse(m, w.prior) for m in expected])
        out.close(value.recovery_maps, recoveries, 0.0, 10 * RK4_TOL, "retrodiction recovery maps")
        for t, m in zip(w.retro_grid[::16], expected[::16]):
            out.close(value.recovery_spectrum(float(t)), ref.recovery_spectrum(m, w.prior), 0.0, 10 * RK4_TOL,
                      f"retrodiction recovery spectrum at t={t:.4g}")


def check_pass(workload, outputs: dict) -> list[str]:
    """Full check of the operations that succeeded; ``outputs`` maps their labels to results."""
    out = Problems()
    for label, value in outputs.items():
        if label in workload.cli_runs:
            _check_cli(workload.cli_runs[label], out)
        elif workload.name == "forms":
            _check_forms(workload, label, value, out)
        else:
            _check_dynamics(workload, label, value, out)
    return out


def check_digests(workload, digests: dict) -> list[str]:
    """The default and ``--threads 2`` figure1 runs must write identical files."""
    if workload.name != "figure1":
        return []
    values = {digests[label] for label in workload.cli_runs if label in digests}
    if len(values) > 1:
        return ["figure1 output differs between the default thread count and --threads 2"]
    return []


def _file_hash(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest(workload, label: str, value) -> str:
    """Hash of one output: its files for a CLI run, its numbers for a library call."""
    h = hashlib.sha256()
    if label in workload.cli_runs:
        outdir = workload.cli_runs[label].outdir
        for name in sorted(os.listdir(outdir)):
            if not name.startswith("."):
                h.update(name.encode())
                h.update(_file_hash(os.path.join(outdir, name)).encode())
        return h.hexdigest()
    if isinstance(value, np.ndarray):
        arrays = [value]
    elif label.startswith("planted"):
        arrays = [value.base, value.direction, [value.rate_value, value.found]]
    elif label.startswith("nogo"):
        arrays = [[value.lambda_max_on_image, value.lambda_max_full, value.passed]]
    elif label == "propagate":
        arrays = [value.propagators]
    else:
        arrays = [value.forward_maps, value.recovery_maps]
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()
