"""Acceptance gate: eight end-to-end checks at fixed sizes and tolerances.

Each test prints one PASS/FAIL line directly to the terminal (bypassing
capture) before asserting, so every run shows the verdict per criterion
even under default pytest capture.
"""

import json
import os

import numpy as np

import fisherflow as ff
from fisherflow import MonotoneKind
from fisherflow.cli import main
from helpers import (
    random_density,
    random_forced_negative,
    random_interior,
    random_markovian,
    random_traceless_hermitian,
    random_zero_sum,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
COUNTEREXAMPLE = np.array([[-1.0, -0.5], [1.0, 0.5]])
SWEEP_U1 = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
SWEEP_U2 = np.array([2.0, -1.0, -1.0]) / np.sqrt(6.0)


def _announce(capsys, index, label, ok, detail=""):
    with capsys.disabled():
        tail = f" [{detail}]" if detail else ""
        print(f"\nacceptance {index}/8 {label}: {'PASS' if ok else 'FAIL'}{tail}")


def test_a1_figure_sweep(capsys):
    """Full perturbation sweep: trace law, backflow coverage, pinned minimum rate."""
    dyn = ff.case_study_dynamics()
    times = np.linspace(0.0, np.pi, 1024)
    thetas = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    dirs0 = 1e-3 * (np.cos(thetas)[:, None] * SWEEP_U1 + np.sin(thetas)[:, None] * SWEEP_U2)
    p0 = ff.prob_vec([0.2, 0.4, 0.4])
    tr_ref = np.abs(dirs0).sum(axis=1)

    trace_defect = 0.0
    max_rates = np.empty(times.shape[0])
    for k, t in enumerate(times):
        prop = dyn.propagators_at([float(t)])[0]
        gen = ff.generator_of(dyn, float(t))
        base = prop @ p0
        disp = dirs0 @ prop.T
        tr = np.abs(disp).sum(axis=1)
        trace_defect = max(trace_defect, float(np.abs(tr - (1.0 - dyn.s(float(t))) * tr_ref).max()))
        max_rates[k] = ff.fisher_rates(base, disp, gen).max()

    windows = ff.divisibility_scan(dyn, times).windows()
    backflow = [
        bool(np.any(max_rates[(times >= lo) & (times <= hi)] > 0.0)) for lo, hi in windows
    ]
    min_rate = min(
        float(v) for (i, j), v in ff.rates_of(ff.generator_of(dyn, np.pi / 20.0)).items()
    )

    ok_trace = trace_defect <= 1e-6
    ok_backflow = bool(windows) and all(backflow)
    ok_min_rate = abs(min_rate - (-0.0757)) <= 1e-3
    ok = ok_trace and ok_backflow and ok_min_rate
    _announce(
        capsys,
        1,
        "figure sweep",
        ok,
        f"trace defect {trace_defect:.2e}; backflow in {sum(backflow)}/{len(backflow)} windows; "
        f"min rate {min_rate:.6f}",
    )
    assert ok_trace, f"trace-distance law violated by {trace_defect:.3e}"
    assert ok_min_rate, f"minimal rate at t = pi/20 is {min_rate:.6f}, expected -0.0757 within 1e-3"
    assert ok_backflow, (
        "expected a positive squared-Fisher rate inside every negative-rate window, "
        f"found backflow flags {backflow} for windows {[(round(a, 3), round(b, 3)) for a, b in windows]}; "
        "with the displacement evolved from t = 0 the sweep dilates only in the windows whose "
        "offense drains the corner state, and provably contracts in the others "
        "(the full contraction-form spectrum at the evolved base stays negative there)"
    )


def test_a2_random_generator_sweep(capsys):
    """Markovian generators never dilate; planted negative rates always witnessed."""
    rng = np.random.default_rng(2024)
    worst_lambda = -np.inf
    for _ in range(500):
        n = int(rng.integers(2, 7))
        r = random_markovian(rng, n)
        for _ in range(100):
            form = ff.contraction_form(random_interior(rng, n), r)
            worst_lambda = max(worst_lambda, form.lambda_max)
    ok_contract = worst_lambda <= 1e-10

    found = 0
    trials = 500
    for k in range(trials):
        n = int(rng.integers(2, 7))
        r = random_forced_negative(rng, n, floor=1e-2)
        report = ff.dilation_direction_search(r, seed=k)
        if report.found and report.rate_value > 0.0:
            found += 1
    ok_witness = found == trials

    ok = ok_contract and ok_witness
    _announce(
        capsys,
        2,
        "generator ensembles",
        ok,
        f"max lambda over 50000 Markovian forms {worst_lambda:.2e}; witnesses {found}/{trials}",
    )
    assert ok_contract, f"Markovian contraction violated: lambda_max = {worst_lambda:.3e}"
    assert ok_witness, f"dilation search failed on {trials - found} planted instances"


def test_a3_no_go_extensions(capsys):
    """Single-offender instance contracts strictly on all replica/ancilla extensions."""
    pi, r = ff.single_negative_rate_example()
    check = ff.is_markovian_generator(r)
    results = {}
    for copies in (1, 2):
        for m_dim in (0, 2, 4):
            rep = ff.no_go_verify(pi, r, copies=copies, ancilla_dim=m_dim)
            results[(copies, m_dim)] = rep.lambda_max_on_image
    ok_margin = all(v <= -1e-3 for v in results.values())
    ok = (not check.markovian) and ok_margin
    _announce(
        capsys,
        3,
        "no-go extensions",
        ok,
        "max sector lambda " + format(max(results.values()), ".3f"),
    )
    assert not check.markovian
    assert ok_margin, f"sector eigenvalues not uniformly below -1e-3: {results}"


def test_a4_filter_calibration(capsys):
    """Filtered-distance rate over eps^2 settles on the trace-growth figure."""
    ext = ff.extend_generator(COUNTEREXAMPLE, copies=1, ancilla_dim=2)
    d = np.kron(np.array([0.0, 1.0]), np.array([0.1, -0.1]))
    reg, _ = ff.regularize_direction(d, ext)
    base = ff.special_base_point(reg)
    target = 0.08
    ratios = {eps: ff.filter_witness_rate(base, d, ext, eps) / eps**2 for eps in (1e-2, 1e-3, 1e-4)}
    ok = all(abs(v / target - 1.0) <= 0.05 for v in ratios.values())
    _announce(
        capsys,
        4,
        "filter calibration",
        ok,
        "ratios " + ", ".join(f"{v:.5f}" for v in ratios.values()),
    )
    assert ok, f"filter ratios {ratios} stray from {target} by more than 5%"


def test_a5_trace_blindness(capsys):
    """Plain trace distance never grows on the offender, the ancilla lift does."""
    rng = np.random.default_rng(55)
    worst = -np.inf
    for _ in range(10**4):
        d = random_zero_sum(rng, 2, scale=1.0)
        worst = max(worst, ff.trace_rate(d, COUNTEREXAMPLE).value)
    ok_blind = worst <= 0.0
    check = ff.is_markovian_generator(COUNTEREXAMPLE)
    report = ff.trace_ancilla_witness(COUNTEREXAMPLE, check, mode="ancilla-M2")
    ok_lift = report.found and report.rate_value > 0.0
    ok = ok_blind and ok_lift
    _announce(
        capsys,
        5,
        "trace blindness",
        ok,
        f"max direct rate {worst:.2e}; lifted rate {report.rate_value:.3f}",
    )
    assert ok_blind, f"direct trace rate turned positive: {worst:.3e}"
    assert ok_lift


def test_a6_retrodiction(capsys):
    """Recovery quality degrades monotonically for Markovian flows and its
    curvature reading never contradicts the contraction form."""
    rng = np.random.default_rng(66)
    grid = np.linspace(0.0, 1.0, 17)
    worst_drop = np.inf
    spectrum_lo, spectrum_hi = np.inf, -np.inf
    worst_adjoint = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        r = random_markovian(rng, n)
        pi = random_interior(rng, n)
        ctx = ff.retrodiction_context(pi, ff.GeneratorDynamics(r), grid)
        p0 = pi + 1e-3 * float(np.min(pi)) * ff.zero_sum_basis(n)[:, 0]
        curve = [ff.retrodiction_distance_sq(p0, ctx, float(t)) for t in grid]
        worst_drop = min(worst_drop, min(b - a for a, b in zip(curve, curve[1:])))
        for t in (grid[0], grid[8], grid[16]):
            vals = ctx.recovery_spectrum(float(t))
            spectrum_lo = min(spectrum_lo, float(vals.min()))
            spectrum_hi = max(spectrum_hi, float(vals.max()))
        worst_adjoint = max(
            worst_adjoint, ff.adjoint_identity_check(ctx, float(grid[8]))
        )
    ok_monotone = worst_drop >= -1e-12
    ok_spectrum = spectrum_lo >= -1e-10 and spectrum_hi <= 1.0 + 1e-10
    ok_adjoint = worst_adjoint <= 1e-10

    ctx_cs = ff.retrodiction_context(
        [0.2, 0.4, 0.4], ff.case_study_dynamics(), np.linspace(0.0, np.pi, 65)
    )
    inconsistent = []
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in ctx_cs.grid[1:-1]:
            report = ff.retrodiction_equivalence_check(ctx_cs, float(t), band=1e-8)
            if report.consistent is False:
                inconsistent.append(float(t))
    ok_equiv = not inconsistent

    ok = ok_monotone and ok_spectrum and ok_adjoint and ok_equiv
    _announce(
        capsys,
        6,
        "retrodiction",
        ok,
        f"min curve step {worst_drop:.2e}; spectrum [{spectrum_lo:.2e}, {spectrum_hi:.6f}]; "
        f"adjoint {worst_adjoint:.2e}; inconsistent times {len(inconsistent)}",
    )
    assert ok_monotone, f"recovery defect decreased by {worst_drop:.3e} along a Markovian flow"
    assert ok_spectrum, f"round-trip spectrum escaped [0, 1]: [{spectrum_lo}, {spectrum_hi}]"
    assert ok_adjoint, f"adjoint identity defect {worst_adjoint:.3e}"
    assert ok_equiv, f"contradictory curvature verdicts at t = {inconsistent}"


def test_a7_quantum(capsys):
    """Monotone-metric structure, classical reduction, and the Choi-based witness."""
    rng = np.random.default_rng(77)
    kinds = (MonotoneKind.SLD, MonotoneKind.KMB, MonotoneKind.WY)

    worst_cross = 0.0
    worst_additivity = 0.0
    for k in range(100):
        d = (2, 3, 4)[k % 3]
        rho = random_density(rng, d)
        drho = random_traceless_hermitian(rng, d)
        delta, coh = ff.diag_decomposition(rho, drho)
        for kind in kinds:
            worst_cross = max(worst_cross, ff.diag_decomposition_check(rho, drho, kind))
            total = ff.petz_metric(rho, drho, drho, kind)
            split = ff.petz_metric(rho, delta, delta, kind) + ff.petz_metric(rho, coh, coh, kind)
            worst_additivity = max(worst_additivity, abs(total - split))
    ok_split = worst_cross <= 1e-12 and worst_additivity <= 1e-12

    worst_reduction = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 5))
        r = random_markovian(rng, d)
        lind = ff.semiclassical_lindbladian(r, d)
        p = random_interior(rng, d)
        dvec = random_zero_sum(rng, d, scale=1e-2)
        worst_reduction = max(
            worst_reduction,
            ff.commuting_reduction_rate_check(np.diag(p), np.diag(dvec), lind),
        )
    ok_reduction = worst_reduction <= 1e-6

    worst_special = 0.0
    for k in range(50):
        d = (2, 3, 4)[k % 3]
        report = ff.special_point_check(random_traceless_hermitian(rng, d, scale=0.2))
        worst_special = max(worst_special, report.max_deviation)
    ok_special = worst_special <= 1e-10

    classified = 0
    witnessed = 0
    noncp_total = 0
    for k in range(100):
        d = int(rng.integers(2, 5))
        r = random_markovian(rng, d)
        markovian = k % 2 == 0
        if not markovian:
            i = int(rng.integers(d))
            j = int((i + 1) % d)
            r = r.copy()
            r[i, j] = -float(rng.uniform(0.05, 0.5))
            np.fill_diagonal(r, 0.0)
            np.fill_diagonal(r, -r.sum(axis=0))
        step = ff.channel_step(ff.semiclassical_lindbladian(r, d), 1e-3)
        report = ff.cp_check(step, tol=1e-10)
        if report.cp == markovian:
            classified += 1
        if not report.cp:
            noncp_total += 1
            witness = ff.quantum_dilation_witness(step, report)
            if witness.found and witness.rate_value > 0.0:
                witnessed += 1
    ok_classify = classified == 100
    ok_witness = witnessed == noncp_total and noncp_total > 0

    ok = ok_split and ok_reduction and ok_special and ok_classify and ok_witness
    _announce(
        capsys,
        7,
        "quantum layer",
        ok,
        f"cross {worst_cross:.1e}; additivity {worst_additivity:.1e}; reduction "
        f"{worst_reduction:.1e}; special {worst_special:.1e}; classified {classified}/100; "
        f"witnessed {witnessed}/{noncp_total}",
    )
    assert ok_split, f"metric split failed: cross {worst_cross:.3e}, additivity {worst_additivity:.3e}"
    assert ok_reduction, f"quantum/classical rate deviation {worst_reduction:.3e}"
    assert ok_special, f"special-point identity deviation {worst_special:.3e}"
    assert ok_classify, f"cp_check misclassified {100 - classified} semiclassical steps"
    assert ok_witness, f"witness missed {noncp_total - witnessed} of {noncp_total} non-CP steps"


def test_a8_cli_determinism(capsys, tmp_path):
    """Every command, run twice with the same seed, writes byte-identical files."""
    jobs = [
        ("figure1", "case_study_figure1.json"),
        ("scan", "case_study_scan.json"),
        ("witness", "counterexample_witness.json"),
        ("nogo", "counterexample_nogo.json"),
        ("filter", "counterexample_filter.json"),
        ("retro", "relaxation_retro.json"),
        ("quantum", "nonmarkovian_quantum.json"),
    ]
    mismatches = []
    failures = []
    for command, scenario in jobs:
        payload = {}
        for attempt in ("a", "b"):
            outdir = tmp_path / command / attempt
            code = main(
                [
                    command,
                    "--scenario",
                    os.path.join(SCENARIO_DIR, scenario),
                    "--out",
                    str(outdir),
                    "--seed",
                    "11",
                ]
            )
            if code != 0:
                failures.append((command, code))
                break
            payload[attempt] = {
                name: (outdir / name).read_bytes() for name in sorted(os.listdir(outdir))
            }
        else:
            if payload["a"] != payload["b"]:
                mismatches.append(command)
            report = json.loads(payload["a"][f"{command}.json"].decode())
            if report["seed"] != 11:
                failures.append((command, "seed not echoed"))

    ok = not mismatches and not failures
    _announce(
        capsys,
        8,
        "deterministic reports",
        ok,
        f"{len(jobs)} commands" + (f"; mismatches {mismatches}; failures {failures}" if not ok else ""),
    )
    assert not failures, f"commands did not succeed: {failures}"
    assert not mismatches, f"non-deterministic outputs from: {mismatches}"
