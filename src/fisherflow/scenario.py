"""Scenario files: a strict, JSON-compatible description of one analysis run.

A scenario names a dynamics family, a time grid, optional state and
perturbation data, the analyses to run, tolerance overrides, and a seed.
Parsing is deliberately unforgiving: unknown keys anywhere are an error
(typos in tolerance names must not silently disable a check), required
keys must be present, and writing a parsed scenario back out reproduces
it exactly.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

import numpy as np

from .errors import ScenarioError
from .propagation import (
    Dynamics,
    GeneratorDynamics,
    MixingDynamics,
    case_study_dynamics,
    contraction_to_target,
)
from .simplex import rate_matrix, rate_matrix_from_rates

__all__ = [
    "GridSpec",
    "PerturbationSpec",
    "DynamicsSpec",
    "DivisibilitySpec",
    "Figure1Spec",
    "WitnessSpec",
    "NoGoSpec",
    "FilterSpec",
    "RetroSpec",
    "QuantumSpec",
    "AnalysesSpec",
    "Scenario",
    "TOLERANCE_DEFAULTS",
    "parse_scenario",
    "scenario_to_dict",
    "load_scenario",
    "dump_scenario",
    "build_dynamics",
]

#: Recognized tolerance names with their defaults; anything else is a typo.
TOLERANCE_DEFAULTS: dict[str, float] = {
    "trace_law": 1e-6,
    "rate_tol": 1e-9,
    "lambda_margin": 1e-3,
    "filter_ratio": 0.05,
    "adjoint": 1e-10,
    "equivalence_band": 1e-8,
    "cp": 1e-10,
    "fd_agreement": 0.10,
    "spectrum_slack": 1e-10,
    "recompute": 1e-10,
}


def _expect_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _take(raw: Mapping, where: str, required: tuple[str, ...], optional: tuple[str, ...]) -> dict:
    unknown = set(raw) - set(required) - set(optional)
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = [k for k in required if k not in raw]
    if missing:
        raise ScenarioError(f"missing key(s) {missing} in {where}")
    return dict(raw)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number")
    # json.load reads NaN, Infinity and 1e400 as floats; an integer too long
    # for a float counts as infinite
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{where} must be a finite number, got {number}")
    return number


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer")
    return int(value)


def _vector(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{where} must be an array of numbers")
    return tuple(_number(v, f"{where} entry") for v in value)


def _integers(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{where} must be an array of integers")
    return tuple(_integer(v, where) for v in value)


def _matrix(value, where: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{where} must be an array of rows")
    rows = tuple(_vector(row, f"{where} row") for row in value)
    if any(len(row) != len(rows) for row in rows):
        raise ScenarioError(f"{where} must be a square array")
    return rows


def _rate_triples(value, where: str) -> tuple[tuple[int, int, float], ...]:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{where} must be an array of [i, j, rate] triples")
    out = []
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise ScenarioError(f"{where} entries must be [i, j, rate] triples")
        out.append((_integer(item[0], where), _integer(item[1], where), _number(item[2], where)))
    return tuple(out)


@dataclass(frozen=True)
class GridSpec:
    t1: float
    points: int
    t0: float = 0.0

    def __post_init__(self) -> None:
        if self.points < 2:
            raise ScenarioError("grid needs at least 2 points")
        if self.t0 < 0.0:
            raise ScenarioError("grid needs t0 >= 0: every dynamics starts at time 0")
        if not self.t1 > self.t0:
            raise ScenarioError("grid needs t1 > t0")

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.points)


@dataclass(frozen=True)
class PerturbationSpec:
    """Either an explicit direction or a planar theta sweep, scaled by epsilon."""

    epsilon: float = 1e-3
    direction: tuple[float, ...] | None = None
    theta_points: int | None = None

    def __post_init__(self) -> None:
        if (self.direction is None) == (self.theta_points is None):
            raise ScenarioError("perturbation needs exactly one of direction / theta_points")
        if self.theta_points is not None and self.theta_points < 1:
            raise ScenarioError("perturbation.theta_points must be at least 1")


@dataclass(frozen=True)
class DynamicsSpec:
    kind: str
    matrix: tuple[tuple[float, ...], ...] | None = None
    rates: tuple[tuple[int, int, float], ...] | None = None
    dimension: int | None = None
    target: tuple[float, ...] | None = None
    decay_rate: float = 1.0
    horizon: float | None = None


@dataclass(frozen=True)
class DivisibilitySpec:
    rate_tol: float = 1e-9


@dataclass(frozen=True)
class Figure1Spec:
    pass


@dataclass(frozen=True)
class WitnessSpec:
    time: float = 0.0
    fallback_samples: int = 1000


@dataclass(frozen=True)
class NoGoSpec:
    base: tuple[float, ...] | None = None
    copies: tuple[int, ...] = (1, 2)
    ancilla_dims: tuple[int, ...] = (0, 2, 4)
    margin: float | None = None


@dataclass(frozen=True)
class FilterSpec:
    epsilons: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    ancilla_dim: int = 2
    ancilla_displacement: tuple[float, ...] = (0.1, -0.1)

    def __post_init__(self) -> None:
        if not self.epsilons:
            raise ScenarioError("filter.epsilons must not be empty")
        for k, eps in enumerate(self.epsilons):
            # the filter command divides by eps**2, which must not underflow
            if eps > 0.0 and eps * eps < sys.float_info.min:
                raise ScenarioError(f"filter.epsilons[{k}] = {eps!r} is too small: its square underflows")
        if len(self.ancilla_displacement) != self.ancilla_dim:
            raise ScenarioError("filter.ancilla_displacement needs one entry per ancilla state (ancilla_dim)")


@dataclass(frozen=True)
class RetroSpec:
    prior: tuple[float, ...]
    trials: int = 100
    equivalence_times: tuple[float, ...] | None = None


@dataclass(frozen=True)
class QuantumSpec:
    dim: int = 2
    rates: tuple[tuple[int, int, float], ...] = ((0, 1, -0.5), (1, 0, 1.0))
    dt: float = 1e-3
    eta: float = 1e-6
    eps: float = 1e-3
    kind: str = "sld"

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ScenarioError("quantum.dim must be at least 2")


@dataclass(frozen=True)
class AnalysesSpec:
    divisibility: DivisibilitySpec | None = None
    figure1: Figure1Spec | None = None
    witness: WitnessSpec | None = None
    no_go: NoGoSpec | None = None
    filter: FilterSpec | None = None
    retrodiction: RetroSpec | None = None
    quantum: QuantumSpec | None = None


@dataclass(frozen=True)
class Scenario:
    dynamics: DynamicsSpec
    grid: GridSpec
    analyses: AnalysesSpec
    seed: int = 0
    initial_state: tuple[float, ...] | None = None
    perturbation: PerturbationSpec | None = None
    tolerances: dict[str, float] = field(default_factory=dict)
    output_dir: str | None = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ScenarioError(f"seed must be a non-negative integer, got {self.seed}")

    def tolerance(self, name: str) -> float:
        if name not in TOLERANCE_DEFAULTS:
            raise ScenarioError(f"unknown tolerance {name!r}")
        return self.tolerances.get(name, TOLERANCE_DEFAULTS[name])


def _parse_dynamics(raw) -> DynamicsSpec:
    raw = _expect_mapping(raw, "dynamics")
    keys = _take(
        raw,
        "dynamics",
        required=("kind",),
        optional=("matrix", "rates", "dimension", "target", "decay_rate", "horizon"),
    )
    kind = keys["kind"]
    if kind not in ("case_study", "generator", "contraction"):
        raise ScenarioError(f"unknown dynamics kind {kind!r}")
    spec = DynamicsSpec(
        kind=kind,
        matrix=_matrix(keys["matrix"], "dynamics.matrix") if "matrix" in keys else None,
        rates=_rate_triples(keys["rates"], "dynamics.rates") if "rates" in keys else None,
        dimension=_integer(keys["dimension"], "dynamics.dimension") if "dimension" in keys else None,
        target=_vector(keys["target"], "dynamics.target") if "target" in keys else None,
        decay_rate=_number(keys.get("decay_rate", 1.0), "dynamics.decay_rate"),
        horizon=_number(keys["horizon"], "dynamics.horizon") if "horizon" in keys else None,
    )
    if kind == "generator":
        if (spec.matrix is None) == (spec.rates is None):
            raise ScenarioError("generator dynamics needs exactly one of matrix / rates")
        if spec.rates is not None and spec.dimension is None:
            raise ScenarioError("generator dynamics with rates needs a dimension")
    if kind == "contraction" and spec.target is None:
        raise ScenarioError("contraction dynamics needs a target")
    if kind == "case_study" and (spec.matrix or spec.rates or spec.target):
        raise ScenarioError("case_study dynamics takes no matrix/rates/target")
    return spec


def build_dynamics(spec: DynamicsSpec) -> Dynamics:
    """Instantiate the dynamics a spec describes."""
    if spec.kind == "case_study":
        return case_study_dynamics(horizon=spec.horizon if spec.horizon is not None else np.pi)
    if spec.kind == "contraction":
        return contraction_to_target(
            np.asarray(spec.target, dtype=float),
            decay_rate=spec.decay_rate,
            horizon=spec.horizon if spec.horizon is not None else np.inf,
        )
    if spec.matrix is not None:
        r = rate_matrix(np.asarray(spec.matrix, dtype=float))
    else:
        r = rate_matrix_from_rates({(i, j): v for i, j, v in spec.rates}, spec.dimension)
    horizon = spec.horizon if spec.horizon is not None else np.inf
    return GeneratorDynamics(r, horizon=horizon)


def _parse_grid(raw) -> GridSpec:
    raw = _expect_mapping(raw, "grid")
    keys = _take(raw, "grid", required=("t1", "points"), optional=("t0",))
    return GridSpec(
        t1=_number(keys["t1"], "grid.t1"),
        points=_integer(keys["points"], "grid.points"),
        t0=_number(keys.get("t0", 0.0), "grid.t0"),
    )


def _parse_perturbation(raw) -> PerturbationSpec:
    raw = _expect_mapping(raw, "perturbation")
    keys = _take(raw, "perturbation", required=(), optional=("epsilon", "direction", "theta_points"))
    return PerturbationSpec(
        epsilon=_number(keys.get("epsilon", 1e-3), "perturbation.epsilon"),
        direction=_vector(keys["direction"], "perturbation.direction") if "direction" in keys else None,
        theta_points=_integer(keys["theta_points"], "perturbation.theta_points")
        if "theta_points" in keys
        else None,
    )


def _parse_analyses(raw) -> AnalysesSpec:
    raw = _expect_mapping(raw, "analyses")
    allowed = ("divisibility", "figure1", "witness", "no_go", "filter", "retrodiction", "quantum")
    keys = _take(raw, "analyses", required=(), optional=allowed)
    out: dict[str, Any] = {}
    if "divisibility" in keys:
        block = _take(_expect_mapping(keys["divisibility"], "analyses.divisibility"),
                      "analyses.divisibility", (), ("rate_tol",))
        out["divisibility"] = DivisibilitySpec(
            rate_tol=_number(block.get("rate_tol", 1e-9), "divisibility.rate_tol")
        )
    if "figure1" in keys:
        _take(_expect_mapping(keys["figure1"], "analyses.figure1"), "analyses.figure1", (), ())
        out["figure1"] = Figure1Spec()
    if "witness" in keys:
        block = _take(_expect_mapping(keys["witness"], "analyses.witness"),
                      "analyses.witness", (), ("time", "fallback_samples"))
        out["witness"] = WitnessSpec(
            time=_number(block.get("time", 0.0), "witness.time"),
            fallback_samples=_integer(block.get("fallback_samples", 1000), "witness.fallback_samples"),
        )
    if "no_go" in keys:
        block = _take(_expect_mapping(keys["no_go"], "analyses.no_go"),
                      "analyses.no_go", (), ("base", "copies", "ancilla_dims", "margin"))
        out["no_go"] = NoGoSpec(
            base=_vector(block["base"], "no_go.base") if "base" in block else None,
            copies=_integers(block.get("copies", (1, 2)), "no_go.copies"),
            ancilla_dims=_integers(block.get("ancilla_dims", (0, 2, 4)), "no_go.ancilla_dims"),
            margin=_number(block["margin"], "no_go.margin") if "margin" in block else None,
        )
    if "filter" in keys:
        block = _take(_expect_mapping(keys["filter"], "analyses.filter"),
                      "analyses.filter", (), ("epsilons", "ancilla_dim", "ancilla_displacement"))
        out["filter"] = FilterSpec(
            epsilons=_vector(block.get("epsilons", (1e-2, 1e-3, 1e-4)), "filter.epsilons"),
            ancilla_dim=_integer(block.get("ancilla_dim", 2), "filter.ancilla_dim"),
            ancilla_displacement=_vector(
                block.get("ancilla_displacement", (0.1, -0.1)), "filter.ancilla_displacement"
            ),
        )
    if "retrodiction" in keys:
        block = _take(_expect_mapping(keys["retrodiction"], "analyses.retrodiction"),
                      "analyses.retrodiction", ("prior",), ("trials", "equivalence_times"))
        out["retrodiction"] = RetroSpec(
            prior=_vector(block["prior"], "retrodiction.prior"),
            trials=_integer(block.get("trials", 100), "retrodiction.trials"),
            equivalence_times=_vector(block["equivalence_times"], "retrodiction.equivalence_times")
            if "equivalence_times" in block
            else None,
        )
    if "quantum" in keys:
        block = _take(_expect_mapping(keys["quantum"], "analyses.quantum"),
                      "analyses.quantum", (), ("dim", "rates", "dt", "eta", "eps", "kind"))
        kind = block.get("kind", "sld")
        if kind not in ("sld", "kmb", "wy"):
            raise ScenarioError(f"unknown metric kind {kind!r}")
        out["quantum"] = QuantumSpec(
            dim=_integer(block.get("dim", 2), "quantum.dim"),
            rates=_rate_triples(block.get("rates", ((0, 1, -0.5), (1, 0, 1.0))), "quantum.rates"),
            dt=_number(block.get("dt", 1e-3), "quantum.dt"),
            eta=_number(block.get("eta", 1e-6), "quantum.eta"),
            eps=_number(block.get("eps", 1e-3), "quantum.eps"),
            kind=kind,
        )
    return AnalysesSpec(**out)


def parse_scenario(raw) -> Scenario:
    raw = _expect_mapping(raw, "scenario")
    keys = _take(
        raw,
        "scenario",
        required=("dynamics", "grid", "analyses"),
        optional=("seed", "initial_state", "perturbation", "tolerances", "output_dir"),
    )
    tolerances: dict[str, float] = {}
    if "tolerances" in keys:
        block = _expect_mapping(keys["tolerances"], "tolerances")
        for name, value in block.items():
            if name not in TOLERANCE_DEFAULTS:
                raise ScenarioError(
                    f"unknown tolerance {name!r}; known: {sorted(TOLERANCE_DEFAULTS)}"
                )
            tolerances[name] = _number(value, f"tolerances.{name}")
    output_dir = keys.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ScenarioError("output_dir must be a string")
    return Scenario(
        dynamics=_parse_dynamics(keys["dynamics"]),
        grid=_parse_grid(keys["grid"]),
        analyses=_parse_analyses(keys["analyses"]),
        seed=_integer(keys.get("seed", 0), "seed"),
        initial_state=_vector(keys["initial_state"], "initial_state")
        if "initial_state" in keys
        else None,
        perturbation=_parse_perturbation(keys["perturbation"]) if "perturbation" in keys else None,
        tolerances=tolerances,
        output_dir=output_dir,
    )


def _spec_dict(spec) -> dict:
    out = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        out[f.name] = value
    return out


def scenario_to_dict(s: Scenario) -> dict:
    out: dict[str, Any] = {
        "dynamics": _spec_dict(s.dynamics),
        "grid": _spec_dict(s.grid),
        "analyses": {},
        "seed": s.seed,
    }
    for name in ("divisibility", "figure1", "witness", "no_go", "filter", "retrodiction", "quantum"):
        block = getattr(s.analyses, name)
        if block is not None:
            out["analyses"][name] = _spec_dict(block)
    if s.initial_state is not None:
        out["initial_state"] = list(s.initial_state)
    if s.perturbation is not None:
        out["perturbation"] = _spec_dict(s.perturbation)
    if s.tolerances:
        out["tolerances"] = dict(sorted(s.tolerances.items()))
    if s.output_dir is not None:
        out["output_dir"] = s.output_dir
    return out


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ScenarioError(f"duplicate key {key!r} in scenario file")
        seen[key] = value
    return seen


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_reject_duplicates)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except ValueError as exc:  # also bad UTF-8 and integers past the digit limit
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return parse_scenario(raw)


def dump_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n"
