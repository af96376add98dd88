"""Scenario files: a strict, JSON-compatible description of one analysis run.

A scenario names a dynamics family, a time grid, optional state and
perturbation data, the analyses to run, tolerance overrides, and a seed.
Parsing is deliberately unforgiving: unknown keys anywhere are an error
(typos in tolerance names must not silently disable a check), required
keys must be present, and writing a parsed scenario back out reproduces
it exactly. The exception is the few retired keys that older files may
still carry (``_RETIRED``): they are accepted and dropped.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import get_args, get_type_hints

import numpy as np

from .errors import ScenarioError
from .propagation import Dynamics, GeneratorDynamics, case_study_dynamics, contraction_to_target
from .simplex import rate_matrix, rate_matrix_from_rates
from .witnesses import FILTER_EPSILONS

__all__ = [
    "GridSpec",
    "PerturbationSpec",
    "DynamicsSpec",
    "DivisibilitySpec",
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
    "build_dynamics",
]

#: Recognized tolerance names with their defaults; anything else is a typo.
TOLERANCE_DEFAULTS: dict[str, float] = {
    "trace_law": 1e-6,
    "lambda_margin": 1e-3,
    "filter_ratio": 0.05,
    "adjoint": 1e-10,
    "equivalence_band": 1e-8,
    "cp": 1e-10,
    "fd_agreement": 1e-5,
    "spectrum_slack": 1e-10,
    "recompute": 1e-10,
}


def _expect_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be an object, got {type(value).__name__}")
    return value


#: Keys that once tuned sampling no command does any more, per block. They
#: are accepted so that older scenario files still load, and are otherwise
#: ignored: never validated, never echoed.
_RETIRED = {
    "analyses.witness": {"fallback_samples"},
    "analyses.retrodiction": {"trials"},
    "analyses.quantum": {"kind"},
}


def _take(raw, where: str, cls) -> dict:
    """``raw`` as an object whose keys are fields of ``cls`` or retired, with every field that has no default."""
    raw = _expect_mapping(raw, where)
    known = fields(cls)
    unknown = set(raw) - {f.name for f in known} - _RETIRED.get(where, set())
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = [
        f.name for f in known if f.default is MISSING and f.default_factory is MISSING and f.name not in raw
    ]
    if missing:
        raise ScenarioError(f"missing key(s) {missing} in {where}")
    return raw


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
    seen = set()
    for i, j, _ in out:
        if (i, j) in seen:
            raise ScenarioError(f"{where} repeats the pair [{i}, {j}]")
        seen.add((i, j))
    return tuple(out)


#: Converter of each field annotation a spec class uses (``| None`` left off);
#: each is called with the value and the field's error path.
_CONVERTERS = {
    "float": _number,
    "int": _integer,
    "tuple[float, ...]": _vector,
    "tuple[int, ...]": _integers,
    "tuple[tuple[float, ...], ...]": _matrix,
    "tuple[tuple[int, int, float], ...]": _rate_triples,
}


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
    """A planar sweep of theta_points directions, scaled by epsilon."""

    theta_points: int
    epsilon: float = 1e-3

    def __post_init__(self) -> None:
        if self.theta_points < 1:
            raise ScenarioError("perturbation.theta_points must be at least 1")


#: The keys each dynamics kind takes besides ``kind``; any other key of the block is
#: foreign to it, and rejected.
_DYNAMICS_KEYS = {
    "case_study": set(),
    "generator": {"matrix", "rates", "dimension"},
    "contraction": {"target", "decay_rate"},
}


@dataclass(frozen=True)
class DynamicsSpec:
    # a field with "kinds" must take one of its keys, and its block only the
    # keys listed for that kind; "label" names it in the errors
    kind: str = field(metadata={"label": "dynamics kind", "kinds": _DYNAMICS_KEYS})
    matrix: tuple[tuple[float, ...], ...] | None = None
    rates: tuple[tuple[int, int, float], ...] | None = None
    dimension: int | None = None
    target: tuple[float, ...] | None = None
    decay_rate: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "generator":
            if (self.matrix is None) == (self.rates is None):
                raise ScenarioError("generator dynamics needs exactly one of matrix / rates")
            if self.rates is not None and self.dimension is None:
                raise ScenarioError("generator dynamics with rates needs a dimension")
        if self.kind == "contraction" and self.target is None:
            raise ScenarioError("contraction dynamics needs a target")


@dataclass(frozen=True)
class DivisibilitySpec:
    rate_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.rate_tol < 0.0:  # a zero rate would count as a violation
            raise ScenarioError("divisibility.rate_tol must be at least 0")


@dataclass(frozen=True)
class WitnessSpec:
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0.0:
            raise ScenarioError("witness.time must be at least 0: every dynamics starts at time 0")


@dataclass(frozen=True)
class NoGoSpec:
    base: tuple[float, ...] | None = None
    copies: tuple[int, ...] = (1, 2)
    ancilla_dims: tuple[int, ...] = (0, 2, 4)
    margin: float | None = None

    def __post_init__(self) -> None:
        if not self.copies or min(self.copies) < 1:
            raise ScenarioError("no_go.copies must be a non-empty list of integers >= 1")
        # 0 means no ancilla; a one-state ancilla would be a second way to say so
        if not self.ancilla_dims or any(m < 0 or m == 1 for m in self.ancilla_dims):
            raise ScenarioError("no_go.ancilla_dims must be a non-empty list of 0 or integers >= 2")
        if self.margin is not None and self.margin < 0.0:
            raise ScenarioError("no_go.margin must be at least 0")


@dataclass(frozen=True)
class FilterSpec:
    epsilons: tuple[float, ...] = FILTER_EPSILONS
    #: one entry per ancilla state, so its length is the ancilla's dimension
    ancilla_displacement: tuple[float, ...] = (0.1, -0.1)

    def __post_init__(self) -> None:
        if not self.epsilons:
            raise ScenarioError("filter.epsilons must not be empty")
        for k, eps in enumerate(self.epsilons):
            # the filter command divides by eps**2, which must not underflow
            if eps > 0.0 and eps * eps < sys.float_info.min:
                raise ScenarioError(f"filter.epsilons[{k}] = {eps!r} is too small: its square underflows")


@dataclass(frozen=True)
class RetroSpec:
    prior: tuple[float, ...]
    equivalence_times: tuple[float, ...] | None = None


@dataclass(frozen=True)
class QuantumSpec:
    dim: int = 2
    rates: tuple[tuple[int, int, float], ...] = ((0, 1, -0.5), (1, 0, 1.0))
    dt: float = 1e-3
    eta: float = 1e-6
    eps: float = 1e-3

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ScenarioError("quantum.dim must be at least 2")


@dataclass(frozen=True)
class AnalysesSpec:
    divisibility: DivisibilitySpec | None = None
    witness: WitnessSpec | None = None
    no_go: NoGoSpec | None = None
    filter: FilterSpec | None = None
    retrodiction: RetroSpec | None = None
    quantum: QuantumSpec | None = None


#: The spec class of each analyses block, in declaration order, read from AnalysesSpec.
_ANALYSES = {name: get_args(hint)[0] for name, hint in get_type_hints(AnalysesSpec).items()}


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


def _parse_block(raw, where: str, prefix: str, cls):
    """Build the spec ``cls`` from the object ``raw``, which ``where`` names in errors.

    A field without a default is required, every other one optional with
    its default. ``kind`` fields are checked first, against the table of
    each kind's keys in their metadata, and with them the block's other
    keys; then each present value goes through the converter of its
    field's annotation, with the error path ``prefix.name``.
    """
    raw = _take(raw, where, cls)
    present = [f for f in fields(cls) if f.name in raw]
    for f in present:
        if "kinds" not in f.metadata:
            continue
        kind, label = raw[f.name], f.metadata["label"]
        if not isinstance(kind, str) or kind not in f.metadata["kinds"]:
            raise ScenarioError(f"unknown {label} {kind!r}")
        foreign = sorted(set(raw) - {f.name} - f.metadata["kinds"][kind])
        if foreign:
            raise ScenarioError(f"{label} {kind!r} takes no key(s) {foreign} in {where}")
    return cls(**{
        f.name: raw[f.name] if "kinds" in f.metadata
        else _CONVERTERS[f.type.removesuffix(" | None")](raw[f.name], f"{prefix}.{f.name}")
        for f in present
    })


def _parse_analyses(raw) -> AnalysesSpec:
    raw = _take(raw, "analyses", AnalysesSpec)
    return AnalysesSpec(**{
        name: _parse_block(raw[name], f"analyses.{name}", name, cls)
        for name, cls in _ANALYSES.items()
        if name in raw
    })


def build_dynamics(spec: DynamicsSpec) -> Dynamics:
    """Instantiate the dynamics a spec describes."""
    if spec.kind == "case_study":
        return case_study_dynamics()
    if spec.kind == "contraction":
        rate = {} if spec.decay_rate is None else {"decay_rate": spec.decay_rate}
        return contraction_to_target(np.asarray(spec.target, dtype=float), **rate)
    if spec.matrix is not None:
        r = rate_matrix(np.asarray(spec.matrix, dtype=float))
    else:
        r = rate_matrix_from_rates({(i, j): v for i, j, v in spec.rates}, spec.dimension)
    return GeneratorDynamics(r)


def parse_scenario(raw) -> Scenario:
    raw = _take(raw, "scenario", Scenario)
    tolerances: dict[str, float] = {}
    if "tolerances" in raw:
        block = _expect_mapping(raw["tolerances"], "tolerances")
        for name, value in block.items():
            if name not in TOLERANCE_DEFAULTS:
                raise ScenarioError(
                    f"unknown tolerance {name!r}; known: {sorted(TOLERANCE_DEFAULTS)}"
                )
            tolerances[name] = _number(value, f"tolerances.{name}")
    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ScenarioError("output_dir must be a string")
    return Scenario(
        dynamics=_parse_block(raw["dynamics"], "dynamics", "dynamics", DynamicsSpec),
        grid=_parse_block(raw["grid"], "grid", "grid", GridSpec),
        analyses=_parse_analyses(raw["analyses"]),
        seed=_integer(raw.get("seed", Scenario.seed), "seed"),
        initial_state=_vector(raw["initial_state"], "initial_state") if "initial_state" in raw else None,
        perturbation=_parse_block(raw["perturbation"], "perturbation", "perturbation", PerturbationSpec)
        if "perturbation" in raw
        else None,
        tolerances=tolerances,
        output_dir=output_dir,
    )


def _spec_dict(spec) -> dict:
    """A spec's fields as JSON values, leaving out those that are None and empty tolerances."""
    out = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if is_dataclass(value):
            value = _spec_dict(value)
        elif isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        elif isinstance(value, dict):
            value = dict(sorted(value.items())) or None
        if value is not None:
            out[f.name] = value
    return out


def scenario_to_dict(s: Scenario) -> dict:
    """The scenario as the JSON object that parses back to it."""
    return _spec_dict(s)


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

