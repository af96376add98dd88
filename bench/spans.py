"""In-memory span tracer that wraps fisherflow's public functions from outside.

``Tracer.install`` replaces each traced function at the module attributes
its callers look it up through (``fisherflow.cli.fisher_rates``,
``fisherflow.witnesses.contraction_form`` and so on), so calls made inside
the package are seen too. ``uninstall`` puts the originals back. Spans are
``[name, start, end, parent]`` rows kept in a list and written out when
the benchmark ends.

A span opened on a worker thread with nothing open on that thread takes
the innermost span open on the installing thread as its parent, so the
figure1 sweep threads are children of ``cli.main``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

#: (span name, module, attribute, scope). Scope "package" patches every
#: fisherflow module attribute bound to the same function object; "module"
#: patches only the named module, for functions several layers import
#: from one third-party place (scipy's ``expm``).
TARGETS = (
    ("cli.main", "fisherflow.cli", "main", "package"),
    ("scenario.load", "fisherflow.scenario", "load_scenario", "package"),
    ("distances.fisher_rates", "fisherflow.distances", "fisher_rates", "package"),
    ("distances.contraction_form", "fisherflow.distances", "contraction_form", "package"),
    ("propagation.generator_of", "fisherflow.propagation", "generator_of", "package"),
    ("propagation.divisibility_scan", "fisherflow.propagation", "divisibility_scan", "package"),
    ("propagation.propagate", "fisherflow.propagation", "propagate", "package"),
    ("propagation.expm", "fisherflow.propagation", "expm", "module"),
    ("witnesses.dilation_search", "fisherflow.witnesses", "dilation_direction_search", "package"),
    ("witnesses.no_go", "fisherflow.witnesses", "no_go_verify", "package"),
    ("retrodiction.context", "fisherflow.retrodiction", "retrodiction_context", "package"),
    ("retrodiction.checks", "fisherflow.retrodiction", "adjoint_identity_check", "package"),
    ("retrodiction.checks", "fisherflow.retrodiction", "retrodiction_distance_sq", "package"),
    ("retrodiction.checks", "fisherflow.retrodiction", "retrodiction_equivalence_check", "package"),
    ("quantum.cp_check", "fisherflow.quantum", "cp_check", "package"),
    ("quantum.witness", "fisherflow.quantum", "quantum_dilation_witness", "package"),
    ("quantum.witness", "fisherflow.quantum", "quantum_witness_fd_rate", "package"),
    ("quantum.expm", "fisherflow.quantum", "expm", "module"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))


def _fisher_rates_rows(args, kwargs) -> int:
    dirs = kwargs.get("dirs", args[1] if len(args) > 1 else None)
    shape = getattr(dirs, "shape", None)
    return int(shape[0]) if shape is not None and len(shape) == 2 else 1


def _flow_bytes(args, kwargs) -> int:
    """Bytes of one polarization flow tensor: k(k+1)/2 directions of n x n float64."""
    n = len(args[0] if args else kwargs["p"])
    basis = kwargs.get("basis", args[2] if len(args) > 2 else None)
    k = n - 1 if basis is None else int(basis.shape[1])
    return k * (k + 1) // 2 * n * n * 8


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.rows = 0
        self.max_flow_bytes = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._home[-1] if tracer._home and stack is not tracer._home else -1
            record = [name, 0.0, 0.0, parent]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
                if name == "distances.fisher_rates":
                    tracer.rows += _fisher_rates_rows(args, kwargs)
                elif name == "distances.contraction_form":
                    tracer.max_flow_bytes = max(tracer.max_flow_bytes, _flow_bytes(args, kwargs))
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        self._home = self._stack()
        package = [m for key, m in sys.modules.items() if key == "fisherflow" or key.startswith("fisherflow.")]
        for name, module_name, attr, scope in TARGETS:
            home = sys.modules[module_name]
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in package if scope == "package" else [home]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def reset_counters(self) -> None:
        self.rows = 0
        self.max_flow_bytes = 0


def self_times(spans: list[list], first: int = 0) -> dict[str, float]:
    """Self time per span name over ``spans[first:]``.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans[first:]:
        if parent >= first:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for index in range(first, len(spans)):
        name, start, end, _ = spans[index]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def call_counts(spans: list[list], first: int = 0) -> dict[str, int]:
    out: dict[str, int] = {}
    for name, *_ in spans[first:]:
        out[name] = out.get(name, 0) + 1
    return out

