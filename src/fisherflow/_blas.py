"""Run every OpenBLAS loaded in the process on one thread.

The numpy and scipy wheels each bundle their own OpenBLAS, each with one
worker per core. fisherflow's BLAS calls are small (matrices of at most
about 64 rows, or a small ``expm``), so a worker pool only adds waits
for its threads: on 2 cores the 20 ``expm`` calls of one pass of the
benchmark's ``dynamics`` workload took 21 ms with the pools and 9 ms on
one thread.
``fisherflow/__init__`` calls :func:`pin_openblas_threads` once, after
numpy and ``scipy.linalg`` have loaded; a host program that wants
threaded BLAS afterwards must set it again itself.
"""

from __future__ import annotations

import ctypes
import os

#: Thread-count setters, first match wins: a plain OpenBLAS build, then the
#: ``scipy-openblas`` wheels with 64-bit and 32-bit integers (numpy's, scipy's).
SETTERS = ("openblas_set_num_threads", "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads")


def pin_openblas_threads(maps: str | None = None) -> list[str]:
    """Set each OpenBLAS mapped into this process to one thread; return the files pinned.

    ``maps`` is the text of ``/proc/self/maps``, read when not given. A
    library is opened with ``RTLD_NOLOAD``, so nothing new is ever loaded.
    Without ``/proc`` (not Linux) or with no OpenBLAS mapped, nothing happens.
    """
    if maps is None:
        try:
            with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
                maps = fh.read()
        except OSError:
            return []
    paths = dict.fromkeys(
        fields[5] for fields in (line.split(maxsplit=5) for line in maps.splitlines())
        if len(fields) == 6 and "openblas" in os.path.basename(fields[5])
    )
    pinned = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # unmapped since, or "(deleted)"
            continue
        setter = next((getattr(lib, name) for name in SETTERS if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            pinned.append(path)
    return pinned
