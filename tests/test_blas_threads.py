"""Importing fisherflow runs every loaded OpenBLAS on one thread, and the thread count never changes a report."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import fisherflow._blas

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

#: Reads the thread count of every OpenBLAS mapped into the process, through
#: the getter that matches each library's setter.
THREAD_COUNTS = """
import ctypes, os
from fisherflow._blas import SETTERS

def thread_counts():
    lines = [line.split(maxsplit=5) for line in open("/proc/self/maps").read().splitlines()]
    paths = dict.fromkeys(f[5] for f in lines if len(f) == 6 and "openblas" in os.path.basename(f[5]))
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        getter = next(getattr(lib, n.replace("_set_", "_get_")) for n in SETTERS if hasattr(lib, n))
        getter.restype = ctypes.c_int
        counts[path] = getter()
    return counts
"""

#: One negative rate on d = 4, so the witness lifts a 16 x 16 channel to a 256-wide map.
QUANTUM_D4 = {
    "dynamics": {"kind": "generator", "matrix": [[-1.0, 1.0], [1.0, -1.0]]},
    "grid": {"t0": 0.0, "t1": 1.0, "points": 2},
    "analyses": {
        "quantum": {
            "dim": 4,
            "rates": [[0, 1, -0.4], [1, 2, 0.7], [1, 3, 0.3], [2, 3, 0.5], [3, 0, 0.9]],
            "dt": 1e-3,
            "eta": 1e-6,
            "eps": 1e-3,
            "kind": "wy",
        }
    },
    "seed": 4,
}


def _run(code, **env):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.path.abspath(SRC), **env},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_import_pins_every_openblas_to_one_thread():
    counts = _run(
        THREAD_COUNTS + "import json, fisherflow; print(json.dumps(thread_counts()))",
        OPENBLAS_NUM_THREADS="2",
    )
    if not counts:
        pytest.skip("no OpenBLAS loaded with numpy and scipy")
    assert counts == dict.fromkeys(counts, 1)


def test_maps_without_openblas_do_nothing(monkeypatch):
    def no_load(*args, **kwargs):
        raise AssertionError("opened a library")

    monkeypatch.setattr(fisherflow._blas.ctypes, "CDLL", no_load)
    maps = (
        "55d0c0a00000-55d0c0a01000 r--p 00000000 08:01 1234 /usr/bin/python3.11\n"
        "7f1c2a000000-7f1c2a028000 r-xp 00028000 08:01 5678 /usr/lib/x86_64-linux-gnu/libc.so.6\n"
        "7ffd5e7f0000-7ffd5e811000 rw-p 00000000 00:00 0 [stack]\n"
        "7f1c29f00000-7f1c29f21000 rw-p 00000000 00:00 0\n"
    )
    assert fisherflow._blas.pin_openblas_threads(maps) == []
    assert fisherflow._blas.pin_openblas_threads("") == []


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_an_openblas_not_loaded_is_not_loaded():
    # numpy's own OpenBLAS, named in the maps text of a process that never imported numpy
    site = os.path.dirname(os.path.dirname(importlib.util.find_spec("numpy").origin))
    libs = os.path.join(site, "numpy.libs")
    names = [n for n in os.listdir(libs) if "openblas" in n] if os.path.isdir(libs) else []
    if not names:
        pytest.skip("numpy bundles no OpenBLAS")
    line = f"7f0000000000-7f0000001000 r-xp 00000000 00:00 0 {os.path.join(libs, names[0])}"
    code = (
        "import importlib.util, json\n"
        f"spec = importlib.util.spec_from_file_location('blas', {fisherflow._blas.__file__!r})\n"
        "blas = importlib.util.module_from_spec(spec); spec.loader.exec_module(blas)\n"
        f"pinned = blas.pin_openblas_threads({line!r})\n"
        "print(json.dumps([pinned, 'openblas' in open('/proc/self/maps').read()]))"
    )
    assert _run(code) == [[], False]


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_quantum_bytes_do_not_depend_on_blas_threads(tmp_path):
    scenario = tmp_path / "quantum_d4.json"
    scenario.write_text(json.dumps(QUANTUM_D4), encoding="utf-8")
    outputs = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        code = THREAD_COUNTS + (
            "import json, ctypes, fisherflow, fisherflow.cli\n"
            "for path in thread_counts():\n"
            "    lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)\n"
            f"    next(getattr(lib, n) for n in SETTERS if hasattr(lib, n))({threads})\n"
            f"code = fisherflow.cli.main(['quantum', '--scenario', {str(scenario)!r}, '--out', {str(out)!r}])\n"
            "print(json.dumps([code, thread_counts()]))"
        )
        code_, counts = _run(code)
        assert code_ == 0
        if threads == 2 and (not counts or min(counts.values()) < 2):
            pytest.skip("OpenBLAS does not run on 2 threads here")
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert list(outputs[1]) == ["quantum.json"]
    assert outputs[1] == outputs[2]
