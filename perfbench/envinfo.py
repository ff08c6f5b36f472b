"""The run environment recorded beside every benchmark run.

A slow run on a busy host reads like a slow program unless the load
average and the guest steal time are on record, so each run snapshots
them at start and end.  Everything here only reads ``/proc`` and the
interpreter's own modules.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def cpu_ticks() -> dict[str, int] | None:
    """Aggregate ``cpu`` line of /proc/stat: total and steal, in ticks."""
    text = _read("/proc/stat")
    if text is None:
        return None
    fields = text.splitlines()[0].split()
    values = [int(v) for v in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted inside user/nice
    return {"total": sum(values[:8]), "steal": steal}


def snapshot() -> dict:
    """Load average and CPU tick counters right now."""
    load = _read("/proc/loadavg")
    return {
        "loadavg": [float(v) for v in load.split()[:3]] if load else None,
        "cpu_ticks": cpu_ticks(),
    }


def steal_share(start: dict, end: dict) -> float | None:
    """Share of CPU time stolen by the hypervisor between two snapshots."""
    a, b = start.get("cpu_ticks"), end.get("cpu_ticks")
    if not a or not b or b["total"] <= a["total"]:
        return None
    return (b["steal"] - a["steal"]) / (b["total"] - a["total"])


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it can be asked."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def static_info() -> dict:
    """Core count and the interpreter / numpy / BLAS versions."""
    import numpy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except Exception:  # show_config's layout is not a stable API
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "executable": os.path.basename(sys.executable),
    }
