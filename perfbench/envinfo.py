"""The machine and library versions a result was measured with."""

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

import srcpath
import workloads


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        return "unknown", "unknown"


def _blas_threads():
    """OpenBLAS's own thread count when numpy bundles OpenBLAS, else None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment():
    blas_name, blas_version = _blas()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads_pinned": srcpath.BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "dataset_jobs": workloads.DATASET_JOBS,
        "pool_path": "not measured",
    }
