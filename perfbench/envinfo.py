"""The environment a benchmark run records: CPUs, numpy, BLAS library and threads.

The BLAS thread count is read, never set: the benchmark leaves thread
policy to the program and its environment.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np

_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads")


def _blas_library() -> str | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    return os.path.realpath(libs[0]) if libs else None


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS in this process, if it has one."""
    path = _blas_library()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for name in _GETTERS:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    blas = _blas_library()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_library": os.path.basename(blas) if blas else None,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in sorted(os.environ)
                       if k.endswith("_NUM_THREADS")},
    }
