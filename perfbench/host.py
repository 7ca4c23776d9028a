"""Run metadata: host, interpreter, BLAS and the code under test.

The OpenBLAS thread count is read, never set, through the bundled
``scipy_openblas`` library's ``*_get_num_threads*`` symbol, so the result
records the thread count the run actually used.
"""

from __future__ import annotations

import ctypes
import glob
import os
import pathlib
import platform

import numpy as np

__all__ = ["metadata"]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> tuple[str, int | None]:
    """``(config string, effective thread count)`` of numpy's OpenBLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):  # ILP64 and LP64 builds
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            return config().decode(), int(threads())
    return "unknown", None


def _git_commit(root: pathlib.Path) -> str:
    """HEAD's commit read from ``.git`` without running git; else ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(root: pathlib.Path, workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config, threads = _openblas()
    return {
        "workload": workload,
        "seed": seed,
        "commit": _git_commit(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": config,
        "blas_threads": threads,
    }
