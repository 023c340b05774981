"""Machine and environment data recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    # numpy wheels bundle OpenBLAS; ask the loaded library for its threads.
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"vendor": info.get("name"), "version": info.get("version"),
            "threads": threads}


def git_commit(root: str) -> str:
    """HEAD of the repository at ``root``; ``unknown`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if (out.returncode == 0 and len(lines) == 2
            and os.path.realpath(lines[0]) == os.path.realpath(root)):
        return lines[1]
    return "unknown"


def describe(root: str) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "commit": git_commit(root),
    }
