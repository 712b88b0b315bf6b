"""The environment a measurement ran in: cores, versions, BLAS threads.

Run as a script it prints the record as one JSON line.  The benchmark reads
thread settings and never sets them.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import sys


def _openblas_libs():
    """Bundled OpenBLAS libraries of the numpy and scipy wheels."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)
    found = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            found[pkg.__name__] = path
    return found


def _openblas_info(path):
    lib = ctypes.CDLL(path)
    info = {"library": os.path.basename(path)}
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            info["threads"] = threads()
            info["config"] = config().decode(errors="replace")
            return info
    return info


def collect():
    import numpy
    import scipy
    blas = {}
    for name, path in _openblas_libs().items():
        try:
            blas[name] = _openblas_info(path)
        except OSError as exc:
            blas[name] = {"library": os.path.basename(path), "error": str(exc)}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


if __name__ == "__main__":
    json.dump(collect(), sys.stdout)
    sys.stdout.write("\n")
