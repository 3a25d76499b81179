"""Description of the machine a run measured: CPU, caches, Python, NumPy, BLAS."""

import ctypes
import glob
import os
import platform
import time

import numpy as np

_CALIBRATION_MATRIX = np.random.default_rng(0).standard_normal((2000, 16))


def nproc():
    return len(os.sched_getaffinity(0))


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches():
    out = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(index, f)) for f in ("level", "type", "size"))
        if level and size:
            out.append(f"L{level} {kind} {size}")
    return out


def _blas_library():
    """Path of the BLAS shared library NumPy loaded, from this process's maps."""
    text = _read("/proc/self/maps") or ""
    for line in text.splitlines():
        path = line.split()[-1]
        if "blas" in os.path.basename(path).lower() and ".so" in path:
            return path
    return None


def blas_threads():
    path = _blas_library()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads", "scipy_openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def calibrate():
    """Seconds for one fixed sweep of Jacobi-style rotations on a tall matrix.

    Like the library's kernel it is bound by the interpreter, small NumPy
    calls and strided column access; it does not depend on unirat, so its
    time measures the host's speed at the moment it runs.
    """
    M = _CALIBRATION_MATRIX
    out = np.empty_like(M)
    m = M.shape[1]
    start = time.perf_counter()
    for p in range(m - 1):  # M is never updated, so every call does the same work
        for q in range(p + 1, m):
            cp, cq = M[:, p], M[:, q]
            zeta = (cq @ cq - cp @ cp) / (2.0 * (cp @ cq))
            t = np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
            cs = 1.0 / np.hypot(1.0, t)
            out[:, p], out[:, q] = cs * cp - cs * t * cq, cs * t * cp + cs * cq
    return time.perf_counter() - start


def describe():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": None, "version": None}
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
    }
