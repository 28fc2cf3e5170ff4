"""Host facts printed with every benchmark result, and the host-speed probe."""

from __future__ import annotations

import ctypes
import os
import platform
import time
from pathlib import Path

import numpy as np
import scipy


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> str:
    """Unified L2/L3 caches as 'L2=<size>x<instances>'."""
    instances: dict[str, set[str]] = {}
    sizes: dict[str, str] = {}
    for index in Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index[0-9]*"):
        try:
            level = (index / "level").read_text().strip()
            if level not in ("2", "3"):
                continue
            sizes[level] = (index / "size").read_text().strip()
            instances.setdefault(level, set()).add((index / "shared_cpu_list").read_text().strip())
        except OSError:
            continue
    return " ".join(f"L{lvl}={sizes[lvl]}x{len(instances[lvl])}" for lvl in sorted(sizes)) or "L2/L3=unknown"


def _blas() -> tuple[str, str]:
    """The BLAS build numpy uses, and the threads it actually runs with."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = f"{info.get('name')}-{info.get('version')}"
    config = info.get("openblas configuration", "")
    if "MAX_THREADS=" in config:
        build += "(" + config[config.index("MAX_THREADS="):].split()[0] + ")"
    threads = "unknown"
    try:
        maps = Path("/proc/self/maps").read_text()
        libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = str(fn())
                    break
    except OSError:
        pass
    return build, threads


#: The probe loop's duration on the reference host: times in reference
#: seconds read as if the probe had taken exactly this long.
REFERENCE_PROBE_S = 1e-3


def probe_s(rounds: int = 3) -> float:
    """Fastest of ``rounds`` runs of a fixed pure-Python loop, in seconds.

    On a shared host, other tenants slow a core by up to ~1.6x, in
    stretches of seconds, and the host's speed drifts by ~20% over
    minutes; the probe slows down with it.
    """
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def to_reference(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` measured between two probes, in reference seconds."""
    return seconds * REFERENCE_PROBE_S / (0.5 * (probe_before + probe_after))


def facts(requested_threads: int) -> dict[str, str]:
    build, threads = _blas()
    return {
        "nproc": str(os.cpu_count()),
        "cpu": repr(_cpu_model()),
        "caches": repr(_caches()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": build,
        "blas_threads": f"{threads}(requested {requested_threads})",
        "cpus_used": ",".join(str(c) for c in sorted(os.sched_getaffinity(0))),
        "probe_ms": f"{1e3 * probe_s(40):.3f}",
    }
