"""The environment a result was measured in, recorded with every result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _size_bytes(text):
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    text = text.strip()
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def last_level_cache_bytes():
    """Size of cpu0's highest-level cache, or None where sysfs does not say."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return best[1] if best else None


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy before 1.25 has no dict mode
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc_bytes": last_level_cache_bytes(),
    }
