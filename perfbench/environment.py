"""The environment block printed with every result."""

from __future__ import annotations

import ctypes
import importlib.metadata
import os
import platform
from pathlib import Path

import numpy as np


def _read(path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _caches() -> list[dict]:
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append({
            "level": _read(index / "level"),
            "type": _read(index / "type"),
            "size": _read(index / "size"),
            "shared_cpus": _read(index / "shared_cpu_list"),
        })
    return caches


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _openblas() -> dict:
    """Thread count and configuration from the OpenBLAS numpy has loaded."""
    paths = {
        line.split()[-1]
        for line in (_read("/proc/self/maps") or "").splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    }
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                return {"library": Path(path).name, "threads": threads(),
                        "config": config().decode()}
    return {"library": None, "threads": None, "config": None}


def _git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(root / ".git" / ref)
    if commit is None:
        for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def describe(root: Path) -> dict:
    blas_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "blas": {"name": blas_build.get("name"), "version": blas_build.get("version"),
                 **_openblas()},
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": _git_commit(root),
    }
