"""Environment fingerprint printed with every result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git(root: Path) -> tuple[str | None, bool | None]:
    """Commit and dirty flag, or (None, None) outside a git checkout."""
    if not (root / ".git").exists():
        return None, None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root, capture_output=True,
                                text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return head, bool(status.strip())


def fingerprint(root: Path, seed: int, corpus_sha256: str, pinned_cpu: int | None) -> dict:
    """Machine, library and input identity of one run.

    Raises RuntimeError if BLAS runs more threads than the process may use
    cores, which would make the timings depend on oversubscription.
    """
    nproc = os.cpu_count()
    threads = blas_threads()
    if threads is not None and threads > nproc:
        raise RuntimeError(f"BLAS uses {threads} threads on {nproc} cores")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit, dirty = _git(root)
    return {
        "nproc": nproc,
        "pinned_cpu": pinned_cpu,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "commit": commit,
        "dirty": dirty,
        "seed": seed,
        "corpus_sha256": corpus_sha256,
    }
