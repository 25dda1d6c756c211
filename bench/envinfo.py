"""Environment, provenance and the calibration kernel recorded in every output file."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time
from importlib import metadata
from pathlib import Path

# BLAS/OpenMP pools, pinned to one thread in every process the benchmark starts:
# the matrices are tiny, so more threads only add contention and noise
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def single_threaded_env() -> dict:
    return {**os.environ, **{name: "1" for name in THREAD_VARS}}


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": _version("click"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "longdouble_digits": int(np.finfo(np.longdouble).precision),
        "machine": platform.machine(),
    }


def provenance(root: Path) -> dict:
    """The git commit when the checkout is a repository, and a digest of ``src/`` always."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                  text=True, timeout=10)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def calibrate() -> float:
    """Median time in ms of a fixed float64 kernel (matrix products and solves)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96)) + 96 * np.eye(96)
    b = rng.standard_normal((96, 8))
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        x = b
        for _ in range(40):
            x = np.linalg.solve(a, a @ x)
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2] * 1e3
