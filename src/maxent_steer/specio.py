"""Problem-specification and result files.

Problem specs and policies are JSON documents (key/value with nested
row-major arrays). All floating-point output is rendered with 17
significant digits, which round-trips IEEE doubles exactly; documents are
written in a canonical form (sorted keys, fixed float rendering) so that
load + save is byte-identical. Trajectories and ellipse boundaries are
plain CSV with the same 17-digit rendering. Both CSV writers share one
chunked formatter: each chunk of CSV_CHUNK records (samples or ellipse
rows) is formatted with a single ``%``, and no process holds more than one
source block of formatted chunks, so a large ensemble is never held as
strings at once; non-finite values are refused before the file is opened.
On POSIX a large file is formatted by up to one process per usable CPU:
forked workers pipe their chunks to the writing process, which writes every
chunk in order, so the bytes do not depend on the worker count. Trajectory
records have one layout, fed by a source of sample blocks that are handed
out whole, so each block is read by one process: the command line passes
the noise blocks of :mod:`~maxent_steer.simulate`, each rolled out once by
the process that formats it, so no process holds more than one block of
paths, and :func:`write_trajectory_csv` passes its arrays a chunk at a time.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .linalg import GaussianMarginal, SymMatrix
from .lqr import AffineGaussianPolicy
from .system import LinearSystemModel

__all__ = [
    "ProblemSpec",
    "load_spec",
    "parse_spec",
    "canonical_json",
    "save_policy",
    "load_policy",
    "write_trajectory_csv",
    "write_ellipse_csv",
]


@dataclass(frozen=True)
class ProblemSpec:
    """Parsed problem description.

    ``mode`` is "density" (both boundaries are mean/covariance pairs) or
    "point" (both boundaries are fixed states); mixed boundaries are
    rejected at parse time. ``initial``/``terminal`` hold
    :class:`GaussianMarginal` in density mode and plain vectors in point
    mode.
    """

    horizon: int
    epsilon: float
    A: np.ndarray
    B: np.ndarray
    mode: str
    initial: object
    terminal: object
    seed: int | None = None
    samples: int | None = None

    def system(self) -> LinearSystemModel:
        return LinearSystemModel(self.A, self.B, self.horizon)

    @property
    def n(self) -> int:
        return self.A.shape[-1]

    @property
    def m(self) -> int:
        return self.B.shape[-1]


def _fail(field: str, message: str):
    raise ParseError(f"field '{field}': {message}")


def _numbers(field: str, value, what: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        _fail(field, f"not a numeric {what}")
    if not np.isfinite(arr).all():
        _fail(field, "contains a non-finite number (NaN or Infinity)")
    return arr


def _matrix(field: str, value, allow_stack: bool) -> np.ndarray:
    arr = _numbers(field, value, "array")
    if arr.ndim == 2 or (allow_stack and arr.ndim == 3):
        return arr
    _fail(field, f"expected a matrix{' or list of matrices' if allow_stack else ''}, got shape {arr.shape}")


def _vector(field: str, value) -> np.ndarray:
    arr = _numbers(field, value, "vector")
    if arr.ndim != 1:
        _fail(field, f"expected a vector, got shape {arr.shape}")
    return arr


def _boundary(field: str, value):
    if not isinstance(value, dict):
        _fail(field, "must be an object with either 'mean'/'cov' or 'point'")
    if "point" in value:
        extra = set(value) - {"point"}
        if extra:
            _fail(field, f"unexpected keys with 'point': {sorted(extra)}")
        return "point", _vector(f"{field}.point", value["point"])
    if "cov" in value:
        cov = _matrix(f"{field}.cov", value["cov"], allow_stack=False)
        mean = (
            _vector(f"{field}.mean", value["mean"])
            if "mean" in value
            else np.zeros(cov.shape[0])
        )
        try:
            return "density", GaussianMarginal(mean, SymMatrix(cov))
        except Exception as exc:
            _fail(field, str(exc))
    _fail(field, "must contain either 'point' or 'cov' (with optional 'mean')")


def parse_spec(payload: dict, origin: str = "<spec>") -> ProblemSpec:
    """Validate a decoded JSON document and build a :class:`ProblemSpec`."""
    if not isinstance(payload, dict):
        raise ParseError(f"{origin}: top level must be an object")
    required = {"horizon", "epsilon", "A", "B", "initial", "terminal"}
    missing = required - set(payload)
    if missing:
        raise ParseError(f"{origin}: missing required fields {sorted(missing)}")

    horizon = payload["horizon"]
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        _fail("horizon", "must be a positive integer")
    epsilon = payload["epsilon"]
    if not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool) or not 0 < epsilon < math.inf:
        _fail("epsilon", "must be a positive number")
    a = _matrix("A", payload["A"], allow_stack=True)
    b = _matrix("B", payload["B"], allow_stack=True)
    mode_i, initial = _boundary("initial", payload["initial"])
    mode_t, terminal = _boundary("terminal", payload["terminal"])
    if mode_i != mode_t:
        raise ParseError(
            f"mixed boundary modes: initial is '{mode_i}' but terminal is '{mode_t}'"
        )

    seed = payload.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        _fail("seed", "must be an integer")
    samples = payload.get("samples")
    if samples is not None and (
        not isinstance(samples, int) or isinstance(samples, bool) or samples < 1
    ):
        _fail("samples", "must be a positive integer")

    n = a.shape[-1]
    if a.shape[-2] != n:
        _fail("A", f"matrices must be square, got {a.shape}")
    if a.ndim == 3 and a.shape[0] != horizon:
        _fail("A", f"stack length {a.shape[0]} does not match horizon {horizon}")
    if b.shape[-2] != n:
        _fail("B", f"row count {b.shape[-2]} does not match state dimension {n}")
    if b.ndim == 3 and b.shape[0] != horizon:
        _fail("B", f"stack length {b.shape[0]} does not match horizon {horizon}")
    for name, value in (("initial", initial), ("terminal", terminal)):
        dim = value.dim if isinstance(value, GaussianMarginal) else value.shape[0]
        if dim != n:
            _fail(name, f"dimension {dim} does not match state dimension {n}")

    return ProblemSpec(
        horizon=horizon,
        epsilon=float(epsilon),
        A=a,
        B=b,
        mode=mode_i,
        initial=initial,
        terminal=terminal,
        seed=seed,
        samples=samples,
    )


def load_spec(path: str) -> ProblemSpec:
    """Read and validate a spec file; :class:`ParseError` carries positions."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_spec(payload, origin=path)


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(float(x), ".17g")


def _canonical(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}:{_canonical(v)}" for k, v in sorted(obj.items()))
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON rendering: sorted keys, floats at 17 significant digits."""
    return _canonical(obj) + "\n"


def save_policy(path: str, policy: AffineGaussianPolicy, q_sequence=None, diagnostics=None):
    """Write a policy file: per-step gains, feedforwards, noise covariances,
    the minus-branch Q sequence when available, and solver diagnostics."""
    doc = {
        "kind": "maxent-steer-policy",
        "horizon": policy.horizon,
        "n": policy.n,
        "m": policy.m,
        "gains": policy.gains,
        "feedforwards": policy.feedforwards,
        "noise_covs": policy.noise_covs,
    }
    if q_sequence is not None:
        doc["Q"] = np.asarray(q_sequence)
    if diagnostics:
        doc["diagnostics"] = diagnostics
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))


def load_policy(path: str):
    """Read a policy file back; returns (policy, full document)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != "maxent-steer-policy":
        raise ParseError(f"{path}: not a maxent-steer policy file")
    try:
        arrays = [_matrix(name, doc[name], allow_stack=True) for name in ("gains", "feedforwards", "noise_covs")]
    except KeyError as exc:
        raise ParseError(f"{path}: missing policy field {exc}") from exc
    return AffineGaussianPolicy(*arrays), doc


# ---------------------------------------------------------------------------
# CSV outputs
# ---------------------------------------------------------------------------


# Records formatted and piped or written per chunk: a record is one sample of a
# trajectory file, one row of an ellipse file. Bounds the strings held at once.
CSV_CHUNK = 64
# Values a forked worker must format to repay its ~1.5 ms fork (~0.45 us each).
_FORK_MIN_VALUES = 50_000


def _check_finite(*arrays):
    for arr in arrays:
        arr = np.asarray(arr)
        bad = ~np.isfinite(arr)
        if bad.any():
            raise ValueError(f"non-finite value {arr[bad][0]!r} cannot be serialized")


def _csv_workers(values: int) -> int:
    """Processes to format ``values`` numbers: one per usable CPU and per
    _FORK_MIN_VALUES values; 1 without ``os.fork`` or while other threads run."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, values // _FORK_MIN_VALUES))


def _csv_worker(blocks, fd: int, inherited):
    """Forked worker: pipe ``blocks`` length-prefixed to ``fd``; skip the parent's cleanup."""
    try:
        for pipe in inherited:
            pipe.close()
        with open(fd, "wb") as out:
            for data in blocks:
                out.write(len(data).to_bytes(8, "little") + data)
        os._exit(0)
    finally:
        os._exit(1)  # reached only on an exception


def _receive(pipe) -> str:
    size = int.from_bytes(pipe.read(8), "little")
    data = pipe.read(size)
    if size == 0 or len(data) < size:
        raise RuntimeError("a CSV worker process ended before sending its blocks")
    return data.decode()


def _write_csv(path: str, header: str, record_fmt: str, count: int, records, size: int = CSV_CHUNK):
    """Write ``header`` and ``count`` records, CSV_CHUNK records per chunk.

    ``records(lo, hi)`` returns the float64 values of records lo..hi-1 as rows
    of an array, and ``record_fmt`` renders one such row (``%.17g`` gives the
    same digits as ``format(x, ".17g")``). Callers check finiteness first, so
    a refused write leaves ``path`` untouched. The records come in source
    blocks of ``size`` records (a multiple of CSV_CHUNK or at least ``count``;
    by default each chunk is a block of its own), and every chunk of block b
    is formatted by worker b mod W, so each block is read by one process.
    Worker 0 is this process, which writes the chunks in order; the others,
    at most one per block, fork once ``path`` is open. A forked worker formats
    all chunks of a block before it pipes them, so it works a block ahead of
    the writer instead of stalling on a full pipe after one chunk.
    """
    blocks = -(-count // size)
    workers = min(blocks, _csv_workers(count * record_fmt.count("%")))  # a value per %

    def chunk(lo):
        hi = min(lo + CSV_CHUNK, count)
        return (record_fmt * (hi - lo)) % tuple(records(lo, hi).ravel().tolist())

    def owned(w):
        """The encoded chunks of worker ``w``'s blocks, a block at a time."""
        for b in range(w, blocks, workers):
            los = range(b * size, min(b * size + size, count), CSV_CHUNK)
            yield from [chunk(lo).encode() for lo in los]

    pids, pipes = [], []
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for w in range(1, workers):
                rfd, wfd = os.pipe()
                pipes.append(open(rfd, "rb"))
                try:
                    pid = os.fork()
                    if pid == 0:
                        _csv_worker(owned(w), wfd, pipes)
                    pids.append(pid)
                finally:
                    os.close(wfd)
            for lo in range(0, count, CSV_CHUNK):
                w = lo // size % workers
                fh.write(_receive(pipes[w - 1]) if w else chunk(lo))
    finally:
        for pipe in pipes:  # a closed pipe stops its worker at the next block
            pipe.close()
        failed = [pid for pid in pids if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])]
    if failed:
        raise RuntimeError(f"CSV worker process(es) {failed} failed")


def _write_trajectories(path: str, count: int, shape, size: int, rollout):
    """Write ``count`` sampled paths as rows `sample,step,x1..xn,u1..um`.

    ``shape`` is (steps, n, m). ``rollout(b)`` returns the states and controls
    of samples b*size .. b*size+size-1 (fewer in the last block); ``size`` is a
    multiple of CSV_CHUNK or at least ``count``, so no chunk spans two blocks.
    Each block is rolled out by the one process that formats it, which keeps
    only the last block it rolled out. Callers check finiteness first.
    """
    steps, n, m = shape
    header = (
        "sample,step,"
        + ",".join(f"x{i + 1}" for i in range(n))
        + ","
        + ",".join(f"u{j + 1}" for j in range(m))
    )
    # one sample's rows; the step numbers are constants of the layout
    xs, us = ",".join(["%.17g"] * n), ",".join(["%.17g"] * m)
    sample_fmt = "".join(f"%d,{k},{xs},{us}\n" for k in range(steps - 1))
    sample_fmt += f"%d,{steps - 1},{xs},{',' * (m - 1)}\n"
    held = [None, None]  # index and arrays of the block this process holds

    def records(lo, hi):
        b = lo // size
        if held[0] != b:
            held[:] = b, None  # drop the old block before rolling out the next
            held[1] = rollout(b)
        states, controls = held[1]
        rows = slice(lo - b * size, hi - b * size)
        table = np.empty((hi - lo, steps, 1 + n + m))
        table[:, :, 0] = np.arange(lo, hi)[:, None]
        table[:, :, 1 : 1 + n] = states[rows]
        table[:, :-1, 1 + n :] = controls[rows]
        # the terminal row carries no controls: drop its last m columns
        return table.reshape(hi - lo, -1)[:, : steps * (1 + n + m) - m]

    _write_csv(path, header, sample_fmt, count, records, size)


def write_trajectory_csv(path: str, states: np.ndarray, controls: np.ndarray):
    """Write sampled paths as rows `sample,step,x1..xn,u1..um`.

    Control columns are empty at the terminal step, which has no input. A
    non-finite value raises ``ValueError`` before anything is written.
    """
    count, steps, n = states.shape
    _check_finite(states, controls)

    def rollout(b):  # the held arrays, a chunk at a time, spread over the workers
        rows = slice(b * CSV_CHUNK, b * CSV_CHUNK + CSV_CHUNK)
        return states[rows], controls[rows]

    _write_trajectories(path, count, (steps, n, controls.shape[2]), CSV_CHUNK, rollout)


def write_ellipse_csv(path: str, angles: np.ndarray, points: np.ndarray):
    """Write ellipse boundary samples as rows `angle,x1,x2`."""
    rows = np.column_stack((angles, np.asarray(points)[:, :2]))
    _check_finite(rows)
    _write_csv(path, "angle,x1,x2", "%.17g,%.17g,%.17g\n", len(rows), lambda lo, hi: rows[lo:hi])
