"""Dense symmetric-matrix primitives used by every solver in the package.

Public surface: :class:`SymMatrix`, :class:`DefinitenessReport`,
:class:`GaussianMarginal`, :func:`psd_sqrt`, :func:`pinv`,
:func:`gaussian_condition`, :func:`definiteness`.

The module also hosts dtype-generic kernels (``solve_linear``, ``sym_eig``,
``psd_sqrt_raw``, ``pinv_eig``) that work on ``float64`` and
``np.longdouble`` alike.  LAPACK only operates in double precision, so the
extended-precision path falls back to a partial-pivot LU and a Jacobi
eigensolver; the boundary-coupled recursions in
:mod:`maxent_steer.steering` and :mod:`maxent_steer.pinned` run on those to
keep round-off below the contract tolerances on long, badly conditioned
horizons. For n >= 3 the Jacobi sweeps start from LAPACK's float64
eigenvectors refined to the working precision, and each round-robin round
turns n/2 disjoint pairs at once, so a matrix converges in about one sweep
of n - 1 rounds; n <= 2 starts from I, where one rotation is exact.

Like ``numpy.linalg``, the kernels take stacks ``(..., n, n)`` (``solve_linear``
also a right-hand side ``(n,)`` or ``(..., n, k)``). The pure-numpy kernels
pay Python overhead per pivot and per round of rotations, not per matrix, so
a stack costs about what one matrix does: called once per step, they took
about 75% of :func:`~maxent_steer.pinned.bridge_verify`, and callers that
loop over steps should pass the whole stack instead. Each matrix in a stack
gets exactly the pivots and rotations it would get alone (a matrix leaves
the Jacobi sweeps when it has converged, and a pair below its threshold
turns by the identity), so a stacked result is bit-identical to the
per-matrix one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, IndefiniteInput, SingularBlock

__all__ = [
    "SymMatrix",
    "DefinitenessReport",
    "GaussianMarginal",
    "symmetrize",
    "psd_sqrt",
    "pinv",
    "gaussian_condition",
    "definiteness",
]

#: relative eigenvalue tolerance for definiteness verdicts
DEFINITENESS_RTOL = 1e-10
#: relative singular-value cutoff for pseudoinverses
PINV_RCOND = 1e-12
# sweep limit of the Jacobi eigensolver; a seeded matrix converges in one or two
_MAX_SWEEPS = 64


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (M + M^T) / 2 of each matrix (..., n, n), preserving dtype."""
    m = np.asarray(m)
    return (m + np.swapaxes(m, -1, -2)) / 2


def _as_float_array(m) -> np.ndarray:
    a = np.asarray(m)
    if a.dtype.kind != "f":
        a = a.astype(np.float64)
    return a


@dataclass(frozen=True)
class SymMatrix:
    """A real symmetric matrix.

    Construction symmetrizes the input via (M + M^T) / 2, so the symmetry
    invariant holds by fiat; long recursions re-wrap their results to stop
    asymmetry drift. Mirrored +inf and -inf entries become NaN without a
    warning, for the admission rule to refuse as not finite. The wrapped
    array is read-only.
    """

    data: np.ndarray

    def __post_init__(self):
        a = _as_float_array(self.data)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        with np.errstate(invalid="ignore"):
            a = symmetrize(a)
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.data
        return self.data.astype(dtype)


def as_sym(m) -> SymMatrix:
    """Coerce an array-like (or pass through a SymMatrix) to :class:`SymMatrix`."""
    if isinstance(m, SymMatrix):
        return m
    return SymMatrix(np.asarray(m))


@dataclass(frozen=True)
class DefinitenessReport:
    """Spectral summary of a symmetric matrix.

    ``verdict`` is one of ``positive-definite``, ``positive-semidefinite``,
    ``indefinite``, ``negative-definite``, decided at the relative
    tolerance ``1e-10 * max(1, |max_eig|)``.
    """

    min_eig: float
    max_eig: float
    verdict: str
    eigenvalues: np.ndarray = field(repr=False)

    @property
    def is_pd(self) -> bool:
        return self.verdict == "positive-definite"

    @property
    def is_psd(self) -> bool:
        return self.verdict in ("positive-definite", "positive-semidefinite")


def definiteness(m) -> DefinitenessReport:
    """Classify a symmetric matrix by the signs of its eigenvalues."""
    a = as_sym(m).data
    w = np.linalg.eigvalsh(a)
    min_eig, max_eig = float(w[0]), float(w[-1])
    tol = DEFINITENESS_RTOL * max(1.0, abs(max_eig))
    if min_eig > tol:
        verdict = "positive-definite"
    elif min_eig >= -tol:
        verdict = "positive-semidefinite"
    elif max_eig < -tol:
        verdict = "negative-definite"
    else:
        verdict = "indefinite"
    return DefinitenessReport(min_eig, max_eig, verdict, w)


@dataclass(frozen=True)
class GaussianMarginal:
    """Mean vector and covariance matrix of a Gaussian distribution."""

    mean: np.ndarray
    cov: SymMatrix

    def __post_init__(self):
        mean = np.atleast_1d(_as_float_array(self.mean))
        cov = as_sym(self.cov)
        if mean.ndim != 1 or mean.shape[0] != cov.n:
            raise DimensionMismatch(
                f"mean has shape {mean.shape} but covariance is {cov.n}x{cov.n}"
            )
        mean = mean.copy()
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


# ---------------------------------------------------------------------------
# dtype-generic kernels (float64 -> LAPACK, anything else -> pure numpy)
# ---------------------------------------------------------------------------


def _lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by partial-pivot LU without leaving the input dtype.

    ``a`` is (..., n, n); ``b`` is (n,) or (..., n, k), broadcast against
    ``a`` like ``np.linalg.solve``. Each matrix of the stack gets the pivots
    and eliminations it would get alone; any singular member raises.
    """
    n = a.shape[-1]
    vec = b.ndim == 1
    if vec:
        b = b[:, None]
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, lead + (n, n)).reshape((-1, n, n)).copy()
    x = np.broadcast_to(b, lead + b.shape[-2:]).reshape((-1,) + b.shape[-2:]).copy()
    for c in range(n):
        col = np.abs(a[:, c:, c])
        if not col.max(axis=1).all():
            raise np.linalg.LinAlgError("singular matrix in LU solve")
        shift = np.argmax(col, axis=1)  # pivot row minus c
        if shift.any():
            swap = np.flatnonzero(shift)
            p = c + shift[swap]
            for y in (a, x):
                row = y[swap, p]
                y[swap, p] = y[swap, c]
                y[swap, c] = row
        f = (a[:, c + 1 :, c] / a[:, c, c, None])[:, :, None]
        a[:, c + 1 :, c + 1 :] -= f * a[:, None, c, c + 1 :]
        x[:, c + 1 :] -= f * x[:, None, c]
    for r in range(n - 1, -1, -1):
        x[:, r] = (x[:, r] - (a[:, None, r, r + 1 :] @ x[:, r + 1 :])[:, 0]) / a[:, r, r, None]
    x = x.reshape(lead + x.shape[1:])
    return x[..., 0] if vec else x


def _cutoff(factor, top):
    """``factor * max(1, top)``, NaN-ignoring, with max(1, top) rounded to double
    where it fits one and kept in the working precision where it does not."""
    big = top > np.finfo(np.float64).max
    if big.any():
        return np.where(big, factor * top, _cutoff(factor, np.where(big, 0, top)))
    return factor * np.fmax(1.0, top.astype(np.float64))


def _round_robin(n: int):
    """Brent-Luk round-robin: (rounds, pairs) arrays of p < q, every pair once in n - 1 (even n) or n rounds.

    With m = n rounded up to even, round r pairs r with m - 1 (a dummy for odd
    n, so that pair is dropped) and r + k with r - k modulo m - 1.
    """
    m = n + n % 2
    r, k = np.arange(m - 1)[:, None], np.arange(n % 2, m // 2)
    i, j = (r + k) % (m - 1), np.where(k == 0, m - 1, (r - k) % (m - 1))
    return np.minimum(i, j), np.maximum(i, j)


def _jacobi_eigh(m: np.ndarray):
    """Jacobi eigendecomposition of symmetric matrices, dtype-generic.

    ``m`` is (..., n, n). Returns eigenvalues in ascending order and the
    matching eigenvectors as columns, like ``np.linalg.eigh``. For n >= 3 the
    sweeps start from LAPACK's eigenvectors of each matrix, scaled by a power
    of two into the double range and re-orthonormalized by one Newton-Schulz
    step; a non-finite matrix, and any with n <= 2, starts from I. A sweep is
    the rounds of :func:`_round_robin`. Each matrix of the stack gets exactly
    the rotations it would get alone: it leaves the sweeps once it has
    converged, and a pair below its threshold turns by the identity.
    """
    m = symmetrize(m)
    lead, n = m.shape[:-2], m.shape[-1]
    if m.size == 0:
        return np.zeros(lead + (n,), m.dtype), np.zeros(m.shape, m.dtype)
    a = m.reshape((-1, n, n))
    # the matrices (rows :n) and their eigenvectors (rows n:) share one buffer,
    # so that one column rotation turns both
    av = np.empty((len(a), 2 * n, n), dtype=m.dtype)
    av[:, :n], av[:, n:] = a, np.eye(n)
    if n > 2:
        top = np.abs(a).max(axis=(1, 2), keepdims=True)
        fin = np.isfinite(top)
        e = np.frexp(np.where(fin, top, 1))[1]
        x = np.linalg.eigh(np.where(fin, np.ldexp(a, -e), 0).astype(np.float64))[1]
        x = np.where(fin, x, np.eye(n)).astype(m.dtype)
        x = x @ (3 * np.eye(n) - np.swapaxes(x, 1, 2) @ x) / 2
        av[:, :n] = np.where(fin, symmetrize(np.swapaxes(x, 1, 2) @ np.where(fin, a, 0) @ x), a)
        av[:, n:] = x
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    eps = np.finfo(m.dtype).eps
    rounds = _round_robin(n)
    cur, live = av, np.arange(len(av))
    for _ in range(_MAX_SWEEPS):
        a = cur[:, :n]
        off = np.sqrt(np.sum((np.where(upper, a, 0) ** 2).reshape(len(a), -1), axis=1))
        scale = _cutoff(1, np.abs(a).max(axis=(1, 2)))
        done = off <= n * eps * scale
        if done.any():
            av[live] = cur
            if done.all():
                break
            cur, live, scale = cur[~done], live[~done], scale[~done]
            a = cur[:, :n]
        thresh = (eps * scale / n)[:, None]
        for p, q in zip(*rounds):
            apq = a[:, p, q]
            skip = np.abs(apq) <= thresh
            tau = (a[:, q, q] - a[:, p, p]) / (2 * np.where(skip, 1, apq))
            t = np.sign(tau) / (np.abs(tau) + np.sqrt(1 + tau * tau))
            t[tau == 0] = 1
            t[skip] = 0
            c = 1 / np.sqrt(1 + t * t)
            s = t * c
            rp, rq = a[:, p], a[:, q]
            a[:, p], a[:, q] = c[..., None] * rp - s[..., None] * rq, s[..., None] * rp + c[..., None] * rq
            cp, cq = cur[:, :, p], cur[:, :, q]
            c, s = c[:, None], s[:, None]
            cur[:, :, p], cur[:, :, q] = c * cp - s * cq, s * cp + c * cq
            a[:, p, q] = np.where(skip, a[:, p, q], 0)
            a[:, q, p] = np.where(skip, a[:, q, p], 0)
    else:
        av[live] = cur  # members still unconverged after _MAX_SWEEPS
    w = np.diagonal(av[:, :n], axis1=1, axis2=2)
    order = np.argsort(w, axis=1)
    w = np.take_along_axis(w, order, axis=1)
    v = np.take_along_axis(av[:, n:], order[:, None, :], axis=2)
    return w.reshape(lead + (n,)), v.reshape(lead + (n, n))


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b, keeping extended precision when the inputs carry it.

    Shapes follow ``np.linalg.solve``: ``a`` is (..., n, n) and ``b`` is
    (n,) or (..., n, k).
    """
    a = np.asarray(a)
    if a.dtype == np.float64:
        return np.linalg.solve(a, b)
    return _lu_solve(a, np.asarray(b, dtype=a.dtype))


def inv(a: np.ndarray) -> np.ndarray:
    """Matrix inverse through :func:`solve_linear`."""
    a = np.asarray(a)
    return solve_linear(a, np.eye(a.shape[-1], dtype=a.dtype))


def sym_eig(m: np.ndarray):
    """Eigendecomposition of symmetric matrices (..., n, n), dtype-generic.

    Equivalent to ``np.linalg.eigh`` for float64; uses the Jacobi kernel for
    extended-precision dtypes.
    """
    m = np.asarray(m)
    if m.dtype == np.float64:
        return np.linalg.eigh(symmetrize(m))
    return _jacobi_eigh(m)


def _sym_from_eig(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetric V diag(w) V^T for stacked eigenpairs (..., n) and (..., n, n)."""
    return symmetrize((v * w[..., None, :]) @ np.swapaxes(v, -1, -2))


def psd_sqrt_raw(m: np.ndarray, snap_tol: float = 0.0) -> np.ndarray:
    """Square root of symmetric PSD matrices (..., n, n), negative round-off clamped.

    ``snap_tol`` > 0 additionally zeroes eigenvalues at or below
    ``snap_tol * max(1, max_eig)`` so that an almost-singular covariance
    stays exactly singular (needed to pin trajectory endpoints).
    """
    w, v = sym_eig(np.asarray(m))
    w = np.where(w < 0, 0, w)
    if snap_tol > 0 and w.size:
        w = np.where(w <= _cutoff(snap_tol, w[..., -1:]), 0, w)
    return _sym_from_eig(np.sqrt(w), v)


def pinv_eig(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverses of symmetric matrices from their eigenpairs (..., n), (..., n, n).

    Eigenvalues at or below PINV_RCOND times the largest |eigenvalue| are dropped; the
    cut has the units of the matrix, so it drops the same directions in any units.
    """
    cutoff = PINV_RCOND * np.abs(w).max(axis=-1, keepdims=True, initial=0.0)
    winv = np.where(np.abs(w) > cutoff, 1.0 / np.where(w == 0, 1, w), 0)
    return _sym_from_eig(winv, v)


def rcond_eig(w: np.ndarray) -> float:
    """Reciprocal spectral condition number of a symmetric matrix from its eigenvalues (0 if singular)."""
    w = np.abs(w)
    if w.ndim != 1:
        raise ValueError(f"rcond_eig takes one vector of eigenvalues, got shape {w.shape}")
    hi = float(w.max(initial=0.0))
    if hi == 0:
        return 0.0
    return float(w.min()) / hi


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def psd_sqrt(m) -> SymMatrix:
    """Unique positive semidefinite square root of a PSD matrix.

    Eigenvalues in ``[-1e-10 * scale, 0)`` are treated as round-off and
    clamped to zero, where ``scale = max(1, spectral radius)``; anything
    more negative raises :class:`IndefiniteInput`.
    """
    a = as_sym(m).data
    w, v = np.linalg.eigh(a)
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    if w[0] < -DEFINITENESS_RTOL * scale:
        raise IndefiniteInput(
            f"matrix has eigenvalue {w[0]:.6e} below -{DEFINITENESS_RTOL:.0e} * {scale:.3e}"
        )
    w = np.clip(w, 0.0, None)
    return SymMatrix((v * np.sqrt(w)) @ v.T)


def pinv(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a general (possibly rectangular) matrix.

    Singular values at or below ``1e-12 * sigma_max`` are treated as zero.
    """
    return np.linalg.pinv(_as_float_array(m), rcond=PINV_RCOND)


def gaussian_condition(joint_cov, joint_mean, observed_b) -> GaussianMarginal:
    """Condition a joint Gaussian on the trailing block of coordinates.

    The joint is partitioned as (x_a, x_b) with the size of x_b inferred
    from ``observed_b``; the conditional law of x_a given x_b = observed_b
    is returned as a :class:`GaussianMarginal` with

        mean = mu_a + S_ab S_bb^{-1} (b - mu_b)
        cov  = S_aa - S_ab S_bb^{-1} S_ba      (Schur complement)

    Raises :class:`SingularBlock` when S_bb is not positive definite at
    tolerance. Computation stays in the input dtype, so extended-precision
    callers keep their working precision.
    """
    if isinstance(joint_cov, SymMatrix):
        cov = joint_cov.data
    else:
        cov = symmetrize(np.asarray(joint_cov))
    mean = np.atleast_1d(np.asarray(joint_mean, dtype=cov.dtype))
    b = np.atleast_1d(np.asarray(observed_b, dtype=cov.dtype))
    n = cov.shape[0]
    nb = b.shape[0]
    na = n - nb
    if mean.shape[0] != n or na <= 0:
        raise DimensionMismatch(
            f"joint of dim {n} cannot be split for an observation of dim {nb}"
        )
    s_ab = cov[:na, na:]
    gain = _condition_gain(cov[na:, na:], s_ab)
    mean_a = mean[:na] + gain @ (b - mean[na:])
    cov_a = symmetrize(cov[:na, :na] - gain @ s_ab.T)
    return GaussianMarginal(mean_a, SymMatrix(cov_a))


def _condition_gain(s_bb: np.ndarray, s_ab: np.ndarray) -> np.ndarray:
    """Gain S_ab S_bb^{-1} of conditioning on a block with covariance ``s_bb``.

    The conditional law then has mean mu_a + gain (b - mu_b) and covariance
    S_aa - gain S_ba. ``s_bb`` is checked for positive definiteness and
    factored once, however many rows ``s_ab`` has: each row of the gain is
    the one it would get alone. Raises :class:`SingularBlock` when ``s_bb``
    is not positive definite at tolerance.
    """
    w = sym_eig(s_bb)[0]
    if w[0] <= DEFINITENESS_RTOL * max(1.0, float(abs(w[-1]))):
        raise SingularBlock(
            f"observed block is not positive definite (min eigenvalue {w[0]:.3e})"
        )
    return solve_linear(s_bb, s_ab.T).T
