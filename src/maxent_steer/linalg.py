"""Dense symmetric-matrix primitives used by every solver in the package.

Public surface: :class:`SymMatrix`, :class:`DefinitenessReport`,
:class:`GaussianMarginal`, :func:`psd_sqrt`, :func:`pinv`,
:func:`gaussian_condition`, :func:`definiteness`.

The module also hosts dtype-generic kernels (``solve_linear``, ``sym_eig``,
``psd_sqrt_raw``, ``pinv_sym``) that work on ``float64`` and
``np.longdouble`` alike.  LAPACK only operates in double precision, so the
extended-precision path falls back to a partial-pivot LU and a cyclic
Jacobi eigensolver; the boundary-coupled recursions in
:mod:`maxent_steer.steering` and :mod:`maxent_steer.pinned` run on those to
keep round-off below the contract tolerances on long, badly conditioned
horizons.  All problem dimensions here are small, so the O(n^3) pure-numpy
kernels are never a bottleneck.
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


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (M + M^T) / 2, preserving dtype."""
    m = np.asarray(m)
    return (m + m.T) / 2


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
    asymmetry drift. The wrapped array is read-only.
    """

    data: np.ndarray

    def __post_init__(self):
        a = _as_float_array(self.data)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
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
    """Solve a x = b by partial-pivot LU without leaving the input dtype."""
    a = np.array(a, copy=True)
    vec = np.ndim(b) == 1
    x = np.array(b, dtype=a.dtype, copy=True)
    if vec:
        x = x[:, None]
    n = a.shape[0]
    for c in range(n):
        p = c + int(np.argmax(np.abs(a[c:, c])))
        if a[p, c] == 0:
            raise np.linalg.LinAlgError("singular matrix in LU solve")
        if p != c:
            a[[c, p]] = a[[p, c]]
            x[[c, p]] = x[[p, c]]
        for r in range(c + 1, n):
            f = a[r, c] / a[c, c]
            a[r, c + 1 :] -= f * a[c, c + 1 :]
            x[r] -= f * x[c]
    for r in range(n - 1, -1, -1):
        x[r] = (x[r] - a[r, r + 1 :] @ x[r + 1 :]) / a[r, r]
    return x[:, 0] if vec else x


def _jacobi_eigh(m: np.ndarray, max_sweeps: int = 64):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix, dtype-generic.

    Returns eigenvalues in ascending order and the matching eigenvectors as
    columns, like ``np.linalg.eigh``.
    """
    a = np.array(symmetrize(m), copy=True)
    n = a.shape[0]
    v = np.eye(n, dtype=a.dtype)
    if n == 1:
        return a[0].copy(), v
    eps = np.finfo(a.dtype).eps
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.triu(a, 1) ** 2))
        scale = max(1.0, float(np.abs(a).max()))
        if off <= n * eps * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= eps * scale / n:
                    continue
                tau = (a[q, q] - a[p, p]) / (2 * apq)
                if tau == 0:
                    t = a.dtype.type(1.0)
                else:
                    t = np.sign(tau) / (abs(tau) + np.sqrt(1 + tau * tau))
                c = 1 / np.sqrt(1 + t * t)
                s = t * c
                rp, rq = a[p].copy(), a[q].copy()
                a[p] = c * rp - s * rq
                a[q] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = a[q, p] = 0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    w = np.diag(a).copy()
    order = np.argsort(w)
    return w[order], v[:, order]


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b, keeping extended precision when the inputs carry it."""
    a = np.asarray(a)
    if a.dtype == np.float64:
        return np.linalg.solve(a, b)
    return _lu_solve(a, np.asarray(b, dtype=a.dtype))


def inv(a: np.ndarray) -> np.ndarray:
    """Matrix inverse through :func:`solve_linear`."""
    a = np.asarray(a)
    return solve_linear(a, np.eye(a.shape[0], dtype=a.dtype))


def sym_eig(m: np.ndarray):
    """Eigendecomposition of a symmetric matrix, dtype-generic.

    Equivalent to ``np.linalg.eigh`` for float64; uses the Jacobi kernel for
    extended-precision dtypes.
    """
    m = np.asarray(m)
    if m.dtype == np.float64:
        return np.linalg.eigh(symmetrize(m))
    return _jacobi_eigh(m)


def psd_sqrt_raw(m: np.ndarray, snap_tol: float = 0.0) -> np.ndarray:
    """Square root of a symmetric PSD matrix with negative round-off clamped.

    ``snap_tol`` > 0 additionally zeroes eigenvalues at or below
    ``snap_tol * max(1, max_eig)`` so that an almost-singular covariance
    stays exactly singular (needed to pin trajectory endpoints).
    """
    m = np.asarray(m)
    w, v = sym_eig(m)
    w = np.where(w < 0, 0, w)
    if snap_tol > 0 and w.size:
        w = np.where(w <= snap_tol * max(1.0, float(w[-1])), 0, w)
    return symmetrize((v * np.sqrt(w)) @ v.T)


def pinv_sym(m: np.ndarray, rcond: float = PINV_RCOND) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric matrix via its eigendecomposition."""
    m = np.asarray(m)
    w, v = sym_eig(m)
    cutoff = rcond * max(1.0, float(np.abs(w).max(initial=0.0)))
    winv = np.where(np.abs(w) > cutoff, 1.0 / np.where(w == 0, 1, w), 0)
    return symmetrize((v * winv) @ v.T)


def rcond_sym(m: np.ndarray) -> float:
    """Reciprocal spectral condition number of a symmetric matrix (0 if singular)."""
    w = np.abs(sym_eig(np.asarray(m))[0])
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
    s_aa = cov[:na, :na]
    s_ab = cov[:na, na:]
    s_bb = cov[na:, na:]
    w = sym_eig(s_bb)[0]
    if w[0] <= DEFINITENESS_RTOL * max(1.0, float(abs(w[-1]))):
        raise SingularBlock(
            f"observed block is not positive definite (min eigenvalue {w[0]:.3e})"
        )
    gain = solve_linear(s_bb, s_ab.T).T  # S_ab S_bb^{-1}
    mean_a = mean[:na] + gain @ (b - mean[na:])
    cov_a = symmetrize(s_aa - gain @ s_ab.T)
    return GaussianMarginal(mean_a, SymMatrix(cov_a))
