"""Discrete-time linear time-varying system model and its Gramians.

Hosts the state-transition matrix, reachability/controllability Gramians,
and the feasibility validator that checks the standing assumptions of the
density-steering solver (invertible dynamics, an invertibility window for
the reachability Gramian, and nonsingular normalized boundary factors).

A :class:`LinearSystemModel` copies its inputs and computes its float64
feasibility sweeps and extended-precision normalized coordinates at most
once, so every entry point called on one model shares one analysis of
(A_k, B_k). It also keeps the boundary half of the last (Sigma_0, Sigma_N,
epsilon) it analysed, a :class:`_Pipeline` that in turn keeps the
minus-branch solve of :mod:`~maxent_steer.steering`: the feasibility check,
the density solve, the policy and the bridge check asked about one boundary
share one boundary analysis and one solve. :func:`_covariances` alone checks
the sizes of the boundary covariances, and :func:`_epsilon_refusal` alone
decides which entropy weights are refused.

This module owns the sweeps that accumulate transition products and
Gramians, and :mod:`~maxent_steer.lqr`, :mod:`~maxent_steer.steering`,
:mod:`~maxent_steer.pinned` and :mod:`~maxent_steer.simulate` read their
per-step matrices from them:
:func:`_backward_sweep` gives Phi(N, k) and G_r(N, k) in the dtype of its
inputs (the feedforwards run it on a closed loop),
:func:`_lyapunov_forward` the forward covariance recursion
X <- F_k X F_k^T + Q_k that gives G_r(k, 0), closed-loop and pinned
covariances, and :class:`_Pipeline` the extended-precision normalized
coordinates of the density solver. Only true recurrences (transition
products, forward covariances) loop over steps: Gramian increments are one
stacked product and one running sum, bit for bit what a per-step loop gives.
:func:`_a_condition` alone decides whether an A_k counts as invertible, and
:func:`_require_reachable` whether the full horizon is reachable.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BadWindow, DimensionMismatch, NonpositiveEpsilon, SingularA, SingularGramian
from .linalg import (
    GaussianMarginal,
    SymMatrix,
    as_sym,
    psd_sqrt_raw,
    rcond_eig,
    solve_linear,
    sym_eig,
    symmetrize,
)

__all__ = [
    "LinearSystemModel",
    "FeasibilityReport",
    "transition",
    "reachability_gramian",
    "controllability_gramian",
    "validate_assumptions",
]

#: reciprocal condition number below which a matrix counts as singular
INVERTIBILITY_RCOND = 1e-12
#: looser cut for the normalized boundary factors: the closed-form
#: exceptional boundaries must be flagged even when assembled in double
#: precision, where they land a couple of decades above machine epsilon
BOUNDARY_FACTOR_RCOND = 1e-9


@dataclass(frozen=True)
class LinearSystemModel:
    """The pair (A_k, B_k), k = 0..N-1, with x_{k+1} = A_k x_k + B_k u_k.

    ``A`` may be a single (n, n) matrix or a stack of N of them; likewise
    ``B`` with shape (n, m) or (N, n, m). A single matrix is broadcast over
    the horizon (the usual time-invariant case). Invertibility of A_k is
    not required here; operations that need it check it themselves.

    The model copies ``A`` and ``B`` into read-only arrays of its own. Its
    feasibility sweeps and normalized coordinates are computed on first use
    and kept, read-only, for its life; so is the boundary analysis of the
    last (Sigma_0, Sigma_N, epsilon) asked about, until another replaces it.
    A refusal is not kept.
    """

    A: np.ndarray
    B: np.ndarray
    horizon: int = None

    def __post_init__(self):
        a = np.asarray(self.A, dtype=np.float64)
        b = np.asarray(self.B, dtype=np.float64)
        if b.ndim == 1:
            if b.shape[0] != a.shape[-1]:
                raise DimensionMismatch(
                    f"one-dimensional B of length {b.shape[0]} does not match "
                    f"state dimension {a.shape[-1]}"
                )
            b = b[:, None]
        horizon = self.horizon
        if a.ndim == 2:
            if horizon is None and b.ndim == 3:
                horizon = b.shape[0]
            if horizon is None:
                raise DimensionMismatch(
                    "horizon is required when A and B are single matrices"
                )
            a = np.broadcast_to(a, (horizon,) + a.shape)
        if b.ndim == 2:
            if horizon is None:
                horizon = a.shape[0]
            b = np.broadcast_to(b, (horizon,) + b.shape)
        if horizon is None:
            horizon = a.shape[0]
        a = np.array(a, dtype=np.float64, order="C")
        b = np.array(b, dtype=np.float64, order="C")
        if horizon < 1:
            raise DimensionMismatch("horizon must be at least 1")
        if a.ndim != 3 or a.shape[0] != horizon or a.shape[1] != a.shape[2]:
            raise DimensionMismatch(f"A must stack {horizon} square matrices, got {a.shape}")
        if b.ndim != 3 or b.shape[0] != horizon or b.shape[1] != a.shape[1]:
            raise DimensionMismatch(f"B must stack {horizon} {a.shape[1]}-row matrices, got {b.shape}")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "horizon", int(horizon))

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.B.shape[2]

    def a(self, k: int) -> np.ndarray:
        return self.A[k]

    def b(self, k: int) -> np.ndarray:
        return self.B[k]

    def with_input_scaled(self, factor: float) -> "LinearSystemModel":
        """A copy with every B_k multiplied by ``factor`` (entropy-weight normalization)."""
        return LinearSystemModel(self.A, self.B * float(factor), self.horizon)

    @cached_property
    def _feasibility(self):
        """A_k verdicts and condition numbers, the counts of finite G_r(k, 0) and
        G_r(N, k), and the Gramian window k_r (None when there is none)."""
        a_ok, a_cond = _a_condition(self.A)
        # forward Gramians G_r(k, 0) and backward G_r(N, k), both for k = 0..N; on long
        # unstable horizons the first overflow from some k on and the second up to some k
        with np.errstate(over="ignore", invalid="ignore"):
            fwd = _forward_gramians(self.A, self.B)
            bwd = _backward_sweep(self.A, self.B)[1]
        fwd_ok, bwd_ok = np.split(_psd_invertible(np.concatenate([fwd, bwd])), 2)
        # the window k_r needs G_r(k, 0) invertible for all k >= k_r and G_r(N, k) for all k < k_r
        fits = np.logical_and.accumulate(fwd_ok[::-1])[::-1][1:] & np.logical_and.accumulate(bwd_ok)[:-1]
        window = int(np.argmax(fits)) + 1 if fits.any() else None
        a_ok.setflags(write=False)
        a_cond.setflags(write=False)
        finite = [int(np.isfinite(g).all(axis=(1, 2)).sum()) for g in (fwd, bwd)]
        return a_ok, a_cond, *finite, window

    def _boundary(self, sigma0, sigma_terminal, epsilon) -> _Pipeline:
        """The boundary :class:`_Pipeline` of the covariances ``sigma0`` and
        ``sigma_terminal``, as :func:`_covariances` returns them, at weight ``epsilon``.

        The model keeps the last one it built, keyed by the bytes of both covariances
        and float(epsilon), with the minus-branch solve made from it; a different
        boundary or weight replaces it. A refusal raises and leaves the kept one.
        """
        key = (sigma0.tobytes(), sigma_terminal.tobytes(), float(epsilon))
        kept = self.__dict__.get("_kept_boundary")
        if kept is None or kept[0] != key:
            kept = key, _Pipeline(self, epsilon, sigma0, sigma_terminal)
            self.__dict__["_kept_boundary"] = kept
        return kept[1]

    @cached_property
    def _normalized(self):
        """The extended-precision A and B, Gc^{-1/2} and the stacked ``phic``, ``mk``
        and ``gcn`` of :class:`_Pipeline`, all read-only."""
        a, b = _xd(self.A), _xd(self.B)
        phi0, gc = _pullback_sweep(a, b)
        w, v = sym_eig(symmetrize(gc[self.horizon]))
        if np.abs(w).min() <= INVERTIBILITY_RCOND * np.abs(w).max():
            raise SingularGramian(
                "controllability Gramian of the full horizon is singular at tolerance"
            )
        gcih = symmetrize((v / np.sqrt(w)) @ v.T)
        phic = gcih @ phi0
        mk = np.empty_like(phi0)
        mk[0] = symmetrize((v * np.sqrt(w)) @ v.T)
        for k in range(self.horizon):
            mk[k + 1] = a[k] @ mk[k]
        coords = (a, b, gcih, phic, mk, _gram_sums(phic[1:] @ b))
        for x in coords:
            x.setflags(write=False)
        return coords


#: working precision of the boundary-coupled recursions; results are
#: rounded to float64 once at the end
_X = np.longdouble


def _xd(a) -> np.ndarray:
    return np.asarray(a, dtype=_X)


def _f64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


def _cov_of(boundary) -> np.ndarray:
    if isinstance(boundary, GaussianMarginal):
        return boundary.cov.data
    return as_sym(boundary).data


def _a_condition(a: np.ndarray):
    """Invertibility verdict and spectral condition number of each stacked A_k.

    A_k counts as invertible when its smallest singular value exceeds
    ``INVERTIBILITY_RCOND`` times its largest (condition number inf if zero).
    """
    s = np.linalg.svd(a, compute_uv=False)
    hi, lo = s[:, 0], s[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(lo > 0, hi / lo, np.inf)
    return (hi > 0) & (lo > INVERTIBILITY_RCOND * hi), cond


def _require_invertible(a: np.ndarray, first_step: int = 0):
    """Raise :class:`SingularA` at the first stacked A_k that is not invertible."""
    ok = _a_condition(a)[0]
    if not ok.all():
        raise SingularA(first_step + int(np.argmin(ok)))


def _epsilon_refusal(epsilon) -> str | None:
    """Why the entropy weight is refused, or None for a positive, finite one (NaN is not positive)."""
    if not epsilon > 0:
        return f"epsilon must be positive, got {epsilon}"
    if not epsilon < np.inf:
        return f"epsilon must be finite, got {epsilon}"
    return None


def _require_positive(epsilon):
    """Raise :class:`NonpositiveEpsilon` unless the entropy weight is positive and finite."""
    refusal = _epsilon_refusal(epsilon)
    if refusal is not None:
        raise NonpositiveEpsilon(refusal)


def _require_reachable(w):
    """Raise :class:`SingularGramian` unless the full-horizon reachability Gramian,
    given by its eigenvalues ``w``, is invertible."""
    if rcond_eig(w) <= INVERTIBILITY_RCOND:
        raise SingularGramian("reachability Gramian of the full horizon is singular")


def _covariances(sys: LinearSystemModel, sigma0, sigma_terminal):
    """Both boundary covariances, symmetrized, in float64; :class:`DimensionMismatch`
    unless each is n x n."""
    covs = tuple(np.asarray(_cov_of(c), dtype=np.float64) for c in (sigma0, sigma_terminal))
    if any(c.shape != (sys.n, sys.n) for c in covs):
        shapes = " and ".join("x".join(map(str, c.shape)) for c in covs)
        raise DimensionMismatch(f"boundary covariances must be {sys.n}x{sys.n}, got {shapes}")
    return covs


def _endpoints(sys: LinearSystemModel, first, second, what: str):
    """Both boundary vectors in float64; :class:`DimensionMismatch` unless each has length n."""
    first, second = np.asarray(first, dtype=np.float64), np.asarray(second, dtype=np.float64)
    if first.shape != (sys.n,) or second.shape != (sys.n,):
        raise DimensionMismatch(f"boundary {what} have wrong dimension")
    return first, second


def transition(sys: LinearSystemModel, k: int, l: int) -> np.ndarray:
    """State-transition matrix Phi(k, l).

    Phi(k, l) = A_{k-1} ... A_l for k > l, the identity for k = l, and
    A_k^{-1} ... A_{l-1}^{-1} for k < l (each factor must be invertible,
    otherwise :class:`SingularA` identifies the offending step).
    Satisfies Phi(k, l) Phi(l, j) = Phi(k, j) whenever defined.
    """
    if not (0 <= k <= sys.horizon and 0 <= l <= sys.horizon):
        raise DimensionMismatch(f"steps ({k}, {l}) outside [0, {sys.horizon}]")
    if k < l:
        _require_invertible(sys.A[k:l], k)
        return _pullback_sweep(sys.A[k:l], sys.B[k:l])[0][-1]
    return _backward_sweep(sys.A[l:k], sys.B[l:k])[0][0]


def _check_window(sys: LinearSystemModel, k1: int, k0: int):
    if not (0 <= k0 <= sys.horizon and 0 <= k1 <= sys.horizon):
        raise DimensionMismatch(f"window ({k1}, {k0}) outside [0, {sys.horizon}]")
    if k0 >= k1:
        raise BadWindow(f"Gramian window needs k0 < k1, got k0={k0}, k1={k1}")


def _lyapunov_forward(f, q, x0) -> np.ndarray:
    """X_0 = x0 and X_{k+1} = sym(F_k X_k F_k^T + Q_k) for k = 0..N-1, stacked (N+1, n, n).

    Dtype-generic: the stack takes the dtype of ``f``.
    """
    x = np.empty((f.shape[0] + 1,) + f.shape[1:], dtype=f.dtype)
    x[0] = x0
    f_t = np.swapaxes(f, 1, 2)
    for k in range(f.shape[0]):
        y = f[k] @ x[k] @ f_t[k] + q[k]
        x[k + 1] = (y + y.T) / 2
    return x


def _forward_gramians(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """G_r(k, 0) for k = 0..N by the recursion G <- A_k G A_k^T + B_k B_k^T."""
    return _lyapunov_forward(a, b @ np.swapaxes(b, -1, -2), 0)


def _gram_sums(w):
    """Running sums S_0 = 0, S_{k+1} = S_k + w_k w_k^T of the stacked w_k, exactly symmetric
    (each w_k w_k^T is one triangle, mirrored) and equal to one addition per step."""
    inc = w @ np.swapaxes(w, -1, -2)
    return np.cumsum(np.concatenate([np.zeros_like(inc[:1]), inc]), axis=0)


def _pullback_sweep(a, b):
    """Phi(0, k) and G_c(k, 0) for k = 0..N, stacked, in the dtype of ``a`` and ``b``.

    G_c(k, 0) = sum_{j<k} Phi(0, j+1) B_j B_j^T Phi(0, j+1)^T. Each step pulls
    back through A_k^{-1}, all inverses from one stacked solve; :class:`SingularA`
    names the first step whose solve fails.
    """
    horizon, n = a.shape[0], a.shape[1]
    eye = np.eye(n, dtype=a.dtype)
    try:
        a_inv = solve_linear(a, eye)
    except np.linalg.LinAlgError:
        for k in range(horizon):  # name the first step whose own solve fails
            try:
                solve_linear(a[k], eye)
            except np.linalg.LinAlgError:
                raise SingularA(k) from None
        raise
    phi = np.empty((horizon + 1, n, n), dtype=a.dtype)
    phi[0] = eye
    for k in range(horizon):
        phi[k + 1] = phi[k] @ a_inv[k]
    return phi, _gram_sums(phi[1:] @ b)


def _backward_sweep(a, b):
    """Phi(N, k) and G_r(N, k) for k = 0..N, stacked, in the dtype of ``a``.

    ``a`` and ``b`` hold the N steps (stacked arrays or lists of matrices).
    G_r(N, k) = G_r(N, k+1) + Phi(N, k+1) B_k B_k^T Phi(N, k+1)^T needs no
    inverse, so singular steps are allowed.
    """
    a = np.asarray(a)
    b = np.asarray(b, dtype=a.dtype)
    horizon, n = a.shape[0], a.shape[1]
    phi = np.empty((horizon + 1, n, n), dtype=a.dtype)
    phi[horizon] = np.eye(n)
    for k in range(horizon - 1, -1, -1):
        phi[k] = phi[k + 1] @ a[k]
    # exact on symmetric sums, and like a per-step symmetrize it overflows past half the range
    return phi, symmetrize(_gram_sums((phi[1:] @ b)[::-1])[::-1])


def reachability_gramian(sys: LinearSystemModel, k1: int, k0: int) -> SymMatrix:
    """Reachability Gramian of the window [k0, k1].

    Equals sum_k Phi(k1, k+1) B_k B_k^T Phi(k1, k+1)^T, computed by the
    forward recursion G <- A_k G A_k^T + B_k B_k^T in O(k1 - k0) products.
    """
    _check_window(sys, k1, k0)
    return SymMatrix(_forward_gramians(sys.A[k0:k1], sys.B[k0:k1])[-1])


def controllability_gramian(sys: LinearSystemModel, k1: int, k0: int) -> SymMatrix:
    """Controllability Gramian of the window [k0, k1].

    Equals sum_k Phi(k0, k+1) B_k B_k^T Phi(k0, k+1)^T and therefore the
    pullback Phi(k0, k1) G_r(k1, k0) Phi(k0, k1)^T; requires each A_k on
    the window to be invertible.
    """
    _check_window(sys, k1, k0)
    _require_invertible(sys.A[k0:k1], k0)
    return SymMatrix(_pullback_sweep(sys.A[k0:k1], sys.B[k0:k1])[1][-1])


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of :func:`validate_assumptions`.

    ``gramian_window`` is the smallest step k_r such that G_r(k, 0) is
    invertible on [k_r, N] and G_r(N, k) is invertible on [0, k_r - 1], or
    None when no such step exists. The two ``*_min_singular`` fields are
    NaN when no density boundary was supplied.
    """

    a_step_invertible: tuple
    a_condition_numbers: tuple
    gramian_window: int | None
    f_matrix_min_singular: float
    b_matrix_min_singular: float
    feasible: bool
    diagnostics: tuple = field(default=())

    @property
    def all_a_invertible(self) -> bool:
        return all(self.a_step_invertible)


class _Pipeline:
    """Extended-precision normalized coordinates of one system.

    The state y_k = phic[k] x_k with ``phic[k]`` = Gc^{-1/2} Phi(0, k) (Gc the
    full-horizon controllability Gramian) follows the pure integrator
    y_{k+1} = y_k + bn_k u_k with input columns bn_k = phic[k+1] B_k. Stacked
    (N+1, n, n) over k = 0..N: ``phic``, its inverses ``mk`` = Phi(k, 0) Gc^{1/2}
    and the partial sums ``gcn`` = sum_{j<k} bn_j bn_j^T (gcn[N] = I up to
    round-off). Given boundary covariances it also holds the normalized
    boundary ``s0``, ``sn``, ``s0h`` = s0^{1/2} and the forward and backward
    factors ``f_core`` + ``b_core`` = I, and ``pair`` keeps the minus-branch
    :class:`~maxent_steer.steering.LyapunovPair` once it is solved. The
    coordinates are the model's own read-only copy
    (``LinearSystemModel._normalized``); only the boundary half is computed
    here, and a boundary pipeline is built through ``LinearSystemModel._boundary``.
    The model keeps that pipeline, so the pipeline holds its model weakly.
    """

    def __init__(self, sys: LinearSystemModel, epsilon=1.0, sigma0=None, sigma_terminal=None):
        _require_positive(epsilon)
        self._model = weakref.ref(sys)
        self.pair = None
        self.A, self.B, gcih, self.phic, self.mk, self.gcn = sys._normalized
        if sigma0 is None:
            return
        eye = np.eye(sys.n, dtype=_X)
        pn = self.phic[sys.horizon]
        self.s0 = symmetrize(gcih @ _xd(sigma0) @ gcih) / _X(epsilon)
        self.sn = symmetrize(pn @ _xd(sigma_terminal) @ pn.T) / _X(epsilon)
        self.s0h = psd_sqrt_raw(self.s0)
        root = psd_sqrt_raw(self.s0h @ self.sn @ self.s0h + eye / 4)
        self.f_core = self.s0 + eye / 2 - root
        self.b_core = -self.s0 + eye / 2 + root

    @property
    def sys(self) -> LinearSystemModel:
        return self._model()


def _psd_invertible(g: np.ndarray) -> np.ndarray:
    """Per stacked matrix: finite, and positive definite with rcond above INVERTIBILITY_RCOND."""
    fin = np.isfinite(g).all(axis=(-2, -1))
    w = np.linalg.eigvalsh(symmetrize(np.where(fin[..., None, None], g, 0)))
    return fin & (w[..., -1] > 0) & (w[..., 0] > INVERTIBILITY_RCOND * w[..., -1])


def validate_assumptions(
    sys: LinearSystemModel,
    sigma0=None,
    sigma_terminal=None,
    epsilon: float = 1.0,
) -> FeasibilityReport:
    """Check the standing assumptions of the density-steering solver.

    Verifies per-step invertibility of A_k, searches for the Gramian
    invertibility window k_r, and, when the boundary covariances are
    supplied, forms the normalized boundary factors and reports their
    minimum singular values. Boundary covariances that are not n x n, and an
    entropy weight that is not positive and finite, are reported too.
    Closed-form exceptional boundaries (terminal covariance equal to the
    open-loop forecast, or initial covariance equal to the reverse-time
    forecast) are flagged in the diagnostics: there the respective factor
    vanishes identically and the solver does not apply, even though a
    zero-feedback policy solves the steering problem.

    Never raises; the result is a report.
    """
    return _validate(sys, sigma0, sigma_terminal, epsilon)[0]


def _validate(sys: LinearSystemModel, sigma0, sigma_terminal, epsilon: float):
    """:func:`validate_assumptions` plus the :class:`_Pipeline` its boundary check built.

    A feasible report with boundary covariances always comes with its
    pipeline, the one the model keeps (otherwise the pipeline may be None).
    """
    horizon = sys.horizon
    diagnostics = []

    a_ok, a_cond, fwd_finite, bwd_finite, window = sys._feasibility
    for k in np.flatnonzero(~a_ok):
        diagnostics.append(f"A_{k} is singular at tolerance (cond ~ {a_cond[k]:.2e})")
    if min(fwd_finite, bwd_finite) <= horizon:
        diagnostics.append(
            "the transition products overflow double precision: G_r(k, 0) is finite only "
            f"for k < {fwd_finite} and G_r(N, k) only for k > {horizon - bwd_finite}"
        )
    if window is None:
        diagnostics.append("no reachability-Gramian invertibility window exists")

    f_min = float("nan")
    b_min = float("nan")
    pipe = None
    boundary_ok = True
    has_boundary = sigma0 is not None and sigma_terminal is not None
    refusals = []
    if has_boundary:
        refusals = [_epsilon_refusal(epsilon)]
        try:
            covs = _covariances(sys, sigma0, sigma_terminal)
        except DimensionMismatch as exc:
            refusals.append(str(exc))
        refusals = list(filter(None, refusals))
    if refusals:
        boundary_ok = False
        diagnostics.extend(refusals)
    elif has_boundary and a_ok.all() and window is not None:
        try:
            pipe = sys._boundary(*covs, epsilon)
        except (SingularGramian, SingularA) as exc:
            boundary_ok = False
            diagnostics.append(f"normalized boundary not computable: {exc}")
        else:
            sf = np.linalg.svd(_f64(pipe.f_core), compute_uv=False)
            sb = np.linalg.svd(_f64(pipe.b_core), compute_uv=False)
            f_min, b_min = float(sf[-1]), float(sb[-1])
            if f_min <= BOUNDARY_FACTOR_RCOND * max(1.0, float(sf[0])):
                boundary_ok = False
                diagnostics.append(
                    "forward boundary factor is singular: the terminal covariance "
                    "equals the open-loop forecast Phi S0 Phi^T + eps*G_r, where the "
                    "zero-feedback policy u ~ N(0, eps*I) is already optimal"
                )
            if b_min <= BOUNDARY_FACTOR_RCOND * max(1.0, float(sb[0])):
                boundary_ok = False
                diagnostics.append(
                    "backward boundary factor is singular: the initial covariance "
                    "equals the reverse-time forecast Phi' SN Phi'^T + eps*G_c, where "
                    "time-reversed white noise already achieves the transfer"
                )
    elif has_boundary:
        boundary_ok = False

    feasible = a_ok.all() and window is not None and boundary_ok
    report = FeasibilityReport(
        a_step_invertible=tuple(bool(ok) for ok in a_ok),
        a_condition_numbers=tuple(float(c) for c in a_cond),
        gramian_window=window,
        f_matrix_min_singular=f_min,
        b_matrix_min_singular=b_min,
        feasible=bool(feasible),
        diagnostics=tuple(diagnostics),
    )
    return report, pipe
