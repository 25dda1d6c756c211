"""Accuracy contract of the extended-precision Jacobi eigensolver.

Each member of a mixed stack is compared with a 40-digit ``mpmath.eigsy``
reference of the same (exactly converted) matrix. With eps the working
precision's machine epsilon and ||M|| the spectral norm:

    max |w - w_ref|     <= 4 n eps ||M||
    ||M V - V diag(w)|| <= 4 n eps ||M||
    ||V^T V - I||       <= 4 n eps
"""

import warnings

import mpmath
import numpy as np
import pytest

from maxent_steer.linalg import _jacobi_eigh

SIZES = (1, 2, 3, 4, 6, 8, 12)
EPS = float(np.finfo(np.longdouble).eps)
DIGITS = 40


def _orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0].astype(np.longdouble)


def mixed_stack(rng, n):
    """SPD with condition 1e12, indefinite, rank-deficient, clustered, graded and diagonal members."""
    q = _orthogonal(rng, n)
    sym = rng.standard_normal((n, n)).astype(np.longdouble)
    sym = sym + sym.T
    low_rank = rng.standard_normal((n, n // 2)).astype(np.longdouble)
    members = [
        (q * np.logspace(0, -12, n, dtype=np.longdouble)) @ q.T,
        sym,
        low_rank @ low_rank.T,
        np.eye(n, dtype=np.longdouble) + np.longdouble("1e-17") * sym,
        (q * np.longdouble(10) ** -np.arange(n, dtype=np.longdouble)) @ q.T * 1e3,
        np.diag(rng.standard_normal(n).astype(np.longdouble)),
    ]
    stack = np.stack(members)
    return (stack + np.swapaxes(stack, -1, -2)) / 2


def _mpf(x):
    """Exact mpmath value of a longdouble (a sum of two doubles)."""
    hi = float(x)
    return mpmath.mpf(hi) + mpmath.mpf(float(x - np.longdouble(hi)))


def _mp(a):
    return mpmath.matrix([[_mpf(x) for x in row] for row in a])


def _norm2(m):
    return float(np.linalg.norm(np.array(m.tolist(), dtype=np.float64), 2))


def errors(m, w, v):
    """||M||, eigenvalue error, residual and orthogonality loss, evaluated at 40 digits."""
    with mpmath.workdps(DIGITS):
        mm, vv = _mp(m), _mp(v)
        ref = sorted(mpmath.eigsy(mm, eigvals_only=True))
        norm = max(float(abs(x)) for x in ref)
        dw = max(float(abs(_mpf(x) - r)) for x, r in zip(w, ref))
        res = _norm2(mm * vv - vv * mpmath.diag([_mpf(x) for x in w]))
        orth = _norm2(vv.T * vv - mpmath.eye(len(w)))
    return norm, dw, res, orth


@pytest.mark.parametrize("n", SIZES)
def test_jacobi_matches_40_digit_reference(n):
    stack = mixed_stack(np.random.default_rng(900 + n), n)
    w, v = _jacobi_eigh(stack)
    bound = 4 * n * EPS
    for i, member in enumerate(stack):
        norm, dw, res, orth = errors(member, w[i], v[i])
        assert dw <= bound * norm, (i, dw / (n * EPS * norm))
        assert res <= bound * norm, (i, res / (n * EPS * norm))
        assert orth <= bound, (i, orth / (n * EPS))


@pytest.mark.parametrize("n", SIZES)
def test_nan_member_is_nan_and_leaves_the_others_alone(n):
    stack = mixed_stack(np.random.default_rng(950 + n), n)
    stack[2, 0, -1] = stack[2, -1, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, v = _jacobi_eigh(stack)
    assert np.isnan(w[2]).all()
    for i in (0, 1, 3, 4, 5):
        w_i, v_i = _jacobi_eigh(stack[i])
        assert np.array_equal(w[i], w_i) and np.array_equal(v[i], v_i)
