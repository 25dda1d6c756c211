"""Extended-precision kernels on matrices outside the double range, and on empty stacks.

A matrix 2^K M with K = 1300 (entries near 1e391) has the eigenvectors of M
and eigenvalues scaled by exactly 2^K, so its errors are read off at M's scale
against the 40-digit reference of ``test_jacobi_accuracy``.
"""

import warnings

import numpy as np
import pytest

from maxent_steer.linalg import _jacobi_eigh, pinv_sym, psd_sqrt_raw, sym_eig

from test_jacobi_accuracy import EPS, errors, mixed_stack

K = 1300
LD = np.longdouble


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_jacobi_beyond_double_range_meets_contract(n):
    stack = mixed_stack(np.random.default_rng(700 + n), n)
    w, v = _jacobi_eigh(np.ldexp(stack, K))
    bound = 4 * n * EPS
    for i, member in enumerate(stack):
        norm, dw, res, orth = errors(member, np.ldexp(w[i], -K), v[i])
        assert dw <= bound * norm, (i, dw / (n * EPS * norm))
        assert res <= bound * norm, (i, res / (n * EPS * norm))
        assert orth <= bound, (i, orth / (n * EPS))


def test_jacobi_rotates_a_coupled_wide_range_matrix():
    m = np.diag(np.array([LD("1e400"), LD("2e400"), LD("-3e-400")]))
    m[0, 1] = m[1, 0] = LD("1e399")
    w, v = _jacobi_eigh(m)
    residual = np.abs(m @ v - v * w).max() / np.abs(w).max()
    assert residual <= 4 * 3 * EPS
    assert np.abs(v.T @ v - np.eye(3)).max() <= 4 * 3 * EPS


def test_pinv_beyond_double_range():
    m = np.diag(np.array([LD("1e400"), LD("2e400")]))
    expected = np.diag(np.array([LD(1) / LD("1e400"), LD(1) / LD("2e400")]))
    assert np.abs(pinv_sym(m) - expected).max() <= 4 * EPS * LD("1e-400")
    # the relative cutoff still drops an eigenvalue 1e-13 below the largest
    tiny = np.diag(np.array([LD("1e-387"), LD("2e400")]))
    assert pinv_sym(tiny)[0, 0] == 0


def test_snapped_sqrt_beyond_double_range():
    m = np.diag(np.array([LD("1e400"), LD("2e400"), LD("1e385")]))
    root = psd_sqrt_raw(m, snap_tol=1e-12)
    expected = np.array([LD("1e200"), np.sqrt(LD("2e400")), 0])
    assert np.abs(np.diagonal(root) - expected).max() <= 4 * EPS * LD("1.5e200")
    assert np.abs(psd_sqrt_raw(m)[2, 2] - np.sqrt(LD("1e385"))) <= 4 * EPS * LD("1e193")


@pytest.mark.parametrize("shape", [(0, 1, 1), (0, 3, 3), (2, 0, 4, 4), (3, 0, 0)])
def test_empty_stacks_match_numpy_shapes(shape):
    m = np.zeros(shape, dtype=LD)
    w_ref, v_ref = np.linalg.eigh(np.zeros(shape))
    w, v = sym_eig(m)
    assert (w.shape, v.shape, w.dtype, v.dtype) == (w_ref.shape, v_ref.shape, LD, LD)
    for kernel in (pinv_sym, psd_sqrt_raw, lambda a: psd_sqrt_raw(a, snap_tol=1e-9)):
        out = kernel(m)
        assert out.shape == shape and out.dtype == LD
