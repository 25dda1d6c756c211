"""Stacked linalg kernels: each member of a stack (..., n, n) gets exactly the
result it gets alone, bit for bit."""

import numpy as np
import pytest

from maxent_steer import SingularA
from maxent_steer.linalg import (
    _jacobi_eigh,
    pinv_eig,
    psd_sqrt_raw,
    solve_linear,
    sym_eig,
    symmetrize,
)
from maxent_steer.system import _pullback_sweep

from conftest import random_spd

SIZES = (1, 2, 3, 6, 8)


def mixed_stack(rng, n):
    """Symmetric matrices that converge after different numbers of Jacobi sweeps.

    A well-conditioned SPD matrix, a rank-deficient one, an already-diagonal
    one, a badly scaled one (entries spread over 16 decades), an indefinite
    one and a near multiple of the identity.
    """
    rank = rng.standard_normal((n, max(n // 2, 1)))
    spread = 10.0 ** rng.uniform(-8, 8, n)
    sym = rng.standard_normal((n, n))
    members = [
        random_spd(rng, n),
        rank @ rank.T if n > 1 else np.zeros((1, 1)),
        np.diag(rng.standard_normal(n)),
        random_spd(rng, n) * np.outer(spread, spread),
        sym + sym.T,
        np.eye(n) + 1e-9 * (sym + sym.T),
    ]
    stack = np.stack(members)
    return ((stack + np.swapaxes(stack, -1, -2)) / 2).astype(np.longdouble)


def identical(x, y):
    """Same dtype, shape, values and signs of zero (longdouble storage has padding bytes)."""
    x, y = np.asarray(x), np.asarray(y)
    return (
        x.dtype == y.dtype
        and np.array_equal(x, y, equal_nan=True)
        and np.array_equal(np.signbit(x), np.signbit(y))
    )


@pytest.mark.parametrize("n", SIZES)
def test_jacobi_stack_equals_each_member(n):
    stack = mixed_stack(np.random.default_rng(100 + n), n)
    w, v = _jacobi_eigh(stack)
    assert w.shape == (len(stack), n) and v.shape == stack.shape
    for i, member in enumerate(stack):
        w_i, v_i = _jacobi_eigh(member)
        assert identical(w[i], w_i) and identical(v[i], v_i)


@pytest.mark.parametrize("n", SIZES)
def test_jacobi_keeps_leading_axes(n):
    stack = mixed_stack(np.random.default_rng(200 + n), n).reshape(2, 3, n, n)
    w, v = _jacobi_eigh(stack)
    assert w.shape == (2, 3, n) and v.shape == (2, 3, n, n)
    assert identical(w[1, 2], _jacobi_eigh(stack[1, 2])[0])


@pytest.mark.parametrize("n", SIZES)
def test_pinv_and_sqrt_stack_equal_each_member(n):
    stack = mixed_stack(np.random.default_rng(300 + n), n)
    pinv = pinv_eig(*sym_eig(stack))
    root = psd_sqrt_raw(stack, snap_tol=1e-12)
    for i, member in enumerate(stack):
        assert identical(pinv[i], pinv_eig(*sym_eig(member)))
        assert identical(root[i], psd_sqrt_raw(member, snap_tol=1e-12))


@pytest.mark.parametrize("n", SIZES)
def test_longdouble_solve_stack_equals_each_member(n):
    rng = np.random.default_rng(400 + n)
    a = (rng.standard_normal((5, n, n)) + 2 * np.eye(n)).astype(np.longdouble)
    a[1] *= 1e6  # badly scaled member
    a[2] = np.eye(n)[::-1] * 3  # needs a row swap at every column
    rhs = rng.standard_normal((5, n, 3)).astype(np.longdouble)
    vec = rng.standard_normal(n).astype(np.longdouble)
    x = solve_linear(a, rhs)
    x_shared = solve_linear(a, rhs[0])
    x_vec = solve_linear(a, vec)
    assert x_vec.shape == (5, n)
    for i in range(5):
        assert identical(x[i], solve_linear(a[i], rhs[i]))
        assert identical(x_shared[i], solve_linear(a[i], rhs[0]))
        assert identical(x_vec[i], solve_linear(a[i], vec))


def test_longdouble_solve_singular_member_raises():
    a = np.stack([np.eye(3), np.diag([1.0, 0.0, 2.0]), np.eye(3)]).astype(np.longdouble)
    with pytest.raises(np.linalg.LinAlgError):
        solve_linear(a, np.eye(3, dtype=np.longdouble))


@pytest.mark.parametrize("n", SIZES)
def test_float64_sym_eig_stack_matches_eigh(n):
    stack = mixed_stack(np.random.default_rng(500 + n), n).astype(np.float64)
    w, v = sym_eig(stack)
    for i, member in enumerate(stack):
        w_i, v_i = np.linalg.eigh(member)
        assert identical(w[i], w_i) and identical(v[i], v_i)


def test_symmetrize_stack_of_n_by_n_matrices_n_deep():
    """Only the matrix axes are transposed, also when the stack is n deep."""
    rng = np.random.default_rng(7)
    stack = np.stack([random_spd(rng, 3) for _ in range(3)])
    stack = (stack + np.swapaxes(stack, -1, -2)) / 2
    assert np.array_equal(symmetrize(stack), stack)
    asym = rng.standard_normal((3, 3, 3))
    assert np.array_equal(symmetrize(asym)[1], symmetrize(asym[1]))


def test_pullback_names_first_singular_step():
    a = np.stack([2 * np.eye(2)] * 6).astype(np.longdouble)
    a[3] = np.diag([1.0, 0.0])
    a[5] = 0.0
    with pytest.raises(SingularA) as info:
        _pullback_sweep(a, np.ones((6, 2, 1), dtype=np.longdouble))
    assert info.value.step == 3
