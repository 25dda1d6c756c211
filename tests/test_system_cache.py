"""A LinearSystemModel analyses (A_k, B_k) once: its feasibility sweeps and
normalized coordinates are shared by every entry point called on it, give the
bits a fresh model gives, stay read-only, and are never kept for a refusal.
The model owns copies of its input arrays."""

import dataclasses

import numpy as np
import pytest

from maxent_steer import (
    GaussianMarginal,
    InfeasibleProblem,
    LinearSystemModel,
    SingularA,
    SingularGramian,
    SymMatrix,
    bridge_verify,
    conditional_gaussian_oracle,
    general_policy,
    solve_coupled_lyapunov,
    validate_assumptions,
)
from maxent_steer import system
from maxent_steer.system import _Pipeline

from conftest import DEMO_A, DEMO_B, DEMO_SIGMA0, DEMO_SIGMA_T, DEMO_X0, DEMO_XT
from test_stacked_density_path import PLANTS, same_bits


def _calls(sig0, sig_t, eps, mu0, mu_t):
    """Every entry point that reads the model's analysis, in the order a caller might use them."""
    init = GaussianMarginal(mu0, SymMatrix(sig0))
    term = GaussianMarginal(mu_t, SymMatrix(sig_t))
    return {
        "validate": lambda sys: validate_assumptions(sys, sig0, sig_t, eps),
        "general_policy": lambda sys: general_policy(sys, init, term, eps),
        "solve": lambda sys: solve_coupled_lyapunov(sys, sig0, sig_t, eps),
        "bridge": lambda sys: bridge_verify(sys, sig0, sig_t, 1.0),
        "oracle": lambda sys: conditional_gaussian_oracle(sys, mu0, mu_t),
    }


def _assert_same_fields(got, want):
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if isinstance(w, (float, np.ndarray)) or (isinstance(w, tuple) and w and isinstance(w[0], float)):
            assert same_bits(g, w), f.name
        else:
            assert g == w, f.name


def _count(monkeypatch, name):
    calls = []
    original = getattr(system, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(system, name, counted)
    return calls


def test_each_sweep_runs_once_per_model(monkeypatch):
    forward = _count(monkeypatch, "_forward_gramians")
    pullback = _count(monkeypatch, "_pullback_sweep")
    sys = LinearSystemModel(DEMO_A, DEMO_B, 50)
    for call in _calls(DEMO_SIGMA0, DEMO_SIGMA_T, 1.0, DEMO_X0, DEMO_XT).values():
        call(sys)
    assert len(forward) == 1
    assert len(pullback) == 1


@pytest.mark.parametrize("name", ["demo-N50", "tv-n4-m2-N100"])
def test_shared_analysis_gives_the_bits_of_a_fresh_model(name):
    shared, sig0, sig_t, eps, mu0, mu_t = PLANTS[name]()
    sig0, sig_t = np.asarray(sig0, dtype=float), np.asarray(sig_t, dtype=float)
    for label, call in _calls(sig0, sig_t, eps, mu0, mu_t).items():
        got = call(shared)
        want = call(PLANTS[name]()[0])
        assert getattr(want, "skipped_reason", None) is None, label
        _assert_same_fields(got, want)


def _singular_a():
    a = np.stack([DEMO_A] * 10)
    a[3] = 0.0
    return LinearSystemModel(a, DEMO_B, 10)


def _report_and_error(call, sys):
    try:
        return repr(call(sys)), None
    except (InfeasibleProblem, SingularA, SingularGramian) as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize(
    "make",
    [
        lambda: LinearSystemModel(DEMO_A, DEMO_B, 2000),
        _singular_a,
        lambda: LinearSystemModel(DEMO_A, np.zeros((2, 1)), 10),
    ],
    ids=["demo-N2000-overflow", "singular-A3", "zero-B"],
)
def test_a_repeated_refusal_is_unchanged(make):
    sys = make()
    calls = {
        "validate": lambda s: validate_assumptions(s, DEMO_SIGMA0, DEMO_SIGMA_T),
        "validate-point": validate_assumptions,
        "solve": lambda s: solve_coupled_lyapunov(s, DEMO_SIGMA0, DEMO_SIGMA_T),
        "pipeline": _Pipeline,
    }
    for label, call in calls.items():
        first = _report_and_error(call, sys)
        assert _report_and_error(call, sys) == first, label
        assert _report_and_error(call, make()) == first, label
    assert validate_assumptions(sys).feasible is False


def test_refused_normalization_is_not_kept():
    sys = _singular_a()
    for _ in range(2):
        with pytest.raises(SingularA):
            _Pipeline(sys)
    assert "_normalized" not in vars(sys)


def test_cached_arrays_are_read_only():
    sys = LinearSystemModel(DEMO_A, DEMO_B, 50)
    solve_coupled_lyapunov(sys, DEMO_SIGMA0, DEMO_SIGMA_T)
    pipe = _Pipeline(sys)
    arrays = [x for x in sys._feasibility if isinstance(x, np.ndarray)] + list(sys._normalized)
    arrays += [pipe.A, pipe.B, pipe.phic, pipe.mk, pipe.gcn]
    assert len(arrays) == 13
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_model_owns_its_arrays():
    a = np.stack([DEMO_A] * 50)
    b = np.stack([DEMO_B] * 50)
    sys = LinearSystemModel(a, b)
    assert sys.A is not a and sys.B is not b
    assert a.flags.writeable and b.flags.writeable

    base = np.stack([DEMO_A] * 51)
    sys = LinearSystemModel(base[1:], DEMO_B)
    report = repr(validate_assumptions(sys, DEMO_SIGMA0, DEMO_SIGMA_T))
    lyap = solve_coupled_lyapunov(sys, DEMO_SIGMA0, DEMO_SIGMA_T)
    base[1, 0, 0] = 5.0
    assert sys.A[0, 0, 0] == DEMO_A[0, 0]
    assert repr(validate_assumptions(sys, DEMO_SIGMA0, DEMO_SIGMA_T)) == report
    _assert_same_fields(solve_coupled_lyapunov(sys, DEMO_SIGMA0, DEMO_SIGMA_T), lyap)
