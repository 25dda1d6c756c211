"""A LinearSystemModel analyses (A_k, B_k) once: its feasibility sweeps and
normalized coordinates are shared by every entry point called on it, give the
bits a fresh model gives, stay read-only, and are never kept for a refusal.
Likewise it analyses its last boundary (Sigma_0, Sigma_N, epsilon) once, with
one minus-branch solve, and holds no reference cycle for it. The model owns
copies of its input arrays."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from maxent_steer import (
    BranchDegenerate,
    GateNotPD,
    GaussianMarginal,
    InfeasibleProblem,
    LinearSystemModel,
    NonpositiveEpsilon,
    NormalizedBoundary,
    SingularA,
    SingularGramian,
    SymMatrix,
    bridge_verify,
    conditional_gaussian_oracle,
    general_policy,
    normalized_boundary,
    optimal_density_policy,
    riccati_backward,
    solve_coupled_lyapunov,
    validate_assumptions,
)
from maxent_steer import steering, system
from maxent_steer.steering import _plus_branch_gates
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


# ---------------------------------------------------------------------------
# the kept boundary analysis
# ---------------------------------------------------------------------------


def _assert_same_result(got, want):
    """:func:`_assert_same_fields`, with the SymMatrix fields of a NormalizedBoundary compared
    by their arrays."""
    if isinstance(want, NormalizedBoundary):
        for f in dataclasses.fields(want):
            assert same_bits(getattr(got, f.name).data, getattr(want, f.name).data), f.name
    else:
        _assert_same_fields(got, want)


def _count_boundary_work(monkeypatch):
    """Counters of the boundary pipelines built and of the minus-branch sweeps run."""
    pipelines, sweeps = [], []
    pipeline, sweep = system._Pipeline, steering.riccati_backward

    def counted_pipeline(sys, *args):
        if args[1:]:
            pipelines.append(1)
        return pipeline(sys, *args)

    def counted_sweep(*args):
        sweeps.append(1)
        return sweep(*args)

    monkeypatch.setattr(system, "_Pipeline", counted_pipeline)
    monkeypatch.setattr(steering, "riccati_backward", counted_sweep)
    return pipelines, sweeps


def test_readme_flow_analyses_its_boundary_once(monkeypatch):
    pipelines, sweeps = _count_boundary_work(monkeypatch)
    sys = LinearSystemModel(DEMO_A, DEMO_B, 50)
    sig0, sig_t = DEMO_SIGMA0.tolist(), DEMO_SIGMA_T.tolist()
    assert validate_assumptions(sys, sig0, sig_t).feasible
    lyap = solve_coupled_lyapunov(sys, sig0, sig_t, epsilon=1.0)
    optimal_density_policy(sys, lyap, epsilon=1.0)
    assert bridge_verify(sys, sig0, sig_t, epsilon=1.0).ok()
    assert (len(pipelines), len(sweeps)) == (1, 1)


@pytest.mark.parametrize("name", ["demo-N50", "tv-n4-m2-N100"])
def test_synth_calls_analyse_their_boundary_once(monkeypatch, name):
    pipelines, sweeps = _count_boundary_work(monkeypatch)
    sys, sig0, sig_t, eps, mu0, mu_t = PLANTS[name]()
    init, term = GaussianMarginal(mu0, SymMatrix(sig0)), GaussianMarginal(mu_t, SymMatrix(sig_t))
    assert validate_assumptions(sys, sig0, sig_t, eps).feasible
    general_policy(sys, init, term, eps)
    lyap = solve_coupled_lyapunov(sys, sig0, sig_t, eps)
    normalized_boundary(sys, sig0, sig_t, eps)
    _plus_branch_gates(sys, sig0, sig_t, eps)
    riccati_backward(sys, np.linalg.inv(lyap.Q[-1]))  # the caller's own sweep is not the solve's
    assert (len(pipelines), len(sweeps)) == (1, 1)


def test_kept_results_give_the_bits_of_a_fresh_model():
    """Interleaved boundaries replace the kept one; each answer still equals a fresh model's."""
    shared, sig0, sig_t, eps = PLANTS["tv-n4-m2-N100"]()[:4]

    def fresh():
        return PLANTS["tv-n4-m2-N100"]()[0]

    boundaries = [(sig0, sig_t, eps), (sig0, sig_t, 1.0), (sig_t + 0.1 * np.eye(4), sig_t, eps)]
    calls = [
        lambda sys, b: validate_assumptions(sys, *b),
        lambda sys, b: solve_coupled_lyapunov(sys, *b),
        lambda sys, b: normalized_boundary(sys, *b),
    ]
    for boundary in boundaries + boundaries[::-1]:
        for call in calls:
            _assert_same_result(call(shared, boundary), call(fresh(), boundary))
    got = _plus_branch_gates(shared, sig0, sig_t, eps)
    want = _plus_branch_gates(fresh(), sig0, sig_t, eps)
    assert same_bits(got[0], want[0]) and got[1] == want[1] and same_bits(got[2], want[2])


def test_a_changed_boundary_or_weight_is_analysed_again(monkeypatch):
    pipelines, sweeps = _count_boundary_work(monkeypatch)
    sys = LinearSystemModel(DEMO_A, DEMO_B, 50)
    sig0, sig_t = DEMO_SIGMA0.copy(), DEMO_SIGMA_T.copy()
    changes = [
        (sig0, sig_t, 1.0),
        (sig0 + np.eye(2), sig_t, 1.0),
        (sig0, 0.5 * sig_t, 1.0),
        (sig0, sig_t, 0.5),
        (sig0, sig_t, 1.0),
    ]
    for count, boundary in enumerate(changes, 1):
        solve_coupled_lyapunov(sys, *boundary)
        assert (len(pipelines), len(sweeps)) == (count, count)
    sig0[0, 0] += 1.0  # the caller's array, mutated in place
    got = solve_coupled_lyapunov(sys, sig0, sig_t)
    assert (len(pipelines), len(sweeps)) == (6, 6)
    _assert_same_fields(got, solve_coupled_lyapunov(LinearSystemModel(DEMO_A, DEMO_B, 50), sig0, sig_t))


def test_a_refused_solve_is_not_kept(monkeypatch):
    sys = LinearSystemModel(DEMO_A, DEMO_B, 50)

    def failing_sweep(*args):
        raise GateNotPD(17, "gate at step 17 has min eigenvalue -1.000e-03")

    with monkeypatch.context() as patch:
        patch.setattr(steering, "riccati_backward", failing_sweep)
        for _ in range(2):
            with pytest.raises(BranchDegenerate):
                solve_coupled_lyapunov(sys, DEMO_SIGMA0, DEMO_SIGMA_T)
    got = solve_coupled_lyapunov(sys, DEMO_SIGMA0, DEMO_SIGMA_T)
    fresh = LinearSystemModel(DEMO_A, DEMO_B, 50)
    _assert_same_fields(got, solve_coupled_lyapunov(fresh, DEMO_SIGMA0, DEMO_SIGMA_T))


def test_a_refused_boundary_is_not_kept():
    uncontrollable = LinearSystemModel(DEMO_A, np.zeros((2, 1)), 10)
    for _ in range(2):
        with pytest.raises(SingularGramian):
            normalized_boundary(uncontrollable, DEMO_SIGMA0, DEMO_SIGMA_T)
    assert "_kept_boundary" not in vars(uncontrollable)

    sys = LinearSystemModel(DEMO_A, DEMO_B, 50)
    kept = normalized_boundary(sys, DEMO_SIGMA0, DEMO_SIGMA_T)
    for eps in (0.0, float("nan"), float("inf")):
        with pytest.raises(NonpositiveEpsilon):
            normalized_boundary(sys, DEMO_SIGMA0, DEMO_SIGMA_T, eps)
    _assert_same_result(normalized_boundary(sys, DEMO_SIGMA0, DEMO_SIGMA_T), kept)


def test_kept_pair_is_read_only():
    sys = LinearSystemModel(DEMO_A, DEMO_B, 50)
    lyap = solve_coupled_lyapunov(sys, DEMO_SIGMA0, DEMO_SIGMA_T)
    assert solve_coupled_lyapunov(sys, DEMO_SIGMA0, DEMO_SIGMA_T) is lyap
    for f in dataclasses.fields(lyap):
        arr = getattr(lyap, f.name)
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_a_dropped_model_is_freed_without_the_cycle_collector():
    sys = LinearSystemModel(DEMO_A, DEMO_B, 50)
    validate_assumptions(sys, DEMO_SIGMA0, DEMO_SIGMA_T)
    solve_coupled_lyapunov(sys, DEMO_SIGMA0, DEMO_SIGMA_T)
    pipe = system._validate(sys, DEMO_SIGMA0, DEMO_SIGMA_T, 1.0)[1]
    assert pipe.sys is sys  # the kept pipeline still names its model
    model = weakref.ref(sys)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del sys
        assert model() is None
    finally:
        if enabled:
            gc.enable()
    assert pipe.sys is None
