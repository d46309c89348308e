"""The lanes of :func:`accelcert.optimizers._lane`: ``run`` and
``integrate`` step a small diagonal quadratic one coordinate at a time on
Python floats, and ``run`` steps any other small objective on floats every
coordinate a step.  Every lane records the same bits as the array path,
which the same run takes with the lanes' cutoffs set to 0; the coupled
lane is checked with its cutoff raised to ``_LANE_MAX_DIM``.  Which path
runs depends only on the objective, and every method takes it.  Both
paths reject the same inputs, before any warning, and a diverging run
raises at the same step on both.
"""

import contextlib
import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import accelcert.optimizers as optimizers
from accelcert import (METHODS, integrate, make_quadratic, make_reg_logistic,
                       resolve_minimizer, run, step_coefficients)
from accelcert.hires_ode import EQUATIONS, NonFiniteSolutionError
from accelcert.optimizers import (_BLOCK_ROWS as B, _LANE_MAX_DIM,
                                  FIRST_VELOCITY_CONVENTIONS,
                                  NonFiniteIterateError, _lane)

RUN_COLUMNS = ("xs", "ys", "vs", "f_gap", "grad_sq")
ODE_COLUMNS = ("t", "X", "Xdot", "f_gap")


@contextlib.contextmanager
def on_path(path):
    """A context in which ``run`` and ``integrate`` take ``path``: "array"
    with every lane's cutoff at 0, "coupled" where ``run`` takes the
    coupled lane up to ``_LANE_MAX_DIM`` coordinates, or "selected", the
    path the objective selects."""
    with pytest.MonkeyPatch.context() as patch:
        if path == "array":
            patch.setattr(optimizers, "_LANE_MAX_DIM", 0)
            patch.setattr(optimizers, "_COUPLED_LANE_MAX_DIM", 0)
        elif path == "coupled":
            patch.setattr(optimizers, "_COUPLED_LANE_MAX_DIM", _LANE_MAX_DIM)
        yield


def on_both_paths(call, lane="selected"):
    """``call()`` on the ``lane`` path, then on the array path."""
    results = []
    for path in (lane, "array"):
        with on_path(path):
            results.append(call())
    return results


def assert_same_bits(a, b, columns):
    for name in columns:
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def assert_same_run(lane, array):
    assert_same_bits(lane, array, RUN_COLUMNS)
    assert (lane.ys is lane.xs) == (array.ys is array.xs)
    assert lane.vs.flags.writeable == array.vs.flags.writeable
    if lane.method_id == "gd":  # one read-only zero row
        assert lane.vs.strides[0] == 0 and not lane.vs.flags.writeable


def start(d, seed=0):
    return np.random.default_rng(seed).standard_normal(d)


@pytest.mark.parametrize("d", [1, 2, 3, 4, _LANE_MAX_DIM])
@pytest.mark.parametrize("K", [0, 1, B - 1, B, 600])
@pytest.mark.parametrize("first_velocity", FIRST_VELOCITY_CONVENTIONS)
@pytest.mark.parametrize("method", METHODS)
def test_run_lane_records_the_array_path_bits(method, first_velocity, K, d):
    f = make_quadratic(np.logspace(0, 3, d))
    assert _lane(f) == tuple(np.diag(f.hessian))
    x0 = start(d)
    lane, array = on_both_paths(lambda: run(
        f, method, x0, 1.0 / f.lipschitz, K, first_velocity=first_velocity))
    assert_same_run(lane, array)


class Counter:
    """A wrapper of an oracle that counts its calls."""

    def __init__(self, oracle):
        self.calls = 0
        self.oracle = oracle

    def __call__(self, x):
        self.calls += 1
        return self.oracle(x)


#: The coupled objectives ``run`` steps on floats every coordinate a step.
COUPLED = {
    "quad-rot": lambda d: make_quadratic(np.logspace(0, 2, d),
                                         rotation_seed=5),
    "logistic": lambda d: resolve_minimizer(make_reg_logistic(3, 20, d, 0.1)),
}


@functools.cache
def coupled(name, d):
    return COUPLED[name](d)


@pytest.mark.parametrize("d", [1, 2, 3, _LANE_MAX_DIM])
@pytest.mark.parametrize("objective", COUPLED)
@pytest.mark.parametrize("K", [0, 1, B - 1, B, 600])
@pytest.mark.parametrize("first_velocity", FIRST_VELOCITY_CONVENTIONS)
@pytest.mark.parametrize("method", METHODS)
def test_coupled_lane_records_the_array_path_bits(method, first_velocity, K,
                                                  objective, d):
    f = coupled(objective, d)
    assert _lane(f) is None
    counter = Counter(f.value_and_grad_fn)
    counted = replace(f, value_and_grad_fn=counter)
    x0 = start(d)
    calls = []

    def call():
        counter.calls = 0
        traj = run(counted, method, x0, 1.0 / f.lipschitz, K,
                   first_velocity=first_velocity)
        calls.append(counter.calls)
        return traj
    lane, array = on_both_paths(call, "coupled")
    assert_same_run(lane, array)
    assert calls == [K + 1, K + 1]


def test_heavy_ball_lane_over_many_step_sizes():
    # the lane squares m on a Python float, where m ** 2 calls libm's pow,
    # which rounds some squares otherwise than m * m; numpy's 0-d ** 2 is
    # np.square
    rng = np.random.default_rng(0)
    pow_differs = 0
    for mu, s in zip(rng.uniform(0.01, 1.0, 4000).tolist(),
                     rng.uniform(0.05, 1.0, 4000).tolist()):
        f = make_quadratic([mu, 1.0])
        m = step_coefficients(mu, s).m
        pow_differs += m ** 2 != m * m
        x0 = np.array([1.0, -0.5])
        lane, array = on_both_paths(lambda: run(f, "heavy-ball", x0, s, 3))
        assert_same_bits(lane, array, RUN_COLUMNS)
    assert pow_differs > 0  # the grid reaches such an m


@pytest.mark.parametrize("which", EQUATIONS)
@pytest.mark.parametrize("s", [0.0, 0.25])
@pytest.mark.parametrize("d", [1, 2, _LANE_MAX_DIM])
@pytest.mark.parametrize("T, h", [(0.0, 0.1), (0.5, 0.1), (0.256, 1e-3),
                                  (0.6, 1e-3)],
                         ids=["n=0", "n=5", "n=B", "n=600"])
def test_integrate_lane_records_the_array_path_bits(which, s, d, T, h):
    f = make_quadratic(np.linspace(1.0, 4.0, d))
    lane, array = on_both_paths(lambda: integrate(f, start(d), s, T, h, which))
    assert_same_bits(lane, array, ODE_COLUMNS)


def test_unknown_minimum_gives_nan_gaps_on_both_paths():
    f = replace(make_quadratic([1.0, 4.0]), minimizer=None, min_value=None)
    assert _lane(f) is not None
    x0 = start(2)
    for g in (f, make_reg_logistic(3, 20, 2, 0.1)):  # and a coupled one
        for method in ("gd", "iv-phase"):
            lane, array = on_both_paths(lambda: run(
                g, method, x0, 1.0 / g.lipschitz, 300))
            assert np.isnan(lane.f_gap).all()
            assert_same_bits(lane, array, RUN_COLUMNS)
    lane, array = on_both_paths(lambda: integrate(f, x0, 0.25, 0.3, 1e-3))
    assert np.isnan(lane.f_gap).all()
    assert_same_bits(lane, array, ODE_COLUMNS)


def steps_of_divergence(f, method, s, lane="selected"):
    """The step ``run`` of K = 2000 from (1, -1) raises at on the ``lane``
    path and on the array path."""
    steps = []
    for path in (lane, "array"):
        with on_path(path), np.errstate(all="ignore"):
            with pytest.warns(UserWarning):
                with pytest.raises(NonFiniteIterateError) as err:
                    run(f, method, np.array([1.0, -1.0]), s, 2000)
        steps.append(err.value.k)
    return steps


@pytest.mark.parametrize("method", METHODS)
def test_diverging_run_raises_at_the_same_step(method):
    # s = 1 is four times 1/L: every method leaves a non-finite iterate
    # at some step past the first block
    steps = steps_of_divergence(make_quadratic([1.0, 4.0]), method, 1.0)
    assert steps[0] == steps[1] > B


@pytest.mark.parametrize("method", METHODS)
def test_diverging_coupled_run_raises_at_the_same_step(method):
    f = make_quadratic([1.0, 4.0], rotation_seed=2)
    assert _lane(f) is None
    steps = steps_of_divergence(f, method, 1.0, "coupled")
    assert steps[0] == steps[1] > B


@pytest.mark.parametrize("s", [0.0, 1e-4])
def test_diverging_solution_raises_at_the_same_time(s):
    # h = 0.35 is past RK4's stability limit 2.8 / sqrt(100); the first
    # non-finite sample falls past the first block
    f = make_quadratic([100.0])
    times = []
    for path in ("selected", "array"):
        with on_path(path), np.errstate(all="ignore"):
            with pytest.raises(NonFiniteSolutionError) as err:
                integrate(f, np.array([1.0]), s, 2000 * 0.35, 0.35)
        times.append(err.value.t)
    assert times[0] == times[1] > B * 0.35


@pytest.mark.parametrize("wrap", ["plain", "functools.wraps"])
def test_a_wrapped_diagonal_oracle_is_called_at_every_record(wrap):
    # functools.wraps copies the oracle's eigenvalue mark onto the
    # wrapper, which still is not the oracle itself
    f = make_quadratic([1.0, 4.0])
    counter = Counter(f.value_and_grad_fn)
    oracle = (functools.wraps(f.value_and_grad_fn)(lambda x: counter(x))
              if wrap == "functools.wraps" else counter)
    counted = replace(f, value_and_grad_fn=oracle)
    assert _lane(counted) is None
    run(counted, "iv-phase", start(2), 0.25, 300)
    assert counter.calls == 301


@pytest.mark.parametrize("build, lane", [
    (lambda: make_quadratic(np.logspace(0, 1, _LANE_MAX_DIM)), True),
    (lambda: make_quadratic([1.0, 4.0]), True),
    (lambda: make_quadratic(np.logspace(0, 1, _LANE_MAX_DIM + 1)), False),
    (lambda: make_quadratic([1.0, 4.0], rotation_seed=2), False),
    (lambda: resolve_minimizer(make_reg_logistic(3, 50, 2, 0.1)), False)],
    ids=["diag-d=cutoff", "diag-d=2", "diag-d=cutoff+1", "rotated",
         "logistic"])
def test_path_selection(build, lane):
    # integrate takes its stage gradients from grad_fn on the array path
    # only; counting grad_fn leaves the fused oracle, and so the path, as
    # it is
    f = build()
    counter = Counter(f.grad_fn)
    f = replace(f, grad_fn=counter)
    assert (_lane(f) is not None) == lane
    counter.calls = 0
    n = 10
    integrate(f, start(f.dim), 1.0 / f.lipschitz, n * 1e-2, 1e-2)
    assert counter.calls == (0 if lane else 3 * n)


C = optimizers._COUPLED_LANE_MAX_DIM


@pytest.mark.parametrize("f, method, on_floats", [
    (make_quadratic(np.logspace(0, 1, _LANE_MAX_DIM)), "gd", True),
    (make_quadratic(np.logspace(0, 1, _LANE_MAX_DIM + 1)), "gd", False),
    (make_quadratic(np.logspace(0, 1, C), rotation_seed=2), "nag-modified",
     True),
    (make_reg_logistic(3, 20, C, 0.1), "iv-phase", True),
    (make_quadratic(np.logspace(0, 1, C), rotation_seed=2), "gd", True),
    (make_quadratic(np.logspace(0, 1, C + 1), rotation_seed=2),
     "nag-modified", False),
    (make_quadratic(np.logspace(0, 1, _LANE_MAX_DIM + 1), rotation_seed=2),
     "iv-phase", False)],
    ids=["diag-d=cutoff", "diag-d=cutoff+1", "rotated-d=coupled-cutoff",
         "logistic-d=coupled-cutoff", "rotated-gd", "rotated-d=coupled-cutoff+1",
         "rotated-d=cutoff+1"])
def test_run_path_selection(monkeypatch, f, method, on_floats):
    # run's discarded first kernel call (_records) takes arrays on every
    # path; the steps take floats on a lane and arrays on the array path
    kernel = optimizers.STEPS[method]
    operands = set()

    def spy(k, x, *rest):
        operands.add(type(x))
        return kernel(k, x, *rest)
    monkeypatch.setitem(optimizers.STEPS, method, spy)
    run(f, method, start(f.dim), 1.0 / f.lipschitz, 5)
    assert operands == ({np.ndarray, float} if on_floats else {np.ndarray})


@pytest.mark.parametrize("f", [
    make_quadratic(np.logspace(0, 1, 2), rotation_seed=2),
    make_reg_logistic(3, 20, 2, 0.1),
    make_quadratic(np.logspace(0, 1, C + 1), rotation_seed=2)],
    ids=["rotated-d=2", "logistic-d=2", "rotated-d=coupled-cutoff+1"])
def test_every_method_takes_the_objectives_path(monkeypatch, f):
    # the path is a property of the objective: each method's steps take
    # the same operand types
    seen = {}
    for method in METHODS:
        kernel = optimizers.STEPS[method]
        seen[method] = operands = set()

        def spy(k, x, *rest, kernel=kernel, operands=operands):
            operands.add(type(x))
            return kernel(k, x, *rest)
        monkeypatch.setitem(optimizers.STEPS, method, spy)
        run(f, method, start(f.dim), 1.0 / f.lipschitz, 5)
    assert len({frozenset(ops) for ops in seen.values()}) == 1, seen


@pytest.mark.parametrize("path", ["selected", "array"],
                         ids=["lane", "array"])
@pytest.mark.parametrize("call", [
    lambda f: run(f, "gd", np.ones(2), math.inf, 5),
    lambda f: run(f, "iv-phase", np.ones(2), math.nan, 5),
    lambda f: integrate(f, np.ones(2), 0.25, math.nan, 0.1),
    lambda f: integrate(f, np.ones(2), 0.25, math.inf, 0.1),
    lambda f: integrate(f, np.ones(2), math.inf, 1.0, 0.1),
    lambda f: integrate(f, np.ones(2), 0.25, 1.0, math.inf),
    lambda f: integrate(f, np.ones(2), 0.25, 1.0, math.nan),
    lambda f: integrate(f, np.ones(2), 0.25, 0.04, 0.1)],
    ids=["run-s=inf", "run-s=nan", "T=nan", "T=inf", "s=inf", "h=inf",
         "h=nan", "T<h/2"])
def test_nonfinite_inputs_rejected_before_any_warning(call, path):
    # T = nan used to return one sample, T = inf to raise OverflowError,
    # s = inf to warn and then fail on the first non-finite step, and a T
    # short of h / 2 to pass as a multiple of h
    f = make_quadratic([1.0, 4.0])
    with on_path(path), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            call(f)
