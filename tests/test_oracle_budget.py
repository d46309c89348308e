"""Oracle budget: how many gradient, value and row-batched evaluations a
run and its certificates make.

A recorded point needs one gradient (its squared norm is recorded, and
the next step descends along it) and one value (its gap is recorded),
both at the same point, so ``run`` makes exactly K+1 fused
value-and-gradient evaluations on an objective that has a fused oracle,
and K+1 of each separate one otherwise.  Certificates read the recorded
``f_gap``, ``grad_sq`` and ``lyapunov`` columns instead of calling the
oracles again; f(x_0) is ``f_gap[0]``.  What the run did not record is
taken from the row-batched oracle, one call per block of 256 rows and no
per-row call: the gradients at y_k for the ``gc`` energy (K rows), and
the gaps on a sequence the run did not record, x_k where y_k was
recorded (K+1 rows) and x_{k+1} in the gradient-step margins (K rows).
An objective without a row-batched oracle makes one fused call per row
instead.

The same holds for the high-resolution ODE: ``integrate`` takes one
fused evaluation at each sample's probe point, which gives the recorded
probe gap and the next RK4 step's first-stage gradient, and three more
gradients per step; the continuous check (which reads f(x_0) as the gap
at rest) and the ODE CSV read that column, and reject an objective or
(s, mu) other than the solution's.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from accelcert import (METHODS, certify_class, certify_contraction,
                       check_bound, check_continuous_bound, integrate,
                       make_quadratic, make_reg_logistic, resolve_minimizer,
                       run)
from accelcert.acceptance import gradient_step_margins
from accelcert import harness
from accelcert.harness import execute, parse_config, write_ode_csv
from accelcert.lyapunov import attach_energies
from accelcert.optimizers import FIRST_VELOCITY_CONVENTIONS


class Counted:
    """An objective whose ``grad_fn`` / ``value_fn`` / ``value_and_grad_fn``
    / ``value_and_grad_rows_fn`` count their calls; ``calls`` is
    (gradients, values, fused pairs, row-batched calls, rows in them)."""

    def __init__(self, f):
        def grad_fn(x):
            self.grads += 1
            return f.grad_fn(x)

        def value_fn(x):
            self.values += 1
            return f.value_fn(x)

        def value_and_grad_fn(x):
            self.fused += 1
            return f.value_and_grad_fn(x)

        def value_and_grad_rows_fn(X):
            self.rows_calls += 1
            self.rows += len(X)
            return f.value_and_grad_rows_fn(X)

        self.reset()
        self.f = replace(
            f, grad_fn=grad_fn, value_fn=value_fn,
            value_and_grad_fn=(None if f.value_and_grad_fn is None
                               else value_and_grad_fn),
            value_and_grad_rows_fn=(None if f.value_and_grad_rows_fn is None
                                    else value_and_grad_rows_fn))

    def reset(self):
        self.grads = 0
        self.values = 0
        self.fused = 0
        self.rows_calls = 0
        self.rows = 0

    @property
    def calls(self):
        return self.grads, self.values, self.fused, self.rows_calls, self.rows


def blocks(n):
    """Row-batched calls over n rows: one per block of 256."""
    return math.ceil(n / 256)


OBJECTIVES = {
    "quad": lambda: make_quadratic([1, 4, 25], rotation_seed=2),
    "logistic": lambda: resolve_minimizer(make_reg_logistic(3, 50, 2, 0.1)),
}


@pytest.fixture(scope="module", params=sorted(OBJECTIVES))
def counted(request):
    return Counted(OBJECTIVES[request.param]())


def start(f):
    return np.random.default_rng(4).standard_normal(f.dim)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("first_velocity", FIRST_VELOCITY_CONVENTIONS)
@pytest.mark.parametrize("K", [0, 1, 25])
def test_run_makes_one_gradient_and_one_value_per_record(counted, method,
                                                         first_velocity, K):
    f = counted.f
    counted.reset()
    traj = run(f, method, start(f), 1.0 / f.lipschitz, K,
               first_velocity=first_velocity)
    assert len(traj) == K + 1
    assert counted.calls == (0, 0, K + 1, 0, 0)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("K", [0, 1, 25])
def test_run_without_fused_oracle_makes_separate_calls(method, K):
    counted = Counted(replace(OBJECTIVES["quad"](), value_and_grad_fn=None))
    f = counted.f
    counted.reset()
    traj = run(f, method, start(f), 1.0 / f.lipschitz, K)
    assert counted.calls == (K + 1, K + 1, 0, 0, 0)
    # the same record as with the fused oracle, bit for bit
    fused = run(OBJECTIVES["quad"](), method, start(f), 1.0 / f.lipschitz, K)
    np.testing.assert_array_equal(traj.f_gap, fused.f_gap)
    np.testing.assert_array_equal(traj.grad_sq, fused.grad_sq)


def gc_certificates(K):
    """The gc energy's gradients at y_k (K rows) and the rate-gc bound's
    gaps at x_k (K+1 rows), each one row-batched call per block of 256."""
    return 0, 0, 0, blocks(K) + blocks(K + 1), 2 * K + 1


@pytest.mark.parametrize("method, form, theorem, extra", [
    ("iv-phase", "iv", "rate-iv", lambda K: (0, 0, 0, 0, 0)),
    ("nag-modified", "iv", "rate-iv", lambda K: (0, 0, 0, 0, 0)),
    ("gc-phase", "gc", "rate-gc", gc_certificates),
    ("gc-modified", "gc", "rate-gc", gc_certificates),
])
@pytest.mark.parametrize("K", [25, 256])
def test_certificate_budget(counted, method, form, theorem, extra, K):
    f = counted.f
    traj = run(f, method, start(f), 1.0 / f.lipschitz, K)
    counted.reset()
    assert certify_contraction(traj, form).n_checked == K - 1
    check_bound(traj, theorem)
    assert counted.calls == extra(K)


@pytest.mark.parametrize("fused", [True, False])
def test_certificate_budget_without_rows_oracle(fused):
    # one per-row evaluation in place of each row of a row-batched call
    f = OBJECTIVES["quad"]()
    counted = Counted(replace(
        f, value_and_grad_rows_fn=None,
        value_and_grad_fn=f.value_and_grad_fn if fused else None))
    g = counted.f
    K = 300
    traj = run(g, "gc-phase", start(g), 1.0 / g.lipschitz, K)
    counted.reset()
    certify_contraction(traj, "gc")
    check_bound(traj, "rate-gc")
    n = 2 * K + 1
    assert counted.calls == ((0, 0, n, 0, 0) if fused else (n, n, 0, 0, 0))


@pytest.mark.parametrize("method, form, theorem, extra", [
    ("iv-phase", "iv", "rate-iv", lambda K: (0, 0, K + 1, 0, 0)),
    ("gc-phase", "gc", "rate-gc",
     lambda K: (0, 0, K + 1, blocks(K) + blocks(K + 1), 2 * K + 1)),
])
def test_execute_budget(counted, monkeypatch, tmp_path, method, form, theorem,
                        extra):
    # the run's fused evaluations, and the row-batched calls for the gc
    # energy's gradients at y_k and the rate-gc bound's gaps at x_k; nothing
    # else
    f = counted.f
    K = 25
    monkeypatch.setattr(harness, "build_objective", lambda config: f)
    config = parse_config(json.dumps(
        {"objective": "quad", "spectrum": [1.0], "method": method,
         "s": "1/L", "K": K, "seed": 2, "lyapunov": form, "bound": theorem}))
    counted.reset()
    assert execute(config, out_root=tmp_path).ok
    assert counted.calls == extra(K)


def test_execute_rot1000_pass_budget(monkeypatch, tmp_path):
    # the two configs of one execute-rot1000 benchmark pass, at d = 20 in
    # place of 1000 (no count depends on d): 2 x 2001 fused calls in run, and
    # 8 row-batched calls each for the gc energy (2000 rows) and the rate-gc
    # bound (2001 rows); no per-row call outside run
    build = harness.build_objective
    counters = []

    def counted_build(config):
        counters.append(Counted(build(config)))
        counters[-1].reset()
        return counters[-1].f

    monkeypatch.setattr(harness, "build_objective", counted_build)
    for method, form, theorem in (("iv-phase", "iv", "rate-iv"),
                                  ("gc-phase", "gc", "rate-gc")):
        config = parse_config(json.dumps(
            {"objective": "quad-rot",
             "spectrum": np.logspace(0, 4, 20).tolist(), "rotation_seed": 1,
             "method": method, "s": "1/L", "K": 2000, "seed": 2,
             "x0": {"random_ball": {"radius": 2.0}}, "lyapunov": form,
             "bound": theorem, "output_path": f"{method}.csv"}))
        assert execute(config, out_root=tmp_path).ok
    totals = tuple(map(sum, zip(*(c.calls for c in counters))))
    assert totals == (0, 0, 4002, 16, 4001)


@pytest.mark.parametrize("method, form", [("iv-phase", "iv"), ("gc-phase", "gc")])
def test_contraction_reuses_attached_column(counted, method, form):
    f = counted.f
    traj = run(f, method, start(f), 1.0 / f.lipschitz, 25)
    attach_energies(traj, form)
    counted.reset()
    certify_contraction(traj, form)
    assert counted.calls == (0, 0, 0, 0, 0)


def test_gd_bound_reads_recorded_gaps(counted):
    f = counted.f
    traj = run(f, "gd", start(f), 1.0 / f.lipschitz, 25)
    counted.reset()
    check_bound(traj, "gd")
    assert counted.calls == (0, 0, 0, 0, 0)


@pytest.mark.parametrize("method", ["gd", "nag-modified", "nag-classic",
                                    "iv-phase", "gc-phase", "gc-modified"])
def test_gradient_step_margins_budget(counted, method):
    # f(y_k) and ||grad f(y_k)||^2 are recorded; f(x_{k+1}) is not
    f = counted.f
    K = 25
    traj = run(f, method, start(f), 1.0 / f.lipschitz, K)
    counted.reset()
    assert len(gradient_step_margins(traj)) == K
    assert counted.calls == (0, 0, 0, blocks(K), K)


ODE_STEPS = 20


def solve(f, s):
    return integrate(f, start(f), s, T=ODE_STEPS * 0.05, h=0.05)


def test_integrate_budget(counted):
    # the fused call at each sample's probe point gives the recorded gap
    # and the next step's first-stage gradient
    f = counted.f
    counted.reset()
    sol = solve(f, 1.0 / f.lipschitz)
    assert len(sol) == ODE_STEPS + 1
    assert counted.calls == (3 * ODE_STEPS, 0, ODE_STEPS + 1, 0, 0)


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_integrate_budget_without_minimum(name):
    counted = Counted(replace(OBJECTIVES[name](), minimizer=None,
                              min_value=None))
    f = counted.f
    counted.reset()
    sol = solve(f, 1.0 / f.lipschitz)
    assert np.isnan(sol.f_gap).all()
    assert counted.calls == (3 * ODE_STEPS, 0, ODE_STEPS + 1, 0, 0)


def test_continuous_check_reads_recorded_gap(counted):
    f = counted.f
    s = 1.0 / f.lipschitz
    sol = solve(f, s)
    counted.reset()
    assert check_continuous_bound(sol, f, s, f.mu).n_checked == ODE_STEPS + 1
    assert counted.calls == (0, 0, 0, 0, 0)


def test_ode_csv_reads_recorded_gap(counted, tmp_path):
    f = counted.f
    s = 1.0 / f.lipschitz
    sol = solve(f, s)
    counted.reset()
    write_ode_csv(sol, f, s, f.mu, tmp_path / "ode.csv")
    assert counted.calls == (0, 0, 0, 0, 0)


@pytest.mark.parametrize("other", ["s", "mu", "objective"])
def test_mismatched_parameters_rejected(counted, other, tmp_path):
    # the recorded probe gap belongs to the objective and (s, mu) the
    # solution was integrated with; nothing else may read it as its own
    f = counted.f
    s = 1.0 / f.lipschitz
    sol = solve(f, s)
    g, s2, mu2 = f, s, f.mu
    if other == "s":
        s2 = 0.5 * s
    elif other == "mu":
        mu2 = 0.5 * f.mu
    else:
        g = replace(f)  # same oracles, another objective
    counted.reset()
    with pytest.raises(ValueError):
        check_continuous_bound(sol, g, s2, mu2)
    with pytest.raises(ValueError):
        write_ode_csv(sol, g, s2, mu2, tmp_path / "ode.csv")
    assert counted.calls == (0, 0, 0, 0, 0)
    assert not (tmp_path / "ode.csv").exists()


def test_certify_class_budget(counted):
    # one fused evaluation at each end of a sampled pair
    counted.reset()
    assert certify_class(counted.f, 1000, sample_seed=0).passed
    assert counted.calls == (0, 0, 2000, 0, 0)


def test_resolve_minimizer_budget():
    # the search steps nag-modified from 0 at s = 1/L until the gradient at
    # x_k is small: n steps cost n + 1 gradients at y_k (the state carries
    # them) and n + 1 gradients at x_k for the stopping test, plus one
    # gradient in the returned objective's minimizer check and one value
    # for its minimum.  Reference: the two-sequence recursion, bit
    # for bit.
    counted = Counted(make_reg_logistic(3, 50, 2, 0.1))
    f = counted.f
    s = 1.0 / f.lipschitz
    c = 1.0 + 2.0 * np.sqrt(f.mu * s)
    x = y = np.zeros(f.dim)
    n = 0
    while np.linalg.norm(f.grad_fn(x)) > 1e-12:
        x1 = y - s * f.grad_fn(y)
        y = x1 + (x1 - x) / c
        x = x1
        n += 1
    counted.reset()
    resolved = resolve_minimizer(f)
    np.testing.assert_array_equal(resolved.minimizer, x)
    assert counted.calls == (2 * n + 3, 1, 0, 0, 0)
