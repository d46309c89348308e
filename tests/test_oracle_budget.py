"""Oracle budget: how many gradient and value evaluations a run and its
certificates make.

A recorded point needs one gradient (its norm is recorded, and the next
step descends along it) and one value (its gap is recorded), so ``run``
makes exactly K+1 of each.  Certificates read the recorded ``f_gap`` and
``lyapunov`` columns instead of calling the oracles again.
"""

from dataclasses import replace

import numpy as np
import pytest

from accelcert import (METHODS, certify_contraction, check_bound,
                       make_quadratic, make_reg_logistic, resolve_minimizer,
                       run)
from accelcert.optimizers import FIRST_VELOCITY_CONVENTIONS


class Counted:
    """An objective whose ``grad_fn`` / ``value_fn`` count their calls."""

    def __init__(self, f):
        def grad_fn(x):
            self.grads += 1
            return f.grad_fn(x)

        def value_fn(x):
            self.values += 1
            return f.value_fn(x)

        self.reset()
        self.f = replace(f, grad_fn=grad_fn, value_fn=value_fn)

    def reset(self):
        self.grads = 0
        self.values = 0

    @property
    def calls(self):
        return self.grads, self.values


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
    assert counted.calls == (K + 1, K + 1)


@pytest.mark.parametrize("method, form, theorem, extra", [
    ("iv-phase", "iv", "rate-iv", lambda K: (0, 1)),
    ("nag-modified", "iv", "rate-iv", lambda K: (0, 1)),
    ("gc-phase", "gc", "rate-gc", lambda K: (K, K + 2)),
    ("gc-modified", "gc", "rate-gc", lambda K: (K, K + 2)),
])
def test_certificate_budget(counted, method, form, theorem, extra):
    f = counted.f
    K = 25
    traj = run(f, method, start(f), 1.0 / f.lipschitz, K)
    counted.reset()
    assert certify_contraction(traj, form).n_checked == K - 1
    check_bound(traj, theorem)
    assert counted.calls == extra(K)


@pytest.mark.parametrize("method, form", [("iv-phase", "iv"), ("gc-phase", "gc")])
def test_contraction_reuses_attached_column(counted, method, form):
    f = counted.f
    traj = run(f, method, start(f), 1.0 / f.lipschitz, 25, lyapunov=form)
    counted.reset()
    certify_contraction(traj, form)
    assert counted.calls == (0, 0)


def test_gd_bound_reads_recorded_gaps(counted):
    f = counted.f
    traj = run(f, "gd", start(f), 1.0 / f.lipschitz, 25)
    counted.reset()
    check_bound(traj, "gd")
    assert counted.calls == (0, 1)  # bound(0) needs f(x0)
