"""Edge cases of the step kernels and ``run``: every theorem and every
energy form holds at its default slack on one-dimensional, perfectly
conditioned and extremely ill-conditioned quadratics, on the shortest runs
and at the ends of the step window; ``run`` checks s > 0 before any step;
and the iv scheme's y_k is the shared probe point."""

import numpy as np
import pytest

from accelcert import (METHODS, certify_contraction, check_bound,
                       make_quadratic, make_reg_logistic, probe_point,
                       resolve_minimizer, run, sample_in_ball)
from accelcert.analysis import THEOREM_METHODS
from accelcert.lyapunov import FORM_METHODS
from accelcert.optimizers import NonFiniteIterateError

#: id -> (spectrum, rotation seed or None, step size as a function of
#: (mu, L), K)
CASES = {
    "d=1": ([2.0], None, lambda mu, L: 1.0 / L, 300),
    "mu=L": ([3.0, 3.0], None, lambda mu, L: 1.0 / L, 300),
    "mu=L-rot": ([3.0, 3.0], 5, lambda mu, L: 1.0 / L, 300),
    "K=0": ([1.0, 100.0], None, lambda mu, L: 1.0 / L, 0),
    "K=1": ([1.0, 100.0], None, lambda mu, L: 1.0 / L, 1),
    "kappa=1e6-rot": ([1.0, 1e6], 7, lambda mu, L: 1.0 / L, 300),
    "kappa=1e8": ([1.0, 1e8], None, lambda mu, L: 1.0 / L, 300),
    "s=1/L": ([1.0, 3.0], None, lambda mu, L: 1.0 / L, 300),
    "s=1/(4mu)": ([1.0, 3.0], None, lambda mu, L: 1.0 / (4.0 * mu), 300),
}

THEOREM_PAIRS = [(m, t) for t, (methods, _) in THEOREM_METHODS.items()
                 for m in methods]
FORM_PAIRS = [(m, form) for form, methods in FORM_METHODS.items()
              for m in methods]


def case_run(case: str, method: str):
    spectrum, rotation_seed, step, K = CASES[case]
    f = make_quadratic(spectrum, rotation_seed=rotation_seed)
    x0 = sample_in_ball(np.random.default_rng(11), f.dim, 2.0)
    return run(f, method, x0, step(f.mu, f.lipschitz), K)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("method, theorem", THEOREM_PAIRS)
def test_bound_holds(case, method, theorem):
    report = check_bound(case_run(case, method), theorem)
    assert report.passed, (report.n_failed, report.worst_margin)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("method, form", FORM_PAIRS)
def test_contraction_holds(case, method, form):
    report = certify_contraction(case_run(case, method), form)
    assert report.passed, (report.n_failed, report.worst_margin)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("s", [0.0, -1.0])
def test_nonpositive_step_rejected(method, s):
    f = make_quadratic([1.0, 4.0])
    with pytest.raises(ValueError, match="step size s must be positive"):
        run(f, method, np.ones(2), s, 5)


@pytest.mark.parametrize("f, s", [
    (make_quadratic([1.0, 100.0]), 0.01),
    (make_quadratic([0.5, 3.0], rotation_seed=11), 0.2),
    (resolve_minimizer(make_reg_logistic(3, 50, 2, 0.1)), 1.0),
], ids=["quad-ill", "quad-rot", "reg-logistic"])
@pytest.mark.parametrize("convention", ["scheme", "zero", "corollary"])
def test_iv_reference_is_the_probe_point(f, s, convention):
    # y_k of iv-phase is the probe point of (x_k, v_k), bit for bit
    x0 = sample_in_ball(np.random.default_rng(3), f.dim, 2.0)
    traj = run(f, "iv-phase", x0, s, 200, first_velocity=convention)
    np.testing.assert_array_equal(traj.ys,
                                  probe_point(traj.xs, traj.vs, s, f.mu))


def test_nonfinite_step_is_the_loop_index():
    # gd at s = 10 on the [1, 100] quadratic from (1, 1): the 103rd step is
    # the first to leave a non-finite iterate, and the error names it
    f = make_quadratic([1.0, 100.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.warns(UserWarning):
            with pytest.raises(NonFiniteIterateError,
                               match="gd produced a non-finite iterate "
                                     "at step 103$") as err:
                run(f, "gd", np.ones(2), 10.0, 2000)
    assert err.value.k == 103
