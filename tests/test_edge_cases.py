"""Edge cases of the step kernels and ``run``: every theorem and every
energy form holds at its default slack on one-dimensional, perfectly
conditioned and extremely ill-conditioned quadratics, on the shortest runs
and at the ends of the step window; ``run`` checks s > 0 before any step;
the iv scheme's y_k is the shared probe point; a non-finite iterate is
reported at its own step wherever it falls in the blocks of rows that
``run`` checks at once; ``run`` and ``integrate`` reject a fused oracle
that breaks its contract at the first call; and the certificates reject a
row-batched oracle that breaks its contract."""

from dataclasses import replace

import numpy as np
import pytest

from accelcert import (METHODS, certify_contraction, check_bound, energies,
                       integrate, make_quadratic, make_reg_logistic,
                       probe_point, resolve_minimizer, run, sample_in_ball,
                       step_coefficients)
from accelcert.acceptance import gradient_step_margins
from accelcert.analysis import ENERGIES, THEOREMS, gaps_at
from accelcert.optimizers import _BLOCK_ROWS, NonFiniteIterateError

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

THEOREM_PAIRS = [(m, t) for t, claim in THEOREMS.items()
                 for m in claim.methods]
FORM_PAIRS = [(m, form) for form, claim in ENERGIES.items()
              for m in claim.methods]


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
@pytest.mark.parametrize("convention", ["scheme", "corollary"])
def test_iv_reference_is_the_probe_point(f, s, convention):
    # y_k of iv-phase is the probe point of (x_k, v_k), bit for bit
    x0 = sample_in_ball(np.random.default_rng(3), f.dim, 2.0)
    traj = run(f, "iv-phase", x0, s, 200, first_velocity=convention)
    np.testing.assert_array_equal(traj.ys,
                                  probe_point(traj.xs, traj.vs,
                                              step_coefficients(f.mu, s)))


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


B = _BLOCK_ROWS


def counted_doubling(j):
    """(f, x0, calls): gd at s = 3 on f(x) = x^2 / 2 maps x to -2x, so from
    x0 = 2^(1024 - j) the iterate first overflows at step j; ``calls``
    counts f's fused oracle calls."""
    f = make_quadratic([1.0])
    calls = []

    def value_and_grad_fn(x):
        calls.append(x)
        return f.value_and_grad_fn(x)
    return (replace(f, value_and_grad_fn=value_and_grad_fn),
            np.array([2.0 ** (1024 - j)]), calls)


@pytest.mark.parametrize("j", [1, 2, B - 1, B, B + 1, 2 * B + 3])
@pytest.mark.parametrize("extra", [0, 1, B])
def test_nonfinite_step_at_block_boundaries(j, extra):
    # K = j + extra; K = j ends the run inside a block, at the first
    # non-finite row
    f, x0, calls = counted_doubling(j)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.warns(UserWarning, match="exceeds 1/L"):
            last = run(f, "gd", x0, 3.0, j - 1).xs[-1, 0]
        assert abs(last) == 2.0 ** 1023
        calls.clear()
        with pytest.warns(UserWarning, match="exceeds 1/L"):
            with pytest.raises(NonFiniteIterateError,
                               match=f"at step {j}$") as err:
                run(f, "gd", x0, 3.0, j + extra)
    assert err.value.k == j
    # records 0..j took j + 1 calls; the run stops at the end of j's block
    assert j + 1 <= len(calls) <= j + B


def test_nonfinite_start():
    # x_0 is checked before any step, so also a run of K = 0 rejects it
    f = make_quadratic([1.0, 4.0])
    x0 = np.array([np.nan, 1.0])
    for K in (0, 1, 2 * B):
        with pytest.raises(ValueError, match="x0 must be finite"):
            run(f, "nag-modified", x0, 0.25, K)


#: id -> what a malformed fused oracle makes of a good one's (value, grad)
MALFORMED = {
    "grad (1,)": lambda value, grad: (value, grad[:1]),
    "grad float32": lambda value, grad: (value, grad.astype(np.float32)),
    "grad (d, 1)": lambda value, grad: (value, grad[:, None]),
    "value (1,)": lambda value, grad: (np.array([value]), grad),
    "grad list": lambda value, grad: (value, grad.tolist()),
}


def malformed(f, kind):
    """``f`` with its fused oracle broken the way ``MALFORMED[kind]`` says."""
    fused = f.value_and_grad_fn
    return replace(f, value_and_grad_fn=lambda x: MALFORMED[kind](*fused(x)))


@pytest.mark.parametrize("kind", MALFORMED)
@pytest.mark.parametrize("dim, method", [
    (9, "gd"), (9, "iv-phase"),  # the array path
    (2, "iv-phase"), (2, "heavy-ball"),  # the coupled lane
])
def test_run_rejects_a_malformed_oracle(kind, dim, method):
    # a (1,) gradient would broadcast into every coordinate and a float32
    # one would pass unnoticed; each is caught at the first call, at y_0
    f = malformed(make_quadratic(np.logspace(0, 1, dim), rotation_seed=1),
                  kind)
    with pytest.raises(ValueError, match="value_and_grad_fn returned"):
        run(f, method, np.ones(dim), 1.0 / f.lipschitz, 10)


@pytest.mark.parametrize("kind", MALFORMED)
@pytest.mark.parametrize("T", [0.0, 0.05])
def test_integrate_rejects_a_malformed_oracle(kind, T):
    f = malformed(resolve_minimizer(make_reg_logistic(3, 50, 2, 0.1)), kind)
    with pytest.raises(ValueError, match="value_and_grad_fn returned"):
        integrate(f, np.ones(2), 1.0 / f.lipschitz, T, 0.01)


def test_run_names_grad_fn_without_a_fused_oracle():
    f = make_quadratic([1.0, 4.0])
    f = replace(f, value_and_grad_fn=None,
                grad_fn=lambda x, grad_fn=f.grad_fn: grad_fn(x)[:1])
    with pytest.raises(ValueError, match="^grad_fn returned a float64 array "
                                         r"of shape \(1,\)"):
        run(f, "nag-modified", np.ones(2), 0.25, 10)


#: id -> what a malformed row-batched oracle makes of a good one's
#: (values, gradients)
MALFORMED_ROWS = {
    "values (n, 1)": lambda values, grads: (values[:, None], grads),
    "grads float32": lambda values, grads: (values, grads.astype(np.float32)),
    "grads (n, 1)": lambda values, grads: (values, grads[:, :1]),
    "grads list": lambda values, grads: (values, grads.tolist()),
}

#: id -> a certificate that calls the row-batched oracle on a gc-phase run
ROW_CALLERS = {
    "gaps_at": lambda traj: gaps_at(traj.objective, traj.xs),
    "gc energies": lambda traj: energies(traj, "gc"),
    "check_bound rate-gc": lambda traj: check_bound(traj, "rate-gc"),
    "gradient_step_margins": gradient_step_margins,
}


@pytest.mark.parametrize("caller", ROW_CALLERS)
@pytest.mark.parametrize("kind", MALFORMED_ROWS)
def test_certificates_reject_a_malformed_rows_oracle(kind, caller):
    # the run calls only the fused oracle; each certificate checks what
    # the row-batched one returns before it reads it
    f = make_quadratic([1.0, 4.0, 30.0], rotation_seed=1)
    rows = f.value_and_grad_rows_fn
    f = replace(f, value_and_grad_rows_fn=lambda X: MALFORMED_ROWS[kind](
        *rows(X)))
    traj = run(f, "gc-phase", np.ones(3), 1.0 / f.lipschitz, 300)
    with pytest.raises(ValueError, match="^value_and_grad_rows_fn returned"):
        ROW_CALLERS[caller](traj)
