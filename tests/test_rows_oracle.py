"""The row-batched oracle ``Objective.value_and_grad_rows`` against the
per-row fused oracle, on either side of the 256-row blocks that the
certificates call it on.

A diagonal quadratic's row-batched oracle is elementwise, so it gives the
bits of the per-row oracle.  A rotated quadratic's (``X @ A``) and the
logistic loss's (one product of X with the features) sum in another order
than the per-row matrix-vector products, so each row matches to a relative
tolerance of 1e-13 in norm (about 450 units in the last place; at most
2.2e-15 was measured), at one OpenBLAS thread or more.  An objective with
no row-batched oracle makes one per-row call per row, and the certificates
then give the bits of the per-row loop.
"""

from dataclasses import replace

import numpy as np
import pytest

from accelcert import (check_bound, make_quadratic, make_reg_logistic,
                       resolve_minimizer, run)
from accelcert.acceptance import gradient_step_margins
from accelcert.analysis import attach_bound, gaps_at

ROWS = [0, 1, 255, 256, 257, 515]
RTOL = 1e-13

OBJECTIVES = {
    "diag20": lambda: make_quadratic(np.logspace(0, 3, 20)),
    "rot50": lambda: make_quadratic(np.logspace(0, 2, 50), rotation_seed=5),
    "rot1000": lambda: make_quadratic(np.logspace(0, 4, 1000), rotation_seed=3),
    "logistic2": lambda: make_reg_logistic(3, 50, 2, 0.1),
    "logistic20": lambda: make_reg_logistic(1, 2000, 20, 0.1),
}

ROUNDED = ["rot50", "rot1000", "logistic2", "logistic20"]


@pytest.fixture(scope="module", params=sorted(OBJECTIVES))
def objective(request):
    return request.param, OBJECTIVES[request.param]()


def without_rows_oracle(f):
    return replace(f, value_and_grad_rows_fn=None)


def points(f, n):
    return 2.0 * np.random.default_rng(n).standard_normal((n, f.dim))


def per_row(f, X):
    """Values and gradients from one ``value_and_grad`` call per row."""
    values, grads = np.empty(len(X)), np.empty(X.shape)
    for i, x in enumerate(X):
        values[i], grads[i] = f.value_and_grad(x)
    return values, grads


@pytest.mark.parametrize("n", ROWS)
def test_shapes(objective, n):
    _, f = objective
    values, grads = f.value_and_grad_rows(points(f, n))
    assert values.shape == (n,) and grads.shape == (n, f.dim)
    assert values.dtype == grads.dtype == np.float64


@pytest.mark.parametrize("n", ROWS)
def test_diagonal_quadratic_bit_identical(n):
    f = OBJECTIVES["diag20"]()
    X = points(f, n)
    values, grads = f.value_and_grad_rows(X)
    want_values, want_grads = per_row(f, X)
    assert values.tobytes() == want_values.tobytes()
    assert grads.tobytes() == want_grads.tobytes()


@pytest.mark.parametrize("name", ROUNDED)
@pytest.mark.parametrize("n", ROWS)
def test_matches_per_row_to_rounding(name, n):
    f = OBJECTIVES[name]()
    X = points(f, n)
    values, grads = f.value_and_grad_rows(X)
    want_values, want_grads = per_row(f, X)
    assert np.all(np.abs(values - want_values) <= RTOL * np.abs(want_values))
    assert np.all(np.linalg.norm(grads - want_grads, axis=1)
                  <= RTOL * np.linalg.norm(want_grads, axis=1))


@pytest.mark.parametrize("n", ROWS)
def test_without_rows_oracle_is_the_per_row_oracle(objective, n):
    _, f = objective
    g = without_rows_oracle(f)
    X = points(f, n)
    values, grads = g.value_and_grad_rows(X)
    want_values, want_grads = per_row(f, X)
    assert values.tobytes() == want_values.tobytes()
    assert grads.tobytes() == want_grads.tobytes()


def certificate_objectives():
    """A diagonal quadratic, and objectives with no row-batched oracle: their
    certificates give the bits of the per-row loop."""
    yield make_quadratic(np.logspace(0, 3, 20))
    yield without_rows_oracle(make_quadratic(np.logspace(0, 2, 50),
                                             rotation_seed=5))
    yield without_rows_oracle(resolve_minimizer(
        make_reg_logistic(3, 50, 2, 0.1)))


@pytest.mark.parametrize("f", list(certificate_objectives()),
                         ids=["diag20", "rot50-per-row", "logistic2-per-row"])
@pytest.mark.parametrize("K", [0, 255, 256, 515])
def test_certificates_match_per_row_loop(f, K):
    x0 = np.linspace(-1.0, 1.0, f.dim)
    traj = run(f, "gc-phase", x0, 1.0 / f.lipschitz, K)
    gaps = np.array([f.gap(x) for x in traj.xs])
    assert gaps_at(f, traj.xs).tobytes() == gaps.tobytes()
    rhs = traj.f_gap[:-1] - 0.5 * traj.s * traj.grad_sq[:-1]
    assert gradient_step_margins(traj).tobytes() == (rhs - gaps[1:]).tobytes()
    report = check_bound(traj, "rate-gc")
    margins = attach_bound(traj, "rate-gc") - gaps
    assert report.worst_margin == float(margins.min())
    assert report.n_checked == K + 1
