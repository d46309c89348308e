"""Bit-for-bit pins of the per-step oracle and recorder arithmetic.

``run`` takes the squared gradient norms a block of rows at a time with one
``np.vecdot``, which must give the bits of ``g @ g`` at each step.  The
quadratic oracles call ``.dot``, which must give the bits of ``A @ x`` and
``0.5 * x @ (A @ x)``.  The logistic oracles work on the signed rows
-b_i a_i, which must give the bits of the formulas written with the margins
b_i <a_i, x>.  These tests check each against the plain formula directly,
so they do not rest on the golden digests.
"""

import numpy as np
import pytest
from scipy.special import expit

from accelcert import (make_quadratic, make_reg_logistic,
                       reg_logistic_from_data, run)
from accelcert.optimizers import (METHODS, NAG_FAMILY, STEPS,
                                  NonFiniteIterateError, step_coefficients)


@pytest.mark.parametrize("dim", [1, 2, 20])
@pytest.mark.parametrize("K", [0, 1, 255, 256, 257, 600])
@pytest.mark.parametrize("method", METHODS)
def test_grad_sq_is_g_dot_g(method, K, dim):
    # on either side of the 256-row blocks, every recorded squared norm is
    # g @ g of the gradient at that row's reference point
    f = make_reg_logistic(2, 40, dim, 0.1)
    x0 = np.random.default_rng(dim).uniform(-2.0, 2.0, dim)
    traj = run(f, method, x0, 1.0 / f.lipschitz, K)
    points = traj.ys if traj.reference == "y" else traj.xs
    expected = np.array([g @ g for g in map(f.grad, points)])
    np.testing.assert_array_equal(traj.grad_sq, expected)


@pytest.mark.parametrize("dim", [1, 2, 50, 300])
@pytest.mark.parametrize("rotation_seed", [None, 4])
def test_quadratic_oracles_are_matmul(dim, rotation_seed):
    f = make_quadratic(np.logspace(0, 2, dim), rotation_seed=rotation_seed)
    A = f.hessian
    rng = np.random.default_rng(dim)
    for _ in range(5):
        x = rng.standard_normal(dim)
        grad, value = A @ x, 0.5 * float(x @ (A @ x))
        np.testing.assert_array_equal(f.grad(x), grad)
        assert f.value(x) == value
        fused_value, fused_grad = f.value_and_grad(x)
        assert fused_value == value
        np.testing.assert_array_equal(fused_grad, grad)


def _margin_oracles(features, labels, reg):
    """The logistic oracles written with the margins b_i <a_i, x>."""
    n = len(labels)

    def value(x):
        margins = labels * (features @ x)
        return float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 * reg * (x @ x))

    def grad(x):
        margins = labels * (features @ x)
        return -(features.T @ (labels * expit(-margins))) / n + reg * x

    def rows(X):
        margins = (X @ features.T) * labels
        values = (np.mean(np.logaddexp(0.0, -margins), axis=1)
                  + 0.5 * reg * np.vecdot(X, X))
        grads = -((expit(-margins) * labels) @ features) / n + reg * X
        return values, grads

    return value, grad, rows


@pytest.mark.parametrize("n, dim", [(50, 2), (2000, 20), (7, 300)])
def test_logistic_oracles_match_margin_formulas(n, dim):
    rng = np.random.default_rng(n + dim)
    features = rng.standard_normal((n, dim))
    labels = rng.choice(np.array([-1.0, 1.0]), size=n)
    f = reg_logistic_from_data(features, labels, 0.1)
    value, grad, rows = _margin_oracles(features, labels, 0.1)
    for scale in (0.1, 1.0, 30.0):  # far out, the margins saturate
        x = scale * rng.standard_normal(dim)
        assert f.value(x) == value(x)
        np.testing.assert_array_equal(f.grad(x), grad(x))
        fused_value, fused_grad = f.value_and_grad(x)
        assert fused_value == value(x)
        np.testing.assert_array_equal(fused_grad, grad(x))
    X = rng.standard_normal((37, dim))
    for got, want in zip(f.value_and_grad_rows(X), rows(X)):
        np.testing.assert_array_equal(got, want)


def _first_nonfinite_step(f, method, x0, s, K):
    """The first step k whose x_k is non-finite, stepping the kernel alone
    (for methods that start with no carry)."""
    step, at_y = STEPS[method], method in NAG_FAMILY
    x, y, v = x0.copy(), x0.copy(), np.zeros(f.dim)
    g = f.grad(x0)
    for k in range(1, K + 1):
        x, y, v, _ = step(step_coefficients(f.mu, s), x, y, v, g, None)
        if not np.isfinite(x).all():
            return k
        g = f.grad(y if at_y else x)
    return None


@pytest.mark.parametrize("method, s", [("gd", 10.0), ("gd", 0.025),
                                       ("nag-modified", 0.05),
                                       ("iv-phase", 0.05)])
def test_diverging_run_names_its_first_nonfinite_step(method, s):
    f = make_quadratic([1, 100])
    x0 = np.array([1.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _first_nonfinite_step(f, method, x0, s, 3000)
        # mid-block, so the run steps past it before the block's check
        assert expected is not None and expected % 256 not in (0, 1)
        with pytest.warns(UserWarning, match="exceeds 1/L"):
            with pytest.raises(NonFiniteIterateError) as err:
                run(f, method, x0, s, 3000)
    assert err.value.k == expected
