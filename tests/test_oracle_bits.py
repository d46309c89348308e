"""Bit-for-bit pins of the per-step oracle and recorder arithmetic.

``run`` takes the squared gradient norms a block of rows at a time with one
``np.vecdot``, which must give the bits of ``g @ g`` at each step.  The
quadratic oracles call ``.dot``, which must give the bits of ``A @ x`` and
``0.5 * x @ (A @ x)``.  The logistic oracles work on the signed rows
-b_i a_i, which must give the bits of the numpy formulas written with the
margins b_i <a_i, x>; the softplus and sigmoid those formulas use are
checked against an mpmath reference.  These tests check each against the
plain formula directly, so they do not rest on the golden digests.
"""

import mpmath
import numpy as np
import pytest

from accelcert import (make_quadratic, make_reg_logistic,
                       reg_logistic_from_data, run)
from accelcert.objectives import _sigmoid, _softplus
from accelcert.optimizers import (METHODS, STEPS, NonFiniteIterateError,
                                  step_coefficients)


@pytest.mark.parametrize("dim", [1, 2, 20])
@pytest.mark.parametrize("K", [0, 1, 255, 256, 257, 600])
@pytest.mark.parametrize("method", METHODS)
def test_grad_sq_is_g_dot_g(method, K, dim):
    # on either side of the 256-row blocks, every recorded squared norm is
    # g @ g of the gradient at that row's y_k
    f = make_reg_logistic(2, 40, dim, 0.1)
    x0 = np.random.default_rng(dim).uniform(-2.0, 2.0, dim)
    traj = run(f, method, x0, 1.0 / f.lipschitz, K)
    expected = np.array([g @ g for g in map(f.grad, traj.ys)])
    np.testing.assert_array_equal(traj.grad_sq, expected)


@pytest.mark.parametrize("dim", [1, 2, 20])
@pytest.mark.parametrize("K", [0, 1, 255, 256, 257, 600])
@pytest.mark.parametrize("method", ["gd", "heavy-ball"])
def test_gd_and_heavy_ball_record_ys_at_xs(method, K, dim):
    # their y_k is x_k, so the gaps and norms read at ys are those of x_k
    f = make_reg_logistic(2, 40, dim, 0.1)
    x0 = np.random.default_rng(dim).uniform(-2.0, 2.0, dim)
    traj = run(f, method, x0, 1.0 / f.lipschitz, K)
    np.testing.assert_array_equal(traj.ys, traj.xs)


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
    """The logistic oracles written with the margins b_i <a_i, x>: with
    e = exp(-|margin|), the loss log(1 + exp(-margin)) is
    max(-margin, 0) + log1p(e) and its weight sigma(-margin) is
    1 / (1 + e) where margin <= 0 and e / (1 + e) elsewhere."""
    n = len(labels)

    def terms(margins):
        e = np.exp(-np.abs(margins))
        loss = np.maximum(-margins, 0.0) + np.log1p(e)
        weight = np.where(margins <= 0.0, 1.0, e) / (1.0 + e)
        return loss, weight

    def value(x):
        loss, _ = terms(labels * (features @ x))
        return float(np.mean(loss) + 0.5 * reg * (x @ x))

    def grad(x):
        _, weight = terms(labels * (features @ x))
        return -(features.T @ (labels * weight)) / n + reg * x

    def rows(X):
        loss, weight = terms((X @ features.T) * labels)
        values = np.mean(loss, axis=1) + 0.5 * reg * np.vecdot(X, X)
        grads = -((weight * labels) @ features) / n + reg * X
        return values, grads

    return value, grad, rows


@pytest.mark.parametrize("n, dim", [(50, 2), (2000, 20), (7, 300)])
def test_logistic_oracles_match_margin_formulas(n, dim):
    rng = np.random.default_rng(n + dim)
    features = rng.standard_normal((n, dim))
    labels = rng.choice(np.array([-1.0, 1.0]), size=n)
    f = reg_logistic_from_data(features, labels, 0.1)
    value, grad, rows = _margin_oracles(features, labels, 0.1)
    # far out the margins saturate, and at 1000 exp(-|margin|) underflows
    for scale in (0.1, 1.0, 30.0, 1000.0):
        x = scale * rng.standard_normal(dim)
        assert f.value(x) == value(x)
        np.testing.assert_array_equal(f.grad(x), grad(x))
        fused_value, fused_grad = f.value_and_grad(x)
        assert fused_value == value(x)
        np.testing.assert_array_equal(fused_grad, grad(x))
    X = rng.standard_normal((37, dim))
    for got, want in zip(f.value_and_grad_rows(X), rows(X)):
        np.testing.assert_array_equal(got, want)


#: Margins from 0 through both tails: +-1e-300 round 1 + exp(-|m|) to 2,
#: at +-40 1 + e rounds to 1, past -745 exp(m) is below the smallest
#: subnormal, and 1e4 is far beyond where exp(1e4) would overflow.
MARGINS = [0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0, 745.0, -745.0,
           1e4, -1e4]


def _ulps(got: float, want: mpmath.mpf) -> float:
    """|got - want| in units of the spacing of doubles at ``want``."""
    return float(abs(mpmath.mpf(got) - want)
                 / mpmath.mpf(float(np.spacing(abs(float(want))))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sigmoid_and_softplus_match_mpmath():
    # the shared exp(-|m|) never overflows, so no margin warns, and both
    # functions stay within a few ULP of the exact values in either tail
    m = np.array(MARGINS)
    e = np.exp(-np.abs(m))
    sigmoid, softplus = _sigmoid(m, e), _softplus(m, e)
    with mpmath.workprec(200):
        for i, margin in enumerate(MARGINS):
            x = mpmath.mpf(margin)
            assert _ulps(sigmoid[i], 1 / (1 + mpmath.exp(-x))) <= 2, margin
            assert _ulps(softplus[i], mpmath.log1p(mpmath.exp(x))) <= 2, margin


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape", [(-1,), (4, -1)])
def test_sigmoid_numerator_is_the_where_formula(shape):
    # the numerator max(e, m >= 0) is np.where(m >= 0, 1, e) bit for bit,
    # NaN, +-inf and -0.0 included, on vectors and on the row-batched
    # oracle's 2-D margins
    m = np.array(MARGINS + [np.nan, np.inf, -np.inf, -0.0, 0.0]).reshape(shape)
    e = np.exp(-np.abs(m))
    want = np.where(m >= 0.0, 1.0, e) / (1.0 + e)
    got = _sigmoid(m, e)
    assert got.shape == m.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _first_nonfinite_step(f, method, x0, s, K):
    """The first step k whose x_k is non-finite, stepping the kernel alone
    from carry None, as ``run`` does without a prescribed first velocity."""
    step, carry = STEPS[method], None
    x, y, v = x0.copy(), x0.copy(), np.zeros(f.dim)
    g = f.grad(x0)
    for k in range(1, K + 1):
        x, y, v, carry = step(step_coefficients(f.mu, s), x, y, v, g, carry)
        if not np.isfinite(x).all():
            return k
        g = f.grad(y)
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
