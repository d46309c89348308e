"""The hot loops' 0-d operands give the bits of the Python floats.

``run``, ``integrate`` and the logistic oracles take their constants as 0-d
float64 arrays, which numpy multiplies through the same float64 loops as
Python floats, at a cheaper dispatch.  These tests step every kernel with
the float record of ``step_coefficients`` and with the 0-d record the loops
use, evaluate ``_flow``'s X'' and the logistic oracles against the same
formulas written with Python floats, and compare the bits, on seeded
inputs that hold +-0.0, subnormals and 1e300 (whose products overflow).
"""

import math

import numpy as np
import pytest

from accelcert import reg_logistic_from_data, step_coefficients
from accelcert.hires_ode import EQUATIONS, _flow
from accelcert.objectives import make_quadratic
from accelcert.optimizers import METHODS, STEPS, _step_operands

SPECIALS = (0.0, -0.0, 5e-324, -2.5e-320, 1e300, -1e300)
COEFFICIENTS = ((1.0, 0.01), (0.3, 0.7), (2.0, 1e-300))


def leaves(state):
    """The arrays of a kernel output (x, y, v, carry), carry flattened."""
    x, y, v, carry = state
    carry = carry if isinstance(carry, tuple) else (carry,)
    return [x, y, v, *(c for c in carry if c is not None)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype == np.float64 and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def vectors(seed: int, d: int, n: int) -> list:
    """``n`` seeded vectors of length d, the special values scattered in."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4, d)
        hit = rng.random(d) < 0.4
        x[hit] = rng.choice(SPECIALS, hit.sum())
        out.append(x)
    return out


def carry_for(method, seed, d):
    if method == "gc-phase":
        return vectors(seed, d, 1)[0]
    if method == "gc-modified":
        return tuple(vectors(seed, d, 2))
    return None


@pytest.mark.parametrize("mu, s", COEFFICIENTS)
@pytest.mark.parametrize("d", [1, 2, 20])
@pytest.mark.parametrize("method", METHODS)
def test_kernels_step_0d_operands_bit_for_bit(method, d, mu, s):
    floats, arrays = step_coefficients(mu, s), _step_operands(mu, s)
    assert all(a.shape == () and a == f for a, f in zip(arrays, floats))
    for seed in range(20):
        x, y, v, g = vectors(seed, d, 4)
        carry = carry_for(method, seed + 100, d)
        with np.errstate(all="ignore"):
            want = STEPS[method](floats, x, y, v, g, carry)
            got = STEPS[method](arrays, x, y, v, g, carry)
            # a second step, with the carry the first one returned
            want2 = STEPS[method](floats, *want[:3], g, want[3])
            got2 = STEPS[method](arrays, *got[:3], g, got[3])
        for a, b in zip(leaves(got) + leaves(got2),
                        leaves(want) + leaves(want2)):
            assert same_bits(a, b), (method, seed)


@pytest.mark.parametrize("mu, s", COEFFICIENTS)
@pytest.mark.parametrize("d", [1, 2, 20])
def test_iv_phase_velocity_is_the_doubled_coefficient_form(d, mu, s):
    # r (v + v) and (2 r) v both round the real product 2 r v once, so the
    # kernel's velocity is the (2 r) v formula's, away from overflow of v + v
    k = step_coefficients(mu, s)
    for seed in range(20):
        x, y, v, g = vectors(seed, d, 4)
        with np.errstate(all="ignore"):
            want = v - 2 * k.r * v / k.c - k.root_s * g
            got = STEPS["iv-phase"](_step_operands(mu, s), x, y, v, g, None)[2]
        assert same_bits(got, want), seed


@pytest.mark.parametrize("which", EQUATIONS)
@pytest.mark.parametrize("d", [1, 2, 20])
@pytest.mark.parametrize("s", [0.0, 0.25, 1e-300])
def test_flow_xddot_0d_operands_bit_for_bit(which, d, s):
    # and accel, the per-coordinate lane's form on floats, entry by entry
    f = make_quadratic(np.linspace(0.5, 4.0, d))
    k, xddot, accel = _flow(f, s, which)
    floats = step_coefficients(f.mu, s)
    assert all(a.shape == () and a == v for a, v in zip(k, floats))
    damping = -2.0 * math.sqrt(f.mu)
    for seed in range(20):
        Xdot, g = vectors(seed, d, 2)
        with np.errstate(all="ignore"):
            if which == "simplified":
                want = damping * Xdot - g
            else:
                want = (damping * Xdot - floats.c * g) / (1.0 + floats.r)
            got, out = xddot(Xdot, g), np.empty(d)
            assert xddot(Xdot, g, out) is out
        lane = np.array([accel(a, b) for a, b in zip(Xdot.tolist(), g.tolist())])
        assert same_bits(got, want) and same_bits(out, want), seed
        assert same_bits(lane, want), seed


def _float_oracles(features, labels, reg):
    """The logistic oracles as the library writes them, with every
    constant a Python float or int."""
    n = len(labels)
    signed = -labels[:, None] * features

    def terms(m):
        e = np.exp(-np.abs(m))
        return (np.maximum(m, 0.0) + np.log1p(e),
                np.maximum(e, m >= 0.0) / (1.0 + e))

    def value(x):
        loss, _ = terms(signed.dot(x))
        return float(np.add.reduce(loss) / n + 0.5 * reg * x.dot(x))

    def grad(x):
        _, weight = terms(signed.dot(x))
        return signed.T.dot(weight) / n + reg * x

    def rows(X):
        loss, weight = terms(X @ signed.T)
        return (np.add.reduce(loss, axis=1) / n + 0.5 * reg * np.vecdot(X, X),
                (weight @ signed) / n + reg * X)

    return value, grad, rows


@pytest.mark.parametrize("n, d", [(50, 1), (50, 2), (2000, 20)])
def test_logistic_oracles_0d_operands_bit_for_bit(n, d):
    rng = np.random.default_rng(n + d)
    features = rng.standard_normal((n, d))
    features[rng.random((n, d)) < 0.1] = rng.choice(SPECIALS[:4])
    labels = rng.choice(np.array([-1.0, 1.0]), size=n)
    f = reg_logistic_from_data(features, labels, 0.1)
    value, grad, rows = _float_oracles(features, labels, 0.1)
    xs = vectors(n + d, d, 20)
    with np.errstate(all="ignore"):
        for x in xs:
            assert same_bits(f.value_fn(x), value(x))
            assert same_bits(f.grad_fn(x), grad(x))
            fused_value, fused_grad = f.value_and_grad_fn(x)
            assert same_bits(fused_value, value(x))
            assert same_bits(fused_grad, grad(x))
        X = np.array(xs)
        for got, want in zip(f.value_and_grad_rows_fn(X), rows(X)):
            assert same_bits(got, want)
