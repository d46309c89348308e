"""The rewriting identities of the momentum schemes, proved symbolically.

Every step kernel does plain arithmetic on its state and on the
coefficients of ``step_coefficients``, so it steps sympy scalars as it
steps floats.  With S = sqrt(s) and R = sqrt(mu s) as positive symbols and
an uninterpreted gradient G, one step of each phase-space form equals one
step of the recursion it rewrites, exactly: acceptance criterion 1 checks
the same identities numerically along 1000-step runs.
"""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from accelcert.optimizers import (METHODS, STEPS, StepCoefficients,  # noqa: E402
                                  step_coefficients)

S, R = sympy.symbols("S R", positive=True)
K = StepCoefficients(s=S**2, root_s=S, r=R, c=1 + 2 * R, m=(1 - R) / (1 + R))
G = sympy.Function("G")
x, v, v_prev = sympy.symbols("x v v_prev", real=True)


def same(a, b) -> bool:
    """a == b identically, once the kernels' float literals are rational."""
    return sympy.simplify(sympy.nsimplify(a - b, rational=True)) == 0


def test_iv_phase_is_nag_modified():
    # from x_k and y_k = x_k + S v_k / c, the probe point of (x_k, v_k)
    y = x + S * v / K.c
    iv = STEPS["iv-phase"](K, x, y, v, G(y), None)
    nag = STEPS["nag-modified"](K, x, y, v, G(y), None)
    assert same(iv[0], nag[0])  # x_{k+1}
    assert same(iv[1], nag[1])  # y_{k+1}
    assert same(iv[2], nag[2])  # v_{k+1} = (x_{k+1} - x_k) / S


def test_gc_phase_is_gc_modified():
    # from y_k and y_{k-1} = y_k - S v_{k-1}
    y = x
    y_prev = y - S * v_prev
    phase = STEPS["gc-phase"](K, x, y, v_prev, G(y), G(y_prev))
    single = STEPS["gc-modified"](K, x, y, v, G(y), (y_prev, G(y_prev)))
    for got, want in zip(phase[:3], single[:3]):  # x_{k+1}, y_{k+1}, v_k
        assert same(got, want)
    # the next states are related again: y_k = y_{k+1} - S v_k, and both
    # carry grad f(y_k)
    y_next, v_now = phase[1], phase[2]
    assert same(single[3][0], y_next - S * v_now)
    assert single[3][1] == phase[3] == G(y)


@pytest.mark.parametrize("method", METHODS)
def test_symbolic_step_is_the_float_step(method):
    # each kernel on symbols, evaluated at numbers, is the kernel on floats
    mu, s = 0.3, 0.7
    g, g_prev, xv, yv, vv = 0.9, -0.4, 1.3, 0.6, -0.2
    carry = {"gc-phase": g_prev, "gc-modified": (yv - 0.5, g_prev)}.get(method)
    y, gs, gp, yp = sympy.symbols("y g g_prev y_prev", real=True)
    sym_carry = {"gc-phase": gp, "gc-modified": (yp, gp)}.get(method)
    symbolic = STEPS[method](K, x, y, v, gs, sym_carry)
    at = {S: np.sqrt(s), R: np.sqrt(mu * s), x: xv, y: yv, v: vv, gs: g,
          gp: g_prev, yp: yv - 0.5}
    numeric = STEPS[method](step_coefficients(mu, s), xv, yv, vv, g, carry)
    for got, want in zip(symbolic[:3], numeric[:3]):
        assert float(sympy.sympify(got).subs(at)) == pytest.approx(want,
                                                                   rel=1e-12)
