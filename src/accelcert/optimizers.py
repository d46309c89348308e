"""Iteration schemes: plain and momentum gradient methods as step kernels
on plain arrays, and ``run``, which steps them and records diagnostics.

Two families of momentum scheme are implemented in two algebraically
equivalent representations each, so that the rewritings can be checked
against one another:

* the two-sequence scheme
      x_{k+1} = y_k - s * grad f(y_k)
      y_{k+1} = x_{k+1} + (x_{k+1} - x_k) / (1 + 2 sqrt(mu s))
  and its phase-space form ``iv-phase`` with velocity
  v_k = (x_k - x_{k-1}) / sqrt(s), where the gradient is taken at the
  :func:`probe_point` x_k + sqrt(s) v_k / (1 + 2 sqrt(mu s)) = y_k;

* the single-sequence scheme ``gc-modified``
      y_{k+1} = y_k + (y_k - y_{k-1}) / c - (s/c) grad f(y_k)
               - (s/c) (grad f(y_k) - grad f(y_{k-1})),   c = 1 + 2 sqrt(mu s)
  whose last term is the gradient correction, and its phase-space form
  ``gc-phase`` with velocity v_k = (y_{k+1} - y_k) / sqrt(s).

Each method is one kernel in :data:`STEPS` that maps
(k, x, y, v, g, carry) to the next (x, y, v, carry) and calls no oracle:
k is the record of :func:`step_coefficients`, so a kernel does only
arithmetic, on floats, ``Fraction`` or sympy scalars alike (it holds no
float literal); g is the gradient at y_k, the point every method takes its
next gradient at (gd and heavy-ball return y_{k+1} = x_{k+1}); and
``carry`` is what a method keeps from the step before.  The first step
gets carry None, and each kernel seeds its own carry from it, so
:func:`run` steps every method the same way.  ``run`` passes k as 0-d
operands (:func:`~accelcert.objectives._operands`), on which a product of
two coefficients costs more than on floats, so the kernels keep such
products out of the step: heavy-ball squares m once per run, iv-phase
doubles the velocity rather than the coefficient, and gc-modified takes
s / c once a step.

The guarantees hold for step sizes in the window s <= 1/L, which
:func:`step_guaranteed` decides for ``run``, the bound curves and the
harness alike.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .objectives import Objective, Vector, _operands

#: The first velocities of ``iv-phase`` that :func:`run` takes.
FIRST_VELOCITY_CONVENTIONS = ("scheme", "corollary")


class StepCoefficients(NamedTuple):
    """The step size s, root_s = sqrt(s), r = sqrt(mu s), the momentum
    denominator c = 1 + 2 sqrt(mu s) of the modified schemes and the
    classic momentum m = (1 - sqrt(mu s)) / (1 + sqrt(mu s))."""

    s: float
    root_s: float
    r: float
    c: float
    m: float


def step_coefficients(mu: float, s: float) -> StepCoefficients:
    """The coefficients every scheme is written in, at (mu, s)."""
    r = math.sqrt(mu * s)
    return StepCoefficients(s, math.sqrt(s), r, 1.0 + 2.0 * r,
                            (1.0 - r) / (1.0 + r))


def _step_operands(mu: float, s: float) -> StepCoefficients:
    """:func:`step_coefficients` as 0-d operands
    (:func:`~accelcert.objectives._operands`), the record the hot loops
    step with."""
    return StepCoefficients(*_operands(*step_coefficients(mu, s)))


def probe_point(X: Vector, Xdot: Vector, k: StepCoefficients) -> Vector:
    """X + sqrt(s) X' / c, where the iv scheme (as y_k), its high-resolution
    flow and the continuous energy take the gradient."""
    return X + k.root_s * Xdot / k.c


def as_start(f: Objective, x0: Vector) -> Vector:
    """``x0`` as a float array; ValueError unless its shape is (f.dim,)."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (f.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, objective dimension is {f.dim}")
    return x0


def step_guaranteed(s: float, lipschitz: float) -> bool:
    """s <= 1/L, the step window of the guarantees, up to rounding of 1/L."""
    return s <= 1.0 / lipschitz * (1.0 + 1e-12)


def _gd(k, x, y, v, g, carry):
    """Vanilla gradient descent x_{k+1} = x_k - s grad f(x_k), with
    y_{k+1} = x_{k+1}; v is copied through unchanged."""
    x1 = x - k.s * g
    return x1, x1, v, carry


def _heavy_ball(k, x, y, v, g, carry):
    """Momentum baseline x_{k+1} = x_k - s grad f(x_k) + beta (x_k - x_{k-1})
    with the locally optimal quadratic tuning beta = m^2, with
    y_{k+1} = x_{k+1}; v is the previous displacement x_k - x_{k-1}.
    carry is beta: the first step (carry None) takes it and each step
    passes it on, so a run squares m once."""
    beta = k.m ** 2 if carry is None else carry
    x1 = x - k.s * g + beta * v
    return x1, x1, x1 - x, beta


def _nag_classic(k, x, y, v, g, carry):
    """Accelerated scheme with momentum (1 - sqrt(mu s)) / (1 + sqrt(mu s))."""
    x1 = y - k.s * g
    dx = x1 - x
    return x1, x1 + k.m * dx, dx / k.root_s, carry


def _nag_modified(k, x, y, v, g, carry):
    """Accelerated scheme with momentum 1 / (1 + 2 sqrt(mu s)); v is
    (x_{k+1} - x_k) / sqrt(s), for diagnostics."""
    x1 = y - k.s * g
    dx = x1 - x
    return x1, x1 + dx / k.c, dx / k.root_s, carry


def _gc_modified(k, x, y, v, g, carry):
    """Single-sequence gradient-correction scheme; carry is
    (y_{k-1}, grad f(y_{k-1})), and the first step (carry None) starts
    from the virtual y_{-1} = y_0 with grad f(y_{-1}) = grad f(y_0).  The
    new x is the gradient-step image x_{k+1} = y_k - s grad f(y_k) and the
    new v is (y_{k+1} - y_k) / sqrt(s).
    """
    y_prev, g_prev = (y, g) if carry is None else carry
    s, c = k.s, k.c
    s_c = s / c
    y1 = y + (y - y_prev) / c - s_c * g - s_c * (g - g_prev)
    return y - s * g, y1, (y1 - y) / k.root_s, (y, g)


def _gc_phase(k, x, y, v, g, carry):
    """Phase-space form of the gradient-correction scheme; v is v_{k-1} and
    carry is grad f(y_{k-1}), and the first step (carry None) starts from
    the virtual v_{-1} = 0 with grad f(y_{-1}) = grad f(y_0).  The
    velocity relation
        v_k - v_{k-1} = -2 sqrt(mu s) v_k
                        - sqrt(s) (grad f(y_k) - grad f(y_{k-1}))
                        - sqrt(s) grad f(y_k)
    is implicit in v_k; solving it in closed form gives
        v_k = (v_{k-1} - sqrt(s) (2 grad f(y_k) - grad f(y_{k-1}))) / c.
    The step returns (x_{k+1}, y_{k+1}, v_k, grad f(y_k)), where x_{k+1} =
    y_k - s grad f(y_k) is the gradient-step image, the sequence whose
    objective gap the convergence theorem for this scheme bounds.
    """
    g_prev = g if carry is None else carry
    v1 = (v - k.root_s * (g + g - g_prev)) / k.c
    return y - k.s * g, y + k.root_s * v1, v1, g


def _iv_phase(k, x, y, v, g, carry):
    """Phase-space form of the implicit-velocity scheme.

    Computes v_{k+1} first (the update is explicit),
        v_{k+1} = v_k - sqrt(mu s) (2 v_k) / c - sqrt(s) grad f(probe),
    then x_{k+1} = x_k + sqrt(s) v_{k+1}.  The probe point
    x_k + sqrt(s) v_k / c is exactly the y_k of the two-sequence scheme,
    and y_{k+1} is kept consistent with that identity:
    y_{k+1} = :func:`probe_point` of (x_{k+1}, v_{k+1}), so the next
    gradient is the next probe gradient.  A carry, when set, is the
    prescribed first velocity, taken as v_{k+1} instead of the recursion's.
    sqrt(mu s) (2 v_k) is the one rounding of the real product that
    (2 sqrt(mu s)) v_k also rounds once, so the two agree bit for bit
    unless 2 v_k overflows; the step takes no coefficient product.
    """
    if carry is None:
        v1 = v - k.r * (v + v) / k.c - k.root_s * g
    else:
        v1 = carry
    x1 = x + k.root_s * v1
    return x1, probe_point(x1, v1, k), v1, None


#: The step kernel of each method, (k, x, y, v, g, carry) ->
#: (x, y, v, carry); see the module docstring.
STEPS = {
    "gd": _gd,
    "heavy-ball": _heavy_ball,
    "nag-classic": _nag_classic,
    "nag-modified": _nag_modified,
    "gc-modified": _gc_modified,
    "gc-phase": _gc_phase,
    "iv-phase": _iv_phase,
}

METHODS = tuple(STEPS)

#: Rows per block.  ``run`` and ``hires_ode.integrate`` test the rows they
#: recorded for non-finite entries once per block instead of once per step,
#: where the test would cost as much as a step at small d, so a diverging
#: run steps on to the end of its block before it raises: the oracle may
#: see up to 255 more points past the first non-finite one, and those steps
#: may emit numpy RuntimeWarnings.  ``run`` takes the squared norms of a
#: block's gradients in one ``np.vecdot``, the BLAS dot product of
#: ``g @ g`` at each step, bit for bit.  The certificates evaluate their
#: column formulas and row-batched oracle calls a block at a time, because
#: over a whole column their (K, d) temporaries raise the peak memory of a
#: long run at large d.
_BLOCK_ROWS = 256


def _blocks(stop: int, start: int = 0):
    """Slices of at most ``_BLOCK_ROWS`` rows that cover rows start..stop-1."""
    for lo in range(start, stop, _BLOCK_ROWS):
        yield slice(lo, min(lo + _BLOCK_ROWS, stop))


def first_nonfinite_row(*blocks: np.ndarray) -> Optional[int]:
    """Index of the first row that holds a non-finite entry in any of the
    equally long 2-d ``blocks``, or None when every entry is finite."""
    finite = np.isfinite(blocks[0]).all(axis=1)
    for block in blocks[1:]:
        finite &= np.isfinite(block).all(axis=1)
    return None if finite.all() else int(finite.argmin())


class NonFiniteIterateError(RuntimeError):
    """A run produced a non-finite iterate; ``k`` is the failing step."""

    def __init__(self, method: str, k: int):
        super().__init__(f"{method} produced a non-finite iterate at step {k}")
        self.k = k


@dataclass
class Trajectory:
    """Ordered per-iteration records of one run, stored column-wise.

    Row k holds the state after k steps: iterate ``xs[k]``, gradient point
    ``ys[k]`` (y_k, which is x_k for gd and heavy-ball), velocity
    ``vs[k]``, and the objective gap ``f_gap[k]`` and squared gradient norm
    ``grad_sq[k]`` (``g @ g`` of the gradient g the state carries) at
    ``ys[k]``.  ``objective`` is the objective the run stepped on.
    ``lyapunov`` and ``bound`` are optional diagnostic columns (NaN where
    undefined) that :func:`accelcert.lyapunov.attach_energies` and
    :func:`accelcert.analysis.attach_bound` fill.
    """

    method_id: str
    s: float
    xs: np.ndarray
    ys: np.ndarray
    vs: np.ndarray
    f_gap: np.ndarray
    grad_sq: np.ndarray
    objective: Objective = field(repr=False)
    lyapunov: Optional[np.ndarray] = None
    bound: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.xs.shape[0]

    @property
    def K(self) -> int:
        """Number of steps taken (records run k = 0..K)."""
        return self.xs.shape[0] - 1

    @property
    def grad_norm(self) -> np.ndarray:
        """Gradient norm at each record: ``np.sqrt(grad_sq)``, bit-equal to
        ``np.linalg.norm`` of the carried gradient, which takes the root of
        the same dot product."""
        return np.sqrt(self.grad_sq)


def run(f: Objective, method: str, x0: Vector, s: float, K: int, *,
        first_velocity: str = "scheme") -> Trajectory:
    """Execute K steps of ``method`` on ``f`` from x_0 = y_0, v_0 = 0 and
    record diagnostics.

    ``first_velocity`` selects the first velocity of iv-phase: "scheme"
    follows the recursion, "corollary" prescribes v_1 = 2 sqrt(mu s)
    grad f(y_0); other methods ignore it.  K, the method,
    ``first_velocity``, x0 and s > 0 are checked, with ValueError, before
    any warning.

    The run makes one fused value-and-gradient evaluation per recorded
    point, at y_k (K+1 in all; separate evaluations of each without a
    fused oracle), records the gap and the gradient's squared norm, and
    passes the gradient to the next step.  A non-finite iterate raises
    :class:`NonFiniteIterateError` naming the first step k >= 1 whose x_k
    is non-finite, checked once per block of ``_BLOCK_ROWS`` rows.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if first_velocity not in FIRST_VELOCITY_CONVENTIONS:
        raise ValueError(f"unknown first_velocity {first_velocity!r}")
    x0 = as_start(f, x0)
    if not s > 0:
        raise ValueError("step size s must be positive")
    if not step_guaranteed(s, f.lipschitz):
        warnings.warn(
            f"step size s={s:.6g} exceeds 1/L={1.0 / f.lipschitz:.6g}; "
            "convergence bounds are not guaranteed", stacklevel=2)
    if method == "nag-classic" and f.mu * s > 1.0 + 1e-12:
        warnings.warn("nag-classic run with mu*s > 1; momentum coefficient "
                      "is negative", stacklevel=2)

    step = STEPS[method]
    k = _step_operands(f.mu, s)
    value_and_grad = f.value_and_grad_fn or f.value_and_grad
    xs = np.empty((K + 1, f.dim))
    ys = np.empty((K + 1, f.dim))
    vs = np.empty((K + 1, f.dim))
    f_gap = np.empty(K + 1)  # raw values until the loop ends
    grad_sq = np.empty(K + 1)

    x, y, v = x0.copy(), x0.copy(), np.zeros(f.dim)
    f_gap[0], g = value_and_grad(x0)
    carry = (2 * k.r * g if method == "iv-phase" and first_velocity == "corollary"
             else None)
    xs[0] = x
    ys[0] = y
    vs[0] = v
    grad_sq[0] = g @ g
    grads = np.empty((min(K, _BLOCK_ROWS), f.dim))  # the block's gradients

    for rows in _blocks(K + 1, start=1):
        lo = rows.start
        for i in range(lo, rows.stop):
            x, y, v, carry = step(k, x, y, v, g, carry)
            f_gap[i], g = value_and_grad(y)
            xs[i] = x
            ys[i] = y
            vs[i] = v
            grads[i - lo] = g
        bad = first_nonfinite_row(xs[rows])
        if bad is not None:
            raise NonFiniteIterateError(method, lo + bad)
        block = grads[:rows.stop - lo]
        grad_sq[rows] = np.vecdot(block, block)

    f_gap -= np.nan if f.min_value is None else f.min_value

    return Trajectory(
        method_id=method,
        s=s,
        xs=xs,
        ys=ys,
        vs=vs,
        f_gap=f_gap,
        grad_sq=grad_sq,
        objective=f,
    )
