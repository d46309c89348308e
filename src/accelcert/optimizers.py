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
operands (:func:`~accelcert.objectives._operands`), or as floats on its
lanes (:func:`_lane`), and on 0-d operands a product of two coefficients
costs more than on floats, so the kernels keep such products out of the
step: heavy-ball squares m once per run, iv-phase doubles the velocity
rather than the coefficient, and gc-modified takes s / c once a step.

The guarantees hold for step sizes in the window s <= 1/L, which
:func:`step_guaranteed` decides for ``run``, the bound curves and the
harness alike.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .objectives import (Objective, Vector, _checked_fused,
                         _diagonal_eigenvalues, _operands)

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
    """``x0`` as a float array; ValueError unless its shape is (f.dim,) and
    its entries are finite."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (f.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, objective dimension is {f.dim}")
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    return x0


def step_guaranteed(s: float, lipschitz: float) -> bool:
    """s <= 1/L, the step window of the guarantees, up to rounding of 1/L."""
    return s <= 1.0 / lipschitz * (1.0 + 1e-12)


def _gd(k, x, y, v, g, carry):
    """Vanilla gradient descent x_{k+1} = x_k - s grad f(x_k), with
    y_{k+1} = x_{k+1}; v is passed through unchanged."""
    x1 = x - k.s * g
    return x1, x1, v, carry


def _heavy_ball(k, x, y, v, g, carry):
    """Momentum baseline x_{k+1} = x_k - s grad f(x_k) + beta (x_k - x_{k-1})
    with the locally optimal quadratic tuning beta = m^2, with
    y_{k+1} = x_{k+1}; v is the previous displacement x_k - x_{k-1}.
    carry is beta: the first step (carry None) takes it and each step
    passes it on, so a run squares m once.  m * m is the correctly rounded
    square on every operand; Python's float ``m ** 2`` calls libm's
    ``pow``, which is not."""
    beta = k.m * k.m if carry is None else carry
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


#: The largest dimension that :func:`run` and ``hires_ode.integrate`` step
#: in the per-coordinate lane (:func:`_lane`).  ``tools/bench_kernels.py``
#: times both paths at d = 1, 2, 4, 8 and 12 (``BENCH_kernels.json``): at
#: d = 8 the lane takes 0.49-0.62 of the array path's time per ``run`` step,
#: by method, and 0.42 per RK4 step, and at d = 12 still 0.71-0.91 and
#: 0.61, so both crossovers lie above 12; no objective the acceptance gate
#: runs has 8 < d <= 12.
_LANE_MAX_DIM = 8

#: The largest dimension at which :func:`run` steps any other objective on
#: floats, in the coupled lane (:func:`_lane`), whatever the method.  On the
#: rotated quadratic (``BENCH_kernels.json``) the lane takes 0.48-1.17 of
#: the array path's time per step at d = 2, by method, 0.64-1.45 at d = 4
#: and 0.95-1.94 at d = 8; on the logistic, whose oracle costs the same on
#: both paths, 0.74-1.06 at d = 2 and 0.98-1.25 at d = 8.  The top of each
#: range is gd's, whose array step is two ufunc calls.
_COUPLED_LANE_MAX_DIM = 4


def _lane(f: Objective) -> Optional[tuple[float, ...]]:
    """The eigenvalues of ``f`` when :func:`run` and
    ``hires_ode.integrate`` step it in the per-coordinate lane, else None.

    The lane takes an objective of at most ``_LANE_MAX_DIM`` coordinates
    whose fused and row-batched oracles are
    :func:`~accelcert.objectives.make_quadratic`'s own diagonal ones, with
    eigenvalues lam_j (:func:`~accelcert.objectives._diagonal_eigenvalues`);
    replacing either sends a run off the lane.  On it every
    scheme splits into one scalar recursion per coordinate, whose gradient
    is lam_j y_j, so each coordinate is stepped on Python floats, a block
    of ``_BLOCK_ROWS`` rows at a time, and the block's rows are written
    into the records at once; numpy's dispatch, which dominates every
    operation on arrays of so few entries, is paid once a block.

    ``run`` steps any other objective of at most ``_COUPLED_LANE_MAX_DIM``
    coordinates on Python floats too, in the coupled lane: each step runs
    the kernel on every coordinate, calls the fused oracle on
    ``np.array(y)`` and passes its gradient on as floats, and a block's
    rows are written into the records at once.  numpy's dispatch is paid
    once a step for the oracle and once a block for the records.  Which
    path a run takes depends on the objective alone, not on the method.

    Both lanes record the same bits as the array path.  Python's float +,
    -, * and / are the correctly rounded IEEE double operations that
    numpy's float64 ufuncs apply elementwise, and each coordinate runs the
    same operations in the same order: ``run`` calls the same kernel of
    :data:`STEPS`, with the coefficients as floats, and ``integrate`` the
    textbook RK4 stages its in-place buffer is bit-identical to.  The
    coupled lane's oracle sees the array path's y and returns its gap and
    gradient.  The per-coordinate lane's gradient lam_j y_j is the fused
    oracle's ``lams * y`` entry.  A block's gaps come from the row-batched
    oracle, at ``run``'s y rows (:func:`_y_rows`) and at ``integrate``'s
    probes (:func:`probe_point`), and ``run`` records its gradients
    ``X * lams``, the same products; the gaps ``0.5 * np.vecdot(X, G)``
    and ``run``'s squared gradient norms ``np.vecdot(G, G)`` take each
    row's dot product with the BLAS ddot that the fused oracle's
    ``0.5 * float(y.dot(g))`` and ``g @ g`` call.  Only side effects
    differ: the per-coordinate lane evaluates the fused oracle once, not
    once a step, and the row-batched one once a block, and a run that
    overflows warns only from the numpy operations the lanes take once a
    block, not from their Python floats.
    """
    return _diagonal_eigenvalues(f) if f.dim <= _LANE_MAX_DIM else None


def _lane_steps(step, k, lane: list, n: int, record_y: bool,
                record_v: bool) -> tuple[list, ...]:
    """n steps of one coordinate of :func:`run`'s per-coordinate lane
    (:func:`_lane`).  ``lane`` is the coordinate's [lam, x, y, v, g,
    carry], on floats, and is advanced in place; returns the lists of the
    n new x, and of the n new y and v where the trajectory stores them
    (else None)."""
    lam, x, y, v, g, carry = lane
    xs = []
    ys = [] if record_y else None
    vs = [] if record_v else None
    for _ in range(n):
        x, y, v, carry = step(k, x, y, v, g, carry)
        g = lam * y
        xs.append(x)
        if record_y:
            ys.append(y)
        if record_v:
            vs.append(v)
    lane[1:] = x, y, v, g, carry
    return xs, ys, vs


def first_nonfinite_row(block: np.ndarray) -> Optional[int]:
    """Index of the first row (along the first axis) of ``block`` that holds
    a non-finite entry, or None when every entry is finite."""
    finite = np.isfinite(block).reshape(len(block), -1).all(axis=1)
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
    ``ys[k]``.  :func:`run` keeps only the columns that differ: for gd and
    heavy-ball ``ys`` is the ``xs`` array, gd's ``vs`` is a read-only
    view of one zero row, and iv-phase and gc-phase, whose y is fixed by
    x and v, store no y at all.  Constructed with ``ys=None``, a
    trajectory of one of those two methods rebuilds ``ys`` on each read as
    a read-only column, bit for bit the y of the kernel (:func:`_y_rows`).
    ``objective`` is the objective the run stepped on.
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


def _get_ys(self) -> np.ndarray:
    if self._ys is not None:
        return self._ys
    ys = _y_rows(self, slice(0, len(self)))
    ys.flags.writeable = False
    return ys


def _set_ys(self, ys: Optional[np.ndarray]):
    if ys is None and self.method_id not in _Y_REBUILT:
        raise ValueError(f"{self.method_id} cannot rebuild its y column")
    self._ys = ys


# a property of the field ``ys``, set after the class is made: in the class
# body it would be taken for the field's default
Trajectory.ys = property(_get_ys, _set_ys)

#: The methods whose y :func:`run` does not store, since x and v fix it.
_Y_REBUILT = frozenset({"iv-phase", "gc-phase"})


def _y_rows(traj: Trajectory, rows: slice,
            prev: Optional[np.ndarray] = None) -> np.ndarray:
    """Rows ``rows`` (a slice of step 1) of ``traj``'s y column: a view of
    the stored column, or, where ``run`` stored none, the rows rebuilt
    with the kernel's own operations, so bit for bit.  Row 0 is x_0 itself
    (the probe of (x_0, 0) would turn a -0.0 into +0.0).  For iv-phase, row
    k >= 1 is :func:`probe_point` of (x_k, v_k); for gc-phase, row k + 1 is
    y_k + sqrt(s) v_{k+1}, a scan, which ``np.add.accumulate`` takes in
    order, so a block that starts past row 0 takes ``prev``, the y row
    before it.  It is the one rebuild of a phase-space y: ``Trajectory.ys``
    and the gc energy read it, and :func:`run`'s per-coordinate lane takes
    a block's recorded gaps and gradients at its rows."""
    if traj._ys is not None:
        return traj._ys[rows]
    k = _step_operands(traj.objective.mu, traj.s)
    xs, vs = traj.xs[rows], traj.vs[rows]
    if traj.method_id == "iv-phase":
        ys = probe_point(xs, vs, k)
        if rows.start == 0:
            ys[0] = xs[0]
    else:
        ys = k.root_s * vs
        ys[0] = xs[0] if rows.start == 0 else prev + ys[0]
        np.add.accumulate(ys, axis=0, out=ys)
    return ys


def _records(step, k, x, y, v, g, carry) -> tuple[bool, bool]:
    """Whether the kernel ``step`` makes a y apart from its x and a new v,
    decided by one discarded call: a kernel that returns y as its x, or
    passes v through unchanged, does so at every step.  Then ``run``'s
    ``ys`` is the ``xs`` array, and ``vs`` a read-only view of the zero
    v_0."""
    x1, y1, v1, _ = step(k, x, y, v, g, carry)
    return y1 is not x1, v1 is not v


def run(f: Objective, method: str, x0: Vector, s: float, K: int, *,
        first_velocity: str = "scheme") -> Trajectory:
    """Execute K steps of ``method`` on ``f`` from x_0 = y_0, v_0 = 0 and
    record diagnostics.

    ``first_velocity`` selects the first velocity of iv-phase: "scheme"
    follows the recursion, "corollary" prescribes v_1 = 2 sqrt(mu s)
    grad f(y_0); other methods ignore it.  An integer K >= 0 (a bool is
    not one), the method, ``first_velocity``, a finite x0 of shape
    (f.dim,) and a finite s > 0 are checked, with ValueError, before any
    warning.

    The run makes one fused value-and-gradient evaluation per recorded
    point, at y_k (K+1 in all; separate evaluations of each without a
    fused oracle), records the gap and the gradient's squared norm, and
    passes the gradient to the next step.  The first evaluation, at y_0,
    is checked against the oracle contract: a real scalar value and a
    float64 gradient of shape (f.dim,), else ValueError.  For iv-phase
    and gc-phase the run stores no y: :attr:`Trajectory.ys` rebuilds it
    from ``xs`` and ``vs``.  A small objective steps on
    Python floats (:func:`_lane`), with the same bits: a diagonal
    quadratic one coordinate at a time, evaluating the fused oracle at y_0
    alone and the row-batched one at a block's y rows, and any other one
    every coordinate a step.  A
    non-finite iterate raises :class:`NonFiniteIterateError` naming the
    first step k >= 1 whose x_k is non-finite, checked once per block of
    ``_BLOCK_ROWS`` rows.
    """
    if isinstance(K, bool) or not isinstance(K, numbers.Integral):
        raise ValueError(f"K must be an integer, not {K!r}")
    K = int(K)  # a numpy integer would wrap at K + 1
    if K < 0:
        raise ValueError("K must be nonnegative")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if first_velocity not in FIRST_VELOCITY_CONVENTIONS:
        raise ValueError(f"unknown first_velocity {first_velocity!r}")
    x0 = as_start(f, x0)
    if not 0 < s < math.inf:
        raise ValueError(f"step size s must be positive and finite, not {s!r}")
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
    f_gap = np.empty(K + 1)  # raw values until the loop ends
    grad_sq = np.empty(K + 1)

    x, y, v = x0.copy(), x0.copy(), np.zeros(f.dim)
    f_gap[0], g = _checked_fused(value_and_grad(x0), f)
    carry = (2 * k.r * g if method == "iv-phase" and first_velocity == "corollary"
             else None)
    record_y, record_v = _records(step, k, x, y, v, g, carry)
    xs = np.empty((K + 1, f.dim))
    if method in _Y_REBUILT:
        ys = None  # Trajectory.ys rebuilds it from xs and vs
    else:
        ys = np.empty((K + 1, f.dim)) if record_y else xs
    store_y = record_y and ys is not None
    vs = (np.empty((K + 1, f.dim)) if record_v
          else np.broadcast_to(np.zeros(f.dim), (K + 1, f.dim)))
    xs[0] = x
    if store_y:
        ys[0] = y
    if record_v:
        vs[0] = v
    grad_sq[0] = g @ g
    traj = Trajectory(
        method_id=method,
        s=s,
        xs=xs,
        ys=ys,
        vs=vs,
        f_gap=f_gap,
        grad_sq=grad_sq,
        objective=f,
    )
    grads = np.empty((min(K, _BLOCK_ROWS), f.dim))  # the block's gradients
    lams = _lane(f)
    on_floats = lams is not None or f.dim <= _COUPLED_LANE_MAX_DIM
    if on_floats:  # the lane's state, a list of floats per coordinate
        k = step_coefficients(f.mu, s)
        x, y, v, g = x.tolist(), y.tolist(), v.tolist(), g.tolist()
        carry = [None] * f.dim if carry is None else carry.tolist()
        ks = repeat(k)
    if lams is not None:
        lanes = [list(state) for state in zip(lams, x, y, v, g, carry)]
        prev = x0  # the y row before the block, which _y_rows continues

    for rows in _blocks(K + 1, start=1):
        lo = rows.start
        block = grads[:rows.stop - lo]
        if not on_floats:
            for i in range(lo, rows.stop):
                x, y, v, carry = step(k, x, y, v, g, carry)
                f_gap[i], g = value_and_grad(y)
                xs[i] = x
                if store_y:
                    ys[i] = y
                if record_v:
                    vs[i] = v
                block[i - lo] = g
        elif lams is None:  # every coordinate a step, then the oracle
            # the block's rows, flat: numpy takes a flat list of floats
            # faster than a list of rows
            xr, yr, vr, gr, values = [], [], [], [], []
            for _ in range(len(block)):
                x, y, v, carry = zip(*map(step, ks, x, y, v, g, carry))
                value, g = value_and_grad(np.array(y))
                g = g.tolist()
                values.append(value)
                gr.extend(g)
                xr.extend(x)
                if store_y:
                    yr.extend(y)
                if record_v:
                    vr.extend(v)
            f_gap[rows] = values
            block[:] = np.reshape(gr, block.shape)
            xs[rows] = np.reshape(xr, block.shape)
            if store_y:
                ys[rows] = np.reshape(yr, block.shape)
            if record_v:
                vs[rows] = np.reshape(vr, block.shape)
        else:  # one coordinate at a time
            for j, lane in enumerate(lanes):
                xj, yj, vj = _lane_steps(step, k, lane, len(block),
                                         store_y, record_v)
                xs[rows, j] = xj
                if store_y:
                    ys[rows, j] = yj
                if record_v:
                    vs[rows, j] = vj
            Y = _y_rows(traj, rows, prev)
            f_gap[rows], block = f.value_and_grad_rows_fn(Y)
            prev = Y[-1]
        bad = first_nonfinite_row(xs[rows])
        if bad is not None:
            raise NonFiniteIterateError(method, lo + bad)
        grad_sq[rows] = np.vecdot(block, block)

    f_gap -= np.nan if f.min_value is None else f.min_value
    return traj
