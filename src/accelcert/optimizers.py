"""Iteration schemes: plain and momentum gradient methods with a uniform
single-step interface, plus a full-run driver that records diagnostics.

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

Every scheme makes exactly one fused value-and-gradient evaluation
(:meth:`~accelcert.objectives.Objective.value_and_grad`) per iteration.
A state carries the value and the gradient at its reference point (y_k
for the momentum family, x_k for gd and heavy-ball), which is where the
next step needs the gradient; a step consumes that gradient and
evaluates its successor's pair.  The previous gradient needed by the gc
family is carried too, never recomputed.  ``run`` records the objective
gap and the squared norm of the carried gradient at the reference point,
so K steps cost exactly K+1 fused evaluations, and certificates that
need either read the record instead of calling the oracles again.

The guarantees hold for step sizes in the window s <= 1/L, which
:func:`step_guaranteed` decides for ``run``, the bound curves and the
harness alike.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .objectives import Objective, Vector

#: Methods whose natural reference point for the objective gap is y_k.
NAG_FAMILY = ("nag-classic", "nag-modified", "gc-modified", "gc-phase", "iv-phase")

#: Supported conventions for the first velocity iterate of ``iv-phase``
#: (``scheme`` follows v_0 = 0 through the recursion; the others override
#: v_1 and exist only to probe the bound conventions empirically).
FIRST_VELOCITY_CONVENTIONS = ("scheme", "zero", "corollary")


def momentum_denominator(mu: float, s: float) -> float:
    """The coefficient 1 + 2 sqrt(mu s) shared by all modified schemes."""
    return 1.0 + 2.0 * math.sqrt(mu * s)


def probe_point(X: Vector, Xdot: Vector, s: float, mu: float) -> Vector:
    """X + sqrt(s) X' / (1 + 2 sqrt(mu s)), where the iv scheme (as y_k), its
    high-resolution flow and the continuous energy take the gradient."""
    return X + math.sqrt(s) * Xdot / momentum_denominator(mu, s)


def step_guaranteed(s: float, lipschitz: float) -> bool:
    """s <= 1/L, the step window of the guarantees, up to rounding of 1/L."""
    return s <= 1.0 / lipschitz * (1.0 + 1e-12)


@dataclass
class OptimizerState:
    """Per-iteration variables of one scheme.

    The meaning of ``v`` is method-specific: displacement / sqrt(s) for the
    momentum schemes, the raw previous displacement for heavy-ball, and
    unused (zero) for plain gradient descent.  ``value`` and ``grad`` are
    the objective value and gradient at the reference point; the next step
    descends along ``grad``, and ``run`` records ``value``.  The gc
    family also carries the previous gradient in ``grad_prev`` and, for
    ``gc-modified``, the previous iterate y_{k-1} in ``y_prev``.
    ``v_first``, when set, is the velocity the next ``iv-phase`` step takes
    instead of the recursion's; :func:`initial_state` sets it and checks s > 0.
    """

    x: Vector
    y: Vector
    v: Vector
    s: float
    grad: Vector
    value: float
    grad_prev: Optional[Vector] = None
    y_prev: Optional[Vector] = None
    v_first: Optional[Vector] = None


def gd_step(f: Objective, state: OptimizerState) -> OptimizerState:
    """Vanilla gradient descent x_{k+1} = x_k - s grad f(x_k).

    y and v are copied through unchanged.
    """
    x1 = state.x - state.s * state.grad
    value, grad = f.value_and_grad(x1)
    return OptimizerState(x=x1, y=state.y, v=state.v, s=state.s, grad=grad,
                          value=value)


def default_heavy_ball_beta(mu: float, s: float) -> float:
    """Locally optimal quadratic tuning ((1 - sqrt(mu s)) / (1 + sqrt(mu s)))^2."""
    r = math.sqrt(mu * s)
    return ((1.0 - r) / (1.0 + r)) ** 2


def heavy_ball_step(f: Objective, state: OptimizerState) -> OptimizerState:
    """Momentum baseline x_{k+1} = x_k - s grad f(x_k) + beta (x_k - x_{k-1})
    with beta = :func:`default_heavy_ball_beta`.

    The previous displacement x_k - x_{k-1} is carried in ``v``.
    """
    beta = default_heavy_ball_beta(f.mu, state.s)
    x1 = state.x - state.s * state.grad + beta * state.v
    value, grad = f.value_and_grad(x1)
    return OptimizerState(x=x1, y=state.y, v=x1 - state.x, s=state.s,
                          grad=grad, value=value)


def nag_classic_step(f: Objective, state: OptimizerState) -> OptimizerState:
    """Accelerated scheme with momentum (1 - sqrt(mu s)) / (1 + sqrt(mu s))."""
    s = state.s
    r = math.sqrt(f.mu * s)
    x1 = state.y - s * state.grad
    y1 = x1 + ((1.0 - r) / (1.0 + r)) * (x1 - state.x)
    value, grad = f.value_and_grad(y1)
    return OptimizerState(x=x1, y=y1, v=(x1 - state.x) / math.sqrt(s),
                          s=s, grad=grad, value=value)


def nag_modified_step(f: Objective, state: OptimizerState) -> OptimizerState:
    """Accelerated scheme with momentum 1 / (1 + 2 sqrt(mu s)).

    v is maintained as (x_{k+1} - x_k) / sqrt(s) for diagnostics.
    """
    s = state.s
    x1 = state.y - s * state.grad
    y1 = x1 + (x1 - state.x) / momentum_denominator(f.mu, s)
    value, grad = f.value_and_grad(y1)
    return OptimizerState(x=x1, y=y1, v=(x1 - state.x) / math.sqrt(s),
                          s=s, grad=grad, value=value)


def gc_modified_step(f: Objective, state: OptimizerState) -> OptimizerState:
    """One step of the single-sequence gradient-correction scheme.

    The state carries y_k in ``y``, y_{k-1} in ``y_prev`` and
    grad f(y_{k-1}) in ``grad_prev``.  The successor's ``x`` is the
    gradient-step image x_{k+1} = y_k - s grad f(y_k) and its ``v`` is
    (y_{k+1} - y_k) / sqrt(s).
    """
    if state.y_prev is None or state.grad_prev is None:
        raise ValueError("gc-modified state must carry the previous iterate "
                         "and its gradient")
    s = state.s
    c = momentum_denominator(f.mu, s)
    g = state.grad
    y1 = (state.y + (state.y - state.y_prev) / c - (s / c) * g
          - (s / c) * (g - state.grad_prev))
    value, grad = f.value_and_grad(y1)
    return OptimizerState(x=state.y - s * g, y=y1,
                          v=(y1 - state.y) / math.sqrt(s), s=s,
                          grad_prev=g, grad=grad, value=value, y_prev=state.y)


def gc_phase_step(f: Objective, state: OptimizerState) -> OptimizerState:
    """Phase-space form of the gradient-correction scheme.

    The state carries y_k in ``y``, v_{k-1} in ``v`` and grad f(y_{k-1}) in
    ``grad_prev``.  The velocity relation
        v_k - v_{k-1} = -2 sqrt(mu s) v_k
                        - sqrt(s) (grad f(y_k) - grad f(y_{k-1}))
                        - sqrt(s) grad f(y_k)
    is implicit in v_k; solving it in closed form gives
        v_k = (v_{k-1} - sqrt(s) (2 grad f(y_k) - grad f(y_{k-1}))) / c.
    The successor carries (y_{k+1}, v_k, grad f(y_k)); its ``x`` is the
    gradient-step image x_{k+1} = y_k - s grad f(y_k), the sequence whose
    objective gap the convergence theorem for this scheme bounds.
    """
    if state.grad_prev is None:
        raise ValueError("gc-phase state must carry the cached previous gradient")
    s = state.s
    c = momentum_denominator(f.mu, s)
    g = state.grad
    v1 = (state.v - math.sqrt(s) * (2.0 * g - state.grad_prev)) / c
    y1 = state.y + math.sqrt(s) * v1
    x1 = state.y - s * g
    value, grad = f.value_and_grad(y1)
    return OptimizerState(x=x1, y=y1, v=v1, s=s, grad_prev=g, grad=grad,
                          value=value)


def iv_phase_step(f: Objective, state: OptimizerState) -> OptimizerState:
    """Phase-space form of the implicit-velocity scheme.

    Computes v_{k+1} first (the update is explicit),
        v_{k+1} = v_k - 2 sqrt(mu s) v_k / c - sqrt(s) grad f(probe),
    then x_{k+1} = x_k + sqrt(s) v_{k+1}.  The probe point
    x_k + sqrt(s) v_k / c is exactly the y_k of the two-sequence scheme,
    and the successor's ``y`` is kept consistent with that identity:
    y_{k+1} = :func:`probe_point` of (x_{k+1}, v_{k+1}), so the successor's
    gradient is the next probe gradient.
    A state with ``v_first`` set takes that velocity as v_{k+1}.
    """
    s = state.s
    c = momentum_denominator(f.mu, s)
    if state.v_first is not None:
        v1 = state.v_first
    else:
        v1 = (state.v - 2.0 * math.sqrt(f.mu * s) * state.v / c
              - math.sqrt(s) * state.grad)
    x1 = state.x + math.sqrt(s) * v1
    y1 = probe_point(x1, v1, s, f.mu)
    value, grad = f.value_and_grad(y1)
    return OptimizerState(x=x1, y=y1, v=v1, s=s, grad=grad, value=value)


#: The step function of each method; all map ``(f, state)`` to the successor.
STEPS = {
    "gd": gd_step,
    "heavy-ball": heavy_ball_step,
    "nag-classic": nag_classic_step,
    "nag-modified": nag_modified_step,
    "gc-modified": gc_modified_step,
    "gc-phase": gc_phase_step,
    "iv-phase": iv_phase_step,
}

METHODS = tuple(STEPS)


def initial_state(f: Objective, method: str, x0: Vector, s: float,
                  first_velocity: str = "scheme") -> OptimizerState:
    """State at k = 0 for the given method, carrying f(x_0) and grad f(x_0)
    from one fused evaluation.

    For the gc family the phase recursion is seeded with a virtual
    v_{-1} = 0, y_{-1} = y_0 and grad f(y_{-1}) = grad f(y_0), which
    reproduces the scheme's initial velocity v_0 = -sqrt(s) grad f(x_0) / c
    after the first step (and hence y_1 = x_0 - s grad f(x_0) / c).

    For ``iv-phase``, a ``first_velocity`` other than "scheme" prescribes
    v_1 instead of following the recursion from v_0 = 0: "zero" takes
    v_1 = 0 and "corollary" v_1 = 2 sqrt(mu s) grad f(y_0).  Other methods
    ignore it.  ValueError unless s > 0.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if first_velocity not in FIRST_VELOCITY_CONVENTIONS:
        raise ValueError(f"unknown first_velocity {first_velocity!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (f.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, objective dimension is {f.dim}")
    if not s > 0:
        raise ValueError("step size s must be positive")
    value, g0 = f.value_and_grad(x0)
    state = OptimizerState(x=x0.copy(), y=x0.copy(), v=np.zeros(f.dim), s=s,
                           grad=g0, value=value)
    if method in ("gc-phase", "gc-modified"):
        state.grad_prev = g0
        state.y_prev = state.y
    elif method == "iv-phase" and first_velocity == "zero":
        state.v_first = np.zeros(f.dim)
    elif method == "iv-phase" and first_velocity == "corollary":
        state.v_first = 2.0 * math.sqrt(f.mu * s) * g0
    return state


class NonFiniteIterateError(RuntimeError):
    """A run produced a non-finite iterate; ``k`` is the failing step."""

    def __init__(self, method: str, k: int):
        super().__init__(f"{method} produced a non-finite iterate at step {k}")
        self.k = k


@dataclass
class Trajectory:
    """Ordered per-iteration records of one run, stored column-wise.

    Row k holds the state after k steps: iterate ``xs[k]``, reference point
    ``ys[k]``, velocity ``vs[k]``, and the objective gap ``f_gap[k]`` and
    squared gradient norm ``grad_sq[k]`` (``g @ g`` of the gradient g the
    state carries) at the method's natural reference point (y_k for the
    momentum family, x_k for gd and heavy-ball).  ``objective`` is the
    objective the run stepped on.  ``lyapunov`` and ``bound`` are optional
    diagnostic columns (NaN where undefined); ``lyapunov_form`` names the
    energy form the ``lyapunov`` column holds.
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
    lyapunov_form: Optional[str] = None
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

    @property
    def reference(self) -> str:
        """The sequence, "y" or "x", that ``f_gap`` and ``grad_sq`` are
        recorded at."""
        return "y" if self.method_id in NAG_FAMILY else "x"


def run(f: Objective, method: str, x0: Vector, s: float, K: int, *,
        first_velocity: str = "scheme") -> Trajectory:
    """Execute K steps of ``method`` on ``f`` and record diagnostics.

    ``first_velocity`` selects the convention for the first velocity
    iterate of iv-phase; anything but "scheme" deliberately overrides the
    recursion at k = 0 and exists to probe the initial-energy conventions.
    The ``lyapunov`` and ``bound`` columns are filled afterwards by
    :func:`accelcert.lyapunov.attach_energies` and
    :func:`accelcert.analysis.attach_bound`.

    The run itself makes K+1 fused value-and-gradient evaluations, one
    per recorded point: the record reads the value and the gradient's
    squared norm, and the next step descends along the gradient.  An
    objective without a fused oracle makes K+1 separate evaluations of
    each instead.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    if not step_guaranteed(s, f.lipschitz):
        warnings.warn(
            f"step size s={s:.6g} exceeds 1/L={1.0 / f.lipschitz:.6g}; "
            "convergence bounds are not guaranteed", stacklevel=2)
    if method == "nag-classic" and f.mu * s > 1.0 + 1e-12:
        warnings.warn("nag-classic run with mu*s > 1; momentum coefficient "
                      "is negative", stacklevel=2)

    state = initial_state(f, method, x0, s, first_velocity)
    step = STEPS[method]

    xs = np.empty((K + 1, f.dim))
    ys = np.empty((K + 1, f.dim))
    vs = np.empty((K + 1, f.dim))
    f_gap = np.empty(K + 1)
    grad_sq = np.empty(K + 1)
    have_min = f.min_value is not None

    def record(i: int, st: OptimizerState):
        xs[i] = st.x
        ys[i] = st.y
        vs[i] = st.v
        f_gap[i] = st.value - f.min_value if have_min else np.nan
        grad_sq[i] = st.grad @ st.grad

    record(0, state)
    for k in range(K):
        state = step(f, state)
        if not np.all(np.isfinite(state.x)):
            raise NonFiniteIterateError(method, k + 1)
        record(k + 1, state)

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
