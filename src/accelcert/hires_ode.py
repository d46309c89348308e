"""The implicit-velocity high-resolution differential equation.

Two equations are provided for the second-order dynamics in (position X,
velocity X'):

* ``simplified``:  X'' + 2 sqrt(mu) X' + grad f(X + sqrt(s) X' / c) = 0
* ``original``:    (1 + sqrt(mu s)) X'' + 2 sqrt(mu) X'
                   + c * grad f(X + sqrt(s) X' / c) = 0

with c = 1 + 2 sqrt(mu s) and s >= 0 (s = 0 is the low-resolution limit),
both started from X(0) = x_0, X'(0) = 0, with the gradient taken at
:func:`accelcert.optimizers.probe_point`.  The simplified equation is the
original with the coefficients 1 + sqrt(mu s) on X'' and c on the gradient
set to 1, so one formula serves both in :func:`integrate`; the two agree
to O(sqrt(s)).  The continuous convergence claim, the row
:data:`accelcert.analysis.CONTINUOUS`, is stated for the simplified
equation; :func:`check_continuous_bound` verifies it with two margin scans
(:func:`accelcert.report.margin_report`) over the samples.

Integration is fixed-step classical Runge-Kutta 4 on the first-order
system in (X, X'): the dynamics are smooth and non-stiff for the problems
treated here, and a fixed step keeps runs bit-deterministic for regression
tests.  :func:`integrate` returns an :class:`OdeSolution`, whose columns
hold t, X, X' and the objective gap at the probe point;
:func:`check_continuous_bound`, the continuous energy
:func:`accelcert.lyapunov.ode_energies` and the ODE CSV writer read that
recorded gap and make no oracle call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .analysis import CONTINUOUS
from .objectives import Objective, Vector, _operands
from .optimizers import (_blocks, _step_operands, as_start,
                         first_nonfinite_row)
from .lyapunov import ode_energies
from .report import CertReport, _slack, margin_report


@dataclass
class OdeState:
    """Continuous-time state: position X(t) and velocity X'(t)."""

    t: float
    X: Vector
    Xdot: Vector


@dataclass
class OdeSolution:
    """Samples of one integrated solution, stored column-wise.

    Row i holds the state at time ``t[i]``: position ``X[i]``, velocity
    ``Xdot[i]`` and ``f_gap[i]``, the objective gap at the probe point
    (NaN when the objective's minimum is unknown).  ``s``, ``which`` and
    ``objective`` (with its ``mu``) record how the solution was integrated.
    ``len``, indexing and iteration give :class:`OdeState` rows whose
    arrays are views into the columns.
    """

    t: np.ndarray
    X: np.ndarray
    Xdot: np.ndarray
    f_gap: np.ndarray
    s: float
    which: str
    objective: Objective = field(repr=False)

    def __len__(self) -> int:
        return self.t.shape[0]

    def __getitem__(self, i: int) -> OdeState:
        return OdeState(t=float(self.t[i]), X=self.X[i], Xdot=self.Xdot[i])

    def __iter__(self) -> Iterator[OdeState]:
        return (self[i] for i in range(len(self)))


class NonFiniteSolutionError(RuntimeError):
    """Integration produced a non-finite state; ``t`` is the failing time."""

    def __init__(self, t: float):
        super().__init__(f"integration produced a non-finite state at t={t:.6g}")
        self.t = t


EQUATIONS = ("simplified", "original")


def _flow(f: Objective, s: float, which: str):
    """(k, xddot): the :func:`~accelcert.optimizers.step_coefficients` of
    (f.mu, s) as 0-d operands, which
    :func:`~accelcert.optimizers.probe_point` takes, and
    X'' of the ``which`` equation as a function of X' and the gradient at
    the probe point:

        X'' = (-2 sqrt(mu) X' - gain * grad f(probe)) / mass,

    with (mass, gain) = (1 + sqrt(mu s), c) for the original equation and
    (1, 1), left out, for the simplified one.  ``xddot(Xdot, g, out)``
    writes X'' into ``out`` and returns it; with ``out`` None it returns a
    new array."""
    if which not in EQUATIONS:
        raise ValueError(f"unknown equation {which!r}; expected one of {EQUATIONS}")
    if not s >= 0:  # s = 0 is the low-resolution limit
        raise ValueError(f"s must be nonnegative, not {s!r}")
    k = _step_operands(f.mu, s)
    damping, = _operands(-2.0 * math.sqrt(f.mu))
    if which == "simplified":
        def xddot(Xdot: Vector, g: Vector, out=None) -> Vector:
            out = np.multiply(damping, Xdot, out=out)
            out -= g
            return out
    else:
        c, (mass,) = k.c, _operands(1.0 + k.r)

        def xddot(Xdot: Vector, g: Vector, out=None) -> Vector:
            out = np.multiply(damping, Xdot, out=out)
            out -= c * g
            out /= mass
            return out
    return k, xddot


def integrate(f: Objective, x0: Vector, s: float, T: float, h: float,
              which: str = "simplified") -> OdeSolution:
    """RK4 solution sampled at t = 0, h, 2h, ..., T from (x0, 0).

    The step ``h`` is required; resolving the sqrt(s)-scale correction
    term takes h well below sqrt(s).  T must be an integer multiple of h.
    ValueError unless x0 has shape (f.dim,).

    Each sample's probe point is also where the next step takes its
    first-stage gradient, so one fused value-and-gradient evaluation there
    gives both the recorded probe gap and that gradient: n steps make 3n
    gradient evaluations and n+1 fused ones.  With the minimum unknown the
    gaps are NaN, as in :func:`~accelcert.optimizers.run`.

    The stages are written in place into one (4, 3, d) stage buffer
    ``W``, with ``W[j] = (X_j, V_j, A_j)`` for stage j + 1: its state
    ``W[j, :2]`` is ``Z + a * W[j - 1, 1:]`` (a = h/2, h/2, h), where
    ``Z = W[0, :2]`` is the current (X, X'), and the step is
    ``Z += h/6 * (K1 + 2 K2 + 2 K3 + K4)`` over the slopes
    ``K_j = W[j - 1, 1:]``.  Every constant of the step is a 0-d operand
    (:func:`~accelcert.objectives._operands`).  Each operation, and the
    order of each sum up to commuting its two terms, is that of the
    textbook stage formulas, so the samples are bit-identical to them.

    A non-finite state raises :class:`NonFiniteSolutionError` with the
    time of the first sample after t = 0 whose X or X' is non-finite,
    checked once per block of ``optimizers._BLOCK_ROWS`` rows.
    """
    k, xddot = _flow(f, s, which)
    if not h > 0:
        raise ValueError("step size h must be positive")
    if T < 0:
        raise ValueError("horizon T must be nonnegative")
    x0 = as_start(f, x0)
    n = int(round(T / h)) if T > 0 else 0
    if n > 0 and abs(n * h - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"T={T} is not an integer multiple of h={h}")
    Xs = np.empty((n + 1,) + x0.shape)
    Vs = np.empty((n + 1,) + x0.shape)
    f_gap = np.empty(n + 1)  # raw values until the loop ends
    # the stage gradients stay on Objective.grad, which the benchmark's
    # tracer times and checks against its count of grad_fn calls
    grad = f.grad
    value_and_grad = f.value_and_grad_fn or f.value_and_grad
    root_s, c = k.root_s, k.c  # probe_point, X + root_s * V / c, inlined

    half, step, sixth, two = _operands(0.5 * h, h, h / 6.0, 2.0)
    # the stage buffer (see above); its views are made once, because
    # slicing W in the loop costs as much as the calls it saves
    W = np.empty((4, 3) + x0.shape)
    Z, (X, V, A1) = W[0, :2], W[0]
    X[...], V[...] = x0, 0.0
    # (a, stage j's slope, then stage j + 1's state and its X, V and A)
    stages = [(a, W[j - 1, 1:], W[j, :2], *W[j])
              for j, a in ((1, half), (2, half), (3, step))]
    K1, K2, K3, K4 = (W[j, 1:] for j in range(4))
    Xs[0] = X
    Vs[0] = V
    # steps lo..hi-1 fill rows lo+1..hi
    for steps in _blocks(n):
        lo, hi = steps.start, steps.stop
        for i in range(lo, hi):
            f_gap[i], g = value_and_grad(X + root_s * V / c)
            xddot(V, g, A1)
            for a, slope, state, Xj, Vj, Aj in stages:
                np.multiply(a, slope, out=state)
                state += Z
                xddot(Vj, grad(Xj + root_s * Vj / c), Aj)
            Z += sixth * (K1 + two * K2 + two * K3 + K4)
            Xs[i + 1] = X
            Vs[i + 1] = V
        bad = first_nonfinite_row(Xs[lo + 1:hi + 1], Vs[lo + 1:hi + 1])
        if bad is not None:
            raise NonFiniteSolutionError((lo + 1 + bad) * h)
    f_gap[n], _ = value_and_grad(X + root_s * V / c)
    f_gap -= np.nan if f.min_value is None else f.min_value
    return OdeSolution(t=np.arange(n + 1) * h, X=Xs, Xdot=Vs, f_gap=f_gap,
                       s=s, which=which, objective=f)


def require_integrated_with(solution: OdeSolution, f: Objective, s: float,
                            mu: float):
    """Raise ValueError unless ``solution`` was integrated on ``f`` at s and
    mu == f.mu, so that its recorded ``f_gap`` is the probe gap of ``f``."""
    if not (solution.objective is f and solution.s == s and mu == f.mu):
        raise ValueError("the solution was integrated with another objective "
                         "or (s, mu)")


def _exp(x: np.ndarray) -> np.ndarray:
    """exp elementwise through libm's ``math.exp``: ``np.exp`` can differ in
    the last bit, depending on the CPU's SIMD path."""
    return np.fromiter(map(math.exp, x.tolist()), dtype=float, count=len(x))


#: Relative slack of the envelope, times max(1, RHS(0)), and the absolute
#: slack on each energy ratio, of :func:`check_continuous_bound`.
BOUND_TOL = 1e-6
DECAY_TOL = 1e-8


def check_continuous_bound(solution: OdeSolution, f: Objective, s: float,
                           mu: float) -> CertReport:
    """Verify the continuous convergence claim, the row
    :data:`accelcert.analysis.CONTINUOUS`, along a solution.

    Checks, at every sample of a ``simplified``-equation solution started
    from rest at x_0, which :func:`integrate` returned for ``f`` at (s, mu)
    (anything else raises ValueError):

    * the objective-gap bound ``f(probe(t)) - f* <= RHS(0) exp(-rate t)``,
      where RHS(0) is the row's value at 0, with slack
      ``BOUND_TOL * max(1, RHS(0))``.  At t = 0 it reads f(x_0) - f* <=
      mu ||x_0 - x*||^2 (up to the slack), so from a start that breaks
      this the first sample fails;
    * the energy decay ``E(t+h) / E(t) <= exp(-rate h) + DECAY_TOL`` for
      consecutive samples, via :func:`accelcert.lyapunov.ode_energies`;
      pairs whose E(t) is at rounding level are not checked.

    ``worst_margin`` is the envelope's, and ``first_failure`` the
    envelope's first failure, else the decay's.  f(x_0) - f* is the first
    recorded gap, because the probe point at rest is x_0.
    """
    require_integrated_with(solution, f, s, mu)
    if solution.which not in CONTINUOUS.methods:
        raise ValueError("the continuous bound is stated for the simplified "
                         f"equation, not {solution.which!r}")
    if not solution:
        raise ValueError("empty solution")
    energies = ode_energies(solution)  # raises on an unresolved objective
    dist0_sq = float(np.sum((solution.X[0] - f.minimizer) ** 2))
    numerator = CONTINUOUS.start(float(solution.f_gap[0]), dist0_sq, mu,
                                 f.lipschitz)
    rate = CONTINUOUS.rate(mu, f.lipschitz, s)
    envelope = numerator * _exp(-rate * solution.t)
    bound = margin_report("bound", envelope - solution.f_gap,
                          _slack(BOUND_TOL, numerator))

    limit = _exp(-rate * np.diff(solution.t)) + DECAY_TOL
    # pairs whose first energy is at rounding level are not checked
    resolved = energies[:-1] > 1e-14 * max(1.0, energies[0])
    ratios = energies[1:][resolved] / energies[:-1][resolved]
    decay_margins = np.full(len(limit), np.inf)
    decay_margins[resolved] = limit[resolved] - ratios
    decay = margin_report("decay", decay_margins, 0.0)
    first = bound.first_failure
    return CertReport(
        name="continuous_bound", n_checked=len(solution),
        n_failed=bound.n_failed + decay.n_failed,
        worst_margin=bound.worst_margin,
        first_failure=decay.first_failure if first is None else first,
        details={"bound_failures": bound.n_failed,
                 "decay_failures": decay.n_failed,
                 "worst_energy_ratio": float(np.fmax.reduce(ratios, initial=0.0)),
                 "numerator": numerator})
