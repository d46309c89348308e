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
from .objectives import Objective, Vector, _checked_fused, _operands
from .optimizers import (_blocks, _lane, _step_operands, as_start,
                         first_nonfinite_row, step_coefficients)
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
    (NaN when the objective's minimum is unknown).  ``X`` and ``Xdot`` are
    the two views of one (n+1, 2, d) record, into which :func:`integrate`
    writes each sample's (X, X') at once.  ``s``, ``which`` and
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
    """(k, xddot, accel): the
    :func:`~accelcert.optimizers.step_coefficients` of (f.mu, s) as 0-d
    operands, which :func:`~accelcert.optimizers.probe_point` takes, and
    X'' of the ``which`` equation as a function of X' and the gradient at
    the probe point:

        X'' = (-2 sqrt(mu) X' - gain * grad f(probe)) / mass,

    with (mass, gain) = (1 + sqrt(mu s), c) for the original equation and
    (1, 1), left out, for the simplified one.  ``xddot(Xdot, g, out)``
    writes X'' into ``out`` and returns it; with ``out`` None it returns a
    new array.  ``accel(v, g)`` is the same formula on the floats of one
    coordinate, for the per-coordinate lane
    (:func:`~accelcert.optimizers._lane`); its gain and mass of 1.0 on the
    simplified equation multiply and divide exactly, so it has xddot's
    bits.  ValueError unless ``which`` is one of :data:`EQUATIONS` and s
    is finite and >= 0."""
    if which not in EQUATIONS:
        raise ValueError(f"unknown equation {which!r}; expected one of {EQUATIONS}")
    if not 0 <= s < math.inf:  # s = 0 is the low-resolution limit
        raise ValueError(f"s must be nonnegative and finite, not {s!r}")
    k = _step_operands(f.mu, s)
    damping = -2.0 * math.sqrt(f.mu)
    gain, mass = ((1.0, 1.0) if which == "simplified"
                  else (float(k.c), 1.0 + float(k.r)))

    def accel(v: float, g: float) -> float:
        return (damping * v - gain * g) / mass

    damping_op, gain_op, mass_op = _operands(damping, gain, mass)
    if which == "simplified":
        def xddot(Xdot: Vector, g: Vector, out=None) -> Vector:
            out = np.multiply(damping_op, Xdot, out=out)
            out -= g
            return out
    else:
        def xddot(Xdot: Vector, g: Vector, out=None) -> Vector:
            out = np.multiply(damping_op, Xdot, out=out)
            out -= gain_op * g
            out /= mass_op
            return out
    return k, xddot, accel


def _rk4_lane(lam: float, x: float, v: float, n: int, k, accel,
              h: float) -> tuple[list, list]:
    """n RK4 steps of one coordinate of :func:`integrate`'s lane
    (:func:`~accelcert.optimizers._lane`) from (x, v), with the
    :func:`~accelcert.optimizers.step_coefficients` record k and
    :func:`_flow`'s accel: the textbook stages, whose stage state is
    ``a * slope + (x, v)`` and whose probe is ``x + root_s * v / c``.
    Returns the lists of the n new x and v.  It computes on the scalars it
    is given, as the kernels do: on floats ``h / 2``, ``h / 6`` and the
    integer 2 give the bits of 0.5 * h, h / 6.0 and 2.0, and on Fractions,
    with an accel on Fractions, it is the exact RK4 map."""
    root_s, c, half, sixth = k.root_s, k.c, h / 2, h / 6
    xs, vs = [], []
    for _ in range(n):
        a1 = accel(v, lam * (x + root_s * v / c))
        x2, v2 = half * v + x, half * a1 + v
        a2 = accel(v2, lam * (x2 + root_s * v2 / c))
        x3, v3 = half * v2 + x, half * a2 + v
        a3 = accel(v3, lam * (x3 + root_s * v3 / c))
        x4, v4 = h * v3 + x, h * a3 + v
        a4 = accel(v4, lam * (x4 + root_s * v4 / c))
        x = x + sixth * (v + 2 * v2 + 2 * v3 + v4)
        v = v + sixth * (a1 + 2 * a2 + 2 * a3 + a4)
        xs.append(x)
        vs.append(v)
    return xs, vs


def integrate(f: Objective, x0: Vector, s: float, T: float, h: float,
              which: str = "simplified") -> OdeSolution:
    """RK4 solution sampled at t = 0, h, 2h, ..., T from (x0, 0).

    The step ``h`` is required; resolving the sqrt(s)-scale correction
    term takes h well below sqrt(s).  T must be an integer multiple of h.
    ValueError, before any warning, unless s, T and h are finite, h > 0,
    T >= 0 and x0 has shape (f.dim,).

    Each sample's probe point is also where the next step takes its
    first-stage gradient, so one fused value-and-gradient evaluation there
    gives both the recorded probe gap and that gradient: n steps make 3n
    gradient evaluations and n+1 fused ones.  With the minimum unknown the
    gaps are NaN, as in :func:`~accelcert.optimizers.run`.  The first and
    the last fused call are checked against the oracle contract, with
    ValueError (:func:`~accelcert.objectives._checked_fused`).

    The stages are written in place into one (4, 3, d) stage buffer
    ``W``, with ``W[j] = (X_j, V_j, A_j)`` for stage j + 1: its state
    ``W[j, :2]`` is ``Z + a * W[j - 1, 1:]`` (a = h/2, h/2, h), where
    ``Z = W[0, :2]`` is the current (X, X'), and the step is
    ``Z += h/6 * (K1 + 2 K2 + 2 K3 + K4)`` over the slopes
    ``K_j = W[j - 1, 1:]``.  Every constant of the step is a 0-d operand
    (:func:`~accelcert.objectives._operands`).  Each operation, and the
    order of each sum up to commuting its two terms, is that of the
    textbook stage formulas, so the samples are bit-identical to them.  A
    small diagonal quadratic takes the per-coordinate lane
    (:func:`~accelcert.optimizers._lane`), which runs those formulas on
    floats, records the same bits and evaluates the oracle only at the
    last sample.

    A non-finite state raises :class:`NonFiniteSolutionError` with the
    time of the first sample after t = 0 whose X or X' is non-finite,
    checked once per block of ``optimizers._BLOCK_ROWS`` rows.
    """
    k, xddot, accel = _flow(f, s, which)
    if not 0 < h < math.inf:
        raise ValueError(f"step size h must be positive and finite, not {h!r}")
    if not 0 <= T < math.inf:
        raise ValueError(f"horizon T must be nonnegative and finite, not {T!r}")
    x0 = as_start(f, x0)
    n = round(T / h)
    if abs(n * h - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"T={T} is not an integer multiple of h={h}")
    rec = np.empty((n + 1, 2) + x0.shape)  # row i is (X, X') at sample i
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
    rec[0] = Z
    lams = _lane(f)
    lane_k = step_coefficients(f.mu, s)
    # steps lo..hi-1 fill rows lo+1..hi
    for steps in _blocks(n):
        lo, hi = steps.start, steps.stop
        if lams is None:
            for i in range(lo, hi):
                result = value_and_grad(X + root_s * V / c)
                f_gap[i], g = result if i else _checked_fused(result, f)
                xddot(V, g, A1)
                for a, slope, state, Xj, Vj, Aj in stages:
                    np.multiply(a, slope, out=state)
                    state += Z
                    xddot(Vj, grad(Xj + root_s * Vj / c), Aj)
                Z += sixth * (K1 + two * K2 + two * K3 + K4)
                rec[i + 1] = Z
        else:  # each coordinate starts from its last recorded sample
            for j, lam in enumerate(lams):
                rec[lo + 1:hi + 1, 0, j], rec[lo + 1:hi + 1, 1, j] = _rk4_lane(
                    lam, *rec[lo, :, j].tolist(), hi - lo, lane_k, accel, h)
        bad = first_nonfinite_row(rec[lo + 1:hi + 1])
        if bad is not None:
            raise NonFiniteSolutionError((lo + 1 + bad) * h)
        if lams is not None:
            probes = rec[lo:hi, 0] + root_s * rec[lo:hi, 1] / c
            f_gap[steps] = 0.5 * np.vecdot(probes, probes * lams)
    Xn, Vn = rec[n]
    f_gap[n], _ = _checked_fused(value_and_grad(Xn + root_s * Vn / c), f)
    f_gap -= np.nan if f.min_value is None else f.min_value
    return OdeSolution(t=np.arange(n + 1) * h, X=rec[:, 0], Xdot=rec[:, 1],
                       f_gap=f_gap, s=s, which=which, objective=f)


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
    recorded gap, because the probe point at rest is x_0; ``details``
    gives it as ``start_gap`` and mu ||x_0 - x*||^2 as
    ``start_mu_dist_sq``, the two sides of the start condition.
    """
    require_integrated_with(solution, f, s, mu)
    if solution.which not in CONTINUOUS.methods:
        raise ValueError("the continuous bound is stated for the simplified "
                         f"equation, not {solution.which!r}")
    if not solution:
        raise ValueError("empty solution")
    energies = ode_energies(solution)  # raises on an unresolved objective
    gap0 = float(solution.f_gap[0])
    dist0_sq = float(np.sum((solution.X[0] - f.minimizer) ** 2))
    numerator = CONTINUOUS.start(gap0, dist0_sq, mu, f.lipschitz)
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
                 "numerator": numerator, "start_gap": gap0,
                 "start_mu_dist_sq": mu * dist0_sq})
