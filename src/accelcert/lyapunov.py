"""Discrete and continuous Lyapunov energies and contraction certificates.

Each energy E(k) is a plain float: the objective gap, plus a kinetic and
a mixed term that are each a quarter of a squared norm (of the scaled
velocity, and of a velocity/position combination), plus for the gc form
a negative gradient-norm term.  Each formula's docstring spells out its
terms.  The per-step contraction

    E(k+1) - E(k) <= -rho * E(k+1),  i.e.  E(k+1) <= E(k) / (1 + rho)

with rho = sqrt(mu s) / 4 certifies the geometric convergence rate of the
corresponding scheme for step sizes 0 < s <= 1/L; :func:`certify_contraction`
checks it as one margin scan (:func:`~accelcert.report.margin_report`).
:func:`require_form` decides which methods a form applies to, for this
module and for the config parser.
The continuous energy along the high-resolution ODE is the iv energy read
at the probe point X + sqrt(s) X' / c, so one formula serves both.  The
energies read mu from the objective; a weaker one is ``replace(f, mu=...)``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from .objectives import Objective, Vector, require_minimizer
from .optimizers import Trajectory, momentum_denominator, probe_point, run
from .report import CertReport, margin_report

if TYPE_CHECKING:
    from .hires_ode import OdeSolution

#: Trajectory methods each energy form applies to.
FORM_METHODS = {
    "gc": ("gc-phase", "gc-modified"),
    "iv": ("iv-phase", "nag-modified"),
}


def require_form(form: str, method: Optional[str] = None) -> tuple:
    """The methods the energy ``form`` applies to; ValueError for an unknown
    form, or one that does not apply to ``method`` if given."""
    # a tuple compares a config's array or object value instead of hashing it
    if form not in tuple(FORM_METHODS):
        raise ValueError(f"unknown form {form!r}; expected one of "
                         f"{tuple(FORM_METHODS)}")
    methods = FORM_METHODS[form]
    if method is not None and method not in methods:
        raise ValueError(f"form {form!r} applies to methods {methods}, "
                         f"not {method!r}")
    return methods


def _gc_energy(potential: float, g: Vector, y_next: Vector, v_k: Vector,
               xstar: Vector, s: float, mu: float) -> float:
    combo = v_k + 2.0 * math.sqrt(mu) * (y_next - xstar) + math.sqrt(s) * g
    return (potential + 0.25 * float(v_k @ v_k) + 0.25 * float(combo @ combo)
            - 0.5 * s * float(g @ g))


def lyap_gc(f: Objective, y_k: Vector, y_next: Vector, v_k: Vector,
            s: float) -> float:
    """Energy of the gradient-correction scheme at iteration k.

    E(k) = f(y_k) - f* + (1/4) ||v_k||^2
           + (1/4) ||v_k + 2 sqrt(mu) (y_{k+1} - x*) + sqrt(s) grad f(y_k)||^2
           - (s/2) ||grad f(y_k)||^2.

    For 0 < s <= 1/L the last term is dominated and E(k) >= 0.
    """
    require_minimizer(f)
    return _gc_energy(f.gap(y_k), f.grad(y_k), y_next, v_k, f.minimizer, s,
                      f.mu)


def _iv_energy(potential: float, v_next: Vector, x_next: Vector,
               xstar: Vector, s: float, mu: float) -> float:
    c = momentum_denominator(mu, s)
    combo = v_next + 2.0 * math.sqrt(mu) * (x_next - xstar)
    return (potential + 0.25 * float(v_next @ v_next) / (c * c)
            + 0.25 * float(combo @ combo))


def lyap_iv(f: Objective, y_k: Vector, v_next: Vector, x_next: Vector,
            s: float) -> float:
    """Energy of the implicit-velocity scheme at iteration k.

    E(k) = f(y_k) - f* + (1/4) ||v_{k+1}||^2 / (1 + 2 sqrt(mu s))^2
           + (1/4) ||v_{k+1} + 2 sqrt(mu) (x_{k+1} - x*)||^2.
    """
    require_minimizer(f)
    return _iv_energy(f.gap(y_k), v_next, x_next, f.minimizer, s, f.mu)


def lyap_ode(f: Objective, X: Vector, Xdot: Vector, s: float) -> float:
    """Continuous energy along the implicit-velocity differential equation.

    E(t) = f(X + sqrt(s) X' / c) - f* + (1/4) ||X'||^2 / c^2
           + (1/4) ||X' + 2 sqrt(mu) (X - x*)||^2,  c = 1 + 2 sqrt(mu s),

    which is :func:`lyap_iv` at (probe point, X', X).
    """
    return lyap_iv(f, probe_point(X, Xdot, s, f.mu), Xdot, X, s)


def ode_energies(solution: OdeSolution) -> np.ndarray:
    """E(t) of :func:`lyap_ode` at every sample of an integrated solution,
    on the objective and at the s it was integrated with.

    The potential is the solution's recorded ``f_gap`` column, so this
    makes no oracle call.
    """
    f, s = solution.objective, solution.s
    require_minimizer(f)
    xstar, mu = f.minimizer, f.mu
    return np.array([_iv_energy(gap, Xdot, X, xstar, s, mu)
                     for X, Xdot, gap in zip(solution.X, solution.Xdot,
                                             solution.f_gap.tolist())],
                    dtype=float)


def energies(trajectory: Trajectory, form: str) -> np.ndarray:
    """E(k) for k = 0..K-1 along a trajectory (E(k) needs the state after
    step k, so the last record has no energy).

    The trajectory must be one that :func:`~accelcert.optimizers.run`
    produced: the potential f(y_k) - f* is read from its recorded ``f_gap``
    column, which every method a form applies to records at y_k.  So the
    iv form makes no oracle call, and the gc form one gradient per k.
    """
    require_form(form, trajectory.method_id)
    f = trajectory.objective
    require_minimizer(f)
    s, mu = trajectory.s, f.mu
    xstar = f.minimizer
    gaps = trajectory.f_gap.tolist()
    ys, vs, xs = trajectory.ys, trajectory.vs, trajectory.xs
    K = trajectory.K
    out = np.empty(K)
    for k in range(K):
        if form == "gc":
            out[k] = _gc_energy(gaps[k], f.grad(ys[k]), ys[k + 1], vs[k + 1],
                                xstar, s, mu)
        else:
            out[k] = _iv_energy(gaps[k], vs[k + 1], xs[k + 1], xstar, s, mu)
    return out


def attach_energies(trajectory: Trajectory, form: str) -> np.ndarray:
    """Fill the trajectory's ``lyapunov`` column (NaN at the final record)
    and note its form in ``lyapunov_form``."""
    vals = energies(trajectory, form)
    col = np.full(len(trajectory), np.nan)
    col[: len(vals)] = vals
    trajectory.lyapunov = col
    trajectory.lyapunov_form = form
    return col


def initial_energy(f: Objective, x0: Vector, s: float, form: str,
                   convention: str = "scheme") -> float:
    """E(0) from the scheme's initial conditions: the first energy of a
    one-step run of the form's phase-space method.

    For the iv form, ``convention`` picks the first velocity v_1 entering
    E(0), as in :func:`~accelcert.optimizers.run`: "scheme"
    (-sqrt(s) grad f(x_0)), "zero" or "corollary" (2 sqrt(mu s) grad f(y_0)).
    The contraction certificate only inspects consecutive pairs and does
    not depend on the convention.
    """
    traj = run(f, require_form(form)[0], x0, s, 1, first_velocity=convention)
    return float(energies(traj, form)[0])


def certify_contraction(trajectory: Trajectory, form: str,
                        rho: Optional[float] = None,
                        slack_scale: float = 1e-10) -> CertReport:
    """Certify E(k+1) <= E(k) / (1 + rho) along a trajectory.

    ``rho`` defaults to sqrt(mu s) / 4.  The check carries absolute slack
    ``slack_scale * max(1, E(0))`` because the energy spans many orders of
    magnitude along a linearly converging run.  The report includes the
    worst implied per-step contraction factor max_k E(k+1)/E(k).  A
    ``lyapunov`` column that ``run`` attached in the same form is reused.
    """
    require_form(form, trajectory.method_id)
    if trajectory.lyapunov_form == form:
        e = trajectory.lyapunov[: trajectory.K]
    else:
        e = energies(trajectory, form)
    if rho is None:
        rho = math.sqrt(trajectory.objective.mu * trajectory.s) / 4.0
    slack = float(slack_scale * max(1.0, e[0] if len(e) else 1.0))
    # factors are only meaningful while the energy resolves above rounding
    # of its largest finite value (a diverging run's energies overflow)
    floor = 1e-13 * float(np.max(e[np.isfinite(e)], initial=0.0))
    resolved = e[:-1] > floor
    factors = e[1:][resolved] / e[:-1][resolved]
    details = {
        "rho": rho,
        "slack": slack,
        "worst_step_factor": float(np.fmax.reduce(factors, initial=0.0)),
        "guaranteed_factor": 1.0 / (1.0 + rho),
        "energy_nonnegative": bool(len(e) == 0 or e.min() >= -slack),
        "initial_energy": float(e[0]) if len(e) else np.nan,
    }
    return margin_report(f"contraction_{form}", e[:-1] / (1.0 + rho) - e[1:],
                         slack, details)
