"""Discrete and continuous Lyapunov energies and contraction certificates.

:func:`energies` and :func:`ode_energies` evaluate each energy as a
formula on recorded columns, a block of rows at a time: the objective gap,
plus a kinetic and a mixed term that are each a quarter of a squared norm,
plus for the gc form a negative gradient-norm term.  The continuous energy
along the high-resolution ODE is the iv energy read at the probe point
X + sqrt(s) X' / c.  The energies read mu from the objective; a weaker one
is ``replace(f, mu=...)``.  The per-step contraction

    E(k+1) - E(k) <= -rho * E(k+1),  i.e.  E(k+1) <= E(k) / (1 + rho)

with rho = sqrt(mu s) / 4 certifies the geometric convergence rate of the
corresponding scheme for step sizes 0 < s <= 1/L; :func:`certify_contraction`
checks it as one margin scan (:func:`~accelcert.report.margin_report`).
:func:`require_form` decides which methods a form applies to, for this
module and for the config parser.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from .objectives import Objective, Vector, require_minimizer
from .optimizers import (StepCoefficients, Trajectory, _blocks, run,
                         step_coefficients)
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


def _gc_energy(potential: np.ndarray, G: np.ndarray, Y_next: np.ndarray,
               V: np.ndarray, xstar: Vector, k: StepCoefficients,
               mu: float) -> np.ndarray:
    combo = V + 2.0 * math.sqrt(mu) * (Y_next - xstar) + k.root_s * G
    return (potential + 0.25 * np.vecdot(V, V) + 0.25 * np.vecdot(combo, combo)
            - 0.5 * k.s * np.vecdot(G, G))


def _iv_energy(potential: np.ndarray, V: np.ndarray, X: np.ndarray,
               xstar: Vector, k: StepCoefficients, mu: float) -> np.ndarray:
    combo = V + 2.0 * math.sqrt(mu) * (X - xstar)
    return (potential + 0.25 * np.vecdot(V, V) / (k.c * k.c)
            + 0.25 * np.vecdot(combo, combo))


def ode_energies(solution: OdeSolution) -> np.ndarray:
    """Continuous energy E(t) at every sample of an integrated solution, on
    the objective and at the s it was integrated with:

        E(t) = f(X + sqrt(s) X' / c) - f* + (1/4) ||X'||^2 / c^2
               + (1/4) ||X' + 2 sqrt(mu) (X - x*)||^2,  c = 1 + 2 sqrt(mu s),

    the iv energy of :func:`energies` at (probe point, X', X).  The
    potential is the solution's recorded ``f_gap`` column, so this makes
    no oracle call.
    """
    f = solution.objective
    require_minimizer(f)
    k = step_coefficients(f.mu, solution.s)
    out = np.empty(len(solution))
    for rows in _blocks(len(out)):
        out[rows] = _iv_energy(solution.f_gap[rows], solution.Xdot[rows],
                               solution.X[rows], f.minimizer, k, f.mu)
    return out


def energies(trajectory: Trajectory, form: str) -> np.ndarray:
    """E(k) for k = 0..K-1 along a trajectory (E(k) needs the state after
    step k, so the last record has no energy).  With g_k = grad f(y_k):

    gc: E(k) = f(y_k) - f* + (1/4) ||v_k||^2
               + (1/4) ||v_k + 2 sqrt(mu) (y_{k+1} - x*) + sqrt(s) g_k||^2
               - (s/2) ||g_k||^2,

    where v_k is the velocity recorded after step k (``vs[k + 1]``), and
    for 0 < s <= 1/L the last term is dominated, so E(k) >= 0;

    iv: E(k) = f(y_k) - f* + (1/4) ||v_{k+1}||^2 / (1 + 2 sqrt(mu s))^2
               + (1/4) ||v_{k+1} + 2 sqrt(mu) (x_{k+1} - x*)||^2.

    The trajectory must be one that :func:`~accelcert.optimizers.run`
    produced: the potential f(y_k) - f* is read from its recorded ``f_gap``
    column, which every run records at y_k.  So the
    iv form makes no oracle call.  The gc form takes g_k, which the run
    does not record, from one row-batched oracle call
    (:meth:`~accelcert.objectives.Objective.value_and_grad_rows`) per
    block of 256 rows; it matches the per-row gradient up to rounding.
    """
    require_form(form, trajectory.method_id)
    f = trajectory.objective
    require_minimizer(f)
    k, mu, xstar = step_coefficients(f.mu, trajectory.s), f.mu, f.minimizer
    gaps, ys, vs, xs = (trajectory.f_gap, trajectory.ys, trajectory.vs,
                        trajectory.xs)
    out = np.empty(trajectory.K)
    for rows in _blocks(len(out)):
        nxt = slice(rows.start + 1, rows.stop + 1)
        if form == "gc":
            _, G = f.value_and_grad_rows(ys[rows])
            out[rows] = _gc_energy(gaps[rows], G, ys[nxt], vs[nxt], xstar, k,
                                   mu)
        else:
            out[rows] = _iv_energy(gaps[rows], vs[nxt], xs[nxt], xstar, k, mu)
    return out


def attach_energies(trajectory: Trajectory, form: str) -> np.ndarray:
    """Fill the trajectory's ``lyapunov`` column (NaN at the final record)
    with the energies of ``form``, the one form its method has."""
    vals = energies(trajectory, form)
    col = np.full(len(trajectory), np.nan)
    col[: len(vals)] = vals
    trajectory.lyapunov = col
    return col


def initial_energy(f: Objective, x0: Vector, s: float, form: str,
                   convention: str = "scheme") -> float:
    """E(0) from the scheme's initial conditions: the first energy of a
    one-step run of the form's phase-space method.

    For the iv form, ``convention`` picks the first velocity v_1 entering
    E(0), as in :func:`~accelcert.optimizers.run`: "scheme"
    (-sqrt(s) grad f(x_0)) or "corollary" (2 sqrt(mu s) grad f(y_0)).
    The contraction certificate only inspects consecutive pairs and does
    not depend on the convention.
    """
    traj = run(f, require_form(form)[0], x0, s, 1, first_velocity=convention)
    return float(energies(traj, form)[0])


#: Relative slack of :func:`certify_contraction`, times max(1, E(0)).
CONTRACTION_SLACK = 1e-10


def certify_contraction(trajectory: Trajectory, form: str,
                        rho: Optional[float] = None) -> CertReport:
    """Certify E(k+1) <= E(k) / (1 + rho) along a trajectory.

    ``rho`` defaults to sqrt(mu s) / 4.  The check carries absolute slack
    ``CONTRACTION_SLACK * max(1, E(0))`` because the energy spans many
    orders of magnitude along a linearly converging run.  The report includes the
    worst implied per-step contraction factor max_k E(k+1)/E(k) over the
    pairs whose E(k) resolves above rounding: above 1e-13 times the largest
    finite energy and above 4 ulp of max(1, |f*|).  An attached
    ``lyapunov`` column is reused: a method has one form, so it holds the
    energies of ``form``.
    """
    require_form(form, trajectory.method_id)
    if trajectory.lyapunov is not None:
        e = trajectory.lyapunov[: trajectory.K]
    else:
        e = energies(trajectory, form)
    if rho is None:
        rho = step_coefficients(trajectory.objective.mu, trajectory.s).r / 4.0
    slack = float(CONTRACTION_SLACK * max(1.0, e[0] if len(e) else 1.0))
    # factors are only meaningful while the energy resolves above rounding
    # of its largest finite value (a diverging run's energies overflow) and
    # above rounding of f*, which each energy's gap term subtracts: pairs
    # a few ulp of f* apart give factors of order 1 that say nothing
    f_star = abs(trajectory.objective.min_value)
    floor = max(1e-13 * float(np.max(e[np.isfinite(e)], initial=0.0)),
                4.0 * float(np.spacing(max(1.0, f_star))))
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
