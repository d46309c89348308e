"""Discrete and continuous Lyapunov energies and contraction certificates.

:func:`energies` and :func:`ode_energies` evaluate each energy as a
formula on recorded columns, a block of rows at a time: the objective gap,
plus a kinetic and a mixed term that are each a quarter of a squared norm,
plus for the gc form a negative gradient-norm term.  The continuous energy
along the high-resolution ODE is the iv energy read at the probe point
X + sqrt(s) X' / c.  The energies read mu from the objective; a weaker one
is ``replace(f, mu=...)``.  The per-step contraction

    E(k+1) - E(k) <= -rho * E(k+1),  i.e.  E(k+1) <= E(k) / (1 + rho)

certifies the geometric convergence rate of the corresponding scheme for
step sizes 0 < s <= 1/L, with rho the rate of the form's row in
:data:`accelcert.analysis.ENERGIES`, which also names the methods each
form applies to; :func:`certify_contraction` checks it as one margin scan
(:func:`~accelcert.report.margin_report`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .analysis import ENERGIES, require_claim
from .objectives import Objective, Vector, require_minimizer
from .optimizers import (StepCoefficients, Trajectory, _blocks, _y_rows, run,
                         step_coefficients)
from .report import CertReport, _slack, margin_report

if TYPE_CHECKING:
    from .hires_ode import OdeSolution

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

    The potential f(y_k) - f* is the run's recorded ``f_gap``, so the iv
    form makes no oracle call.  The gc form takes g_k, which the run does
    not record, from
    :meth:`~accelcert.objectives.Objective.value_and_grad_rows`, a block of
    ``optimizers._BLOCK_ROWS`` rows at a time, and reads y a block at a
    time too, since gc-phase's y is rebuilt from x and v.
    """
    require_claim("form", ENERGIES, form, trajectory.method_id)
    f = trajectory.objective
    require_minimizer(f)
    k, mu, xstar = step_coefficients(f.mu, trajectory.s), f.mu, f.minimizer
    gaps, vs, xs = trajectory.f_gap, trajectory.vs, trajectory.xs
    out = np.empty(trajectory.K)
    y_prev = None  # the y row before the block
    for rows in _blocks(len(out)):
        nxt = slice(rows.start + 1, rows.stop + 1)
        if form == "gc":
            Y = _y_rows(trajectory, slice(rows.start, nxt.stop), y_prev)
            y_prev = Y[-2]
            _, G = f.value_and_grad_rows(Y[:-1])
            out[rows] = _gc_energy(gaps[rows], G, Y[1:], vs[nxt], xstar, k,
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


def initial_energy(f: Objective, x0: Vector, s: float, form: str) -> float:
    """E(0) from the scheme's initial conditions: the first energy of a
    one-step run of the form's phase-space method."""
    method = require_claim("form", ENERGIES, form).methods[0]
    return float(energies(run(f, method, x0, s, 1), form)[0])


#: Relative slack of :func:`certify_contraction`, times max(1, E(0)).
CONTRACTION_SLACK = 1e-10


def certify_contraction(trajectory: Trajectory, form: str) -> CertReport:
    """Certify E(k+1) <= E(k) / (1 + rho) along a trajectory, with rho the
    rate of ``ENERGIES[form]`` at the trajectory's (mu, L, s).

    The check carries absolute slack ``CONTRACTION_SLACK * max(1, E(0))``
    because the energy spans many orders of magnitude along a linearly
    converging run.  The report includes the worst implied per-step
    contraction factor max_k E(k+1)/E(k) over the pairs whose E(k)
    resolves above rounding: above 1e-13 times the largest finite energy
    and above 4 ulp of max(1, |f*|).  An attached
    ``lyapunov`` column is reused: a method has one form, so it holds the
    energies of ``form``.
    """
    claim = require_claim("form", ENERGIES, form, trajectory.method_id)
    f = trajectory.objective
    rho = claim.rate(f.mu, f.lipschitz, trajectory.s)
    if trajectory.lyapunov is not None:
        e = trajectory.lyapunov[: trajectory.K]
    else:
        e = energies(trajectory, form)
    slack = float(_slack(CONTRACTION_SLACK, e[0] if len(e) else 1.0))
    # factors are only meaningful while the energy resolves above rounding
    # of its largest finite value (a diverging run's energies overflow) and
    # above rounding of f*, which each energy's gap term subtracts: pairs
    # a few ulp of f* apart give factors of order 1 that say nothing
    f_star = abs(f.min_value)
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
