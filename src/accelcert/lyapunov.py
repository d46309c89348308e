"""Discrete and continuous Lyapunov energies and contraction certificates.

Each energy decomposes into potential (objective gap), kinetic (scaled
squared velocity), mixed (squared norm of a velocity/position/gradient
combination) and an additional gradient-norm correction (zero except for
the gc form).  The per-step contraction

    E(k+1) - E(k) <= -rho * E(k+1),  i.e.  E(k+1) <= E(k) / (1 + rho)

with rho = sqrt(mu s) / 4 certifies the geometric convergence rate of the
corresponding scheme for step sizes 0 < s <= 1/L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .objectives import MinimizerUnknownError, Objective, Vector
from .optimizers import Trajectory, momentum_denominator
from .report import CertReport

if TYPE_CHECKING:
    from .hires_ode import OdeSolution

#: Trajectory methods each energy form applies to.
FORM_METHODS = {
    "gc": ("gc-phase", "gc-modified"),
    "iv": ("iv-phase", "nag-modified"),
}

#: Kinetic/mixed weighting; may be varied subject to alpha + beta = 1,
#: the default halves are used throughout the certificates.
DEFAULT_ALPHA = 0.5
DEFAULT_BETA = 0.5


@dataclass
class LyapunovRecord:
    """One energy evaluation, with its decomposition.

    ``energy == potential + kinetic + mixed + additional`` holds exactly by
    construction.  ``contraction_ok`` is set by the contraction certificate
    when the record takes part in a pairwise check; it is None for
    standalone evaluations.
    """

    k_or_t: float
    energy: float
    potential: float
    kinetic: float
    mixed: float
    additional: float
    contraction_ok: Optional[bool] = None


def _require_minimizer(f: Objective):
    if f.minimizer is None or f.min_value is None:
        raise MinimizerUnknownError(
            f"objective {f.name!r} needs a known minimizer for Lyapunov "
            "evaluation; resolve it first")


def _check_weights(alpha: float, beta: float):
    if abs(alpha + beta - 1.0) > 1e-12:
        raise ValueError("kinetic/mixed weights must satisfy alpha + beta = 1")


def _gc_record(potential: float, g: Vector, y_next: Vector, v_k: Vector,
               xstar: Vector, s: float, mu: float, alpha: float, beta: float,
               k: float) -> LyapunovRecord:
    kinetic = 0.5 * alpha * float(v_k @ v_k)
    combo = v_k + 2.0 * math.sqrt(mu) * (y_next - xstar) + math.sqrt(s) * g
    mixed = 0.5 * beta * float(combo @ combo)
    additional = -0.5 * s * float(g @ g)
    return LyapunovRecord(k_or_t=k, energy=potential + kinetic + mixed + additional,
                          potential=potential, kinetic=kinetic, mixed=mixed,
                          additional=additional)


def lyap_gc(f: Objective, y_k: Vector, y_next: Vector, v_k: Vector,
            s: float, mu: float, alpha: float = DEFAULT_ALPHA,
            beta: float = DEFAULT_BETA, k: float = 0.0) -> LyapunovRecord:
    """Energy of the gradient-correction scheme at iteration k.

    E(k) = f(y_k) - f* + (alpha/2) ||v_k||^2
           + (beta/2) ||v_k + 2 sqrt(mu) (y_{k+1} - x*) + sqrt(s) grad f(y_k)||^2
           - (s/2) ||grad f(y_k)||^2.

    For 0 < s <= 1/L the additional term is dominated and E(k) >= 0.
    """
    _require_minimizer(f)
    _check_weights(alpha, beta)
    return _gc_record(f.gap(y_k), f.grad(y_k), y_next, v_k, f.minimizer, s, mu,
                      alpha, beta, k)


def _iv_record(potential: float, v_next: Vector, x_next: Vector,
               xstar: Vector, s: float, mu: float, alpha: float, beta: float,
               k: float) -> LyapunovRecord:
    c = momentum_denominator(mu, s)
    kinetic = 0.5 * alpha * float(v_next @ v_next) / (c * c)
    combo = v_next + 2.0 * math.sqrt(mu) * (x_next - xstar)
    mixed = 0.5 * beta * float(combo @ combo)
    return LyapunovRecord(k_or_t=k, energy=potential + kinetic + mixed,
                          potential=potential, kinetic=kinetic, mixed=mixed,
                          additional=0.0)


def lyap_iv(f: Objective, y_k: Vector, v_next: Vector, x_next: Vector,
            s: float, mu: float, alpha: float = DEFAULT_ALPHA,
            beta: float = DEFAULT_BETA, k: float = 0.0) -> LyapunovRecord:
    """Energy of the implicit-velocity scheme at iteration k.

    E(k) = f(y_k) - f* + (alpha/2) ||v_{k+1}||^2 / (1 + 2 sqrt(mu s))^2
           + (beta/2) ||v_{k+1} + 2 sqrt(mu) (x_{k+1} - x*)||^2.

    No additional term is needed for this form.
    """
    _require_minimizer(f)
    _check_weights(alpha, beta)
    return _iv_record(f.gap(y_k), v_next, x_next, f.minimizer, s, mu, alpha,
                      beta, k)


def _ode_record(potential: float, X: Vector, Xdot: Vector, xstar: Vector,
                s: float, mu: float, alpha: float, beta: float,
                t: float) -> LyapunovRecord:
    c = momentum_denominator(mu, s)
    kinetic = 0.5 * alpha * float(Xdot @ Xdot) / (c * c)
    combo = Xdot + 2.0 * math.sqrt(mu) * (X - xstar)
    mixed = 0.5 * beta * float(combo @ combo)
    return LyapunovRecord(k_or_t=t, energy=potential + kinetic + mixed,
                          potential=potential, kinetic=kinetic, mixed=mixed,
                          additional=0.0)


def lyap_ode(f: Objective, X: Vector, Xdot: Vector, s: float, mu: float,
             alpha: float = DEFAULT_ALPHA, beta: float = DEFAULT_BETA,
             t: float = 0.0) -> LyapunovRecord:
    """Continuous energy along the implicit-velocity differential equation.

    E(t) = f(X + sqrt(s) X' / c) - f* + (alpha/2) ||X'||^2 / c^2
           + (beta/2) ||X' + 2 sqrt(mu) (X - x*)||^2,  c = 1 + 2 sqrt(mu s).
    """
    _require_minimizer(f)
    _check_weights(alpha, beta)
    probe = X + math.sqrt(s) * Xdot / momentum_denominator(mu, s)
    return _ode_record(f.gap(probe), X, Xdot, f.minimizer, s, mu, alpha, beta, t)


def ode_energies(solution: OdeSolution, f: Objective, s: float, mu: float,
                 gaps: Optional[np.ndarray] = None) -> np.ndarray:
    """E(t) of :func:`lyap_ode` at every sample of an integrated solution.

    The potential is ``gaps`` when given, else the solution's recorded
    ``f_gap`` column, which must then be the probe gap of ``f`` at
    (s, mu) (see :meth:`~accelcert.hires_ode.OdeSolution.records_gap`).
    Makes no oracle call.
    """
    _require_minimizer(f)
    if gaps is None:
        if not solution.records_gap(f, s, mu):
            raise ValueError("the solution's recorded gap is not that of this "
                             "objective at this (s, mu); pass gaps")
        gaps = solution.f_gap
    xstar = f.minimizer
    out = np.empty(len(solution))
    for i, (t, X, Xdot, gap) in enumerate(zip(solution.t.tolist(), solution.X,
                                              solution.Xdot, gaps.tolist())):
        out[i] = _ode_record(gap, X, Xdot, xstar, s, mu, DEFAULT_ALPHA,
                             DEFAULT_BETA, t).energy
    return out


def _form_for(trajectory: Trajectory, form: str):
    if form not in FORM_METHODS:
        raise ValueError(f"unknown Lyapunov form {form!r}")
    if trajectory.method_id not in FORM_METHODS[form]:
        raise ValueError(
            f"form {form!r} applies to methods {FORM_METHODS[form]}, "
            f"not {trajectory.method_id!r}")
    if trajectory.objective is None:
        raise ValueError("trajectory carries no objective reference")


def energies(trajectory: Trajectory, form: str) -> np.ndarray:
    """E(k) for k = 0..K-1 along a trajectory (E(k) needs the state after
    step k, so the last record has no energy).

    The trajectory must be one that :func:`~accelcert.optimizers.run`
    produced: the potential f(y_k) - f* is read from its recorded ``f_gap``
    column, which every method a form applies to records at y_k.  So the
    iv form makes no oracle call, and the gc form one gradient per k.
    """
    _form_for(trajectory, form)
    f = trajectory.objective
    _require_minimizer(f)
    s, mu = trajectory.s, trajectory.mu
    xstar = f.minimizer
    gaps = trajectory.f_gap.tolist()
    ys, vs, xs = trajectory.ys, trajectory.vs, trajectory.xs
    K = trajectory.K
    out = np.empty(K)
    for k in range(K):
        if form == "gc":
            rec = _gc_record(gaps[k], f.grad(ys[k]), ys[k + 1], vs[k + 1], xstar,
                             s, mu, DEFAULT_ALPHA, DEFAULT_BETA, k)
        else:
            rec = _iv_record(gaps[k], vs[k + 1], xs[k + 1], xstar, s, mu,
                             DEFAULT_ALPHA, DEFAULT_BETA, k)
        out[k] = rec.energy
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
    """E(0) from the scheme's initial conditions.

    For the iv form the first velocity iterate entering E(0) can follow
    three conventions: "scheme" (v_1 = -sqrt(s) grad f(x_0), the value the
    recursion produces from v_0 = 0), "zero" (v_1 = 0) and "corollary"
    (v_1 = 2 sqrt(mu s) grad f(y_0)).  The contraction certificate itself
    only inspects consecutive pairs and does not depend on the convention.
    """
    _require_minimizer(f)
    x0 = np.asarray(x0, dtype=float)
    mu = f.mu
    c = momentum_denominator(mu, s)
    g0 = f.grad(x0)
    if form == "gc":
        v0 = -math.sqrt(s) * g0 / c
        y1 = x0 + math.sqrt(s) * v0
        return lyap_gc(f, x0, y1, v0, s, mu).energy
    if form == "iv":
        if convention == "scheme":
            v1 = -math.sqrt(s) * g0
        elif convention == "zero":
            v1 = np.zeros(f.dim)
        elif convention == "corollary":
            v1 = 2.0 * math.sqrt(mu * s) * g0
        else:
            raise ValueError(f"unknown initial-velocity convention {convention!r}")
        x1 = x0 + math.sqrt(s) * v1
        return lyap_iv(f, x0, v1, x1, s, mu).energy
    raise ValueError(f"unknown Lyapunov form {form!r}")


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
    _form_for(trajectory, form)
    if trajectory.lyapunov_form == form:
        e = trajectory.lyapunov[: trajectory.K]
    else:
        e = energies(trajectory, form)
    if rho is None:
        rho = math.sqrt(trajectory.mu * trajectory.s) / 4.0
    slack = slack_scale * max(1.0, e[0] if len(e) else 1.0)
    n_failed = 0
    first_failure = None
    worst_margin = np.inf
    worst_factor = 0.0
    # factors are only meaningful while the energy resolves above rounding
    floor = 1e-13 * float(e.max()) if len(e) and e.max() > 0 else 0.0
    for k in range(len(e) - 1):
        margin = e[k] / (1.0 + rho) - e[k + 1]
        worst_margin = min(worst_margin, margin)
        if e[k] > floor:
            worst_factor = max(worst_factor, e[k + 1] / e[k])
        if margin < -slack:
            n_failed += 1
            if first_failure is None:
                first_failure = k
    nonneg = bool(len(e) == 0 or e.min() >= -slack)
    return CertReport(
        name=f"contraction_{form}",
        n_checked=max(len(e) - 1, 0),
        n_failed=n_failed,
        worst_margin=float(worst_margin) if len(e) > 1 else np.inf,
        first_failure=first_failure,
        details={
            "rho": rho,
            "slack": slack,
            "worst_step_factor": worst_factor,
            "guaranteed_factor": 1.0 / (1.0 + rho),
            "energy_nonnegative": nonneg,
            "initial_energy": float(e[0]) if len(e) else np.nan,
        },
    )
