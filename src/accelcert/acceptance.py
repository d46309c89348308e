"""The acceptance suite: every shipped guarantee, run end to end.

Each criterion is a check over the fixed suite objectives (three
quadratic spectra, a rotated quadratic, and the regularized logistic),
with the tolerances that their certificates' modules pin (criteria 2-5,
7) or that are pinned here.  The suite is built once per process, and
the runs that several criteria check are made once (:func:`_suite_run`);
every criterion stays callable on its own, and its lines do not depend
on which ran before it.  ``run_all`` prints one pass/fail line per
criterion and returns a process exit status (0 pass, 1 fail).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis, hires_ode, lyapunov
from .harness import output_file
from .hires_ode import check_continuous_bound, integrate
from .objectives import (Objective, make_quadratic, make_reg_logistic,
                         resolve_minimizer, sample_in_ball)
from .optimizers import Trajectory, run
from .report import _slack, margin_report

#: (label, objective factory, x0 seed); x0 is a radius-2 ball point.
_SUITE_SPECS = (
    ("quad-ill", lambda: make_quadratic([1, 100]), 101),
    ("quad-mild", lambda: make_quadratic([0.5, 3]), 102),
    ("quad-20d", lambda: make_quadratic(np.logspace(0, 3, 20)), 103),
    ("quad-rot", lambda: make_quadratic([0.5, 3], rotation_seed=11), 104),
    ("reg-logistic", lambda: resolve_minimizer(make_reg_logistic(3, 50, 2, 0.1)), 105),
)

X0_RADIUS = 2.0

#: Relative slack of criterion 6 (times max(1, gap)); the check and its
#: title read it.
GRADIENT_STEP_SLACK = 1e-12


def suite_objectives() -> list[tuple[str, Objective, np.ndarray]]:
    """The fixed acceptance objectives with their deterministic starts."""
    out = []
    for label, factory, seed in _SUITE_SPECS:
        f = factory()
        x0 = sample_in_ball(np.random.default_rng(seed), f.dim, X0_RADIUS)
        out.append((label, f, x0))
    return out


@functools.cache
def _suite() -> dict[str, tuple[Objective, np.ndarray]]:
    """``suite_objectives()`` built once per process: {label: (f, x0)}."""
    return {label: (f, x0) for label, f, x0 in suite_objectives()}


@functools.cache
def _suite_run(label: str, method: str, frac: float) -> Trajectory:
    """The 1000-step run of ``method`` on suite objective ``label`` at
    s = frac / L with the scheme's first velocity, made once per process;
    its stored columns are read-only, since every caller gets the same
    arrays (a y rebuilt on read is read-only too).
    Criteria 1-5 read it for iv-phase and gc-phase at frac 1 and 0.5, and
    criterion 6 the first 500 steps of the frac 1 runs; the other suite
    runs are each read once and are not cached."""
    f, x0 = _suite()[label]
    traj = run(f, method, x0, frac / f.lipschitz, 1000)
    for col in (traj.xs, traj._ys, traj.vs, traj.f_gap, traj.grad_sq):
        if col is not None:
            col.flags.writeable = False
    return traj


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    lines: list


def _result(number: int, title: str, passed: bool, lines) -> CriterionResult:
    return CriterionResult(number=number, title=title, passed=bool(passed),
                           lines=list(lines))


def criterion_1() -> CriterionResult:
    """Phase-space rewritings reproduce their source recursions."""
    tol = 1e-9
    lines = []
    ok = True
    for label, (f, x0) in _suite().items():
        if label in ("quad-rot", "reg-logistic"):
            continue  # the criterion names the three plain spectra
        diffs = []
        # each family's phase-space form against its source recursion, on
        # the sequence that recursion iterates
        for form, col, name in (("iv", "xs", "two-sequence"),
                                ("gc", "ys", "single-sequence")):
            phase, recursion = analysis.ENERGIES[form].methods
            a = getattr(_suite_run(label, phase, 1.0), col)
            b = getattr(run(f, recursion, x0, 1.0 / f.lipschitz, 1000), col)
            diff = float(np.max(np.abs(a - b)))
            diffs.append(f"{phase} vs {name} {diff:.3e}")
            ok = ok and diff <= tol
        lines.append(f"{label}: " + ", ".join(diffs))
    return _result(1, "rewriting equivalence (max abs diff <= 1e-9, 1000 steps)",
                   ok, lines)


def _bound_criterion(number: int, theorem: str) -> CriterionResult:
    method = analysis.THEOREMS[theorem].methods[0]
    lines = []
    ok = True
    for label in _suite():
        for frac in (1.0, 0.5):
            traj = _suite_run(label, method, frac)
            report = analysis.check_bound(traj, theorem)
            lines.append(f"{label} s={frac:g}/L: violations {report.n_failed}, "
                         f"worst margin {report.worst_margin:.3e}")
            ok = ok and report.passed
    return _result(number, f"{theorem} bound holds along {method} "
                           f"(slack {analysis.BOUND_SLACK:g} * max(1, bound(0)))",
                   ok, lines)


def criterion_2() -> CriterionResult:
    """Objective-gap bound 4 L ||x0-x*||^2 / (1 + sqrt(mu s)/4)^k at y_k."""
    return _bound_criterion(2, "rate-iv")


def criterion_3() -> CriterionResult:
    """Gap bound 2 (f(x0)-f* + mu ||x0-x*||^2) / (1 + sqrt(mu s)/4)^k at x_k."""
    return _bound_criterion(3, "rate-gc")


def criterion_4() -> CriterionResult:
    """Gap bound at x_k for s = 1/L, with the first-velocity conventions
    compared: the scheme-consistent v_1 is the primary check; if only the
    literal-corollary v_1 = 2 sqrt(mu s) grad f(y_0) passes, that is
    reported without failing."""
    method = analysis.THEOREMS["rate-iv-x"].methods[0]
    lines = []
    ok = True
    for label, (f, x0) in _suite().items():
        primary = analysis.check_bound(_suite_run(label, method, 1.0),
                                       "rate-iv-x")
        alternate = analysis.check_bound(
            run(f, method, x0, 1.0 / f.lipschitz, 1000,
                first_velocity="corollary"), "rate-iv-x")
        alt = ("holds" if alternate.passed
               else f"violates (first k={alternate.first_failure})")
        if primary.passed:
            lines.append(f"{label}: scheme-consistent v1 passes (worst margin "
                         f"{primary.worst_margin:.3e}); literal-corollary v1 {alt}")
        elif alternate.passed:
            lines.append(f"{label}: scheme v1 violates at k="
                         f"{primary.first_failure}; literal-corollary v1 "
                         "passes (reported, not failed)")
        else:
            lines.append(f"{label}: both v1 conventions violate the bound")
            ok = False
    return _result(4, "rate-iv-x bound at s=1/L (scheme-consistent v1)", ok, lines)


def criterion_5() -> CriterionResult:
    """Both Lyapunov energies contract per step at rho = sqrt(mu s)/4."""
    lines = []
    ok = True
    for label in _suite():
        for frac in (1.0, 0.5):
            for form in ("iv", "gc"):
                traj = _suite_run(label, analysis.ENERGIES[form].methods[0],
                                  frac)
                report = lyapunov.certify_contraction(traj, form)
                lines.append(
                    f"{label} s={frac:g}/L {form}: violations {report.n_failed}, "
                    f"worst margin {report.worst_margin:.3e}, "
                    f"E(0)={report.details['initial_energy']:.4g}")
                ok = ok and report.passed
    return _result(5, "Lyapunov contraction E(k+1) <= E(k)/(1+sqrt(mu s)/4) "
                      f"(slack {lyapunov.CONTRACTION_SLACK:g} * max(1, E(0)))",
                   ok, lines)


def gradient_step_margins(traj: Trajectory) -> np.ndarray:
    """Margins of f(x_{k+1}) - f* <= f(y_k) - f* - (s/2)||grad f(y_k)||^2
    along a trajectory whose x_{k+1} is y_k - s grad f(y_k): every method
    but heavy-ball, which ValueError rejects (positive = satisfied).

    f(y_k) - f* and ||grad f(y_k)||^2 are the recorded ``f_gap`` and
    ``grad_sq``; only f(x_{k+1}) - f* calls an oracle
    (:func:`~accelcert.analysis.gaps_at`).
    """
    if traj.method_id == "heavy-ball":
        raise ValueError("heavy-ball's x_{k+1} is not y_k - s grad f(y_k); "
                         "the margins need a gradient-step trajectory")
    rhs = traj.f_gap[:-1] - 0.5 * traj.s * traj.grad_sq[:-1]
    return rhs - analysis.gaps_at(traj.objective, traj.xs[1:])


def criterion_6() -> CriterionResult:
    """First-gradient-step inequality at every momentum-family iteration,
    over the first 500 steps at s = 1/L; the iv-phase and gc-phase runs
    are the cached 1000-step suite runs, whose first 500 rows are those of
    a 500-step run, bit for bit."""
    K = 500
    lines = []
    ok = True
    for label, (f, x0) in _suite().items():
        for method in ("nag-modified", "nag-classic", "iv-phase", "gc-phase",
                       "gc-modified"):
            if method in ("iv-phase", "gc-phase"):
                traj = _suite_run(label, method, 1.0)
            else:
                traj = run(f, method, x0, 1.0 / f.lipschitz, K)
            slack = _slack(GRADIENT_STEP_SLACK, traj.f_gap[:K])
            report = margin_report("gradient_step",
                                   gradient_step_margins(traj)[:K], slack)
            lines.append(f"{label} {method}: worst margin "
                         f"{report.worst_margin:.3e}, violations {report.n_failed}")
            ok = ok and report.passed
    return _result(6, "gradient-step inequality "
                      f"(slack {GRADIENT_STEP_SLACK:g} * max(1, gap))", ok, lines)


def criterion_7() -> CriterionResult:
    """Continuous theorem along the RK4 solution on the [1,4] quadratic."""
    f = make_quadratic([1, 4])
    s = 0.25
    x0 = np.array([1.0, 0.5])  # start with gap below mu*||x0-x*||^2
    sol = integrate(f, x0, s, T=20.0, h=1e-3, which="simplified")
    report = check_continuous_bound(sol, f, s, f.mu)
    lines = [f"samples {report.n_checked}, bound failures "
             f"{report.details['bound_failures']}, decay failures "
             f"{report.details['decay_failures']}",
             f"worst bound margin {report.worst_margin:.3e}, worst energy "
             f"ratio {report.details['worst_energy_ratio']:.10f}"]
    return _result(7, "continuous bound and energy decay (tol "
                      f"{hires_ode.BOUND_TOL:g} / {hires_ode.DECAY_TOL:g})",
                   report.passed, lines)


def criterion_8() -> CriterionResult:
    """Monotonicity window on the [1,3] spectrum; eigen-aligned oscillation
    below the window for mu=0.1, lambda=2."""
    lines = []
    window = analysis.monotonic_window(1.0, 3.0)
    ok = window is not None and abs(window[0] - 0.25) < 1e-15
    inside = analysis.monotonicity_scan(1.0, [1.0, 3.0], [0.26, 0.30, 0.33],
                                        K=500, x0_seed=8)
    for s, (pred, obs) in inside.per_s.items():
        lines.append(f"s={s:g}: predicted monotone {pred}, observed {obs}")
        ok = ok and pred and obs
    aligned = analysis.monotonicity_scan(0.1, [0.1, 2.0], [0.05], K=500,
                                         x0=[0.0, 1.0])
    (pred, obs), = aligned.per_s.values()
    lam2 = [r for r in aligned.rows if r.lam == 2.0][0]
    complex_reported = not lam2.pair.real
    lines.append(f"mu=0.1 lambda=2 s=0.05: complex roots {complex_reported}, "
                 f"observed monotone {obs}")
    ok = ok and complex_reported and not pred and not obs
    return _result(8, "monotonicity window [1/(4 mu), 1/L] and eigen-aligned "
                      "oscillation", ok, lines)


def criterion_9() -> CriterionResult:
    """Root reality matches s >= (lambda-mu)/lambda^2 on a 10x10 grid, and
    the grid-refined max of the threshold equals 1/(4 mu)."""
    mu = 0.5
    lams = np.linspace(mu, 5.0, 10)
    s_grid = np.linspace(0.05, 0.5, 10)
    mismatches = 0
    for lam in lams:
        for s in s_grid:
            pair = analysis.characteristic_roots(float(lam), mu, float(s))
            threshold = analysis.reality_threshold(float(lam), mu)
            if abs(s - threshold) <= 1e-12:
                continue  # boundary: either verdict accepted
            if pair.real != (s >= threshold):
                mismatches += 1
    lines = [f"grid mismatches: {mismatches} / {len(lams) * len(s_grid)}"]
    ok = mismatches == 0
    for m in (0.1, 0.5, 1.0, 2.0):
        lam_star, val = analysis.max_reality_threshold(m)
        rel = abs(val - 1.0 / (4.0 * m)) / (1.0 / (4.0 * m))
        lines.append(f"mu={m}: refined max {val:.12g} at lambda={lam_star:.6g} "
                     f"(rel err {rel:.2e})")
        ok = ok and rel <= 1e-8 and abs(lam_star - 2.0 * m) < 1e-3 * m
    return _result(9, "discriminant law and max threshold 1/(4 mu)", ok, lines)


def _first_k_below(f_gap: np.ndarray, tol: float) -> Optional[int]:
    hits = np.flatnonzero(f_gap <= tol)
    return int(hits[0]) if len(hits) else None


def _shown(value, spec: str, missing: str) -> str:
    """``value`` formatted by ``spec``, or ``missing`` where it is None."""
    return missing if value is None else format(value, spec)


def criterion_10() -> CriterionResult:
    """Qualitative acceleration: fitted factors and iterations-to-1e-8.

    Only each run's gap column is kept, so the other columns of the
    150,000-step gd run are freed before its fit; a fit that is undefined
    or a gap that never reaches 1e-8 is printed as such and fails."""
    lines = []
    ok = True
    x0 = np.array([1.0, 1.0])
    ratios = {}
    for kappa, k_iv, k_gd in ((100, 600, 3000), (10_000, 6000, 150_000)):
        f = make_quadratic([1, kappa])
        s = 1.0 / f.lipschitz
        gaps_iv = run(f, "iv-phase", x0, s, k_iv).f_gap
        gaps_gd = run(f, "gd", x0, s, k_gd).f_gap
        r_iv = analysis.empirical_rate(gaps_iv)
        r_gd = analysis.empirical_rate(gaps_gd)
        lim_iv = 1.0 - 0.5 * math.sqrt(1.0 / kappa)
        lim_gd = 1.0 - 2.5 / kappa
        iters_iv = _first_k_below(gaps_iv, 1e-8)
        iters_gd = _first_k_below(gaps_gd, 1e-8)
        lines.append(f"kappa={kappa}: fitted "
                     f"r(iv)={_shown(r_iv, '.6f', 'undefined')} "
                     f"(<= {lim_iv}), "
                     f"r(gd)={_shown(r_gd, '.8f', 'undefined')} "
                     f"(>= {lim_gd})")
        lines.append(f"kappa={kappa}: iterations to 1e-8: "
                     f"gd {_shown(iters_gd, 'd', 'not reached')}, "
                     f"iv {_shown(iters_iv, 'd', 'not reached')}")
        ok = ok and r_iv is not None and r_iv <= lim_iv
        ok = ok and r_gd is not None and lim_gd <= r_gd < 1.0
        if iters_iv and iters_gd:
            ratios[kappa] = iters_gd / iters_iv
    growth = ratios[10_000] / ratios[100] if len(ratios) == 2 else None
    lines.append("gd/iv iteration-ratio growth over 100x kappa: "
                 + ("undefined" if growth is None else f"{growth:.2f}x"))
    ok = ok and growth is not None and growth >= 5.0
    return _result(10, "acceleration evidence (fitted factors, hitting times)",
                   ok, lines)


def criterion_11() -> CriterionResult:
    """Fourth-order convergence of the integrator on the critically damped
    closed-form benchmark (the s -> 0 limit of the dynamics)."""
    f = make_quadratic([1.0])
    exact = 2.0 * math.exp(-1.0)  # X(1) for X'' + 2X' + X = 0 from (1, 0)
    errs = {}
    for h in (1e-2, 5e-3, 1e-3):
        sol = integrate(f, [1.0], s=0.0, T=1.0, h=h)
        errs[h] = abs(float(sol.X[-1, 0]) - exact)
    ratio = errs[1e-2] / errs[5e-3]
    lines = [f"endpoint errors: h=1e-2 {errs[1e-2]:.3e}, h=5e-3 "
             f"{errs[5e-3]:.3e}, h=1e-3 {errs[1e-3]:.3e}",
             f"halving ratio {ratio:.2f} (expect within [12, 20])"]
    ok = 12.0 <= ratio <= 20.0 and errs[1e-3] <= 1e-8
    return _result(11, "RK4 order check on the closed-form benchmark", ok, lines)


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11)


def run_all(out_root) -> int:
    """Run every criterion; print one pass/fail line each, followed by the
    lines of a failed criterion, and write all lines to
    ``acceptance_summary.txt`` under ``out_root``; 0 iff all pass."""
    results = []
    for criterion in CRITERIA:
        result = criterion()
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"criterion {result.number:2d} {status} - {result.title}")
        if not result.passed:
            for line in result.lines:
                print(f"    {line}")
    n_failed = sum(not r.passed for r in results)
    print(f"acceptance: {len(results) - n_failed}/{len(results)} criteria passed")
    with open(output_file(out_root, "acceptance_summary.txt"), "w") as fh:
        for r in results:
            fh.write(f"criterion_{r.number}: "
                     f"{'pass' if r.passed else 'fail'}\n")
            for line in r.lines:
                fh.write(f"  {line}\n")
    return 0 if n_failed == 0 else 1
