"""Quantitative analysis: the claims table, convergence-bound curves and
checkers, empirical rate estimation, and the step-size monotonicity
analysis for quadratics.

Every claim the certificates check is one :class:`Claim` row:
:data:`THEOREMS` holds the gap bounds, :data:`ENERGIES` the per-step
Lyapunov contractions (read by :mod:`accelcert.lyapunov`) and
:data:`CONTINUOUS` the envelope of the high-resolution flow (read by
:mod:`accelcert.hires_ode`); the constants live in the rows and nowhere
else.  :func:`require_claim` decides which methods a row applies to, for
the checkers and for the config parser.

On a quadratic with Hessian eigenvalues lambda_i, the gradient-correction
scheme decouples per eigencoordinate into the linear three-term recursion

    (1 + 2 sqrt(mu s)) y_{k+1} - 2 (1 - lambda s + sqrt(mu s)) y_k
        + (1 - lambda s) y_{k-1} = 0,

whose characteristic polynomial

    (1 + 2 sqrt(mu s)) a^2 - 2 (1 - lambda s + sqrt(mu s)) a + (1 - lambda s)

has real roots exactly when s >= (lambda - mu) / lambda^2.  (Sanity check:
at lambda = 0 a constant sequence solves the recursion, and indeed a = 1 is
then a root.)  Real roots for every eigenvalue mean the objective value
decreases monotonically; since max_lambda (lambda - mu) / lambda^2
= 1 / (4 mu), attained at lambda = 2 mu, monotone accelerated convergence
is available for s in [1/(4 mu), 1/L] whenever L <= 4 mu.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .objectives import (Objective, SpectrumSpec, make_quadratic,
                         require_minimizer, sample_in_ball)
from .optimizers import (Trajectory, _blocks, run, step_coefficients,
                         step_guaranteed)
from .report import CertReport, margin_report


class Claim(NamedTuple):
    """One claim: the methods it applies to, the sequence ("x" or "y")
    whose objective gap it bounds, ``rate(mu, L, s)``, the coefficients of
    its value at k = 0 on (f(x0) - f*, mu ||x0 - x*||^2, L ||x0 - x*||^2),
    and whether the factor at step k is (1 - rate)^k rather than
    (1 + rate)^-k."""

    methods: tuple
    sequence: str
    rate: Callable[[float, float, float], float]
    coefficients: tuple = ()
    decays: bool = False

    def start(self, gap0: float, dist0_sq: float, mu: float, L: float) -> float:
        """The value at k = 0 from gap0 = f(x0) - f* and dist0_sq.  A zero
        coefficient is skipped, not multiplied, so an infinite gap0 that
        the claim does not read stays out of it."""
        terms = (gap0, mu * dist0_sq, L * dist0_sq)
        return sum(c * v for c, v in zip(self.coefficients, terms) if c)


def _rho(mu: float, L: float, s: float) -> float:
    """sqrt(mu s) / 4, the rate of the accelerated bounds and energies."""
    return math.sqrt(mu * s) / 4.0


_IV, _GC = ("iv-phase", "nag-modified"), ("gc-phase", "gc-modified")

#: The gap bounds, for 0 < s <= 1/L.  A run records its gaps at y_k, so a
#: "y" bound reads them and an "x" bound evaluates them; gd's y_k is x_k.
THEOREMS = {
    # f(y_k) - f* <= 4 L ||x0 - x*||^2 / (1 + sqrt(mu s)/4)^k
    "rate-iv": Claim(_IV, "y", _rho, (0.0, 0.0, 4.0)),
    # f(x_k) - f* <= (2 (f(x0) - f*) + mu ||x0 - x*||^2)
    #                / (1 + sqrt(mu/L)/4)^k, stated at s = 1/L
    "rate-iv-x": Claim(_IV, "x", lambda mu, L, s: math.sqrt(mu / L) / 4.0,
                       (2.0, 1.0, 0.0)),
    # f(x_k) - f* <= 2 (f(x0) - f* + mu ||x0 - x*||^2) / (1 + sqrt(mu s)/4)^k
    "rate-gc": Claim(_GC, "x", _rho, (2.0, 2.0, 0.0)),
    # f(x_k) - f* <= (f(x0) - f*) (1 - mu s)^k
    "gd": Claim(("gd",), "y", lambda mu, L, s: mu * s, (1.0, 0.0, 0.0), True),
    # f(x_k) - f* <= (f(x0) - f* + (mu/2) ||x0 - x*||^2) (1 - sqrt(mu s))^k
    "classic": Claim(("nag-classic",), "x", lambda mu, L, s: math.sqrt(mu * s),
                     (1.0, 0.5, 0.0), True),
}

#: The per-step contractions E(k+1) <= E(k) / (1 + rho) of the energies
#: of :func:`accelcert.lyapunov.energies`, whose potential is at y_k.
ENERGIES = {"gc": Claim(_GC, "y", _rho), "iv": Claim(_IV, "y", _rho)}

#: The envelope of the simplified high-resolution flow started from rest,
#: f(probe(t)) - f* <= (f(x0) - f* + mu ||x0 - x*||^2) / 2 * exp(-rate t)
#: with rate sqrt(mu)/4, which also bounds the continuous energy's decay
#: E(t+h)/E(t) <= exp(-rate h); the probe point is the flow's y.  The
#: constant is as coded: it has not been checked against the theorem's
#: text, which is not in the repository.
CONTINUOUS = Claim(("simplified",), "y", lambda mu, L, s: math.sqrt(mu) / 4.0,
                   (0.5, 0.5, 0.0))


def require_claim(kind: str, table: dict, name: str,
                  method: Optional[str] = None) -> Claim:
    """The row ``name`` of ``table``; ValueError for an unknown name, or one
    that does not apply to ``method`` if given.  ``kind`` ("theorem" or
    "form") names the table in the messages."""
    # a tuple compares a config's array or object value instead of hashing it
    if name not in tuple(table):
        raise ValueError(f"unknown {kind} {name!r}; expected one of "
                         f"{tuple(table)}")
    claim = table[name]
    if method is not None and method not in claim.methods:
        raise ValueError(f"{kind} {name!r} applies to methods "
                         f"{claim.methods}, not {method!r}")
    return claim


@dataclass
class RootPair:
    """Roots of one characteristic polynomial, with its discriminant."""

    discriminant: float
    roots: tuple

    @property
    def real(self) -> bool:
        return max(abs(r.imag) for r in self.roots) < 1e-12


def characteristic_roots(lam: float, mu: float, s: float) -> RootPair:
    """Roots of (1+2 sqrt(mu s)) a^2 - 2(1-lam s+sqrt(mu s)) a + (1-lam s).

    Solved with the sign-aware quadratic formula to avoid cancellation when
    one root is small.
    """
    if not (lam > 0 and mu > 0 and s > 0):
        raise ValueError("lam, mu and s must all be positive")
    k = step_coefficients(mu, s)
    a, b, c = k.c, 2.0 * (1.0 - lam * s + k.r), 1.0 - lam * s
    disc = b * b - 4.0 * a * c
    if disc >= 0.0:
        sq = math.sqrt(disc)
        if b == 0.0 and sq == 0.0:
            r1 = r2 = complex(0.0)
        elif b == 0.0:
            r1, r2 = complex(sq / (2 * a)), complex(-sq / (2 * a))
        else:
            q = 0.5 * (b + math.copysign(sq, b))
            r1, r2 = complex(q / a), complex(c / q)
    else:
        sq = math.sqrt(-disc)
        r1 = complex(b / (2 * a), sq / (2 * a))
        r2 = r1.conjugate()
    return RootPair(discriminant=disc, roots=(r1, r2))


def reality_threshold(lam: float, mu: float) -> float:
    """Smallest step size with real characteristic roots: (lam - mu)/lam^2."""
    return (lam - mu) / (lam * lam)


def max_reality_threshold(mu: float) -> tuple[float, float]:
    """Maximize (lam - mu) / lam^2 over lam by a 512-point grid search plus
    ternary refinement; returns (argmax, max).  Closed form: 1/(4 mu) at
    lam = 2 mu, which this serves as an independent check of.
    """
    lams = np.linspace(mu, 4.0 * mu, 512)
    vals = (lams - mu) / lams**2
    i = int(np.argmax(vals))
    lo = lams[max(i - 1, 0)]
    hi = lams[min(i + 1, len(lams) - 1)]
    while hi - lo > 1e-12 * mu:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if reality_threshold(m1, mu) < reality_threshold(m2, mu):
            lo = m1
        else:
            hi = m2
    lam_star = 0.5 * (lo + hi)
    return lam_star, reality_threshold(lam_star, mu)


def monotonic_window(mu: float, L: float) -> Optional[tuple[float, float]]:
    """Step-size interval [1/(4 mu), 1/L] with monotone accelerated
    convergence on quadratics; None when empty (L > 4 mu)."""
    if not (mu > 0 and L >= mu):
        raise ValueError("need L >= mu > 0")
    if L > 4.0 * mu:
        return None
    return (1.0 / (4.0 * mu), 1.0 / L)


def bound_curve(theorem: str, f_x0_gap: float, dist0_sq: float, mu: float,
                L: float, s: float, K: int) -> np.ndarray:
    """Theoretical objective-gap bound evaluated at k = 0..K: the row
    ``THEOREMS[theorem]``, its value at k = 0 times (1 + rate)^-k, or
    (1 - rate)^k for a decaying row.

    The bounds are guaranteed for 0 < s <= 1/L; larger steps get a
    warning and the curve is still evaluated.
    """
    claim = require_claim("theorem", THEOREMS, theorem)
    if f_x0_gap < 0 or dist0_sq < 0 or K < 0:
        raise ValueError("f_x0_gap, dist0_sq and K must be nonnegative")
    if not step_guaranteed(s, L):
        warnings.warn(f"s={s:.6g} exceeds 1/L={1.0 / L:.6g}; the bound is "
                      "not guaranteed", stacklevel=2)
    k = np.arange(K + 1)
    start, rate = claim.start(f_x0_gap, dist0_sq, mu, L), claim.rate(mu, L, s)
    if claim.decays:
        return start * (1.0 - rate) ** k
    return start / (1.0 + rate) ** k


def _curve_for(trajectory: Trajectory, theorem: str) -> np.ndarray:
    """The theorem's curve for the trajectory's start; ValueError unless the
    theorem applies to the trajectory's method.  f(x_0) - f* is the
    recorded ``f_gap[0]``: record 0 sits at x_0 = y_0 for every method."""
    require_claim("theorem", THEOREMS, theorem, trajectory.method_id)
    f = trajectory.objective
    require_minimizer(f)
    return bound_curve(theorem, float(trajectory.f_gap[0]),
                       float(np.sum((trajectory.xs[0] - f.minimizer) ** 2)),
                       f.mu, f.lipschitz, trajectory.s, trajectory.K)


def attach_bound(trajectory: Trajectory, theorem: str) -> np.ndarray:
    """Fill the trajectory's ``bound`` column with the theorem curve;
    pairings are checked as in :func:`check_bound`."""
    trajectory.bound = _curve_for(trajectory, theorem)
    return trajectory.bound


def gaps_at(f: Objective, points: np.ndarray) -> np.ndarray:
    """f(p) - f* at each row p of ``points``, a point no run recorded a gap
    at: one row-batched oracle call
    (:meth:`~accelcert.objectives.Objective.value_and_grad_rows`) per block
    of 256 rows, which matches ``f.gap`` per row up to rounding."""
    require_minimizer(f)
    out = np.empty(len(points))
    for rows in _blocks(len(out)):
        out[rows] = f.value_and_grad_rows(points[rows])[0] - f.min_value
    return out


#: Relative slack of :func:`check_bound`, times max(1, bound(0)).
BOUND_SLACK = 1e-10


def check_bound(trajectory: Trajectory, theorem: str) -> CertReport:
    """Check the theorem's gap bound at every recorded iteration.

    Pass/fail per k with absolute slack ``BOUND_SLACK * max(1, bound(0))``.
    Incompatible trajectory/theorem pairings are rejected with ValueError.

    The trajectory must be one that :func:`~accelcert.optimizers.run`
    produced: f(x_0) - f* for bound(0) is the recorded ``f_gap[0]``, and a
    bound on y_k reads the whole ``f_gap`` column, which the run recorded
    at y_k.  Only a bound on x_k calls an oracle: :func:`gaps_at`, one
    row-batched call per block of 256 records, whose gaps match the
    per-row ``f.gap`` up to rounding.
    """
    curve = _curve_for(trajectory, theorem)
    gaps = (trajectory.f_gap if THEOREMS[theorem].sequence == "y"
            else gaps_at(trajectory.objective, trajectory.xs))
    slack = float(BOUND_SLACK * max(1.0, curve[0]))
    return margin_report(f"bound_{theorem}", curve - gaps, slack,
                         {"slack": slack, "bound_at_0": float(curve[0])})


def empirical_rate(trajectory: Trajectory) -> Optional[float]:
    """Per-iteration contraction factor fitted to the gap sequence.

    Log-linear least squares of f_gap over the trailing half of the
    records that still resolve above 1e-14; returns the factor r with
    f_gap(k) ~ C r^k, or None when fewer than 10 usable records remain
    (the gap underflowed or the run started at the optimum).
    """
    gaps = trajectory.f_gap
    usable = np.flatnonzero(np.isfinite(gaps) & (gaps > 1e-14))
    n_tail = math.ceil(0.5 * len(usable))
    tail = usable[len(usable) - n_tail:]
    if len(tail) < 10:
        return None
    # the least-squares slope in closed form, on centered k: it builds
    # no Vandermonde matrix and no lstsq workspace
    k = tail - tail.mean()
    y = np.log(gaps[tail])
    slope = k.dot(y - y.mean()) / k.dot(k)
    return float(np.exp(slope))


@dataclass
class ScanRow:
    """One (step size, eigenvalue) cell of a monotonicity scan, with the
    eigenvalue's characteristic roots."""

    s: float
    lam: float
    pair: RootPair
    predicted_monotone: bool
    observed_monotone: bool


@dataclass
class ScanReport:
    rows: list
    per_s: dict
    agreement: bool


def observed_monotone(f_gap: np.ndarray) -> bool:
    """True when the gap sequence never strictly increases beyond
    ``1e-12 * max(1, f_gap[0])`` (rounding noise near convergence must
    not flag false oscillation)."""
    tol = 1e-12 * max(1.0, float(f_gap[0]))
    return bool(np.all(np.diff(f_gap) <= tol))


def monotonicity_scan(mu: float, spectrum: SpectrumSpec | Sequence[float],
                      s_grid: Sequence[float], K: int,
                      x0: Optional[Sequence[float]] = None,
                      x0_seed: int = 0) -> ScanReport:
    """Compare predicted and observed monotonicity of the gradient-correction
    scheme on a quadratic, across a grid of step sizes.

    For each s the prediction is "all characteristic roots real" across the
    spectrum; the observation runs gc-phase for K steps from ``x0`` (or a
    point of the radius-2 ball drawn from ``x0_seed``) and applies
    strict-increase detection to the objective gap.  The report keeps
    per-eigenvalue root data, so alignment effects can be inspected per
    component rather than assuming a universal equivalence.  An empty
    ``s_grid`` raises ValueError, so no scan reports agreement vacuously.
    """
    if len(s_grid) == 0:
        raise ValueError("s_grid must hold at least one step size")
    if not isinstance(spectrum, SpectrumSpec):
        spectrum = SpectrumSpec(spectrum)
    if mu > spectrum.mu + 1e-12:
        raise ValueError("mu may not exceed the smallest eigenvalue")
    f = make_quadratic(spectrum)
    if mu != f.mu:
        f = replace(f, mu=mu)  # weaker declared modulus is still valid
    if x0 is None:
        rng = np.random.default_rng(x0_seed)
        x0 = sample_in_ball(rng, spectrum.dim, 2.0)
    x0 = np.asarray(x0, dtype=float)

    rows = []
    per_s = {}
    for s in s_grid:
        pairs = [characteristic_roots(lam, mu, s) for lam in spectrum.eigenvalues]
        predicted = all(p.real for p in pairs)
        with warnings.catch_warnings():
            # a scan checks no bound, so run's step-window warning is noise
            warnings.simplefilter("ignore", UserWarning)
            traj = run(f, "gc-phase", x0, s, K)
        observed = observed_monotone(traj.f_gap)
        per_s[float(s)] = (predicted, observed)
        for lam, pair in zip(spectrum.eigenvalues, pairs):
            rows.append(ScanRow(s=float(s), lam=float(lam), pair=pair,
                                predicted_monotone=predicted,
                                observed_monotone=observed))
    agreement = all(p == o for p, o in per_s.values())
    return ScanReport(rows=rows, per_s=per_s, agreement=agreement)
