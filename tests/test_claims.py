"""The eight claims, transcribed by hand from the README's claims list and
compared with what the public functions return.

Each transcription is a sympy expression in mu, L, s, F = f(x0) - f* and
D = ||x0 - x*||^2 (and k or t), evaluated exactly at the float inputs the
library gets.  It is compared, to a relative 1e-14, with the
``bound_curve`` values, the ``rho`` and ``guaranteed_factor`` of
``certify_contraction``, and the ``numerator`` and envelope of
``check_continuous_bound``; the decay limit of the latter is located to
1e-12.  So a claim made weaker or stronger than the README's fails here by
its meaning, not only through a byte digest; ``tools/mutants.py`` checks
that it does.
"""

import math

import numpy as np
import pytest
import sympy as sp

from accelcert import (OdeSolution, bound_curve, certify_contraction,
                       check_continuous_bound, make_quadratic, run)
from accelcert.analysis import CONTINUOUS, ENERGIES, THEOREMS
from accelcert.hires_ode import DECAY_TOL

mu, L, s, F, D, k, t = sp.symbols("mu L s F D k t", positive=True)
IV, GC = ("iv-phase", "nag-modified"), ("gc-phase", "gc-modified")

#: name -> (methods, bounded sequence, f(seq_k) - f* <= this)
BOUNDS = {
    "rate-iv": (IV, "y", 4 * L * D / (1 + sp.sqrt(mu * s) / 4) ** k),
    "rate-iv-x": (IV, "x", (2 * F + mu * D) / (1 + sp.sqrt(mu / L) / 4) ** k),
    "rate-gc": (GC, "x", 2 * (F + mu * D) / (1 + sp.sqrt(mu * s) / 4) ** k),
    "gd": (("gd",), "y", F * (1 - mu * s) ** k),
    "classic": (("nag-classic",), "x",
                (F + mu / 2 * D) * (1 - sp.sqrt(mu * s)) ** k),
}
#: form -> (methods, rho with E(k+1) <= E(k) / (1 + rho))
CONTRACTIONS = {"iv": (IV, sp.sqrt(mu * s) / 4),
                "gc": (GC, sp.sqrt(mu * s) / 4)}
#: the continuous envelope at time t, and the decay limit of E(t+h)/E(t)
#: at h = t
ENVELOPE = (F + mu * D) / 2 * sp.exp(-sp.sqrt(mu) * t / 4)
DECAY = sp.exp(-sp.sqrt(mu) * t / 4)

#: (mu, L, F, D), with F < mu D so that the envelope's late sample is the
#: worst margin of a solution that ends at the minimiser
CASES = [(1.0, 100.0, 0.6, 0.9), (0.5, 3.0, 0.7, 2.5), (2.0, 2.0, 1.0, 1.0),
         (1e-3, 10.0, 0.03, 40.0)]
#: s as a fraction of 1/L: s = 1/L, 1/(2L) and 1/(10L)
FRACS = [1.0, 0.5, 0.1]
KS = [0, 1, 5, 20]


def exact(expr, **values) -> float:
    """``expr`` at the exact binary values of the float inputs."""
    subs = {sp.Symbol(name, positive=True): sp.Rational(v)
            for name, v in values.items()}
    return float(expr.subs(subs).evalf(40))


def close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-14 * abs(want)


def test_tables_name_the_transcribed_claims():
    assert {name: (c.methods, c.sequence) for name, c in THEOREMS.items()} == {
        name: (methods, seq) for name, (methods, seq, _) in BOUNDS.items()}
    assert {form: c.methods for form, c in ENERGIES.items()} == {
        form: methods for form, (methods, _) in CONTRACTIONS.items()}
    assert CONTINUOUS.methods == ("simplified",)


@pytest.mark.parametrize("frac", FRACS)
@pytest.mark.parametrize("mu_, L_, F_, D_", CASES)
@pytest.mark.parametrize("theorem", BOUNDS)
def test_bound_curve(theorem, mu_, L_, F_, D_, frac):
    s_ = frac / L_
    curve = bound_curve(theorem, F_, D_, mu_, L_, s_, max(KS))
    expr = BOUNDS[theorem][2]
    for k_ in KS:
        want = exact(expr, mu=mu_, L=L_, s=s_, F=F_, D=D_, k=k_)
        assert close(float(curve[k_]), want), (k_, curve[k_], want)


@pytest.mark.parametrize("frac", FRACS)
@pytest.mark.parametrize("mu_, L_, F_, D_", CASES)
@pytest.mark.parametrize("form", CONTRACTIONS)
def test_contraction_rate(form, mu_, L_, F_, D_, frac):
    s_ = frac / L_
    methods, rho = CONTRACTIONS[form]
    traj = run(make_quadratic([mu_, L_]), methods[0], [1.0, 1.0], s_, 3)
    details = certify_contraction(traj, form).details
    want = exact(rho, mu=mu_, s=s_)
    assert close(details["rho"], want)
    assert close(details["guaranteed_factor"], exact(1 / (1 + rho), mu=mu_,
                                                     s=s_))


def ending_at_minimizer(f, s_, T, x0, F_) -> OdeSolution:
    """A two-sample solution from rest at x0, whose recorded gap at x0 is
    F_, that sits at x* = 0 at time T: its energy falls to 0, and its
    envelope margin at T is the envelope itself."""
    X = np.array([x0, np.zeros(f.dim)])
    return OdeSolution(t=np.array([0.0, T]), X=X, Xdot=np.zeros_like(X),
                       f_gap=np.array([F_, 0.0]), s=s_, which="simplified",
                       objective=f)


@pytest.mark.parametrize("frac", FRACS)
@pytest.mark.parametrize("mu_, L_, F_, D_", CASES)
def test_continuous_envelope(mu_, L_, F_, D_, frac):
    f, s_ = make_quadratic([mu_, L_]), frac / L_
    T = 32.0 / math.sqrt(mu_)
    x0 = np.array([math.sqrt(D_), 0.0])
    values = dict(mu=mu_, F=F_, D=float(x0 @ x0))
    report = check_continuous_bound(
        ending_at_minimizer(f, s_, T, x0, F_), f, s_, mu_)
    numerator = exact(ENVELOPE, t=0, **values)
    assert close(report.details["numerator"], numerator)
    late = exact(ENVELOPE, t=T, **values)
    assert late < numerator - F_
    assert close(report.worst_margin, late)


@pytest.mark.parametrize("h", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("mu_, L_", [case[:2] for case in CASES])
def test_continuous_decay_limit(mu_, L_, h):
    # a solution at rest at x* whose recorded gap, and so its energy,
    # goes from 1 to q: the decay check fails just above the claimed
    # limit and passes just below it
    f, s_ = make_quadratic([mu_, L_]), 1.0 / L_
    h = h / math.sqrt(mu_)
    limit = exact(DECAY, mu=mu_, t=h) + DECAY_TOL
    for q, failures in ((limit * (1 + 1e-12), 1), (limit * (1 - 1e-12), 0)):
        sol = OdeSolution(t=np.array([0.0, h]), X=np.zeros((2, 2)),
                          Xdot=np.zeros((2, 2)), f_gap=np.array([1.0, q]),
                          s=s_, which="simplified", objective=f)
        report = check_continuous_bound(sol, f, s_, mu_)
        assert report.details["decay_failures"] == failures, q
