import math
from dataclasses import replace

import numpy as np
import pytest

from accelcert import (OdeSolution, Trajectory, certify_contraction, energies,
                       initial_energy, integrate, make_quadratic,
                       make_reg_logistic, ode_energies, probe_point,
                       resolve_minimizer, run, step_coefficients)
from accelcert import acceptance
from accelcert.analysis import ENERGIES
from accelcert.lyapunov import attach_energies
from accelcert.objectives import MinimizerUnknownError, Objective
from accelcert.optimizers import _BLOCK_ROWS, _blocks


def one(v):
    return np.array([float(v)])


def overtight(monkeypatch, form, times):
    """Claim ``times`` the rate of ``form``'s row for the rest of a test."""
    claim = ENERGIES[form]
    monkeypatch.setitem(ENERGIES, form, claim._replace(
        rate=lambda mu, L, s: times * claim.rate(mu, L, s)))


# The energies of the `energies` and `ode_energies` docstrings, one row at
# a time, each squared norm a single dot product: the per-row reference
# that the column formulas must match bit for bit.  The gc form's gradients
# g_k come from the same row-batched oracle calls, one per block of rows,
# that `energies` makes: they match the per-row oracle only up to rounding.

def gc_energy_row(gap, g, y_next, v, xstar, s, mu):
    combo = v + 2.0 * math.sqrt(mu) * (y_next - xstar) + math.sqrt(s) * g
    return (gap + 0.25 * float(v @ v) + 0.25 * float(combo @ combo)
            - 0.5 * s * float(g @ g))


def iv_energy_row(gap, v, x, xstar, s, mu):
    c = 1.0 + 2.0 * math.sqrt(mu * s)
    combo = v + 2.0 * math.sqrt(mu) * (x - xstar)
    return (gap + 0.25 * float(v @ v) / (c * c)
            + 0.25 * float(combo @ combo))


def energies_per_row(traj, form, grads=None):
    """The per-row reference; the gc form takes g_k from ``grads`` when
    given."""
    f = traj.objective
    gaps = traj.f_gap.tolist()
    ys, vs, xs = traj.ys, traj.vs, traj.xs
    if form == "gc":
        if grads is None:
            grads = np.empty((traj.K, f.dim))
            for block in _blocks(traj.K):
                grads[block] = f.value_and_grad_rows(ys[block])[1]
        rows = [gc_energy_row(gaps[k], grads[k], ys[k + 1], vs[k + 1],
                              f.minimizer, traj.s, f.mu)
                for k in range(traj.K)]
    else:
        rows = [iv_energy_row(gaps[k], vs[k + 1], xs[k + 1], f.minimizer,
                              traj.s, f.mu) for k in range(traj.K)]
    return np.array(rows, dtype=float)


def ode_energies_per_row(sol):
    f = sol.objective
    return np.array([iv_energy_row(gap, Xdot, X, f.minimizer, sol.s, f.mu)
                     for X, Xdot, gap in zip(sol.X, sol.Xdot,
                                             sol.f_gap.tolist())],
                    dtype=float)


def hand_trajectory(f, method, s, ys, vs, xs, f_gap=None):
    """A Trajectory from explicit rows; the gap column is f.gap(ys[k])
    unless given."""
    ys, vs, xs = (np.asarray(a, dtype=float) for a in (ys, vs, xs))
    if f_gap is None:
        f_gap = np.array([f.gap(y) for y in ys])
    return Trajectory(method_id=method, s=s, xs=xs, ys=ys, vs=vs,
                      f_gap=f_gap, grad_sq=np.full(len(ys), np.nan),
                      objective=f)


def hand_solution(f, s, X, Xdot):
    """An OdeSolution from explicit samples, its gap taken at the probe
    point."""
    X, Xdot = np.asarray(X, dtype=float), np.asarray(Xdot, dtype=float)
    k = step_coefficients(f.mu, s)
    f_gap = np.array([f.gap(probe_point(x, v, k))
                      for x, v in zip(X, Xdot)])
    return OdeSolution(t=np.arange(len(X)) * 0.01, X=X, Xdot=Xdot,
                       f_gap=f_gap, s=s, which="simplified", objective=f)


@pytest.fixture(scope="module")
def quad_1():
    return make_quadratic([1])


class TestGcEnergies:
    def test_zero_at_optimum(self, quad_1):
        traj = hand_trajectory(quad_1, "gc-phase", 1.0, ys=[one(0), one(0)],
                               vs=[one(0), one(0)], xs=[one(0), one(0)])
        assert energies(traj, "gc").tolist() == [0.0]

    def test_substitution(self, quad_1):
        # gap 0.5, kinetic 0, mixed (0 + 2 + 1)^2 / 4, gradient term -0.5
        traj = hand_trajectory(quad_1, "gc-phase", 1.0, ys=[one(1), one(1)],
                               vs=[one(5), one(0)], xs=[one(7), one(7)])
        e = energies(traj, "gc")
        assert e.dtype == np.float64 and e.shape == (1,)
        assert e[0] == pytest.approx(2.25)

    def test_contraction_along_trajectory(self):
        f = make_quadratic([1, 4])
        s = 0.25
        traj = run(f, "gc-phase", np.array([1.0, -0.7]), s, 400)
        e = energies(traj, "gc")
        rho = math.sqrt(f.mu * s) / 4.0
        diffs = e[1:] - e[:-1]
        assert np.all(diffs <= -rho * e[1:] + 1e-10)

    def test_nonnegative_below_one_over_L(self):
        f = make_quadratic([1, 4])
        traj = run(f, "gc-phase", np.array([1.0, 1.0]), 0.25, 300)
        assert energies(traj, "gc").min() >= -1e-12


class TestIvEnergies:
    def test_zero_at_optimum(self, quad_1):
        traj = hand_trajectory(quad_1, "iv-phase", 1.0, ys=[one(0), one(0)],
                               vs=[one(0), one(0)], xs=[one(0), one(0)])
        assert energies(traj, "iv").tolist() == [0.0]

    def test_substitution(self, quad_1):
        # gap 0.5, kinetic 0, mixed ||2||^2 / 4
        traj = hand_trajectory(quad_1, "iv-phase", 1.0, ys=[one(1), one(3)],
                               vs=[one(5), one(0)], xs=[one(7), one(1)])
        e = energies(traj, "iv")
        assert e.dtype == np.float64 and e.shape == (1,)
        assert e[0] == pytest.approx(1.5)

    def test_contraction_along_trajectory(self):
        f = make_quadratic([1, 100])
        s = 0.01
        traj = run(f, "iv-phase", np.array([1.0, 1.0]), s, 600)
        e = energies(traj, "iv")
        assert np.all(e[1:] <= e[:-1] / (1.0 + math.sqrt(f.mu * s) / 4.0) + 1e-10)

    def test_translation_invariance(self):
        base = make_quadratic([1, 4])
        shift = np.array([2.5, -1.5])
        shifted = Objective(
            dim=2, mu=base.mu, lipschitz=base.lipschitz,
            value_fn=lambda z: base.value_fn(z - shift),
            grad_fn=lambda z: base.grad_fn(z - shift),
            minimizer=shift, min_value=0.0, name="shifted-quad")
        rng = np.random.default_rng(3)
        ys, vs, xs = (rng.standard_normal((21, 2)) for _ in range(3))
        e0 = energies(hand_trajectory(base, "iv-phase", 0.25, ys, vs, xs),
                      "iv")
        e1 = energies(hand_trajectory(shifted, "iv-phase", 0.25, ys + shift,
                                      vs, xs + shift), "iv")
        assert len(e0) == 20
        np.testing.assert_allclose(e1, e0, rtol=1e-12, atol=1e-12)


class TestOdeEnergies:
    def test_zero_at_equilibrium(self, quad_1):
        sol = hand_solution(quad_1, 1.0, [one(0)], [one(0)])
        assert ode_energies(sol).tolist() == [0.0]

    def test_substitution(self, quad_1):
        # probe point 1: gap 0.5, kinetic 0, mixed ||2||^2 / 4
        e = ode_energies(hand_solution(quad_1, 1.0, [one(1)], [one(0)]))
        assert e.dtype == np.float64 and e.shape == (1,)
        assert e[0] == pytest.approx(1.5)

    def test_nonincreasing_along_integration(self):
        f = make_quadratic([1, 4])
        sol = integrate(f, np.array([1.0, 0.5]), s=0.25, T=5.0, h=1e-3)
        assert np.all(np.diff(ode_energies(sol)) <= 1e-8)

    @pytest.mark.parametrize("make, s", [
        (lambda: make_quadratic([1, 4], rotation_seed=3), 0.25),
        (lambda: resolve_minimizer(make_reg_logistic(3, 50, 2, 0.1)), 1.0),
    ])
    def test_matches_per_sample_formula(self, make, s):
        # the recorded probe gap is the potential the formula evaluates at
        # each sample, so the column agrees bit for bit
        f = make()
        sol = integrate(f, np.array([1.0, -0.5]), s, T=0.5, h=1e-2)
        c = 1.0 + 2.0 * math.sqrt(f.mu * s)
        want = [iv_energy_row(f.gap(X + math.sqrt(s) * Xdot / c), Xdot, X,
                              f.minimizer, s, f.mu)
                for X, Xdot in zip(sol.X, sol.Xdot)]
        assert ode_energies(sol).tolist() == want

    def test_potential_is_the_recorded_gap(self):
        f = make_quadratic([1, 4])
        sol = integrate(f, np.array([1.0, 0.5]), 0.25, T=0.1, h=1e-2)
        e = ode_energies(replace(sol, f_gap=np.zeros(len(sol))))
        assert e[0] == pytest.approx(0.5 * 0.5 * 4 * (1.0 + 0.25))

    def test_requires_minimizer(self):
        f = make_reg_logistic(3, 50, 2, 0.1)
        sol = integrate(f, np.ones(2), 1.0, T=0.1, h=1e-2)
        with pytest.raises(MinimizerUnknownError):
            ode_energies(sol)


B = _BLOCK_ROWS


@pytest.fixture(scope="module", params=["quad-rot50", "logistic"])
def block_objective(request):
    if request.param == "quad-rot50":
        return make_quadratic(np.linspace(1.0, 100.0, 50), rotation_seed=5)
    return resolve_minimizer(make_reg_logistic(3, 50, 2, 0.1))


class TestBlockBoundaries:
    """The column formulas, evaluated a block of rows at a time, equal the
    per-row loop bit for bit on either side of each block boundary."""

    @pytest.mark.parametrize("K", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("method, form", [("iv-phase", "iv"),
                                              ("gc-phase", "gc")])
    def test_energies(self, block_objective, method, form, K):
        f = block_objective
        x0 = np.linspace(-1.0, 1.0, f.dim)
        traj = run(f, method, x0, 1.0 / f.lipschitz, K)
        e = energies(traj, form)
        assert e.shape == (K,)
        assert e.tobytes() == energies_per_row(traj, form).tobytes()

    @pytest.mark.parametrize("K", [0, 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("rows_oracle", [True, False])
    def test_gc_energies_diagonal_or_per_row(self, rows_oracle, K):
        # a diagonal quadratic's row-batched gradients, and the per-row
        # fallback of an objective with no row-batched oracle, are the bits
        # of the per-row gradient oracle
        f = make_quadratic(np.linspace(1.0, 100.0, 50))
        if not rows_oracle:
            f = replace(make_quadratic(np.linspace(1.0, 100.0, 50),
                                       rotation_seed=5),
                        value_and_grad_rows_fn=None)
        x0 = np.linspace(-1.0, 1.0, f.dim)
        traj = run(f, "gc-phase", x0, 1.0 / f.lipschitz, K)
        grads = [f.grad(y) for y in traj.ys[:K]]
        assert (energies(traj, "gc").tobytes()
                == energies_per_row(traj, "gc", grads).tobytes())

    def test_ode_energies(self, block_objective):
        f = block_objective
        x0 = np.linspace(-1.0, 1.0, f.dim)
        h = 1e-2
        full = integrate(f, x0, 1.0 / f.lipschitz, T=(2 * B + 2) * h, h=h)
        for n in (0, 1, B - 1, B, B + 1, 2 * B + 3):
            sol = replace(full, t=full.t[:n], X=full.X[:n],
                          Xdot=full.Xdot[:n], f_gap=full.f_gap[:n])
            e = ode_energies(sol)
            assert e.shape == (n,)
            assert e.tobytes() == ode_energies_per_row(sol).tobytes()


class TestMinimizerRequired:
    @pytest.mark.parametrize("method, form", [("iv-phase", "iv"),
                                              ("gc-phase", "gc")])
    def test_unresolved_logistic_rejected(self, method, form):
        # finite recorded gaps do not stand in for a known minimizer
        f = make_reg_logistic(3, 50, 2, 0.1)
        zeros = np.zeros((2, 2))
        traj = hand_trajectory(f, method, 1.0, zeros, zeros, zeros,
                               f_gap=np.zeros(2))
        with pytest.raises(MinimizerUnknownError):
            energies(traj, form)

    @pytest.mark.parametrize("method, form", [("iv-phase", "iv"),
                                              ("gc-phase", "gc")])
    def test_unresolved_trajectory_rejected(self, method, form):
        # the recorded gaps are NaN here; reading them must not hide that
        f = make_reg_logistic(3, 50, 2, 0.1)
        traj = run(f, method, np.ones(2), 1.0 / f.lipschitz, 10)
        assert np.all(np.isnan(traj.f_gap))
        with pytest.raises(MinimizerUnknownError):
            energies(traj, form)
        with pytest.raises(MinimizerUnknownError):
            certify_contraction(traj, form)


class TestCertifyContraction:
    def test_optimum_start_trivially_certified(self):
        f = make_quadratic([1, 100])
        traj = run(f, "iv-phase", np.zeros(2), 0.01, 50)
        report = certify_contraction(traj, "iv")
        assert report.passed
        assert energies(traj, "iv").max() == 0.0

    def test_default_rate_certified(self):
        f = make_quadratic([1, 100])
        traj = run(f, "iv-phase", np.array([1.0, 1.0]), 0.01, 500)
        report = certify_contraction(traj, "iv")
        assert report.passed
        assert report.details["worst_step_factor"] <= report.details[
            "guaranteed_factor"] + 1e-10

    def test_overtight_rate_fails_early(self, monkeypatch):
        f = make_quadratic([1, 100])
        s = 0.01
        traj = run(f, "iv-phase", np.array([1.0, 1.0]), s, 500)
        overtight(monkeypatch, "iv", 40.0)  # rho = 10 sqrt(mu s)
        report = certify_contraction(traj, "iv")
        assert not report.passed
        assert report.first_failure is not None and report.first_failure < 50

    def test_suite_run_fails_sixteen_times_the_claim(self, monkeypatch):
        # the certificate has teeth on a gate run: on quad-ill's cached
        # iv-phase run at s = 1/L, 16 rho is a claim the energies break
        traj = acceptance._suite_run("quad-ill", "iv-phase", 1.0)
        assert certify_contraction(traj, "iv").passed
        overtight(monkeypatch, "iv", 16.0)
        report = certify_contraction(traj, "iv")
        assert (report.n_checked, report.n_failed,
                report.first_failure) == (999, 80, 2)

    @pytest.mark.parametrize("method, form", [
        ("iv-phase", "iv"), ("nag-modified", "iv"),
        ("gc-phase", "gc"), ("gc-modified", "gc")])
    def test_attached_column_gives_same_report(self, method, form,
                                               monkeypatch):
        f = make_quadratic([1, 100])
        x0 = np.array([1.0, -0.5])
        plain = run(f, method, x0, 0.01, 200)
        attached = run(f, method, x0, 0.01, 200)
        attach_energies(attached, form)
        assert plain.lyapunov is None and attached.lyapunov is not None
        for rate in (ENERGIES[form].rate, lambda mu, L, s: 0.3):
            monkeypatch.setitem(ENERGIES, form,
                                ENERGIES[form]._replace(rate=rate))
            assert (repr(certify_contraction(plain, form))
                    == repr(certify_contraction(attached, form)))

    @pytest.mark.parametrize("frac", [1.0, 0.5])
    @pytest.mark.parametrize("method, form", [("iv-phase", "iv"),
                                              ("gc-phase", "gc")])
    def test_resolved_factors_within_guarantee_on_logistic(self, method,
                                                            form, frac):
        # the logistic's energies fall to within an ulp of f* ~ 0.68; pairs
        # at that level are not resolved, so the worst factor is a real one
        traj = acceptance._suite_run("reg-logistic", method, frac)
        report = certify_contraction(traj, form)
        assert report.details["worst_step_factor"] <= report.details[
            "guaranteed_factor"]

    def test_incompatible_method_rejected(self):
        f = make_quadratic([1, 100])
        traj = run(f, "gd", np.array([1.0, 1.0]), 0.01, 10)
        with pytest.raises(ValueError):
            certify_contraction(traj, "iv")
        gc_traj = run(f, "gc-phase", np.array([1.0, 1.0]), 0.01, 10)
        with pytest.raises(ValueError):
            certify_contraction(gc_traj, "iv")


class TestInitialEnergy:
    def test_conventions_differ_only_in_velocity(self):
        f = make_quadratic([1, 100])
        x0 = np.array([1.0, 1.0])
        s = 0.01
        e_scheme = initial_energy(f, x0, s, "iv", convention="scheme")
        e_cor = initial_energy(f, x0, s, "iv", convention="corollary")
        assert e_scheme != e_cor

    def test_gc_initial_energy_bound(self):
        # E(0) <= f(x0) - f* + mu ||x0 - x*||^2 for the gc form
        f = make_quadratic([0.5, 3])
        x0 = np.array([1.0, -2.0])
        e0 = initial_energy(f, x0, 1.0 / 3.0, "gc")
        assert e0 <= f.gap(x0) + f.mu * float(x0 @ x0) + 1e-12
