import math
from dataclasses import replace

import numpy as np
import pytest

from accelcert import (certify_contraction, energies, initial_energy, integrate,
                       lyap_gc, lyap_iv, lyap_ode, make_quadratic,
                       make_reg_logistic, ode_energies, resolve_minimizer, run)
from accelcert.lyapunov import attach_energies
from accelcert.objectives import MinimizerUnknownError, Objective


def one(v):
    return np.array([float(v)])


@pytest.fixture(scope="module")
def quad_1():
    return make_quadratic([1])


class TestLyapGc:
    def test_zero_at_optimum(self, quad_1):
        assert lyap_gc(quad_1, one(0), one(0), one(0), s=1.0) == 0.0

    def test_substitution(self, quad_1):
        # gap 0.5, kinetic 0, mixed (0 + 2 + 1)^2 / 4, gradient term -0.5
        e = lyap_gc(quad_1, one(1), one(1), one(0), s=1.0)
        assert type(e) is float
        assert e == pytest.approx(2.25)

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


class TestLyapIv:
    def test_zero_at_optimum(self, quad_1):
        assert lyap_iv(quad_1, one(0), one(0), one(0), s=1.0) == 0.0

    def test_substitution(self, quad_1):
        # gap 0.5, kinetic 0, mixed ||2||^2 / 4
        e = lyap_iv(quad_1, one(1), one(0), one(1), s=1.0)
        assert type(e) is float
        assert e == pytest.approx(1.5)

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
        for _ in range(20):
            y = rng.standard_normal(2)
            v = rng.standard_normal(2)
            x = rng.standard_normal(2)
            e0 = lyap_iv(base, y, v, x, s=0.25)
            e1 = lyap_iv(shifted, y + shift, v, x + shift, s=0.25)
            assert e1 == pytest.approx(e0, rel=1e-12, abs=1e-12)


class TestLyapOde:
    def test_zero_at_equilibrium(self, quad_1):
        assert lyap_ode(quad_1, one(0), one(0), s=1.0) == 0.0

    def test_substitution(self, quad_1):
        e = lyap_ode(quad_1, one(1), one(0), s=1.0)
        assert type(e) is float
        assert e == pytest.approx(1.5)

    def test_nonincreasing_along_integration(self):
        f = make_quadratic([1, 4])
        sol = integrate(f, np.array([1.0, 0.5]), s=0.25, T=5.0, h=1e-3)
        e = np.array([lyap_ode(f, st.X, st.Xdot, 0.25) for st in sol])
        assert np.all(np.diff(e) <= 1e-8)


class TestOdeEnergies:
    @pytest.mark.parametrize("make, s", [
        (lambda: make_quadratic([1, 4], rotation_seed=3), 0.25),
        (lambda: resolve_minimizer(make_reg_logistic(3, 50, 2, 0.1)), 1.0),
    ])
    def test_matches_lyap_ode_per_sample(self, make, s):
        # the recorded probe gap is the potential lyap_ode evaluates, so
        # the column agrees bit for bit
        f = make()
        sol = integrate(f, np.array([1.0, -0.5]), s, T=0.5, h=1e-2)
        want = [lyap_ode(f, st.X, st.Xdot, s) for st in sol]
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


class TestMinimizerRequired:
    def test_unresolved_logistic_rejected(self):
        f = make_reg_logistic(3, 50, 2, 0.1)
        with pytest.raises(MinimizerUnknownError):
            lyap_iv(f, np.zeros(2), np.zeros(2), np.zeros(2), s=1.0)

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

    def test_overtight_rate_fails_early(self):
        f = make_quadratic([1, 100])
        s = 0.01
        traj = run(f, "iv-phase", np.array([1.0, 1.0]), s, 500)
        report = certify_contraction(traj, "iv", rho=10.0 * math.sqrt(f.mu * s))
        assert not report.passed
        assert report.first_failure is not None and report.first_failure < 50

    @pytest.mark.parametrize("method, form", [
        ("iv-phase", "iv"), ("nag-modified", "iv"),
        ("gc-phase", "gc"), ("gc-modified", "gc")])
    def test_attached_column_gives_same_report(self, method, form):
        f = make_quadratic([1, 100])
        x0 = np.array([1.0, -0.5])
        plain = run(f, method, x0, 0.01, 200)
        attached = run(f, method, x0, 0.01, 200)
        attach_energies(attached, form)
        assert plain.lyapunov_form is None and attached.lyapunov_form == form
        for rho in (None, 0.3):
            assert (repr(certify_contraction(plain, form, rho=rho))
                    == repr(certify_contraction(attached, form, rho=rho)))

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
        e_zero = initial_energy(f, x0, s, "iv", convention="zero")
        e_cor = initial_energy(f, x0, s, "iv", convention="corollary")
        assert e_zero == pytest.approx(f.gap(x0) + f.mu * float(x0 @ x0))
        assert e_scheme != e_zero and e_cor != e_zero

    def test_gc_initial_energy_bound(self):
        # E(0) <= f(x0) - f* + mu ||x0 - x*||^2 for the gc form
        f = make_quadratic([0.5, 3])
        x0 = np.array([1.0, -2.0])
        e0 = initial_energy(f, x0, 1.0 / 3.0, "gc")
        assert e0 <= f.gap(x0) + f.mu * float(x0 @ x0) + 1e-12
