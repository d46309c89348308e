import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from accelcert import (check_continuous_bound, integrate, make_quadratic,
                       make_reg_logistic, ode_energies, probe_point,
                       step_coefficients)
from accelcert.hires_ode import (NonFiniteSolutionError, OdeSolution, OdeState,
                                 _flow, _rk4_lane)
from accelcert.objectives import MinimizerUnknownError, resolve_minimizer
from accelcert.optimizers import _BLOCK_ROWS as B, StepCoefficients

# X(1) for X'' + 2 X' + X = 0 from X(0) = 1, X'(0) = 0: X(t) = (1 + t) e^{-t}
DAMPED_X1 = 0.7357588823428847  # 2 * exp(-1)


def one(v):
    return np.array([float(v)])


def xddot_of(f, s, which):
    """X'' of the ``which`` equation on ``f`` as a function of (X, X'),
    from :func:`_flow`: X' and the gradient at the probe point.  Written
    into a given array, as :func:`integrate` calls it, it has the bits of
    the new array it returns without one."""
    k, xddot, _ = _flow(f, s, which)

    def rhs(X, Xdot):
        g = f.grad(probe_point(X, Xdot, k))
        out = np.empty_like(Xdot)
        assert xddot(Xdot, g, out) is out
        np.testing.assert_array_equal(out, xddot(Xdot, g))
        return out
    return rhs


def rk4_reference(f, x0, s, T, h, which):
    """(X, X', f_gap) sampled as :func:`integrate` samples them, from the
    RK4 step written stage by stage with a new array for every term: the
    plain loop that integrate's stage buffer must match bit for bit."""
    k = step_coefficients(f.mu, s)
    root_s, c = k.root_s, k.c
    damping = -2.0 * math.sqrt(f.mu)

    def xddot(V, g):
        if which == "simplified":
            return damping * V - g
        return (damping * V - c * g) / (1.0 + k.r)

    def gap_and_grad(p):
        if f.min_value is None:
            return np.nan, f.grad(p)
        value, g = f.value_and_grad(p)
        return value - f.min_value, g

    half, sixth = 0.5 * h, h / 6.0
    X, V = np.array(x0, dtype=float), np.zeros(len(x0))
    Xs, Vs, gaps = [X], [V], []
    for _ in range(round(T / h)):
        gap, g = gap_and_grad(X + root_s * V / c)
        gaps.append(gap)
        A1 = xddot(V, g)
        V2 = V + half * A1
        A2 = xddot(V2, f.grad(X + half * V + root_s * V2 / c))
        V3 = V + half * A2
        A3 = xddot(V3, f.grad(X + half * V2 + root_s * V3 / c))
        V4 = V + h * A3
        A4 = xddot(V4, f.grad(X + h * V3 + root_s * V4 / c))
        X = X + sixth * (V + 2.0 * V2 + 2.0 * V3 + V4)
        V = V + sixth * (A1 + 2.0 * A2 + 2.0 * A3 + A4)
        Xs.append(X)
        Vs.append(V)
    gaps.append(gap_and_grad(X + root_s * V / c)[0])
    return np.array(Xs), np.array(Vs), np.array(gaps)


def poisoned_at_step(j, stage, min_value):
    """(f, calls): f(x) = x^2 / 2 whose gradient oracle returns inf at its
    (4(j - 1) + stage)-th call, RK4 stage ``stage`` of step j, so that
    sample j is the first non-finite one (at stage 4 only its X' is);
    ``calls`` counts the gradient calls.  Without a fused oracle every
    step makes four, with or without a known minimum."""
    quad = make_quadratic([1.0])
    calls = []

    def grad_fn(x):
        calls.append(x)
        if len(calls) == 4 * (j - 1) + stage:
            return np.full_like(x, np.inf)
        return quad.grad_fn(x)
    return replace(quad, grad_fn=grad_fn, value_and_grad_fn=None,
                   minimizer=None, min_value=min_value), calls


@pytest.fixture(scope="module")
def quad_1():
    return make_quadratic([1])


class TestRightHandSides:
    # xddot_of(f, s, which) is X'' as a function of (X, X'); dX = X'
    def test_simplified_equilibrium(self, quad_1):
        dv = xddot_of(quad_1, 1.0, "simplified")(one(0), one(0))
        assert dv == pytest.approx([0.0])

    def test_simplified_at_rest(self, quad_1):
        dv = xddot_of(quad_1, 1.0, "simplified")(one(1), one(0))
        assert dv == pytest.approx([-1.0])

    def test_simplified_moving(self, quad_1):
        # probe = 0 + 1/3; dv = -2 - 1/3
        dv = xddot_of(quad_1, 1.0, "simplified")(one(0), one(1))
        assert dv == pytest.approx([-7.0 / 3.0])

    def test_original_equilibrium(self, quad_1):
        dv = xddot_of(quad_1, 1.0, "original")(one(0), one(0))
        assert dv == pytest.approx([0.0])

    def test_original_at_rest(self, quad_1):
        # (1 + 2 sqrt(mu s)) / (1 + sqrt(mu s)) * grad = 3/2
        dv = xddot_of(quad_1, 1.0, "original")(one(1), one(0))
        assert dv == pytest.approx([-1.5])

    def test_forms_agree_in_small_s_limit(self):
        f = make_quadratic([0.5, 3])
        rng = np.random.default_rng(4)
        s = 1e-8
        simplified = xddot_of(f, s, "simplified")
        original = xddot_of(f, s, "original")
        for _ in range(20):
            st = OdeState(0.0, rng.standard_normal(2), rng.standard_normal(2))
            dv_a = simplified(st.X, st.Xdot)
            dv_b = original(st.X, st.Xdot)
            scale = max(1.0, np.linalg.norm(st.X), np.linalg.norm(st.Xdot))
            assert np.linalg.norm(dv_a - dv_b) < 1e-3 * scale

    def test_simplified_is_original_with_unit_coefficients(self):
        # the simplified right-hand side is the original one with the
        # coefficients 1 + sqrt(mu s) on X'' and c on the gradient set to 1;
        # against a per-equation reference formula, bit for bit
        f = make_quadratic([0.5, 3], rotation_seed=2)
        s = 0.3
        c = 1.0 + 2.0 * math.sqrt(f.mu * s)
        rng = np.random.default_rng(5)
        for _ in range(5):
            X, Xdot = rng.standard_normal(2), rng.standard_normal(2)
            g = f.grad(probe_point(X, Xdot, step_coefficients(f.mu, s)))
            damped = -2.0 * math.sqrt(f.mu) * Xdot
            np.testing.assert_array_equal(
                xddot_of(f, s, "simplified")(X, Xdot), damped - g)
            np.testing.assert_array_equal(
                xddot_of(f, s, "original")(X, Xdot),
                (damped - c * g) / (1.0 + math.sqrt(f.mu * s)))


class TestIntegrate:
    def test_zero_horizon(self, quad_1):
        sol = integrate(quad_1, one(1), s=0.25, T=0.0, h=1e-2)
        assert len(sol) == 1
        assert sol[0].t == 0.0 and sol[0].X == pytest.approx([1.0])

    def test_closed_form_limit(self, quad_1):
        # s = 0 is the exact critically damped limit dynamics
        sol = integrate(quad_1, one(1), s=0.0, T=1.0, h=1e-3)
        assert abs(float(sol[-1].X[0]) - DAMPED_X1) <= 1e-8

    def test_small_s_stays_near_limit(self, quad_1):
        # the sqrt(s) velocity correction perturbs the endpoint at the
        # ~sqrt(s)/6e scale: about 6e-8 at s = 1e-12
        sol = integrate(quad_1, one(1), s=1e-12, T=1.0, h=1e-3)
        assert abs(float(sol[-1].X[0]) - DAMPED_X1) <= 1e-7

    def test_rk4_order(self, quad_1):
        errs = []
        for h in (1e-2, 5e-3):
            sol = integrate(quad_1, one(1), s=0.0, T=1.0, h=h)
            errs.append(abs(float(sol[-1].X[0]) - DAMPED_X1))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_rejects_bad_step(self, quad_1):
        with pytest.raises(ValueError):
            integrate(quad_1, one(1), s=0.25, T=1.0, h=0.0)
        with pytest.raises(ValueError):
            integrate(quad_1, one(1), s=0.25, T=-1.0, h=1e-2)
        with pytest.raises(ValueError):
            integrate(quad_1, one(1), s=0.25, T=1.0, h=1e-2, which="exact")

    @pytest.mark.parametrize("spectrum, x0", [([1.0], [1.0, 2.0]),
                                              ([1.0, 4.0], [1.0])])
    def test_rejects_start_of_wrong_shape(self, spectrum, x0):
        # unchecked, a longer start broadcasts into a wider solution, and a
        # shorter one fails inside numpy's matmul
        f = make_quadratic(spectrum)
        with pytest.raises(ValueError, match=rf"x0 has shape \({len(x0)},\), "
                           rf"objective dimension is {len(spectrum)}"):
            integrate(f, x0, 0.25, 1.0, 0.01)

    @pytest.mark.parametrize("s", [-1.0, float("nan")])
    def test_rejects_negative_s(self, quad_1, s):
        # s = 0 stays valid: it is the limit test_closed_form_limit checks
        with pytest.raises(ValueError, match="s must be nonnegative"):
            integrate(quad_1, one(1), s, 1.0, 0.01)

    def test_nonfinite_reported(self):
        f = make_quadratic([1, 4])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteSolutionError):
                integrate(f, np.array([1.0, 1.0]), s=0.25, T=1000.0, h=10.0)

    @pytest.mark.parametrize("j", [1, 2, B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("extra", [0, 1, B])
    @pytest.mark.parametrize("stage, min_value", [(1, 0.0), (1, None),
                                                  (4, 0.0)])
    def test_nonfinite_time_at_block_boundaries(self, j, extra, stage,
                                                min_value):
        # n = j + extra steps; n = j ends inside a block, at the first
        # non-finite sample
        f, calls = poisoned_at_step(j, stage, min_value)
        h = 0.5
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteSolutionError) as err:
                integrate(f, one(1), s=0.25, T=(j + extra) * h, h=h)
        assert err.value.t == j * h
        # steps 1..j made 4j calls; the solution stops at the end of j's
        # block
        assert 4 * j <= len(calls) <= 4 * (j + B - 1)

    def test_nonfinite_start(self, quad_1):
        # X(0) is checked before any step, so also T = 0 rejects it
        x0 = one(np.nan)
        for steps in (0, 1, 2 * B):
            with pytest.raises(ValueError, match="x0 must be finite"):
                integrate(quad_1, x0, 0.25, steps * 0.5, 0.5)

    def test_equilibrium_stability(self):
        f = make_quadratic([1, 4])
        sol = integrate(f, np.zeros(2), s=0.25, T=2.0, h=1e-3)
        drift = max(float(np.max(np.abs(st.X))) for st in sol)
        assert drift <= 1e-12

    @pytest.mark.parametrize("which", ["simplified", "original"])
    @pytest.mark.parametrize("dim", [1, 2, 20])
    @pytest.mark.parametrize("objective", ["quad", "logistic"])
    @pytest.mark.parametrize("known_min", [True, False])
    def test_matches_plain_rk4_loop(self, which, dim, objective, known_min):
        # 600 steps span several 256-row blocks
        if objective == "quad":
            f = make_quadratic(np.logspace(0, 1, dim), rotation_seed=dim)
            if not known_min:
                f = replace(f, minimizer=None, min_value=None)
        else:
            f = make_reg_logistic(dim, 60, dim, 0.1)
            if known_min:
                f = resolve_minimizer(f)
        assert (f.min_value is not None) == known_min
        x0 = np.random.default_rng(dim).uniform(-2.0, 2.0, dim)
        s, T, h = 0.3 / f.lipschitz, 6.0, 0.01
        sol = integrate(f, x0, s, T, h, which)
        X, Xdot, f_gap = rk4_reference(f, x0, s, T, h, which)
        assert len(sol) == 601
        np.testing.assert_array_equal(sol.X, X)
        np.testing.assert_array_equal(sol.Xdot, Xdot)
        np.testing.assert_array_equal(sol.f_gap, f_gap)

    def test_deterministic(self, quad_1):
        a = integrate(quad_1, one(1), s=0.25, T=1.0, h=1e-3)
        b = integrate(quad_1, one(1), s=0.25, T=1.0, h=1e-3)
        np.testing.assert_array_equal(a[-1].X, b[-1].X)
        np.testing.assert_array_equal(a[-1].Xdot, b[-1].Xdot)

    def test_lane_steps_exactly_on_fractions(self):
        # mu = 1, s = 1/100: sqrt(s) = sqrt(mu s) = 1/10, so the record and
        # the simplified equation's X'' = -2 X' - g are rational, and one
        # step of the lane is the exact RK4 map of lambda = 4, h = 1/100
        F = Fraction
        k = StepCoefficients(s=F(1, 100), root_s=F(1, 10), r=F(1, 10),
                             c=F(6, 5), m=F(9, 11))
        lam, h, x0, v0 = F(4), F(1, 100), F(1), F(1, 2)

        def accel(v, g):
            return -2 * v - g

        def slope(x, v):  # (X', X'') with the gradient at the probe
            return v, accel(v, lam * (x + F(1, 10) * v / F(6, 5)))

        k1 = slope(x0, v0)
        k2 = slope(x0 + h / 2 * k1[0], v0 + h / 2 * k1[1])
        k3 = slope(x0 + h / 2 * k2[0], v0 + h / 2 * k2[1])
        k4 = slope(x0 + h * k3[0], v0 + h * k3[1])
        want = [z + h / 6 * (a + 2 * b + 2 * c + d)
                for z, a, b, c, d in zip((x0, v0), k1, k2, k3, k4)]
        xs, vs = _rk4_lane(lam, x0, v0, 1, k, accel, h)
        assert [xs, vs] == [[want[0]], [want[1]]]
        assert all(type(z) is F for z in xs + vs)


class TestOdeSolution:
    def test_columns_and_rows(self):
        f = make_quadratic([1, 4])
        sol = integrate(f, np.array([1.0, 0.5]), s=0.25, T=0.5, h=0.1)
        assert isinstance(sol, OdeSolution)
        assert (sol.s, sol.which, sol.objective) == (0.25, "simplified", f)
        assert sol.t.shape == sol.f_gap.shape == (6,)
        assert sol.X.shape == sol.Xdot.shape == (6, 2)
        assert len(sol) == 6
        assert sol.t.tolist() == [i * 0.1 for i in range(6)]
        rows = list(sol)
        assert len(rows) == 6 and all(isinstance(st, OdeState) for st in rows)
        last = sol[-1]
        assert type(last.t) is float and last.t == sol.t[5]
        np.testing.assert_array_equal(last.X, sol.X[5])
        np.testing.assert_array_equal(last.Xdot, sol.Xdot[5])
        np.testing.assert_array_equal(sol.Xdot[0], [0.0, 0.0])

    def test_records_probe_gap(self):
        f = make_quadratic([1, 4], rotation_seed=1)
        sol = integrate(f, np.array([1.0, 0.5]), s=0.25, T=0.5, h=0.1)
        k = step_coefficients(f.mu, 0.25)
        want = [f.gap(probe_point(st.X, st.Xdot, k)) for st in sol]
        assert sol.f_gap.tolist() == want

    def test_unknown_minimum_records_nan(self):
        f = make_reg_logistic(3, 50, 2, 0.1)
        sol = integrate(f, np.ones(2), s=1.0, T=0.1, h=1e-2)
        assert len(sol) == 11 and np.all(np.isnan(sol.f_gap))


class TestContinuousBound:
    def test_initial_sample(self, quad_1):
        # at t = 0: RHS = (0.5 + 1)/2 = 0.75 >= LHS = 0.5
        sol = integrate(quad_1, one(1), s=1.0, T=0.0, h=1e-2)
        report = check_continuous_bound(sol, quad_1, s=1.0, mu=1.0)
        assert report.passed
        assert report.worst_margin == pytest.approx(0.25, abs=1e-6)

    def test_report_gives_the_start_condition(self):
        # f(x0) - f* = (1 + 4 * 2.25) / 2 = 5 > mu ||x0 - x*||^2 = 3.25, so
        # the envelope fails at t = 0, and the report says by how much
        f = make_quadratic([1, 4])
        sol = integrate(f, np.array([1.0, 1.5]), s=0.25, T=0.1, h=1e-2)
        report = check_continuous_bound(sol, f, s=0.25, mu=f.mu)
        assert report.first_failure == 0
        assert report.details["start_gap"] == 5.0
        assert report.details["start_mu_dist_sq"] == 3.25

    def test_quadratic_horizon(self):
        f = make_quadratic([1, 4])
        sol = integrate(f, np.array([1.0, 0.5]), s=0.25, T=5.0, h=1e-3)
        report = check_continuous_bound(sol, f, s=0.25, mu=1.0)
        assert report.passed
        assert report.details["bound_failures"] == 0
        assert report.details["decay_failures"] == 0

    def test_unresolved_objective_rejected(self):
        # the recorded gaps are NaN here; reading f(x_0) from them must not
        # hide that
        f = make_reg_logistic(3, 50, 2, 0.1)
        sol = integrate(f, np.ones(2), s=1.0, T=0.1, h=1e-2)
        with pytest.raises(MinimizerUnknownError):
            check_continuous_bound(sol, f, s=1.0, mu=f.mu)

    def test_rejects_original_equation(self):
        # the theorem is stated for the simplified equation only
        f = make_quadratic([1, 4])
        sol = integrate(f, np.array([1.0, 0.5]), s=0.25, T=0.1, h=1e-2,
                        which="original")
        with pytest.raises(ValueError, match="simplified"):
            check_continuous_bound(sol, f, s=0.25, mu=f.mu)

    def test_inflated_decay_rate_fails(self, quad_1):
        # the certified per-step energy factor is exp(-sqrt(mu) h / 4);
        # inflating the exponent to sqrt(mu) must be violated: started from
        # rest on f = x^2/2 the initial decay rate is only ~(2/3) sqrt(mu)
        h = 1e-3
        sol = integrate(quad_1, one(1), s=0.01, T=2.0, h=h)
        report = check_continuous_bound(sol, quad_1, s=0.01, mu=1.0)
        assert report.passed  # the stated rates hold...
        e = ode_energies(sol)
        inflated = math.exp(-math.sqrt(quad_1.mu) * h) + 1e-8
        ratios = e[1:] / e[:-1]
        assert np.max(ratios) > inflated  # ...but a 4x faster rate does not
        assert int(np.argmax(ratios > inflated)) < 100  # violated early

    def test_energy_ratio_within_certified_decay(self):
        f = make_quadratic([1, 4])
        sol = integrate(f, np.array([1.0, 0.5]), s=0.25, T=5.0, h=1e-3)
        e = ode_energies(sol)
        limit = math.exp(-math.sqrt(f.mu) * 1e-3 / 4.0) + 1e-8
        assert np.max(e[1:] / e[:-1]) <= limit
