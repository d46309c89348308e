import warnings
from fractions import Fraction

import numpy as np
import pytest

from accelcert import (Objective, bound_curve, make_quadratic,
                       make_reg_logistic, resolve_minimizer, run)
from accelcert.optimizers import (METHODS, STEPS, NonFiniteIterateError,
                                  StepCoefficients, _step_operands,
                                  step_coefficients, step_guaranteed)


def step_1d(method, x, y=None, v=0.0, s=1.0, carry=None):
    """One kernel step on ``quad_1`` (f = x^2 / 2, mu = 1), given
    grad f(x) = x: every kernel takes its gradient at y, and these tests
    step from y = x unless they pass another y."""
    x = np.array([float(x)])
    y = x.copy() if y is None else np.array([float(y)])
    return STEPS[method](step_coefficients(1.0, s), x, y, np.array([float(v)]),
                         x.copy(), carry)


def step_at(f, method, x, s, carry=None):
    """One kernel step on ``f`` from x = y = ``x`` at rest, with the
    gradient at ``x``."""
    x = np.asarray(x, dtype=float)
    return STEPS[method](step_coefficients(f.mu, s), x, x.copy(),
                         np.zeros(f.dim), f.grad(x), carry)


@pytest.fixture(scope="module")
def quad_1():
    return make_quadratic([1])


@pytest.fixture(scope="module")
def quad_ill():
    return make_quadratic([1, 100])


class TestGdStep:
    def test_one_step_exact(self):
        x1, *_ = step_1d("gd", 1.0, s=1.0)
        assert x1 == pytest.approx([0.0])

    def test_contraction_factor(self):
        x1, *_ = step_1d("gd", 1.0, s=0.5)
        assert x1 == pytest.approx([0.5])

    def test_coordinatewise(self, quad_ill):
        x1, *_ = step_at(quad_ill, "gd", [1.0, 1.0], 0.01)
        np.testing.assert_allclose(x1, [0.99, 0.0])

    def test_y_and_v_copied_through(self):
        # y_{k+1} is x_{k+1}, where the next gradient is taken
        x1, y1, v1, _ = step_1d("gd", 1.0, y=0.3, v=0.7)
        np.testing.assert_array_equal(y1, x1)
        assert v1 == pytest.approx([0.7])


class TestHeavyBallStep:
    def test_beta_zero_is_gd(self, quad_ill):
        # mu s = 1 makes beta = ((1 - 1) / (1 + 1))^2 exactly 0
        assert step_coefficients(quad_ill.mu, 1.0).m ** 2 == 0.0
        x = np.array([1.0, -2.0])
        args = (step_coefficients(quad_ill.mu, 1.0), x, x.copy(),
                np.array([0.4, 0.1]), quad_ill.grad(x), None)
        np.testing.assert_array_equal(STEPS["heavy-ball"](*args)[0],
                                      STEPS["gd"](*args)[0])

    def test_substitution(self):
        # mu s = 1/4: beta = ((1 - 1/2) / (1 + 1/2))^2 = 1/9
        assert step_coefficients(1.0, 0.25).m ** 2 == pytest.approx(1 / 9)
        x1, *_ = step_1d("heavy-ball", 1.0, v=0.3, s=0.25)
        assert x1 == pytest.approx([0.75 + 0.3 / 9])

    def test_pure_momentum(self):
        x1, _, v1, _ = step_1d("heavy-ball", 0.0, v=1.0, s=0.25)
        assert x1 == pytest.approx([1 / 9])
        assert v1 == pytest.approx([1 / 9])  # new displacement


class TestNagClassicStep:
    def test_momentum_vanishes_at_mus_one(self):
        x1, y1, _, _ = step_1d("nag-classic", 1.0, s=1.0)
        assert x1 == pytest.approx([0.0])
        assert y1 == pytest.approx([0.0])

    def test_substitution(self):
        x1, y1, _, _ = step_1d("nag-classic", 1.0, s=0.25)
        assert x1 == pytest.approx([0.75])
        assert y1 == pytest.approx([2.0 / 3.0])  # 0.75 - 0.25/3

    def test_beats_gd_on_ill_conditioned(self, quad_ill):
        x0 = np.array([1.0, 1.0])
        nag = run(quad_ill, "nag-classic", x0, 0.01, 200)
        gd = run(quad_ill, "gd", x0, 0.01, 200)
        assert nag.f_gap[-1] < gd.f_gap[-1]


class TestNagModifiedStep:
    def test_substitution_s1(self):
        x1, y1, _, _ = step_1d("nag-modified", 1.0, s=1.0)
        assert x1 == pytest.approx([0.0])
        assert y1 == pytest.approx([-1.0 / 3.0])

    def test_substitution_s025(self):
        x1, y1, _, _ = step_1d("nag-modified", 1.0, s=0.25)
        assert x1 == pytest.approx([0.75])
        assert y1 == pytest.approx([0.625])

    def test_stationary_fixed_point(self, quad_ill):
        x1, y1, _, _ = step_at(quad_ill, "nag-modified", np.zeros(2), 0.01)
        np.testing.assert_array_equal(x1, np.zeros(2))
        np.testing.assert_array_equal(y1, np.zeros(2))


class TestGcSteps:
    def test_single_sequence_substitution(self):
        # quad_1 has mu = 1; the carry is (y_{k-1}, grad f(y_{k-1}))
        _, y1, _, carry = step_1d("gc-modified", 1.0, s=1.0,
                                  carry=(np.array([1.0]), np.array([1.0])))
        assert y1 == pytest.approx([2.0 / 3.0])
        # y_k and grad f(y_k), carried into the next step
        assert carry[0] == pytest.approx([1.0])
        assert carry[1] == pytest.approx([1.0])

    def test_single_sequence_stationary(self):
        _, y1, _, _ = step_1d("gc-modified", 0.0, s=0.5,
                              carry=(np.zeros(1), np.zeros(1)))
        assert y1 == pytest.approx([0.0])

    def test_phase_initialization(self, quad_1):
        # first step realizes v_0 = -sqrt(s) grad f(x_0) / (1 + 2 sqrt(mu s)),
        # from the virtual start grad f(y_{-1}) = grad f(y_0)
        _, y1, v1, carry = step_1d("gc-phase", 1.0, s=1.0, carry=np.array([1.0]))
        assert v1 == pytest.approx([-1.0 / 3.0])
        assert y1 == pytest.approx([2.0 / 3.0])
        assert carry == pytest.approx([1.0])  # grad f(y_0)
        traj = run(quad_1, "gc-phase", np.array([1.0]), 1.0, 1)
        np.testing.assert_array_equal(traj.vs[1], v1)
        np.testing.assert_array_equal(traj.ys[1], y1)

    @pytest.mark.parametrize("method", ["gc-phase", "gc-modified"])
    @pytest.mark.parametrize("operands", [step_coefficients, _step_operands])
    def test_none_carry_is_the_virtual_start(self, method, operands):
        # a first step from carry None is bit-equal to the explicit seeding
        # grad f(y_{-1}) = grad f(y_0) (and y_{-1} = y_0 for gc-modified)
        f = make_quadratic([0.5, 3, 40], rotation_seed=5)
        k = operands(f.mu, 0.02)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x, y, v = (rng.standard_normal(3) for _ in range(3))
            g = f.grad(y)
            seed = g if method == "gc-phase" else (y, g)
            got = STEPS[method](k, x, y, v, g, None)
            want = STEPS[method](k, x, y, v, g, seed)
            for a, b in zip(got[:3], want[:3]):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(np.hstack(got[3]),
                                          np.hstack(want[3]))

    def test_phase_fixed_point(self, quad_ill):
        _, y1, v1, _ = step_at(quad_ill, "gc-phase", np.zeros(2), 0.01,
                               carry=np.zeros(2))
        np.testing.assert_array_equal(y1, np.zeros(2))
        np.testing.assert_array_equal(v1, np.zeros(2))

    def test_representations_agree_50_steps(self):
        f = make_quadratic([1, 4])
        x0 = np.array([1.0, 1.0])
        phase = run(f, "gc-phase", x0, 0.25, 50)
        single = run(f, "gc-modified", x0, 0.25, 50)
        assert np.max(np.abs(phase.ys - single.ys)) <= 1e-12

    def test_representations_agree_random_quad(self):
        f = make_quadratic([0.5, 3])
        x0 = np.array([-1.2, 0.4])
        s = 1.0 / 3.0
        phase = run(f, "gc-phase", x0, s, 100)
        single = run(f, "gc-modified", x0, s, 100)
        assert np.max(np.abs(phase.ys - single.ys)) <= 1e-12


class TestIvPhaseStep:
    def test_substitution(self, quad_1):
        x1, y1, v1, carry = step_1d("iv-phase", 1.0, s=1.0)
        assert v1 == pytest.approx([-1.0])
        assert x1 == pytest.approx([0.0])
        # the new y matches the two-sequence y_1
        assert y1 == pytest.approx([-1.0 / 3.0])
        assert carry is None
        traj = run(quad_1, "iv-phase", np.array([1.0]), 1.0, 1)
        np.testing.assert_array_equal(traj.xs[1], x1)
        np.testing.assert_array_equal(traj.ys[1], y1)

    def test_prescribed_first_velocity(self):
        # a carry replaces the recursion's velocity once, then is dropped
        x1, _, v1, carry = step_1d("iv-phase", 1.0, s=1.0, carry=np.array([0.5]))
        assert v1 == pytest.approx([0.5])
        assert x1 == pytest.approx([1.5])
        assert carry is None

    def test_fixed_point(self, quad_ill):
        x1, _, v1, _ = step_at(quad_ill, "iv-phase", np.zeros(2), 0.01)
        np.testing.assert_array_equal(x1, np.zeros(2))
        np.testing.assert_array_equal(v1, np.zeros(2))

    def test_matches_two_sequence_500_steps(self, quad_ill):
        x0 = np.array([1.0, 1.0])
        iv = run(quad_ill, "iv-phase", x0, 0.01, 500)
        two = run(quad_ill, "nag-modified", x0, 0.01, 500)
        assert np.max(np.abs(iv.xs - two.xs)) <= 1e-10


class TestRun:
    def test_empty_run(self, quad_1):
        traj = run(quad_1, "gd", np.array([1.0]), 0.5, 0)
        assert len(traj) == 1
        assert traj.f_gap[0] == pytest.approx(0.5)

    def test_gd_one_step_exact_gaps(self, quad_1):
        traj = run(quad_1, "gd", np.array([1.0]), 1.0, 3)
        np.testing.assert_allclose(traj.f_gap, [0.5, 0.0, 0.0, 0.0])

    def test_iv_phase_meets_rate_bound(self, quad_ill):
        from accelcert import check_bound
        traj = run(quad_ill, "iv-phase", np.array([1.0, 1.0]), 0.01, 300)
        assert check_bound(traj, "rate-iv").passed

    def test_unknown_method_rejected(self, quad_1):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            run(quad_1, "bogus", np.array([1.0]), 0.5, 1)

    def test_unknown_first_velocity_rejected(self, quad_1):
        with pytest.raises(ValueError, match="unknown first_velocity 'nope'"):
            run(quad_1, "iv-phase", np.array([1.0]), 0.5, 1,
                first_velocity="nope")

    def test_dimension_mismatch_rejected(self, quad_ill):
        with pytest.raises(ValueError, match=r"x0 has shape \(1,\)"):
            run(quad_ill, "gd", np.array([1.0]), 0.01, 1)

    @pytest.mark.parametrize("method, x0, s, first_velocity", [
        ("bogus", np.ones(2), 1.0, "scheme"),
        ("gd", np.ones(3), 1.0, "scheme"),
        ("gd", np.ones(2), float("nan"), "scheme"),
        ("iv-phase", np.ones(2), 1.0, "nope"),
        ("nag-classic", np.ones(3), 2.0, "scheme")],
        ids=["method", "x0-shape", "s-nan", "first-velocity", "classic-x0"])
    def test_bad_input_rejected_before_any_warning(self, quad_ill, method, x0,
                                                   s, first_velocity):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                run(quad_ill, method, x0, s, 10, first_velocity=first_velocity)

    @pytest.mark.parametrize("K", [2.5, 3.0, True, np.True_, "3", None])
    def test_non_integer_K_rejected(self, quad_ill, K):
        # 2.5 and True used to reach numpy and raise its TypeError
        with pytest.raises(ValueError, match="K must be an integer"):
            run(quad_ill, "gd", np.ones(2), 0.01, K)

    @pytest.mark.parametrize("K", [np.int64(3), np.uint8(255)])
    def test_numpy_integer_K(self, quad_ill, K):
        assert run(quad_ill, "gd", np.ones(2), 0.01, K).K == int(K)

    def test_warns_above_one_over_L(self, quad_ill):
        with pytest.warns(UserWarning, match="exceeds 1/L"):
            run(quad_ill, "gd", np.array([0.1, 0.1]), 0.02, 1)

    @pytest.mark.parametrize("rel, inside", [(0.0, True), (1e-13, True),
                                             (1e-11, False)])
    def test_step_window_edge(self, quad_ill, rel, inside):
        # run and bound_curve warn outside one window, s <= 1/L up to the
        # rounding of 1/L
        s = 1.0 / quad_ill.lipschitz * (1.0 + rel)
        assert step_guaranteed(s, quad_ill.lipschitz) is inside
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(quad_ill, "gd", np.array([0.1, 0.1]), s, 1)
            bound_curve("gd", 1.0, 1.0, quad_ill.mu, quad_ill.lipschitz, s, 1)
        assert len(caught) == (0 if inside else 2)

    def test_determinism_bit_identical(self, quad_ill):
        a = run(quad_ill, "iv-phase", np.array([1.0, -0.5]), 0.01, 200)
        b = run(quad_ill, "iv-phase", np.array([1.0, -0.5]), 0.01, 200)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.f_gap, b.f_gap)
        np.testing.assert_array_equal(a.grad_norm, b.grad_norm)

    def test_heavy_ball_converges(self, quad_ill):
        traj = run(quad_ill, "heavy-ball", np.array([1.0, 1.0]), 0.01, 500)
        assert traj.f_gap[-1] < 1e-8

    def test_records_k_floor(self, quad_ill):
        traj = run(quad_ill, "nag-modified", np.array([1.0, 1.0]), 0.01, 400)
        assert np.all(traj.f_gap >= -1e-12)

    def test_nonfinite_reported_with_step(self, quad_ill):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.warns(UserWarning):
                with pytest.raises(NonFiniteIterateError) as err:
                    run(quad_ill, "gd", np.array([1.0, 1.0]), 10.0, 2000)
        assert err.value.k > 0


#: The coefficients at mu = 1, s = 1/100 (L = 100), exactly:
#: sqrt(s) = sqrt(mu s) = 1/10, c = 6/5 and m = 9/11.
EXACT = StepCoefficients(s=Fraction(1, 100), root_s=Fraction(1, 10),
                         r=Fraction(1, 10), c=Fraction(6, 5), m=Fraction(9, 11))


def exact_run(method, lam, K, first_velocity="scheme"):
    """The states (x_k, y_k, v_k), k = 0..K, of ``run`` from x_0 = 1 on
    f(x) = lam x^2 / 2 (d = 1) at the ``EXACT`` coefficients, stepped on
    Fractions; every output of every step is checked to be a Fraction."""
    x = y = Fraction(1)
    v = Fraction(0)
    g = lam * x
    carry = {"gc-phase": g, "gc-modified": (y, g)}.get(method)
    if method == "iv-phase" and first_velocity == "corollary":
        carry = 2 * EXACT.r * g
    states = [(x, y, v)]
    for _ in range(K):
        x, y, v, carry = STEPS[method](EXACT, x, y, v, g, carry)
        leaves = [x, y, v, *(carry if isinstance(carry, tuple) else [carry])]
        assert all(isinstance(leaf, Fraction)
                   for leaf in leaves if leaf is not None), method
        g = lam * y
        states.append((x, y, v))
    return states


class TestExactArithmetic:
    """No kernel holds a float literal, so the kernels step Fractions
    exactly, and the float run follows the exact one to rounding."""

    def test_coefficients_are_the_float_ones(self):
        floats = step_coefficients(1.0, 0.01)
        for exact, rounded in zip(EXACT, floats):
            assert float(exact) == pytest.approx(rounded, rel=1e-15, abs=0)

    @pytest.mark.parametrize("lam", [1, 100])
    @pytest.mark.parametrize("method, first_velocity", [
        *((method, "scheme") for method in METHODS),
        ("iv-phase", "corollary")])
    def test_float_run_follows_the_exact_run(self, method, first_velocity,
                                             lam):
        f = Objective(dim=1, mu=1.0, lipschitz=100.0,
                      value_fn=lambda x: 0.5 * lam * float(x @ x),
                      grad_fn=lambda x: lam * x, minimizer=[0.0],
                      min_value=0.0)
        traj = run(f, method, np.array([1.0]), 0.01, 200,
                   first_velocity=first_velocity)
        exact = np.array(exact_run(method, lam, 200, first_velocity),
                         dtype=float)
        got = np.stack([traj.xs[:, 0], traj.ys[:, 0], traj.vs[:, 0]], axis=1)
        assert np.max(np.abs(got - exact)) <= 1e-14


class TestRewritingEquivalences:
    # accumulated-rounding allowance over 1000 steps
    TOL = 1e-9

    @pytest.mark.parametrize("frac", [1.0, 0.5])
    def test_equivalences_on_shipped_objectives(self, frac):
        objectives = [
            make_quadratic([1, 100]),
            make_quadratic([0.5, 3]),
            make_quadratic(np.logspace(0, 3, 20)),
            make_quadratic([0.5, 3], rotation_seed=11),
            resolve_minimizer(make_reg_logistic(3, 50, 2, 0.1)),
        ]
        for f in objectives:
            s = frac / f.lipschitz
            rng = np.random.default_rng(17)
            x0 = rng.standard_normal(f.dim)
            iv = run(f, "iv-phase", x0, s, 1000)
            two = run(f, "nag-modified", x0, s, 1000)
            assert np.max(np.abs(iv.xs - two.xs)) <= self.TOL, f.name
            gc_p = run(f, "gc-phase", x0, s, 1000)
            gc_s = run(f, "gc-modified", x0, s, 1000)
            assert np.max(np.abs(gc_p.ys - gc_s.ys)) <= self.TOL, f.name


class TestSchemeInequalities:
    def test_gd_descent(self):
        for f in (make_quadratic([1, 100]),
                  resolve_minimizer(make_reg_logistic(3, 50, 2, 0.1))):
            traj = run(f, "gd", np.full(f.dim, 1.5), 1.0 / f.lipschitz, 300)
            values = traj.f_gap
            assert np.all(np.diff(values) <= 1e-12)

    def test_gradient_step_inequality(self):
        from accelcert.acceptance import gradient_step_margins
        f = make_quadratic([1, 100])
        for method in ("gd", "nag-modified", "nag-classic", "iv-phase",
                       "gc-phase"):
            traj = run(f, method, np.array([1.0, 1.0]), 0.01, 300)
            margins = gradient_step_margins(traj)
            gaps = np.array([f.gap(traj.ys[k]) for k in range(traj.K)])
            assert np.all(margins >= -1e-12 * np.maximum(1.0, gaps)), method

    def test_gradient_step_margins_reject_heavy_ball(self):
        # heavy-ball's x_{k+1} is not y_k - s grad f(y_k): its momentum term
        # leaves the margins without the descent lemma behind them
        from accelcert.acceptance import gradient_step_margins
        f = make_quadratic([1, 100])
        traj = run(f, "heavy-ball", np.array([1.0, 1.0]), 0.01, 10)
        with pytest.raises(ValueError, match="heavy-ball"):
            gradient_step_margins(traj)
