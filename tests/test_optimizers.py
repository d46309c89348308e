import warnings

import numpy as np
import pytest

from accelcert import (OptimizerState, bound_curve, default_heavy_ball_beta,
                       gc_modified_step, gc_phase_step, gd_step,
                       heavy_ball_step, initial_state, iv_phase_step,
                       make_quadratic, make_reg_logistic, nag_classic_step,
                       nag_modified_step, resolve_minimizer, run)
from accelcert.optimizers import NonFiniteIterateError, step_guaranteed


def state_1d(x, y=None, v=0.0, s=1.0):
    """A state for ``quad_1`` (f = x^2 / 2): it carries f(x) = x^2 / 2 and
    grad f(x) = x, at every reference point these tests step from (gd and
    heavy-ball read x; the momentum steps read y, which is x there)."""
    x = np.array([float(x)])
    y = x.copy() if y is None else np.array([float(y)])
    return OptimizerState(x=x, y=y, v=np.array([float(v)]), s=s,
                          grad=x.copy(), value=0.5 * float(x @ x))


@pytest.fixture(scope="module")
def quad_1():
    return make_quadratic([1])


@pytest.fixture(scope="module")
def quad_ill():
    return make_quadratic([1, 100])


class TestGdStep:
    def test_one_step_exact(self, quad_1):
        nxt = gd_step(quad_1, state_1d(1.0, s=1.0))
        assert nxt.x == pytest.approx([0.0])

    def test_contraction_factor(self, quad_1):
        nxt = gd_step(quad_1, state_1d(1.0, s=0.5))
        assert nxt.x == pytest.approx([0.5])

    def test_coordinatewise(self, quad_ill):
        st = OptimizerState(x=np.array([1.0, 1.0]), y=np.array([1.0, 1.0]),
                            v=np.zeros(2), s=0.01,
                            grad=quad_ill.grad(np.array([1.0, 1.0])),
                            value=quad_ill.value(np.array([1.0, 1.0])))
        nxt = gd_step(quad_ill, st)
        np.testing.assert_allclose(nxt.x, [0.99, 0.0])

    def test_y_and_v_copied_through(self, quad_1):
        st = state_1d(1.0, y=0.3, v=0.7)
        nxt = gd_step(quad_1, st)
        assert nxt.y == pytest.approx([0.3])
        assert nxt.v == pytest.approx([0.7])


class TestHeavyBallStep:
    def test_beta_zero_is_gd(self, quad_ill):
        # mu s = 1 makes beta = ((1 - 1) / (1 + 1))^2 exactly 0
        assert default_heavy_ball_beta(quad_ill.mu, 1.0) == 0.0
        st = OptimizerState(x=np.array([1.0, -2.0]), y=np.array([1.0, -2.0]),
                            v=np.array([0.4, 0.1]), s=1.0,
                            grad=quad_ill.grad(np.array([1.0, -2.0])),
                            value=quad_ill.value(np.array([1.0, -2.0])))
        np.testing.assert_array_equal(heavy_ball_step(quad_ill, st).x,
                                      gd_step(quad_ill, st).x)

    def test_substitution(self, quad_1):
        # mu s = 1/4: beta = ((1 - 1/2) / (1 + 1/2))^2 = 1/9
        assert default_heavy_ball_beta(1.0, 0.25) == pytest.approx(1 / 9)
        nxt = heavy_ball_step(quad_1, state_1d(1.0, v=0.3, s=0.25))
        assert nxt.x == pytest.approx([0.75 + 0.3 / 9])

    def test_pure_momentum(self, quad_1):
        nxt = heavy_ball_step(quad_1, state_1d(0.0, v=1.0, s=0.25))
        assert nxt.x == pytest.approx([1 / 9])
        assert nxt.v == pytest.approx([1 / 9])  # new displacement


class TestNagClassicStep:
    def test_momentum_vanishes_at_mus_one(self, quad_1):
        nxt = nag_classic_step(quad_1, state_1d(1.0, s=1.0))
        assert nxt.x == pytest.approx([0.0])
        assert nxt.y == pytest.approx([0.0])

    def test_substitution(self, quad_1):
        nxt = nag_classic_step(quad_1, state_1d(1.0, s=0.25))
        assert nxt.x == pytest.approx([0.75])
        assert nxt.y == pytest.approx([2.0 / 3.0])  # 0.75 - 0.25/3

    def test_beats_gd_on_ill_conditioned(self, quad_ill):
        x0 = np.array([1.0, 1.0])
        nag = run(quad_ill, "nag-classic", x0, 0.01, 200)
        gd = run(quad_ill, "gd", x0, 0.01, 200)
        assert nag.f_gap[-1] < gd.f_gap[-1]


class TestNagModifiedStep:
    def test_substitution_s1(self, quad_1):
        nxt = nag_modified_step(quad_1, state_1d(1.0, s=1.0))
        assert nxt.x == pytest.approx([0.0])
        assert nxt.y == pytest.approx([-1.0 / 3.0])

    def test_substitution_s025(self, quad_1):
        nxt = nag_modified_step(quad_1, state_1d(1.0, s=0.25))
        assert nxt.x == pytest.approx([0.75])
        assert nxt.y == pytest.approx([0.625])

    def test_stationary_fixed_point(self, quad_ill):
        st = OptimizerState(x=np.zeros(2), y=np.zeros(2), v=np.zeros(2),
                            s=0.01, grad=np.zeros(2), value=0.0)
        nxt = nag_modified_step(quad_ill, st)
        np.testing.assert_array_equal(nxt.x, np.zeros(2))
        np.testing.assert_array_equal(nxt.y, np.zeros(2))


class TestGcSteps:
    def test_single_sequence_substitution(self, quad_1):
        st = OptimizerState(x=np.array([1.0]), y=np.array([1.0]),
                            v=np.zeros(1), s=1.0, grad=np.array([1.0]),
                            value=0.5, grad_prev=np.array([1.0]), y_prev=np.array([1.0]))
        nxt = gc_modified_step(quad_1, st)  # quad_1 has mu = 1
        assert nxt.y == pytest.approx([2.0 / 3.0])
        assert nxt.grad_prev == pytest.approx([1.0])  # grad f(y_k), carried

    def test_single_sequence_stationary(self, quad_1):
        st = OptimizerState(x=np.zeros(1), y=np.zeros(1), v=np.zeros(1),
                            s=0.5, grad=np.zeros(1), value=0.0,
                            grad_prev=np.zeros(1),
                            y_prev=np.zeros(1))
        nxt = gc_modified_step(quad_1, st)
        assert nxt.y == pytest.approx([0.0])

    def test_phase_initialization(self, quad_1):
        # first step realizes v_0 = -sqrt(s) grad f(x_0) / (1 + 2 sqrt(mu s))
        st = initial_state(quad_1, "gc-phase", np.array([1.0]), s=1.0)
        nxt = gc_phase_step(quad_1, st)
        assert nxt.v == pytest.approx([-1.0 / 3.0])
        assert nxt.y == pytest.approx([2.0 / 3.0])

    def test_phase_fixed_point(self, quad_ill):
        st = OptimizerState(x=np.zeros(2), y=np.zeros(2), v=np.zeros(2),
                            s=0.01, grad=np.zeros(2), value=0.0,
                            grad_prev=np.zeros(2))
        nxt = gc_phase_step(quad_ill, st)
        np.testing.assert_array_equal(nxt.y, np.zeros(2))
        np.testing.assert_array_equal(nxt.v, np.zeros(2))

    def test_phase_requires_gradient_cache(self, quad_1):
        with pytest.raises(ValueError):
            gc_phase_step(quad_1, state_1d(1.0))

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
        st = initial_state(quad_1, "iv-phase", np.array([1.0]), s=1.0)
        nxt = iv_phase_step(quad_1, st)
        assert nxt.v == pytest.approx([-1.0])
        assert nxt.x == pytest.approx([0.0])
        # successor y matches the two-sequence y_1
        assert nxt.y == pytest.approx([-1.0 / 3.0])

    def test_fixed_point(self, quad_ill):
        st = OptimizerState(x=np.zeros(2), y=np.zeros(2), v=np.zeros(2),
                            s=0.01, grad=np.zeros(2), value=0.0)
        nxt = iv_phase_step(quad_ill, st)
        np.testing.assert_array_equal(nxt.x, np.zeros(2))
        np.testing.assert_array_equal(nxt.v, np.zeros(2))

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
        with pytest.raises(ValueError):
            run(quad_1, "bogus", np.array([1.0]), 0.5, 1)

    def test_dimension_mismatch_rejected(self, quad_ill):
        with pytest.raises(ValueError):
            run(quad_ill, "gd", np.array([1.0]), 0.01, 1)

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
        for method in ("nag-modified", "nag-classic", "iv-phase", "gc-phase"):
            traj = run(f, method, np.array([1.0, 1.0]), 0.01, 300)
            margins = gradient_step_margins(traj)
            gaps = np.array([f.gap(traj.ys[k]) for k in range(traj.K)])
            assert np.all(margins >= -1e-12 * np.maximum(1.0, gaps)), method

    def test_gradient_step_margins_need_gap_at_y(self):
        # gd records f_gap at x_k, so the margins cannot read it as f(y_k)
        from accelcert.acceptance import gradient_step_margins
        f = make_quadratic([1, 100])
        traj = run(f, "gd", np.array([1.0, 1.0]), 0.01, 10)
        with pytest.raises(ValueError):
            gradient_step_margins(traj)
