import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelcert import (METHODS, bound_curve, characteristic_roots,
                       check_bound, empirical_rate, make_quadratic,
                       max_reality_threshold, make_reg_logistic,
                       monotonic_window, monotonicity_scan, reality_threshold,
                       resolve_minimizer, run)
from accelcert import acceptance
from accelcert.analysis import THEOREMS, attach_bound
from accelcert.objectives import MinimizerUnknownError
from accelcert.report import margin_report


def poly_residual(root, lam, mu, s):
    """Residual of the characteristic polynomial at a candidate root."""
    a = 1.0 + 2.0 * math.sqrt(mu * s)
    b = 2.0 * (1.0 - lam * s + math.sqrt(mu * s))
    c = 1.0 - lam * s
    return abs(a * root * root - b * root + c)


class TestCharacteristicRoots:
    def test_factoring_case(self):
        # lam = mu = 1, s = 1: 3 a^2 - 2 a = 0 -> roots {0, 2/3}
        pair = characteristic_roots(1.0, 1.0, 1.0)
        roots = sorted(pair.roots, key=abs)
        assert roots[0] == pytest.approx(0.0)
        assert roots[1].real == pytest.approx(2.0 / 3.0)
        assert pair.discriminant == pytest.approx(4.0)
        assert pair.real

    def test_threshold_zero_when_lam_equals_mu(self):
        assert reality_threshold(1.0, 1.0) == 0.0
        for s in (0.05, 0.5, 1.0):
            assert characteristic_roots(1.0, 1.0, s).real

    def test_complex_below_threshold(self):
        # s = 0.05 < (2 - 0.1) / 4 = 0.475
        pair = characteristic_roots(2.0, 0.1, 0.05)
        assert not pair.real
        assert pair.discriminant < 0
        # oracle: numpy's companion-matrix solver
        a = 1.0 + 2.0 * math.sqrt(0.1 * 0.05)
        b = 2.0 * (1.0 - 2.0 * 0.05 + math.sqrt(0.1 * 0.05))
        ref = np.roots([a, -b, 1.0 - 2.0 * 0.05])
        got = sorted(pair.roots, key=lambda z: z.imag)
        ref = sorted(ref, key=lambda z: z.imag)
        for g, r in zip(got, ref):
            assert g == pytest.approx(r, abs=1e-12)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            characteristic_roots(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            characteristic_roots(1.0, 1.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.05, 2.0), st.floats(1.0, 50.0), st.floats(1e-4, 3.0))
    def test_root_substitution_property(self, mu, ratio, s_raw):
        lam = mu * ratio
        s = min(s_raw, 1.2 / (4.0 * mu))
        pair = characteristic_roots(lam, mu, s)
        for root in pair.roots:
            assert poly_residual(root, lam, mu, s) <= 1e-10 * (1 + abs(root) ** 2)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.05, 2.0), st.floats(1.0, 50.0), st.floats(1e-4, 3.0))
    def test_reality_matches_threshold_property(self, mu, ratio, s_raw):
        lam = mu * ratio
        s = min(s_raw, 1.2 / (4.0 * mu))
        pair = characteristic_roots(lam, mu, s)
        threshold = reality_threshold(lam, mu)
        if abs(s - threshold) > 1e-12:
            assert pair.real == (s >= threshold)

    def test_reality_threshold_grid(self):
        # 100-point grid across the threshold
        mu = 0.5
        count = 0
        for lam in np.linspace(mu, 5.0, 10):
            for s in np.linspace(0.05, 0.5, 10):
                pair = characteristic_roots(float(lam), mu, float(s))
                threshold = reality_threshold(float(lam), mu)
                if abs(s - threshold) <= 1e-12:
                    continue
                assert pair.real == (s >= threshold)
                count += 1
        assert count >= 98


class TestMaxRealityThreshold:
    @pytest.mark.parametrize("mu", [0.1, 0.5, 1.0, 2.0])
    def test_matches_closed_form(self, mu):
        lam_star, val = max_reality_threshold(mu)
        assert val == pytest.approx(1.0 / (4.0 * mu), rel=1e-8)
        assert lam_star == pytest.approx(2.0 * mu, rel=1e-3)


class TestMonotonicWindow:
    def test_open_window(self):
        assert monotonic_window(1.0, 3.0) == pytest.approx((0.25, 1.0 / 3.0))

    def test_degenerate_window(self):
        lo, hi = monotonic_window(1.0, 4.0)
        assert lo == pytest.approx(0.25) and hi == pytest.approx(0.25)

    def test_empty_window(self):
        assert monotonic_window(1.0, 5.0) is None

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            monotonic_window(2.0, 1.0)


class TestBoundCurve:
    def test_rate_iv_at_zero(self):
        curve = bound_curve("rate-iv", 0.5, 1.0, mu=1.0, L=1.0, s=1.0, K=0)
        assert curve[0] == pytest.approx(4.0)

    def test_rate_gc_at_zero(self):
        curve = bound_curve("rate-gc", 0.5, 1.0, mu=1.0, L=1.0, s=1.0, K=0)
        assert curve[0] == pytest.approx(3.0)

    def test_rate_iv_geometric_decay(self):
        # (1 + 1/4)^4 = 2.44140625 and 4 / 2.44140625 = 1.6384
        curve = bound_curve("rate-iv", 0.5, 1.0, mu=1.0, L=1.0, s=1.0, K=4)
        assert curve[4] == pytest.approx(1.6384)

    def test_positive_strictly_decreasing(self):
        for theorem in ("rate-iv", "rate-gc", "rate-iv-x", "gd", "classic"):
            curve = bound_curve(theorem, 0.7, 2.0, mu=0.5, L=10.0, s=0.05, K=50)
            assert np.all(curve > 0)
            assert np.all(np.diff(curve) < 0)

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError):
            bound_curve("rate-xyz", 1.0, 1.0, 1.0, 1.0, 0.5, 10)

    def test_warns_above_one_over_L(self):
        with pytest.warns(UserWarning, match="not guaranteed"):
            bound_curve("rate-iv", 1.0, 1.0, mu=1.0, L=10.0, s=0.5, K=5)


class TestCheckBound:
    def test_optimum_start_trivially_passes(self):
        f = make_quadratic([1, 100])
        traj = run(f, "iv-phase", np.zeros(2), 0.01, 100)
        assert check_bound(traj, "rate-iv").passed

    def test_rate_iv_certified_1000_steps(self):
        f = make_quadratic([1, 100])
        traj = run(f, "iv-phase", np.array([1.0, 1.0]), 0.01, 1000)
        report = check_bound(traj, "rate-iv")
        assert report.passed and report.n_checked == 1001
        # bound(0) > 1, where max(1, bound(0)) is an np.float64
        assert report.details["bound_at_0"] > 1.0
        assert [type(v) for v in report.details.values()] == [float, float]

    def test_suite_run_fails_a_hundredth_of_rate_iv(self, monkeypatch):
        # the checker has teeth on a gate run: on quad-ill's cached iv-phase
        # run at s = 1/L, rate-iv with its L coefficient times 0.01 breaks
        traj = acceptance._suite_run("quad-ill", "iv-phase", 1.0)
        assert check_bound(traj, "rate-iv").passed
        claim = THEOREMS["rate-iv"]
        monkeypatch.setitem(THEOREMS, "rate-iv", claim._replace(
            coefficients=(0.0, 0.0, 0.01 * claim.coefficients[2])))
        report = check_bound(traj, "rate-iv")
        assert (report.n_checked, report.n_failed) == (1001, 2)

    def test_gd_violates_accelerated_bound(self):
        # wide spectrum so the accelerated curve outpaces gd while the gap
        # is still far above the slack floor
        f = make_quadratic([1, 10_000])
        traj = run(f, "gd", np.array([1.0, 1.0]), 1.0 / f.lipschitz, 8000)
        with pytest.raises(ValueError):
            check_bound(traj, "rate-iv")  # pairing rejected
        x0 = traj.xs[0]
        dist0_sq = float(np.sum((x0 - f.minimizer) ** 2))
        curve = bound_curve("rate-iv", f.gap(x0), dist0_sq, f.mu, f.lipschitz,
                            traj.s, traj.K)
        report = margin_report("gd_vs_rate_iv", curve - traj.f_gap,
                               1e-10 * max(1.0, curve[0]))
        assert not report.passed
        assert 0 < report.first_failure < 8000

    @pytest.mark.parametrize("method", METHODS)
    def test_recorded_gaps_are_the_oracle_gaps(self, method):
        # the premise of reading f_gap and grad_sq instead of calling the
        # oracles again: every method records them at ys; grad_norm is
        # bit-equal to np.linalg.norm
        for f in (make_quadratic([1, 4, 25], rotation_seed=3),
                  resolve_minimizer(make_reg_logistic(3, 50, 2, 0.1))):
            traj = run(f, method, np.full(f.dim, 0.7), 1.0 / f.lipschitz, 60)
            grads = [f.grad(p) for p in traj.ys]
            np.testing.assert_array_equal(traj.f_gap,
                                          [f.gap(p) for p in traj.ys])
            np.testing.assert_array_equal(traj.grad_sq,
                                          [g @ g for g in grads])
            np.testing.assert_array_equal(traj.grad_norm,
                                          [np.linalg.norm(g) for g in grads])

    @pytest.mark.parametrize("method, theorem", [
        ("iv-phase", "rate-iv"), ("gd", "gd"), ("gc-phase", "rate-gc"),
        ("iv-phase", "rate-iv-x")])
    def test_unresolved_objective_rejected(self, method, theorem):
        f = make_reg_logistic(3, 50, 2, 0.1)
        traj = run(f, method, np.ones(2), 1.0 / f.lipschitz, 10)
        with pytest.raises(MinimizerUnknownError):
            check_bound(traj, theorem)
        with pytest.raises(MinimizerUnknownError):
            attach_bound(traj, theorem)

    def test_incompatible_gc_pairing_rejected(self):
        f = make_quadratic([1, 100])
        traj = run(f, "iv-phase", np.array([1.0, 1.0]), 0.01, 50)
        with pytest.raises(ValueError):
            check_bound(traj, "rate-gc")
        with pytest.raises(ValueError, match="applies to methods"):
            attach_bound(traj, "rate-gc")
        assert traj.bound is None

    @pytest.mark.parametrize("check", [check_bound, attach_bound])
    def test_unknown_theorem_is_a_value_error(self, check):
        # a KeyError would escape callers that catch ValueError
        traj = run(make_quadratic([1, 100]), "iv-phase", np.ones(2), 0.01, 5)
        with pytest.raises(ValueError, match="unknown theorem 'nope'"):
            check(traj, "nope")

    @pytest.mark.parametrize("check", [check_bound, attach_bound])
    def test_minimum_without_minimizer_rejected(self, check):
        # f* alone does not give the bound's ||x_0 - x*||^2
        f = replace(make_quadratic([1, 100]), minimizer=None)
        traj = run(f, "iv-phase", np.ones(2), 0.01, 5)
        with pytest.raises(MinimizerUnknownError):
            check(traj, "rate-iv")


class TestEmpiricalRate:
    def test_gd_geometric_closed_form(self):
        # x contracts by (1 - mu s) = 0.9, the gap by 0.81
        f = make_quadratic([0.1])
        traj = run(f, "gd", np.array([1.0]), 1.0, 200)
        rate = empirical_rate(traj)
        assert rate == pytest.approx(0.81, abs=1e-6)

    @pytest.mark.parametrize("holes", [False, True],
                             ids=["contiguous", "holes-in-tail"])
    def test_closed_form_matches_polyfit(self, holes):
        # the fit reads only f_gap; a noisy geometric gap, and one whose
        # tail skips records that are NaN or below the 1e-14 floor
        rng = np.random.default_rng(5)
        k = np.arange(400)
        gaps = 3.0 * 0.97 ** k * np.exp(0.3 * rng.standard_normal(k.size))
        if holes:
            gaps[[250, 251, 300, 377]] = np.nan
            gaps[[260, 333, 398]] = 1e-15
        traj = run(make_quadratic([1.0]), "gd", np.ones(1), 1.0, 399)
        traj = replace(traj, f_gap=gaps)
        usable = np.flatnonzero(np.isfinite(gaps) & (gaps > 1e-14))
        tail = usable[len(usable) - math.ceil(0.5 * len(usable)):]
        assert (np.diff(tail) > 1).any() == holes
        expected = np.exp(np.polyfit(tail.astype(float), np.log(gaps[tail]),
                                     1)[0])
        assert empirical_rate(traj) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_run_undefined(self):
        f = make_quadratic([1, 100])
        traj = run(f, "gd", np.zeros(2), 0.01, 100)
        assert empirical_rate(traj) is None

    def test_accelerated_vs_plain_fit(self):
        f = make_quadratic([1, 10_000])
        s = 1.0 / f.lipschitz
        x0 = np.array([1.0, 1.0])
        r_iv = empirical_rate(run(f, "iv-phase", x0, s, 4000))
        r_gd = empirical_rate(run(f, "gd", x0, s, 4000))
        assert r_iv <= 1.0 - 0.5 * math.sqrt(f.mu / f.lipschitz)
        assert r_iv < r_gd < 1.0


class TestMonotonicityScan:
    def test_window_predicts_and_observes_monotone(self):
        report = monotonicity_scan(1.0, [1.0, 3.0], [0.26, 0.30, 0.33], K=500,
                                   x0_seed=8)
        assert report.agreement
        for pred, obs in report.per_s.values():
            assert pred and obs

    def test_eigen_aligned_oscillation(self):
        report = monotonicity_scan(0.1, [0.1, 2.0], [0.05], K=500,
                                   x0=[0.0, 1.0])
        (pred, obs), = report.per_s.values()
        assert not pred and not obs
        lam2_rows = [r for r in report.rows if r.lam == 2.0]
        assert all(abs(r.pair.roots[0].imag) > 1e-12 for r in lam2_rows)

    def test_single_eigenvalue_always_real(self):
        # (lam - mu) / lam^2 = 0 at lam = mu: any s gives real roots
        for s in (0.05, 0.5, 1.0):
            assert characteristic_roots(1.0, 1.0, s).real

    def test_rows_carry_grid(self):
        report = monotonicity_scan(1.0, [1.0, 3.0], [0.26, 0.30], K=50,
                                   x0_seed=8)
        assert len(report.rows) == 4  # 2 step sizes x 2 eigenvalues
        assert {r.s for r in report.rows} == {0.26, 0.30}

    def test_mu_above_spectrum_rejected(self):
        with pytest.raises(ValueError):
            monotonicity_scan(2.0, [1.0, 3.0], [0.3], K=10)

    def test_empty_grid_rejected(self):
        # a scan of no run would report agreement vacuously
        with pytest.raises(ValueError, match="at least one step size"):
            monotonicity_scan(1.0, [1.0, 3.0], [], K=10)
