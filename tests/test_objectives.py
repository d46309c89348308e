import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelcert import (Objective, certify_class, make_quadratic, make_reg_logistic,
                       reg_logistic_from_data, resolve_minimizer)
from accelcert.objectives import SpectrumSpec, _orthogonal_matrix

#: Central-difference step of every finite-difference check.
FD_STEP = 1e-6


def central_difference_grad(f, x, h=FD_STEP):
    g = np.empty_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f.value(x + e) - f.value(x - e)) / (2.0 * h)
    return g


def shipped_objectives():
    return [
        make_quadratic([1, 100]),
        make_quadratic([0.5, 3]),
        make_quadratic(np.logspace(0, 3, 20)),
        make_quadratic([0.5, 3], rotation_seed=11),
        resolve_minimizer(make_reg_logistic(3, 50, 2, 0.1)),
    ]


class TestSpectrumSpec:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SpectrumSpec([1.0, -2.0])
        with pytest.raises(ValueError):
            SpectrumSpec([0.0, 1.0])
        with pytest.raises(ValueError):
            SpectrumSpec([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_nonfinite(self, bad):
        # a NaN compares false with 0, and an inf would make L = inf
        with pytest.raises(ValueError,
                           match="all eigenvalues must be positive and finite"):
            make_quadratic([1.0, bad])

    def test_sorted_and_extremes(self):
        spec = SpectrumSpec([3.0, 0.5, 1.0])
        assert spec.eigenvalues == (0.5, 1.0, 3.0)
        assert spec.mu == 0.5
        assert spec.lipschitz == 3.0


class TestMakeQuadratic:
    def test_identity_spectrum(self):
        f = make_quadratic([1])
        assert f.mu == 1.0 and f.lipschitz == 1.0
        assert f.value(np.array([2.0])) == 2.0  # 0.5 * x^2
        assert f.minimizer == pytest.approx([0.0])
        assert f.min_value == 0.0

    def test_gradient_is_lambda_x(self):
        f = make_quadratic([1, 100])
        np.testing.assert_allclose(f.grad(np.array([1.0, 1.0])), [1.0, 100.0])
        assert f.mu == 1.0 and f.lipschitz == 100.0

    def test_rotation_preserves_spectrum(self):
        # oracle: eigendecompose the assembled Hessian
        f = make_quadratic([0.1, 0.4], rotation_seed=7)
        eigs = np.linalg.eigvalsh(f.hessian)
        np.testing.assert_allclose(eigs, [0.1, 0.4], atol=1e-12)
        assert abs(f.hessian[0, 1]) > 1e-3  # actually rotated

    @pytest.mark.parametrize("dim", [1, 2, 50])
    def test_rotated_hessian_matches_diagonal_product(self, dim):
        # scaling q's columns by the eigenvalues is the product with
        # diag(lams), bit for bit
        lams = np.logspace(0, 2, dim)
        q = _orthogonal_matrix(dim, 5)
        reference = q @ np.diag(lams) @ q.T
        reference = 0.5 * (reference + reference.T)
        np.testing.assert_array_equal(
            make_quadratic(lams, rotation_seed=5).hessian, reference)

    def test_diagonal_without_rotation(self):
        f = make_quadratic([2, 5])
        np.testing.assert_array_equal(f.hessian, np.diag([2.0, 5.0]))


class TestRegLogistic:
    def test_zero_feature_reduces_to_ridge(self):
        # a zero datum kills the loss curvature: f(x) = log(2) + x^2
        f = reg_logistic_from_data(np.zeros((1, 1)), np.array([1.0]), reg=2.0)
        assert f.mu == 2.0
        for x in (-1.5, 0.0, 2.0):
            xv = np.array([x])
            assert f.value(xv) == pytest.approx(np.log(2.0) + x * x)
            assert f.grad(xv) == pytest.approx([2.0 * x])

    def test_class_certified_on_samples(self):
        f = resolve_minimizer(make_reg_logistic(3, 50, 2, 0.1))
        report = certify_class(f, n_pairs=1000, sample_seed=5)
        assert report.passed

    def test_deterministic_construction(self):
        probe = np.array([0.3, -1.2])
        g1 = make_reg_logistic(3, 50, 2, 0.1).grad(probe)
        g2 = make_reg_logistic(3, 50, 2, 0.1).grad(probe)
        np.testing.assert_array_equal(g1, g2)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_reg_logistic(1, 10, 2, reg=0.0)
        with pytest.raises(ValueError):
            make_reg_logistic(1, 0, 2, reg=1.0)

    def test_rejects_nonfinite_feature(self):
        features = np.ones((3, 2))
        features[1, 0] = np.nan  # L = nan
        with pytest.raises(ValueError, match="lipschitz must be at least mu"):
            reg_logistic_from_data(features, np.array([1.0, -1.0, 1.0]), 0.1)


    @pytest.mark.parametrize("bad", [3.0, 0.0, np.nan])
    def test_rejects_label_outside_plus_minus_one(self, bad):
        # L = reg + sum ||a_i||^2 / (4n) bounds the curvature only for
        # |b_i| = 1: with every label 3, certify_class fails pairs
        features = np.ones((3, 2))
        with pytest.raises(ValueError, match=r"labels must be -1 or \+1"):
            reg_logistic_from_data(features, np.array([1.0, bad, -1.0]), 0.1)


class TestResolveMinimizer:
    def test_logistic_minimizer(self):
        f = resolve_minimizer(make_reg_logistic(3, 50, 2, 0.1))
        assert f.minimizer is not None
        assert np.linalg.norm(f.grad(f.minimizer)) <= 1e-10
        assert f.min_value == pytest.approx(f.value(f.minimizer))

    def test_known_minimizer_passthrough(self):
        f = make_quadratic([1, 4])
        assert resolve_minimizer(f) is f


class TestCertifyClass:
    def test_pure_quadratic_saturates(self):
        # mu = L = 1: both inequalities hold with ~zero margins
        report = certify_class(make_quadratic([1]), 200, sample_seed=0)
        assert report.passed
        assert abs(report.details["worst_strong_convexity_margin"]) < 1e-9

    def test_ill_conditioned_quadratic(self):
        report = certify_class(make_quadratic([1, 100]), 1000, sample_seed=1)
        assert report.passed

    def test_overdeclared_mu_fails(self):
        f = make_quadratic([1, 100])
        lying = dataclasses.replace(f, mu=2.0)  # true modulus is 1
        report = certify_class(lying, 1000, sample_seed=2)
        assert report.n_failed > 0
        assert report.first_failure is not None

    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError):
            certify_class(make_quadratic([1]), 0, sample_seed=0)


class TestClassInvariants:
    @pytest.mark.parametrize("idx", range(5))
    def test_certify_class_10k_pairs(self, idx):
        f = shipped_objectives()[idx]
        report = certify_class(f, n_pairs=10_000, sample_seed=42)
        assert report.passed, f.name

    def test_quadratic_gradient_oracles(self):
        rng = np.random.default_rng(7)
        for f in shipped_objectives():
            if f.hessian is None:
                continue
            for _ in range(10):
                x = rng.standard_normal(f.dim) * 3.0
                g = f.grad(x)
                hx = f.hessian @ x
                np.testing.assert_allclose(g, hx, rtol=1e-12)
                fd = central_difference_grad(f, x)
                np.testing.assert_allclose(fd, g, rtol=1e-6, atol=1e-6)

    def test_logistic_gradient_matches_finite_differences(self):
        f = make_reg_logistic(3, 50, 2, 0.1)
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.standard_normal(2) * 2.0
            fd = central_difference_grad(f, x)
            np.testing.assert_allclose(fd, f.grad(x), rtol=1e-6, atol=1e-8)

    def test_evaluation_is_pure(self):
        x = np.array([0.7, -0.3])
        for f in (make_quadratic([1, 100]), make_reg_logistic(3, 50, 2, 0.1)):
            assert f.value(x) == f.value(x)
            np.testing.assert_array_equal(f.grad(x), f.grad(x))


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@st.composite
def objective_and_point(draw):
    """An objective of each kind, diagonal or rotated quadratic (mu = L
    included), logistic, or custom without a fused oracle, and a point."""
    kind = draw(st.sampled_from(["diag", "rot", "logistic", "custom"]))
    dim = draw(st.integers(1, 6))
    if kind == "logistic":
        f = make_reg_logistic(draw(st.integers(0, 2**32)),
                              draw(st.integers(1, 20)), dim,
                              draw(st.floats(1e-3, 10.0)))
    elif kind == "custom":
        f = Objective(dim=dim, mu=1.0, lipschitz=1.0,
                      value_fn=lambda x: 0.5 * float(x @ x),
                      grad_fn=lambda x: x.copy())
    else:
        lam = st.floats(1e-3, 1e3)
        spectrum = draw(st.one_of(
            st.lists(lam, min_size=dim, max_size=dim),
            lam.map(lambda v: [v] * dim)))  # mu = L
        f = make_quadratic(spectrum, rotation_seed=(
            draw(st.integers(0, 2**32)) if kind == "rot" else None))
    x = draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim))
    return kind, f, np.array(x)


class TestFusedOracle:
    @settings(max_examples=300, deadline=None)
    @given(objective_and_point())
    def test_value_and_grad_matches_separate_oracles(self, case):
        kind, f, x = case
        assert (f.value_and_grad_fn is None) == (kind == "custom")
        value, grad = f.value_and_grad(x)
        assert isinstance(value, float)
        assert same_bits(value, f.value(x))
        assert same_bits(grad, f.grad(x))
        if kind == "diag":
            # the elementwise gradient and its value are the matvec's
            np.testing.assert_array_equal(grad, f.hessian @ x)
            assert value == 0.5 * float(x @ f.hessian @ x)


class TestObjectiveValidation:
    def test_declared_minimizer_is_checked(self):
        with pytest.raises(ValueError):
            dataclasses.replace(make_quadratic([1, 4]),
                                minimizer=np.array([1.0, 0.0]))

    def test_mu_bounds(self):
        with pytest.raises(ValueError):
            dataclasses.replace(make_quadratic([1, 4]), mu=-1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(make_quadratic([1, 4]), mu=10.0)  # mu > L

    @pytest.mark.parametrize("lipschitz", [float("nan"), float("inf")])
    def test_lipschitz_must_be_finite(self, lipschitz):
        # a bare lipschitz < mu test lets NaN through
        with pytest.raises(ValueError,
                           match="lipschitz must be at least mu and finite"):
            dataclasses.replace(make_quadratic([1, 4]), lipschitz=lipschitz)
