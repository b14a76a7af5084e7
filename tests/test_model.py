"""Learning-problem definitions, stepsize algebra, and the hypothesis audit."""

import math
import warnings

import numpy as np
import pytest

from chaoslab.model import (
    DataAtom,
    DataDistribution,
    Hyperparams,
    LinearDotFeature,
    ModelSpec,
    QuadraticPenalty,
    RidgeFeature,
    SquareLoss,
    check_assumptions,
    gamma_scale,
    make_model,
    stepsize_schedule,
    time_weight,
    two_point_distribution,
)


class TestGammaScale:
    def test_one_over_n_regime(self):
        # beta=0 recovers the gamma/N stepsize family
        assert gamma_scale(0.0, 0.0, 0.1, 10) == pytest.approx(0.01, abs=1e-15)

    def test_fixed_stepsize_regime(self):
        # beta=1 is N-independent
        assert gamma_scale(0.0, 1.0, 0.1, 999) == pytest.approx(0.1, abs=1e-15)

    def test_hand_evaluated_midpoint(self):
        # alpha=beta=1/2: gamma^2 * N^-1
        assert gamma_scale(0.5, 0.5, 1.0, 16) == pytest.approx(0.0625, abs=1e-15)

    def test_beta_one_independent_of_n(self):
        vals = {gamma_scale(0.3, 1.0, 0.7, n) for n in (1, 5, 64, 4096)}
        assert len(vals) == 1

    def test_exact_product_identity(self):
        for n in (1, 3, 17, 1024):
            assert gamma_scale(0.0, 0.0, 0.25, n) * n == pytest.approx(0.25, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_scale(1.0, 0.5, 1.0, 4)
        with pytest.raises(ValueError):
            gamma_scale(0.5, 0.5, 0.0, 4)
        with pytest.raises(ValueError):
            gamma_scale(0.5, 0.5, 1.0, 0)


class TestStepsizeSchedule:
    def test_constant_when_alpha_zero(self):
        h = Hyperparams(alpha=0.0, beta=0.0, gamma=0.1)
        assert stepsize_schedule(h, 100, 7) == pytest.approx(0.1, abs=1e-15)

    def test_scales_with_n_beta(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.1)
        assert stepsize_schedule(h, 100, 0) == pytest.approx(10.0, abs=1e-12)

    def test_decreasing_schedule_initial_value(self):
        h = Hyperparams(alpha=0.5, beta=1.0, gamma=0.1)
        assert stepsize_schedule(h, 4, 0) == pytest.approx(0.04, abs=1e-15)

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            stepsize_schedule(Hyperparams(), 4, -1)

    def test_discretization_identity_on_grid(self):
        # per-particle stepsize equals g * (n*g + 1)^-alpha exactly:
        # gamma N^(beta-1) (n + 1/g)^-alpha with g^(1-alpha) = gamma N^(beta-1)
        for alpha in (0.0, 0.25, 0.5, 0.9):
            for beta in (0.0, 0.5, 1.0):
                for N in (2, 16, 256):
                    g = gamma_scale(alpha, beta, 0.3, N)
                    for n in (0, 1, 7, 100):
                        lhs = 0.3 * N ** (beta - 1.0) * (n + 1.0 / g) ** (-alpha)
                        rhs = g * (n * g + 1.0) ** (-alpha)
                        assert lhs == pytest.approx(rhs, rel=1e-12)
                        # and the spec's slack inequality holds a fortiori
                        assert lhs <= rhs * (1.0 + g) ** alpha * (1 + 1e-12)


class TestTimeWeight:
    def test_at_origin(self):
        assert time_weight(0.0, 0.9) == 1.0

    def test_quarter_decay(self):
        assert time_weight(3.0, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_hand_value(self):
        assert time_weight(99.0, 0.25) == pytest.approx(100.0 ** -0.25, abs=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            time_weight(-0.1, 0.5)


class TestHyperparams:
    def test_alpha_one_excluded(self):
        with pytest.raises(ValueError):
            Hyperparams(alpha=1.0)

    def test_invalid_fields(self):
        for kw in ({"gamma": 0.0}, {"beta": 1.5}, {"eta": -1.0}, {"M": 0}, {"dt": 0.0}):
            with pytest.raises(ValueError):
                Hyperparams(**kw)


class TestDataDistribution:
    def test_weights_normalized(self):
        pi = DataDistribution([DataAtom([1.0], 1.0, 2.0), DataAtom([0.0], 0.0, 6.0)])
        np.testing.assert_allclose(pi.weights, [0.25, 0.75], atol=1e-15)
        assert pi.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DataDistribution([DataAtom([1.0], 1.0, 0.5), DataAtom([1.0, 2.0], 0.0, 0.5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DataDistribution([])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DataAtom([1.0], 1.0, -0.1)

    def test_non_finite_x_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="atom x"):
                DataAtom([1.0, bad], 1.0, 0.5)

    def test_non_finite_y_rejected(self):
        with pytest.raises(ValueError, match="atom y"):
            DataAtom([1.0], math.nan, 0.5)

    def test_non_finite_weight_rejected(self):
        # an inf weight would otherwise normalize the weights to [nan, 0]
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="atom weight"):
                DataAtom([1.0], 1.0, bad)

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError, match="positive total mass"):
            DataDistribution([DataAtom([1.0], 1.0, 0.0), DataAtom([-1.0], 0.0, 0.0)])

    def test_x_max_recorded(self):
        pi = two_point_distribution([3.0], 1.0, [-4.0], 0.0)
        assert pi.x_max == pytest.approx(4.0)


class TestBuiltins:
    def test_square_loss_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(42)
        loss = SquareLoss()
        yh = rng.uniform(-3, 3, 100)
        y = rng.uniform(-2, 2, 100)
        h = 1e-6
        fd1 = (loss.value(yh + h, y) - loss.value(yh - h, y)) / (2 * h)
        fd2 = (loss.d1(yh + h, y) - loss.d1(yh - h, y)) / (2 * h)
        fd3 = (loss.d2(yh + h, y) - loss.d2(yh - h, y)) / (2 * h)
        scale = np.maximum(1.0, np.abs(loss.d1(yh, y)))
        assert np.max(np.abs(loss.d1(yh, y) - fd1) / scale) < 1e-6
        assert np.max(np.abs(loss.d2(yh, y) - fd2)) < 1e-4
        assert np.max(np.abs(loss.d3(yh, y) - fd3)) < 1e-4

    def test_logistic_loss_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(7)
        loss = make_model("tanh-dot", "logistic").loss
        yh = rng.uniform(-3, 3, 100)
        y = rng.choice([-1.0, 1.0], 100)
        h = 1e-5
        fd1 = (loss.value(yh + h, y) - loss.value(yh - h, y)) / (2 * h)
        fd2 = (loss.d1(yh + h, y) - loss.d1(yh - h, y)) / (2 * h)
        fd3 = (loss.d2(yh + h, y) - loss.d2(yh - h, y)) / (2 * h)
        np.testing.assert_allclose(loss.d1(yh, y), fd1, atol=1e-7)
        np.testing.assert_allclose(loss.d2(yh, y), fd2, atol=1e-6)
        np.testing.assert_allclose(loss.d3(yh, y), fd3, atol=1e-6)

    def test_logistic_loss_saturates_without_warnings(self):
        loss = make_model("tanh-dot", "logistic").loss
        yh = np.array([1e3, -1e3, 1e3, -1e3])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d1, d2, d3 = loss.d1(yh, y), loss.d2(yh, y), loss.d3(yh, y)
            value = loss.value(yh, y)
        np.testing.assert_array_equal(d1, [0.0, -1.0, 1.0, 0.0])
        np.testing.assert_array_equal(d2, 0.0)
        np.testing.assert_array_equal(d3, 0.0)
        np.testing.assert_allclose(value, [0.0, 1e3, 1e3, 0.0], atol=1e-300)

    def test_tanh_feature_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        feat = make_model("tanh-dot", "square", p=3).feature
        W = rng.standard_normal((20, 3))
        X = rng.uniform(-1, 1, (5, 3))
        g = feat.grad(W, X)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (feat.value(W + e, X) - feat.value(W - e, X)) / (2 * h)
            np.testing.assert_allclose(g[:, :, j], fd, atol=1e-7)

    def test_abstract_feature_has_no_activation_or_norms(self):
        feature = RidgeFeature()
        with pytest.raises(NotImplementedError):
            feature.activation(np.zeros((1, 1)))
        with pytest.raises(NotImplementedError):
            feature.derivative_norms(np.zeros(1), np.zeros(1))

    def test_registry_names(self):
        assert make_model("zero", "square").feature.name == "zero"
        assert make_model("tanh-dot", "logistic", 0.5).penalty.name == "quadratic"
        with pytest.raises(KeyError):
            make_model("relu", "square")

    @pytest.mark.parametrize("kw, field", [({"penalty": -0.5}, "penalty"), ({"p": 0}, "p")])
    def test_out_of_range_arguments_name_the_field(self, kw, field):
        with pytest.raises(ValueError, match=rf"^{field} must be >="):
            make_model("tanh-dot", "square", **kw)

    def test_unknown_loss_and_negative_penalty_strength_rejected(self):
        with pytest.raises(KeyError, match="unknown loss 'hinge'"):
            make_model("tanh-dot", "hinge")
        with pytest.raises(ValueError, match="penalty strength must be >= 0"):
            QuadraticPenalty(-1.0)

    def test_loss_derivative_envelope_bound(self):
        # |d1 l(yhat, y)| <= 2 Psi(y) max(1, |yhat|) for builtins
        rng = np.random.default_rng(11)
        for loss_name in ("square", "logistic"):
            model = make_model("tanh-dot", loss_name)
            for _ in range(200):
                yh = rng.uniform(-4, 4)
                y = rng.choice([-1.0, 1.0]) if loss_name == "logistic" else rng.uniform(-2, 2)
                lhs = abs(float(model.loss.d1(yh, y)))
                assert lhs <= 2 * model.psi(y) * max(1.0, abs(yh)) + 1e-12


class TestCheckAssumptions:
    def test_builtin_model_on_bounded_atoms_is_clean(self):
        model = make_model("tanh-dot", "square")
        pi = two_point_distribution([1.0], 1.0, [-0.5], -1.0)
        rng = np.random.default_rng(0)
        report = check_assumptions(model, pi, list(rng.uniform(-3, 3, (20, 1))))
        assert report.ok
        assert np.isfinite(report.moment_value)

    def test_unbounded_linear_feature_is_flagged(self):
        model = ModelSpec(feature=LinearDotFeature(), loss=SquareLoss(),
                          penalty=QuadraticPenalty(0.0), p=1)
        pi = two_point_distribution([1.0], 1.0, [-1.0], 1.0)
        report = check_assumptions(model, pi, [np.array([5.0])])
        assert not report.ok
        assert any("Phi" in v.condition for v in report.violations)

    @pytest.mark.parametrize("name, w, x, norms", [
        ("linear-dot", [2.0, -1.0], [0.5, 3.0], (2.0, math.sqrt(9.25), 0.0, 0.0)),
        ("zero", [2.0, -1.0], [0.5, 3.0], (0.0, 0.0, 0.0, 0.0)),
    ])
    def test_closed_form_derivative_norms(self, name, w, x, norms):
        feature = make_model(name, "square", p=2).feature
        got = feature.derivative_norms(np.array(w), np.array(x))
        np.testing.assert_allclose(got, norms, rtol=1e-15, atol=0.0)

    def test_loss_envelope_below_both_loss_bounds_is_flagged(self):
        # square loss: |d1 l(0, y)| = |y| and |d2 l| + |d3 l| = 1, against Psi = 0.1
        base = make_model("tanh-dot", "square")
        model = ModelSpec(feature=base.feature, loss=base.loss, penalty=base.penalty, p=1,
                          psi=lambda y: 0.1)
        pi = two_point_distribution([1.0], 1.0, [-0.5], 0.05)
        report = check_assumptions(model, pi, [np.array([0.3]), np.array([-0.7])])
        d1 = [v for v in report.violations if v.condition == "|d1 l(0, y)| <= Psi(y)"]
        d23 = [v for v in report.violations if v.condition == "|d2 l| + |d3 l| <= Psi(y)"]
        # the atom with |y| = 0.05 passes the first bound; the second fails at yhat = 0
        # (no probe) and at each probe's prediction, on both atoms
        assert [(v.atom_index, v.probe_index, v.lhs, v.rhs) for v in d1] == [(0, None, 1.0, 0.1)]
        assert [(v.atom_index, v.probe_index) for v in d23] == [
            (j, i) for j in (0, 1) for i in (None, 0, 1)]
        assert all((v.lhs, v.rhs) == (1.0, 0.1) for v in d23)
        assert len(report.violations) == len(d1) + len(d23) and not report.ok
        assert report.n_checks == 2 * (1 + 3) + 2 * 2 + 1

    def test_empty_probe_list_rejected(self):
        model = make_model("tanh-dot", "square")
        pi = two_point_distribution([1.0], 1.0, [-1.0], 1.0)
        with pytest.raises(ValueError):
            check_assumptions(model, pi, [])
