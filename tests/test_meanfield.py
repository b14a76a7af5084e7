"""Mean-field kernels: drift, noise field, covariance, and their identities."""

import math
from dataclasses import replace

import numpy as np
import pytest

from chaoslab.dynamics import InitSpec, euler_run
from chaoslab.meanfield import (
    covariance_sigma,
    drift_and_noise,
    field_cache,
    mean_field_h,
    mean_field_terms,
    noise_width,
    noise_xi,
    predict,
    ridge_block,
    risk_gradient,
    sqrt_psd,
    structural_risk,
    tilde_h,
)
from chaoslab.model import (
    DataAtom,
    DataDistribution,
    Hyperparams,
    ModelSpec,
    RidgeFeature,
    make_model,
    two_point_distribution,
)
from chaoslab.rng import NoisePlan
from chaoslab.stationary import grid_law_path

TANH = make_model("tanh-dot", "square")
SINGLE_ATOM = DataDistribution([DataAtom([1.0], 1.0, 1.0)])
SYMMETRIC = two_point_distribution([1.0], 1.0, [-1.0], 1.0)


def random_problem(rng, p=2, n_atoms=4, penalty=0.5, loss="square"):
    model = make_model("tanh-dot", loss, penalty, p=p)
    atoms = [
        DataAtom(rng.uniform(-1, 1, p),
                 float(rng.choice([-1.0, 1.0])) if loss == "logistic" else float(rng.uniform(-1, 1)),
                 float(rng.uniform(0.2, 1.0)))
        for _ in range(n_atoms)
    ]
    return model, DataDistribution(atoms)


class TestPredict:
    def test_dirac_at_zero(self):
        assert predict(np.zeros((1, 1)), TANH, [1.0]) == 0.0

    def test_odd_symmetry_cancels(self):
        mu = np.array([[-0.7], [0.7]])
        for x in (0.3, -1.5, 2.0):
            assert predict(mu, TANH, [x]) == pytest.approx(0.0, abs=1e-16)

    def test_two_point_average(self):
        mu = np.array([[0.5], [1.5]])
        expected = (math.tanh(0.5) + math.tanh(1.5)) / 2  # = 0.6836327054524381
        assert predict(mu, TANH, [1.0]) == pytest.approx(expected, abs=1e-15)
        assert predict(mu, TANH, [1.0]) == pytest.approx(0.6836327054524381, abs=1e-12)

    def test_a_measure_needs_a_location(self):
        # an empty ensemble is no law, in field_cache or in predict
        for p in (1, 2):
            model = make_model("tanh-dot", "square", p=p)
            pi = DataDistribution([DataAtom(np.ones(p), 1.0, 1.0)])
            with pytest.raises(ValueError, match="at least one particle"):
                field_cache(np.zeros((0, p)), model, pi)
            with pytest.raises(ValueError, match="at least one particle"):
                predict(np.zeros((0, p)), model, np.ones(p))


class TestStructuralRisk:
    def test_single_particle_at_zero(self):
        assert structural_risk(np.array([[0.0]]), TANH, SINGLE_ATOM) == pytest.approx(0.5)

    def test_point_of_the_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="weight dimension 2 does not match model p=1"):
            structural_risk(np.zeros((3, 2)), TANH, SINGLE_ATOM)

    def test_zero_feature_risk_is_constant(self):
        model = make_model("zero", "square")
        for n in (1, 4, 9):
            W = np.random.default_rng(n).standard_normal((n, 1))
            assert structural_risk(W, model, SINGLE_ATOM) == pytest.approx(0.5)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(1)
        model, pi = random_problem(rng)
        h = 1e-6
        worst = 0.0
        for _ in range(20):
            W = rng.standard_normal((5, 2))
            g = risk_gradient(W, model, pi)
            fd = np.zeros_like(g)
            for k in range(5):
                for j in range(2):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[k, j] += h
                    Wm[k, j] -= h
                    fd[k, j] = (structural_risk(Wp, model, pi) - structural_risk(Wm, model, pi)) / (2 * h)
            scale = max(1.0, np.abs(g).max())
            worst = max(worst, np.abs(g - fd).max() / scale)
        assert worst < 1e-6


class TestMeanFieldH:
    def test_zero_residual_gives_zero_drift(self):
        pi = DataDistribution([DataAtom([1.0], 0.0, 1.0)])
        mu = np.zeros((1, 1))
        np.testing.assert_allclose(mean_field_h(np.array([0.0]), mu, TANH, pi), 0.0, atol=1e-16)

    def test_unit_residual_hand_value(self):
        mu = np.zeros((1, 1))
        np.testing.assert_allclose(
            mean_field_h(np.array([0.0]), mu, TANH, SINGLE_ATOM), [1.0], atol=1e-15
        )

    def test_hand_value_with_penalty(self):
        model = make_model("tanh-dot", "square", 1.0)
        mu = np.array([[2.0]])
        expected = -(math.tanh(2.0) - 1.0) / math.cosh(2.0) ** 2 - 2.0  # -1.9974585...
        got = mean_field_h(np.array([2.0]), mu, model, SINGLE_ATOM)
        np.testing.assert_allclose(got, [expected], atol=1e-14)
        assert got[0] == pytest.approx(-1.9974585188603922, abs=1e-12)

    def test_gradient_identity_h_equals_minus_n_grad(self):
        rng = np.random.default_rng(3)
        model, pi = random_problem(rng)
        for n in (1, 3, 8):
            W = rng.standard_normal((n, 2))
            nu = W
            g = risk_gradient(W, model, pi)
            for k in range(n):
                np.testing.assert_allclose(
                    mean_field_h(W[k], nu, model, pi), -n * g[k], atol=1e-10
                )


class TestNoiseField:
    def test_single_atom_noise_vanishes(self):
        mu = np.array([[0.4]])
        xi = noise_xi(np.array([0.7]), mu, TANH, SINGLE_ATOM, 0)
        np.testing.assert_allclose(xi, 0.0, atol=1e-16)
        sig = covariance_sigma(np.array([0.7]), mu, TANH, SINGLE_ATOM)
        np.testing.assert_allclose(sig, 0.0, atol=1e-16)

    def test_symmetric_two_atom_hand_values(self):
        mu = np.zeros((1, 1))
        w = np.array([0.0])
        np.testing.assert_allclose(noise_xi(w, mu, TANH, SYMMETRIC, 0), [1.0], atol=1e-15)
        np.testing.assert_allclose(noise_xi(w, mu, TANH, SYMMETRIC, 1), [-1.0], atol=1e-15)
        # a numpy index names the same atom as a Python int
        np.testing.assert_array_equal(noise_xi(w, mu, TANH, SYMMETRIC, np.int64(1)),
                                      noise_xi(w, mu, TANH, SYMMETRIC, 1))
        sig = covariance_sigma(w, mu, TANH, SYMMETRIC)
        np.testing.assert_allclose(sig, [[1.0]], atol=1e-15)
        np.testing.assert_allclose(sqrt_psd(sig), [[1.0]], atol=1e-15)

    def test_noise_has_zero_mean_everywhere(self):
        rng = np.random.default_rng(4)
        model, pi = random_problem(rng, loss="logistic")
        for _ in range(50):
            w = rng.standard_normal(2)
            mu = rng.standard_normal((rng.integers(1, 9), 2))
            xis = np.stack([noise_xi(w, mu, model, pi, j) for j in range(len(pi))])
            assert np.linalg.norm(pi.weights @ xis) <= 1e-10

    def test_xi_uses_penalty_free_drift(self):
        # adding a penalty shifts h but not xi
        rng = np.random.default_rng(5)
        m0, pi = random_problem(rng, penalty=0.0)
        m1 = ModelSpec(feature=m0.feature, loss=m0.loss,
                       penalty=make_model("tanh-dot", "square", 2.0).penalty, p=2)
        w = rng.standard_normal(2)
        mu = rng.standard_normal((4, 2))
        np.testing.assert_allclose(
            noise_xi(w, mu, m0, pi, 1), noise_xi(w, mu, m1, pi, 1), atol=1e-14
        )
        np.testing.assert_allclose(
            tilde_h(w, mu, m0, pi), tilde_h(w, mu, m1, pi), atol=1e-14
        )


class TestSqrtPsd:
    def test_diagonal(self):
        np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_random_psd_roots(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            A = rng.standard_normal((3, 3))
            sig = A @ A.T
            S = sqrt_psd(sig)
            np.testing.assert_allclose(S, S.T, atol=1e-12)
            assert np.linalg.eigvalsh(S).min() >= -1e-12
            assert np.linalg.norm(S @ S - sig) <= 1e-8 * max(1.0, np.linalg.norm(sig))

    def test_near_singular_clamped(self):
        sig = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        S = sqrt_psd(sig)
        np.testing.assert_allclose(S @ S, sig, atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            sqrt_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            sqrt_psd(np.diag([1.0, -1e-6]))



class TestNoiseFactor:
    def test_factor_matches_covariance(self):
        # sum_j F_j F_j^T reproduces Sigma, and the drift is mean_field_h: each
        # point is repeated D times against the identity's rows, so its
        # increments at scale 1 are the rows F_j of its factor
        rng = np.random.default_rng(7)
        for p in (2, 3):
            model, pi = random_problem(rng, p=p, n_atoms=4)
            W = rng.standard_normal((6, p))
            mu = rng.standard_normal((5, p))
            assert noise_width(model, pi) == 4
            h, rows = drift_and_noise(np.repeat(W, 4, axis=0),
                                      field_cache(mu, model, pi), model, pi, 1.0,
                                      np.tile(np.eye(4), (6, 1)))
            np.testing.assert_array_equal(h[::4], mean_field_h(W, mu, model, pi))
            F = rows.reshape(6, 4, p)
            FF = np.einsum("ndp,ndq->npq", F, F)
            for i in range(6):
                np.testing.assert_allclose(FF[i], covariance_sigma(W[i], mu, model, pi), atol=1e-12)


class TestStackedLaws:
    """Stacked ensembles in one block, each column driven by its own law."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_stack_equals_each_ensemble_alone(self, p):
        rng = np.random.default_rng(30 + p)
        model, pi = random_problem(rng, p=p)
        sizes = (3, 17, 64, 33)
        W = rng.standard_normal((sum(sizes), p))
        block = ridge_block(W, model, pi)
        stacked = field_cache(block, model, pi, sizes)
        assert stacked.shape == (4, len(sizes))
        resid = np.repeat(stacked, sizes, axis=1)
        h, th, sig = mean_field_terms(block, resid, model, pi, need_sigma=True)
        # at p = 1 every sum over atoms or points is the segment's own, bit for bit
        check = np.testing.assert_array_equal if p == 1 else (
            lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-15))
        edges = np.cumsum((0, *sizes))
        for k, (a, b) in enumerate(zip(edges, edges[1:])):
            alone = field_cache(W[a:b], model, pi)
            check(stacked[:, k], alone)
            h1, th1, sig1 = mean_field_terms(W[a:b], alone, model, pi, need_sigma=True)
            check(h[a:b], h1)
            check(th[a:b], th1)
            check(sig[a:b], sig1)

    @pytest.mark.parametrize("feature", ["tanh-dot", "zero"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_stacked_copies_equal_each_copy_alone(self, p, feature):
        # (k, S) sizes: k copies of the same S segments, summed a segment position at a time
        rng = np.random.default_rng(40 + p)
        _, pi = random_problem(rng, p=p)
        model = make_model(feature, "square", 0.5, p=p)
        sizes, k = (3, 17, 1, 9, 33), 5
        L = sum(sizes)
        block = ridge_block(rng.standard_normal((k * L, p)), model, pi)
        stacked = field_cache(block, model, pi, np.tile(sizes, (k, 1)))
        assert stacked.shape == (len(pi), k, len(sizes))
        for c in range(k):
            cols = slice(c * L, (c + 1) * L)
            alone = field_cache(replace(block, W=block.W[cols],
                                        f=None if block.f is None else block.f[:, cols],
                                        df=None if block.df is None else block.df[:, cols]),
                                model, pi, sizes)
            assert np.array_equal(stacked[:, c], alone)
            assert np.array_equal(np.signbit(stacked[:, c]), np.signbit(alone))

    def test_an_ensemble_is_not_a_law(self):
        # the law is its residual columns, one row per atom, as field_cache returns
        # them; not its ensemble or a scalar
        W = np.zeros((5, 1))
        for law in (W, np.float64(0.5)):
            with pytest.raises(ValueError, match="one row per atom"):
                mean_field_terms(W, law, TANH, SYMMETRIC)
        law = field_cache(W, TANH, SYMMETRIC)
        assert type(law) is np.ndarray and law.shape == (len(SYMMETRIC),)
        h, _, _ = mean_field_terms(W, law, TANH, SYMMETRIC)
        assert h.shape == (5, 1)

    def test_bad_sizes_rejected(self):
        block = ridge_block(np.zeros((5, 1)), TANH, SYMMETRIC)
        with pytest.raises(ValueError, match="sizes"):
            field_cache(block, TANH, SYMMETRIC, (2, 2))
        with pytest.raises(ValueError, match="RidgeBlock"):
            field_cache(np.zeros((5, 1)), TANH, SYMMETRIC, (2, 3))
        with pytest.raises(ValueError, match="repeat one row"):
            field_cache(block, TANH, SYMMETRIC, [[2, 1], [1, 1]])
        with pytest.raises(ValueError, match="sizes add up to 6"):
            field_cache(block, TANH, SYMMETRIC, [[1, 2], [1, 2]])


class ZerosFeature(RidgeFeature):
    """The zero feature as a generic activation, so the kernels take their general path."""

    def activation(self, z):
        return np.zeros_like(z), np.zeros_like(z)


def assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))  # -0.0 == 0.0 would hide them


ZERO_PROBLEMS = [
    # (p, penalty, labels): a zero penalty leaves tilde_h's signed zero in h
    (1, 0.0, (1.0, -1.0)), (1, 0.5, (0.3, 0.7)), (2, 0.0, (1.0, -1.0)), (2, 0.5, (0.3, -0.7)),
]


def zero_problem(p, penalty, labels, sigma_override=None):
    """The zero feature's model, the same model on the generic path, data and points."""
    zero = replace(make_model("zero", "square", penalty, p=p), sigma_override=sigma_override)
    xs = [np.full(p, 0.8), np.linspace(-0.6, 0.4, p), np.full(p, -1.0)]
    pi = DataDistribution([DataAtom(x, y, w) for x, y, w in
                           zip(xs, (*labels, -labels[0]), (0.5, 0.3, 0.2))])
    W = np.vstack([np.zeros((2, p)), np.random.default_rng(p).standard_normal((5, p))])
    return zero, replace(zero, feature=ZerosFeature()), pi, W


class TestZeroFeatureBlock:
    """The zero feature skips its activation block and gives the generic path's bits."""

    def test_block_carries_no_activation(self):
        zero, generic, pi, W = zero_problem(1, 0.0, (1.0, -1.0))
        block = ridge_block(W, zero, pi)
        assert block.f is None and block.df is None
        assert ridge_block(W, generic, pi).f.shape == (len(pi), W.shape[0])
        assert_same_bits(field_cache(block, zero, pi, (3, 4)),
                         field_cache(ridge_block(W, generic, pi), generic, pi, (3, 4)))

    @pytest.mark.parametrize("p, penalty, labels", ZERO_PROBLEMS)
    @pytest.mark.parametrize("stacked", [False, True])
    def test_mean_field_terms(self, p, penalty, labels, stacked):
        zero, generic, pi, W = zero_problem(p, penalty, labels)
        law, generic_law = (field_cache(W, m, pi) for m in (zero, generic))
        assert_same_bits(law, generic_law)
        if stacked:
            law = np.outer(law, np.linspace(-1, 1, len(W)))
        for need_sigma in (False, True):
            got = mean_field_terms(ridge_block(W, zero, pi), law, zero, pi, need_sigma)
            want = mean_field_terms(ridge_block(W, generic, pi), law, generic, pi, need_sigma)
            for a, b in zip(got, want):
                if b is None:
                    assert a is None
                else:
                    assert_same_bits(a, b)

    @pytest.mark.parametrize("p, penalty, labels", ZERO_PROBLEMS)
    @pytest.mark.parametrize("sigma_override", [None, 0.3])
    def test_drift_and_noise_root(self, p, penalty, labels, sigma_override):
        # the drift and the diffusion increment of drift_and_noise
        zero, generic, pi, W = zero_problem(p, penalty, labels, sigma_override)
        law = field_cache(W, generic, pi)
        scale = np.linspace(0.0, 1.0, len(W))[:, None]
        Z = np.random.default_rng(p).standard_normal((len(W), noise_width(zero, pi)))
        for z in (None, Z):
            h, noise = drift_and_noise(ridge_block(W, zero, pi), law, zero, pi, scale, z)
            h1, noise1 = drift_and_noise(ridge_block(W, generic, pi), law, generic, pi, scale, z)
            assert_same_bits(h, h1)
            if z is None:
                assert noise is None and noise1 is None
            else:
                assert_same_bits(noise, noise1)

    @pytest.mark.parametrize("p, penalty, labels", ZERO_PROBLEMS)
    @pytest.mark.parametrize("sigma_override", [None, 0.3])
    def test_euler_run(self, p, penalty, labels, sigma_override):
        zero, generic, pi, W = zero_problem(p, penalty, labels, sigma_override)
        hyper = Hyperparams(alpha=0.25, T=0.5, dt=0.01, eta=0.05)
        runs = [euler_run(m, pi, hyper, W, NoisePlan(4), 0, 0.7, "meanfield-sde",
                          snapshot_times="all") for m in (zero, generic)]
        assert runs[0].law_path.shape == (50, len(pi))
        assert_same_bits(runs[0].ensembles, runs[1].ensembles)
        assert_same_bits(runs[0].law_path, runs[1].law_path)

    @pytest.mark.parametrize("sigma_override", [None, 0.3])
    def test_grid_law_path(self, sigma_override):
        zero, generic, pi, _ = zero_problem(1, 0.5, (0.3, 0.7), sigma_override)
        hyper = Hyperparams(T=0.2, dt=0.02, eta=0.05)
        laws = [grid_law_path(m, pi, hyper, InitSpec.uniform(-0.5, 0.5), 0.7, n_cells=64)
                for m in (zero, generic)]
        for field in ("residual_d1", "masses"):
            assert_same_bits(getattr(laws[0], field), getattr(laws[1], field))


def particle_first_kernel(W, resid, model, pi, scale, Z):
    """The particle-first (D, n, p) kernel that the particle-last layout replaced,
    kept as the bitwise oracle: (h, tilde_h, Sigma, scale R^T z)."""
    block = ridge_block(W, model, pi)
    resid = resid[:, None] if resid.ndim == 1 else resid
    zero = block.df is None
    g = (0.0 if zero else block.df[:, :, None]) * (resid[:, :, None] * pi.xs[:, None, :])
    th = -(pi.weights[:, None, None] * g).sum(axis=0)
    if zero:
        th = np.broadcast_to(th, W.shape)
    F = -np.sqrt(pi.weights)[:, None, None] * (th + g)
    if model.p == 1:
        noise = scale * np.sqrt(np.clip((F * F).sum(axis=0), 0.0, None)) * Z
    else:
        noise = scale * np.einsum("jnp,nj->np", F, Z)
    sigma = (F[:, :, :, None] * F[:, :, None, :]).sum(axis=0)
    return th - model.penalty.grad(W), th, sigma, noise


class TestParticleLastKernel:
    """drift_and_noise and mean_field_terms give the particle-first kernel's bits."""

    @pytest.mark.parametrize("n", [1, 7, 512])
    @pytest.mark.parametrize("feature", ["tanh-dot", "zero", "linear-dot"])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_same_bits_as_particle_first(self, p, feature, n):
        rng = np.random.default_rng(100 * p + n)
        _, pi = random_problem(rng, p=p, n_atoms=5)
        # a zero penalty at n = 7 leaves tilde_h's signed zeros in h
        model = make_model(feature, "square", 0.0 if n == 7 else 0.5, p=p)
        W = rng.standard_normal((n, p))
        W[0] = 0.0
        resid = field_cache(rng.standard_normal((9, p)), model, pi)
        columns = rng.standard_normal((len(pi), n)) * (rng.random((len(pi), n)) < 0.7)
        Z = rng.standard_normal((n, noise_width(model, pi)))
        for law in (resid, resid[:, None], columns):
            h, th, sigma = mean_field_terms(W, law, model, pi, need_sigma=True)
            for scale in (0.7, np.linspace(0.0, 1.0, n)[:, None]):
                want = particle_first_kernel(W, law, model, pi, scale, Z)
                for got, ref in zip((h, th, sigma), want):
                    assert_same_bits(got, ref)
                h1, noise = drift_and_noise(W, law, model, pi, scale, Z)
                assert_same_bits(h1, want[0])
                assert_same_bits(noise, want[3])


class TestBoundedness:
    """Explicit envelope bounds on the drift, covariance trace, and noise."""

    def sample(self, rng, model, pi):
        w = rng.standard_normal(model.p) * rng.uniform(0.2, 3)
        mu = rng.standard_normal((rng.integers(1, 8), model.p))
        return w, mu

    def test_tilde_h_bound(self):
        rng = np.random.default_rng(8)
        model, pi = random_problem(rng)
        bound = 2 * sum(w * model.psi(a.y) * model.phi(a.x) ** 2
                        for w, a in zip(pi.weights, pi.atoms))
        for _ in range(100):
            w, mu = self.sample(rng, model, pi)
            assert np.linalg.norm(tilde_h(w, mu, model, pi)) <= bound * (1 + 1e-12)

    def test_trace_bound_and_noise_second_moment(self):
        rng = np.random.default_rng(9)
        model, pi = random_problem(rng)
        l2 = 2 * sum(w * model.psi(a.y) * model.phi(a.x) ** 2
                     for w, a in zip(pi.weights, pi.atoms))
        tr_bound = 2 * sum(w * (l2**2 + 2 * model.psi(a.y) ** 2 * model.phi(a.x) ** 4)
                           for w, a in zip(pi.weights, pi.atoms))
        L = max(l2, math.sqrt(tr_bound))
        p = model.p
        for _ in range(100):
            w, mu = self.sample(rng, model, pi)
            sig = covariance_sigma(w, mu, model, pi)
            assert np.trace(sig) <= tr_bound * (1 + 1e-12)
            xi_sq = sum(wt * np.sum(noise_xi(w, mu, model, pi, j) ** 2)
                        for j, wt in enumerate(pi.weights))
            assert xi_sq <= p**2 * L**2 * (1 + 1e-12)

    def test_lipschitz_ratio_calibrated(self):
        # ratio of drift differences to the coupled distance never strays
        # beyond 3x the max observed on an independent calibration sample;
        # both samples mix near pairs (local quotients dominate the sup)
        # and far pairs, on one shared problem
        model, pi = random_problem(np.random.default_rng(10))

        def envelope(w, a):
            # the envelope-weighted observable (phi(x)^4 + psi(y)^2) F(w, x)
            f = float(model.feature.value(w[None, :], a.x[None, :])[0, 0])
            return (model.phi(a.x) ** 4 + model.psi(a.y) ** 2) * f

        def mu_g(mu):
            return np.array([
                sum(1.0 / len(mu) * envelope(loc, a) for loc in mu)
                for a in pi.atoms
            ])

        def max_ratio(rng, n):
            out = 0.0
            for _ in range(n):
                w1 = rng.standard_normal(2) * rng.uniform(0.2, 3)
                mu1 = rng.standard_normal((int(rng.integers(1, 8)), 2))
                if rng.random() < 0.5:
                    w2 = w1 + rng.standard_normal(2) * 0.02
                    mu2 = mu1 + rng.standard_normal(mu1.shape) * 0.02
                else:
                    w2 = rng.standard_normal(2) * rng.uniform(0.2, 3)
                    mu2 = rng.standard_normal((int(rng.integers(1, 8)), 2))
                num = np.linalg.norm(
                    mean_field_h(w1, mu1, model, pi) - mean_field_h(w2, mu2, model, pi)
                )
                den = np.linalg.norm(w1 - w2) + math.sqrt(
                    float(pi.weights @ (mu_g(mu1) - mu_g(mu2)) ** 2)
                )
                if den > 1e-9:
                    out = max(out, num / den)
            return out

        calibration = max_ratio(np.random.default_rng(71), 300)
        assert max_ratio(np.random.default_rng(72), 150) <= 3.0 * calibration
