"""Exact mean-field kernels over finite-support data.

Everything here is a finite sum over the atoms of the data distribution:
the population risk and its gradient, the drift field h felt by a single
weight given the population law mu, the per-sample noise field xi, its
covariance Sigma, its exact rank-D factor and the symmetric PSD square
root S.

The hot path is ``mean_field_terms``: one reduction over the law ensemble
produces the per-atom predictions (the FieldCache), after which drift and
covariance for any number of evaluation points are plain vectorized sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DataAtom, DataDistribution, ModelSpec

__all__ = [
    "EmpiricalMeasure",
    "FieldCache",
    "field_cache",
    "predict",
    "structural_risk",
    "per_sample_grad",
    "risk_gradient",
    "mean_field_h",
    "tilde_h",
    "mean_field_terms",
    "drift_and_noise_factor",
    "noise_xi",
    "covariance_sigma",
    "sqrt_psd",
    "g_envelope",
]

_SYM_TOL = 1e-10
_EIG_FLOOR = -1e-10


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted point measure on parameter space (uniform by default)."""

    locations: np.ndarray  # (N, p)
    weights: np.ndarray | None = None  # (N,), defaults to uniform

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=np.float64)
        if locs.ndim == 1:
            locs = locs[:, None]
        if locs.shape[0] == 0:
            raise ValueError("an empirical measure needs at least one location")
        object.__setattr__(self, "locations", locs)
        if self.weights is None:
            w = np.full(locs.shape[0], 1.0 / locs.shape[0])
        else:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (locs.shape[0],):
                raise ValueError("weights must match the number of locations")
            s = float(w.sum())
            if abs(s - 1.0) > 1e-10:
                raise ValueError(f"weights must sum to 1, got {s}")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.locations.shape[0]

    @property
    def p(self) -> int:
        return self.locations.shape[1]


def _as_measure(mu) -> EmpiricalMeasure:
    if isinstance(mu, EmpiricalMeasure):
        return mu
    return EmpiricalMeasure(np.asarray(mu, dtype=np.float64))


def _as_points(w, p: int) -> np.ndarray:
    W = np.asarray(w, dtype=np.float64)
    single = W.ndim == 1
    if single:
        W = W[None, :]
    if W.shape[1] != p:
        raise ValueError(f"weight dimension {W.shape[1]} does not match model p={p}")
    return W


@dataclass(frozen=True)
class FieldCache:
    """Per-atom predictions a(x) = mu[F(., x)] and residual derivatives d1l(a(x), y)."""

    predictions: np.ndarray  # (D,)
    residual_d1: np.ndarray  # (D,)


def field_cache(mu, model: ModelSpec, pi: DataDistribution) -> FieldCache:
    mu = _as_measure(mu)
    vals = model.feature.value(mu.locations, pi.xs)  # (N, D)
    preds = mu.weights @ vals
    return FieldCache(preds, np.asarray(model.loss.d1(preds, pi.ys), dtype=np.float64))


def predict(mu, model: ModelSpec, x: np.ndarray) -> float:
    """Population prediction mu[F(., x)] at a single input x."""
    mu = _as_measure(mu)
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    vals = model.feature.value(mu.locations, x)[:, 0]
    return float(mu.weights @ vals)


def structural_risk(ensemble: np.ndarray, model: ModelSpec, pi: DataDistribution) -> float:
    """Population risk of the N-particle predictor plus the averaged penalty."""
    W = _as_points(ensemble, model.p)
    cache = field_cache(W, model, pi)
    data_term = float(pi.weights @ model.loss.value(cache.predictions, pi.ys))
    return data_term + float(np.mean(model.penalty.value(W)))


def per_sample_grad(ensemble: np.ndarray, model: ModelSpec, pi: DataDistribution, atom) -> np.ndarray:
    """Gradient of the single-sample risk with respect to every particle.

    Returns (N, p); row k is (1/N) [d1l(pred, y) gradF(w_k, x) + gradV(w_k)].
    """
    W = _as_points(ensemble, model.p)
    if isinstance(atom, int):
        atom = pi.atoms[atom]
    assert isinstance(atom, DataAtom)
    n = W.shape[0]
    pred = predict(W, model, atom.x)
    r = float(model.loss.d1(pred, atom.y))
    gF = model.feature.grad(W, atom.x[None, :])[:, 0, :]  # (N, p)
    return (r * gF + model.penalty.grad(W)) / n


def risk_gradient(ensemble: np.ndarray, model: ModelSpec, pi: DataDistribution) -> np.ndarray:
    """Gradient (N, p) of ``structural_risk`` with respect to the ensemble."""
    W = _as_points(ensemble, model.p)
    cache = field_cache(W, model, pi)
    gF = model.feature.grad(W, pi.xs)  # (N, D, p)
    coeff = pi.weights * cache.residual_d1  # (D,)
    data = np.einsum("d,ndp->np", coeff, gF)
    return (data + model.penalty.grad(W)) / W.shape[0]


def _drift_terms(W: np.ndarray, cache: FieldCache, model: ModelSpec, pi: DataDistribution):
    """Drift h, its bounded part tilde_h and the (n, D, p) feature-gradient block."""
    gF = model.feature.grad(W, pi.xs)  # (n, D, p)
    coeff = pi.weights * cache.residual_d1  # (D,)
    th = -np.einsum("d,ndp->np", coeff, gF)
    h = th - model.penalty.grad(W)
    return h, th, gF


def _noise_fields(th: np.ndarray, gF: np.ndarray, cache: FieldCache) -> np.ndarray:
    """Per-atom noise fields xi_j = -tilde_h - d1l_j * gradF(., x_j), shape (n, D, p)."""
    return -th[:, None, :] - cache.residual_d1[None, :, None] * gF


def mean_field_terms(
    W,
    mu,
    model: ModelSpec,
    pi: DataDistribution,
    need_sigma: bool = False,
    sigma_override: float | None = None,
    cache: FieldCache | None = None,
):
    """Drift h, bounded part tilde_h and (optionally) covariance Sigma.

    ``W`` holds the evaluation points (n, p); ``mu`` is the population law.
    Returns (h, tilde_h, Sigma) with Sigma None unless requested; with
    ``sigma_override`` set, Sigma is the constant matrix s * I.  A given
    ``cache`` stands in for ``mu``, which is then not read.
    """
    W = _as_points(W, model.p)
    if cache is None:
        cache = field_cache(mu, model, pi)
    n, p = W.shape
    h, th, gF = _drift_terms(W, cache, model, pi)
    if not need_sigma:
        return h, th, None
    if sigma_override is not None:
        sig = np.broadcast_to(sigma_override * np.eye(p), (n, p, p)).copy()
        return h, th, sig
    xi = _noise_fields(th, gF, cache)
    sig = np.einsum("d,ndp,ndq->npq", pi.weights, xi, xi)
    return h, th, sig


def drift_and_noise_factor(
    W, mu, model: ModelSpec, pi: DataDistribution, cache: FieldCache | None = None
):
    """Drift h and the rank-D noise factor F, from one feature-gradient block.

    F has shape (n, D, p) with F[:, j] = sqrt(pi_j) xi_j, so that
    sum_j F_j F_j^T = Sigma exactly: F^T z with z ~ N(0, I_D) has the law
    of Sigma^(1/2) z' without forming Sigma or taking its root.  A given
    ``cache`` stands in for ``mu``, which is then not read.
    """
    W = _as_points(W, model.p)
    if cache is None:
        cache = field_cache(mu, model, pi)
    h, th, gF = _drift_terms(W, cache, model, pi)
    F = _noise_fields(th, gF, cache)
    F *= np.sqrt(pi.weights)[None, :, None]
    return h, F


def mean_field_h(w, mu, model: ModelSpec, pi: DataDistribution) -> np.ndarray:
    """Mean drift field h(w, mu) = tilde_h(w, mu) - gradV(w)."""
    single = np.asarray(w).ndim == 1
    h, _, _ = mean_field_terms(w, mu, model, pi)
    return h[0] if single else h


def tilde_h(w, mu, model: ModelSpec, pi: DataDistribution) -> np.ndarray:
    """Penalty-free part of the drift; this is what the noise field centers on."""
    single = np.asarray(w).ndim == 1
    _, th, _ = mean_field_terms(w, mu, model, pi)
    return th[0] if single else th


def noise_xi(w, mu, model: ModelSpec, pi: DataDistribution, atom) -> np.ndarray:
    """Zero-pi-mean fluctuation of the single-sample gradient term at (x, y)."""
    if isinstance(atom, int):
        atom = pi.atoms[atom]
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    th = tilde_h(w, mu, model, pi)
    mu = _as_measure(mu)
    pred = predict(mu, model, atom.x)
    r = float(model.loss.d1(pred, atom.y))
    gF = model.feature.grad(w[None, :], atom.x[None, :])[0, 0]
    return -th - r * gF


def covariance_sigma(w, mu, model: ModelSpec, pi: DataDistribution) -> np.ndarray:
    """Gradient-noise covariance Sigma(w, mu), a p x p PSD matrix."""
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    _, _, sig = mean_field_terms(w, mu, model, pi, need_sigma=True)
    return sig[0]


def sqrt_psd(sigma: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-1e-10, 0) are clamped to zero (Sigma is PSD only up to
    floating-point error); anything more negative is treated as a genuinely
    indefinite input and raises.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    scale = max(1.0, float(np.abs(sigma).max()))
    if np.abs(sigma - sigma.T).max() > _SYM_TOL * scale:
        raise ValueError("sqrt_psd requires a symmetric matrix (within 1e-10)")
    vals, vecs = np.linalg.eigh(sigma)
    if vals.min() < _EIG_FLOOR * scale:
        raise ValueError(f"sqrt_psd got an indefinite matrix (min eigenvalue {vals.min():.3e})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def g_envelope(w, model: ModelSpec, atom: DataAtom) -> float:
    """Envelope-weighted observable (Phi^4(x) + Psi^2(y)) F(w, x)."""
    w = np.asarray(w, dtype=np.float64).reshape(1, -1)
    f = float(model.feature.value(w, atom.x[None, :])[0, 0])
    return (model.phi(atom.x) ** 4 + model.psi(atom.y) ** 2) * f
