"""Exact mean-field kernels over finite-support data.

Everything here is a finite sum over the atoms of the data distribution:
the population risk and its gradient, the drift field h felt by a single
weight given the population law mu, the per-sample noise field xi, its
covariance Sigma, its exact rank-D factor and the symmetric PSD square
root S.

Every builtin feature is a ridge function F(w, x) = f(<w, x>), so one
atom-major ``RidgeBlock`` of f and f' at X @ W.T (D, n) carries all a step
needs: the law's per-atom predictions (the FieldCache) come from its f,
and drift, covariance and diffusion increment at the points from its f'.
The zero feature's block carries no activation: its predictions are 0 and
its per-atom gradient terms are formed once per law column, not per point.

A kernel takes the law one way: as its ``FieldCache``, or as its residual
columns d1l(a(x_j), y_j) broadcastable to (D, n).  One law is the (D, 1)
case, and stacked systems give each point the column of its own law.  A
caller that holds an ensemble calls ``field_cache`` once.  Sums over atoms
run row by row, so a point's result does not depend on what it is stacked
with.  The noise model is the ``ModelSpec``'s: Sigma(w, mu), or s I when
its ``sigma_override`` is s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DataAtom, DataDistribution, ModelSpec, ZeroFeature

__all__ = [
    "EmpiricalMeasure",
    "RidgeBlock",
    "ridge_block",
    "FieldCache",
    "field_cache",
    "predict",
    "structural_risk",
    "per_sample_grad",
    "risk_gradient",
    "mean_field_h",
    "tilde_h",
    "mean_field_terms",
    "noise_width",
    "drift_and_noise",
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
            if not (np.isfinite(w).all() and (w >= 0).all()):
                raise ValueError(f"weights must be finite and >= 0, got {w}")
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
class RidgeBlock:
    """Points W and the ridge activation f, f' at X @ W.T, atom-major.

    Row j of ``f`` and ``df`` belongs to atom j, column i to point i.  Every
    kernel that takes points also takes their block, so one evaluation
    serves a whole Euler step.  Both are None for the zero feature.
    """

    W: np.ndarray  # (n, p)
    f: np.ndarray | None  # (D, n)
    df: np.ndarray | None  # (D, n)


def ridge_block(W, model: ModelSpec, pi: DataDistribution) -> RidgeBlock:
    """The RidgeBlock of the points W (n, p): one evaluation of the feature's activation."""
    W = _as_points(W, model.p)
    if isinstance(model.feature, ZeroFeature):
        return RidgeBlock(W, None, None)
    # at p = 1 the broadcast product gives the matmul's exact products at a fraction of its cost
    z = pi.xs * W.T if model.p == 1 else pi.xs @ W.T
    f, df = model.feature.activation(z)
    return RidgeBlock(W, f, df)


@dataclass(frozen=True)
class FieldCache:
    """Per-atom predictions a(x) = mu[F(., x)] and residual derivatives d1l(a(x), y).

    Each field is (D,) for one law, (D, S) for S stacked laws, or (D, k, S)
    for k stacked copies of S segments.
    """

    predictions: np.ndarray
    residual_d1: np.ndarray


def field_cache(mu, model: ModelSpec, pi: DataDistribution, sizes=None) -> FieldCache:
    """The FieldCache of the law mu: an ensemble, an EmpiricalMeasure or a RidgeBlock.

    A block stands for the uniform law on its points and lends its f.  With
    ``sizes`` (S,) its columns are consecutive ensembles of those sizes, each
    its own uniform law, and both fields are (D, S); with ``sizes`` (k, S),
    k stacked copies of the same S segments, they are (D, k, S), summed one
    segment position at a time for all k copies.  A segment's predictions
    equal, bit for bit, those of the segment's own block.
    """
    if isinstance(mu, RidgeBlock):
        block, weights = mu, 1.0 / mu.W.shape[0]
    elif sizes is not None:
        raise ValueError("sizes needs the law as a RidgeBlock")
    else:
        mu = _as_measure(mu)
        block, weights = ridge_block(mu.locations, model, pi), mu.weights
    D = len(pi)
    if sizes is None:
        ys, shape = pi.ys, (D,)
    else:
        sizes = np.asarray(sizes, dtype=np.int64)
        copies = sizes.reshape(-1, sizes.shape[-1])  # (k, S)
        seg = copies[0]
        if (copies != seg).any():
            raise ValueError(f"stacked sizes must repeat one row of segments, got {sizes.tolist()}")
        k, L = len(copies), int(seg.sum())
        if k * L != block.W.shape[0]:
            raise ValueError(f"sizes add up to {k * L}, the block has {block.W.shape[0]} points")
        ys, shape = pi.ys.reshape(D, *(1,) * sizes.ndim), (D, *sizes.shape)
    if block.f is None:  # the zero feature predicts 0 under every law
        preds = np.zeros(shape)
    elif sizes is None:
        preds = (block.f * weights).sum(axis=1)
    else:
        fw = block.f.reshape(D, k, L) * np.repeat(1.0 / seg, seg)
        edges = np.cumsum((0, *seg))
        preds = np.empty((D, k, len(seg)))
        for s, (a, b) in enumerate(zip(edges, edges[1:])):
            preds[:, :, s] = fw[:, :, a:b].sum(axis=2)
        preds = preds.reshape(shape)
    return FieldCache(preds, np.asarray(model.loss.d1(preds, ys), dtype=np.float64))


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
    """Gradient (N, p) of ``structural_risk`` with respect to the ensemble: -h(w_k, mu_N) / N."""
    block = ridge_block(ensemble, model, pi)
    h, _, _ = mean_field_terms(block, field_cache(block, model, pi), model, pi)
    return -h / block.W.shape[0]


def _block_and_law(W, law, model: ModelSpec, pi: DataDistribution):
    """The points' RidgeBlock and the law's residual columns, broadcastable to (D, n)."""
    block = W if isinstance(W, RidgeBlock) else ridge_block(W, model, pi)
    r = law.residual_d1 if isinstance(law, FieldCache) else np.asarray(law)
    if r.shape[0] != len(pi):
        raise ValueError(f"a law's residual columns need one row per atom ({len(pi)}), "
                         f"got shape {r.shape}")
    return block, (r[:, None] if r.ndim == 1 else r)


def _ridge_drift(block: RidgeBlock, resid: np.ndarray, model: ModelSpec, pi: DataDistribution):
    """Drift h, its bounded part tilde_h = -sum_j pi_j g_j, and the per-atom
    gradient terms g_j = d1l_j f'(<w, x_j>) x_j, atom-major (D, n, p).

    For the zero feature g_j = 0 * (d1l_j x_j), a signed zero as the
    generic product gives, is formed once per law column, and tilde_h is
    broadcast to the points, read-only.
    """
    zero = block.df is None
    g = (0.0 if zero else block.df[:, :, None]) * (resid[:, :, None] * pi.xs[:, None, :])
    th = -(pi.weights[:, None, None] * g).sum(axis=0)  # atom by atom, per point
    if zero:
        th = np.broadcast_to(th, block.W.shape)
    return th - model.penalty.grad(block.W), th, g


def _noise_factor(th: np.ndarray, g: np.ndarray, pi: DataDistribution) -> np.ndarray:
    """The rank-D factor sqrt(pi_j) xi_j = -sqrt(pi_j) (tilde_h + g_j), atom-major (D, n, p)."""
    return -np.sqrt(pi.weights)[:, None, None] * (th + g)


def mean_field_terms(W, law, model: ModelSpec, pi: DataDistribution, need_sigma: bool = False):
    """Drift h, bounded part tilde_h and (optionally) covariance Sigma.

    ``W`` holds the evaluation points (n, p), or their RidgeBlock, and
    ``law`` the population law as its FieldCache or its residual columns
    broadcastable to (D, n).  Returns (h, tilde_h, Sigma) with Sigma None
    unless requested; under the model's ``sigma_override`` s, Sigma is the
    constant matrix s * I.
    """
    block, resid = _block_and_law(W, law, model, pi)
    h, th, g = _ridge_drift(block, resid, model, pi)
    if not need_sigma:
        return h, th, None
    n, p = block.W.shape
    if model.sigma_override is not None:
        return h, th, np.broadcast_to(model.sigma_override * np.eye(p), (n, p, p)).copy()
    F = _noise_factor(th, g, pi)
    return h, th, (F[:, :, :, None] * F[:, :, None, :]).sum(axis=0)


def noise_width(model: ModelSpec, pi: DataDistribution) -> int:
    """Standard normals per particle that one diffusion increment consumes.

    D (the number of atoms) for the rank-D factor at p > 1, else p.
    """
    return len(pi) if model.p > 1 and model.sigma_override is None else model.p


def drift_and_noise(W, law, model: ModelSpec, pi: DataDistribution, scale, Z):
    """Drift h (n, p) and diffusion increment scale R^T z (n, p) of one Euler-Maruyama step.

    ``W`` and ``law`` are read as in ``mean_field_terms``; ``scale`` is a
    float or a per-particle column (n, 1), and Z (n, ``noise_width``) holds
    the step's standard normals.  The increment is None when Z is None.  R
    is any factor with R^T R = Sigma per particle, which gives the same
    Euler-Maruyama law.  At p = 1 it is the scalar root sqrt(Sigma_00),
    which gives the W2-optimal synchronous coupling.  At p > 1 it is the
    exact rank-D factor R[j] = sqrt(pi_j) xi_j, so R^T z with z ~ N(0, I_D)
    has the law of Sigma^(1/2) z' without forming Sigma or taking its root.
    Under the model's ``sigma_override`` s, R is sqrt(s) I.
    """
    s = model.sigma_override
    if Z is None or s is not None:
        h, _, _ = mean_field_terms(W, law, model, pi)
        if Z is None:
            return h, None
        # rounded as the unpinned factor is: the scalar root times the scale
        # at p = 1, the scale times R^T z at p > 1
        return h, scale * math.sqrt(s) * Z if model.p == 1 else scale * (math.sqrt(s) * Z)
    block, resid = _block_and_law(W, law, model, pi)
    h, th, g = _ridge_drift(block, resid, model, pi)
    F = _noise_factor(th, g, pi)
    if model.p == 1:
        # (scale * sqrt(Sigma_00)) * z; tests/test_noise.py pins this rounding
        return h, scale * np.sqrt(np.clip((F * F).sum(axis=0), 0.0, None)) * Z
    return h, scale * np.einsum("jnp,nj->np", F, Z)


def mean_field_h(w, mu, model: ModelSpec, pi: DataDistribution) -> np.ndarray:
    """Mean drift field h(w, mu) = tilde_h(w, mu) - gradV(w)."""
    single = np.asarray(w).ndim == 1
    h, _, _ = mean_field_terms(w, field_cache(mu, model, pi), model, pi)
    return h[0] if single else h


def tilde_h(w, mu, model: ModelSpec, pi: DataDistribution) -> np.ndarray:
    """Penalty-free part of the drift; this is what the noise field centers on."""
    single = np.asarray(w).ndim == 1
    _, th, _ = mean_field_terms(w, field_cache(mu, model, pi), model, pi)
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
    _, _, sig = mean_field_terms(w, field_cache(mu, model, pi), model, pi, need_sigma=True)
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
