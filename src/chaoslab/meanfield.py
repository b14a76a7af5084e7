"""Exact mean-field kernels over finite-support data.

Everything here is a finite sum over the atoms of the data distribution:
the population risk and its gradient, the drift field h felt by a single
weight given the population law mu, the per-sample noise field xi, its
covariance Sigma, its exact rank-D factor and the symmetric PSD square
root S.

Every builtin feature is a ridge function F(w, x) = f(<w, x>), so one
atom-major ``RidgeBlock`` of f and f' at X @ W.T (D, n) carries all a step
needs: the law's per-atom predictions come from its f, and drift,
covariance and diffusion increment at the points from its f'.  The zero
feature's block carries no activation: its predictions are 0 and its
per-atom gradient terms are formed once per law column, not per point.

A law is its residual columns d1l(a(x_j), y_j), broadcastable to (D, n):
only ``field_cache`` makes them from an ensemble, once per ensemble, and
every kernel takes them.  One law is the (D,) or (D, 1) case, and stacked
systems give each point the column of its own law.  Sums over atoms run
row by row, so a point's result does not depend on what it is stacked
with.  The noise model is the ``ModelSpec``'s: Sigma(w, mu), or s I when
its ``sigma_override`` is s.  The single-point wrappers (``mean_field_h``,
``noise_xi`` and the rest) take the law mu as an (n, p) ensemble.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import DataDistribution, ModelSpec, ZeroFeature

__all__ = [
    "RidgeBlock",
    "ridge_block",
    "field_cache",
    "predict",
    "structural_risk",
    "risk_gradient",
    "mean_field_h",
    "tilde_h",
    "mean_field_terms",
    "noise_width",
    "drift_and_noise",
    "noise_xi",
    "covariance_sigma",
    "sqrt_psd",
]

_SYM_TOL = 1e-10
_EIG_FLOOR = -1e-10


def _as_points(w, p: int) -> np.ndarray:
    W = np.asarray(w, dtype=np.float64)
    single = W.ndim == 1
    if single:
        W = W[None, :]
    if W.shape[1] != p:
        raise ValueError(f"weight dimension {W.shape[1]} does not match model p={p}")
    return W


def _as_ensemble(mu, p: int) -> np.ndarray:
    W = _as_points(mu, p)
    if W.shape[0] == 0:
        raise ValueError("a law needs at least one particle")
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


def _law_predictions(block: RidgeBlock, pi: DataDistribution, sizes=None) -> np.ndarray:
    """Per-atom predictions mu[F(., x_j)] of the uniform law on the block's points (D,),
    or of each of its segments under ``sizes``, read as in ``field_cache``."""
    D = len(pi)
    if sizes is not None:
        sizes = np.asarray(sizes, dtype=np.int64)
        copies = sizes.reshape(-1, sizes.shape[-1])  # (k, S)
        seg = copies[0]
        if (copies != seg).any():
            raise ValueError(f"stacked sizes must repeat one row of segments, got {sizes.tolist()}")
        k, L = len(copies), int(seg.sum())
        if k * L != block.W.shape[0]:
            raise ValueError(f"sizes add up to {k * L}, the block has {block.W.shape[0]} points")
    if block.f is None:  # the zero feature predicts 0 under every law
        return np.zeros((D,) if sizes is None else (D, *sizes.shape))
    if sizes is None:
        return (block.f * (1.0 / block.W.shape[0])).sum(axis=1)
    fw = block.f.reshape(D, k, L) * np.repeat(1.0 / seg, seg)
    edges = np.cumsum((0, *seg))
    preds = np.empty((D, k, len(seg)))
    for s, (a, b) in enumerate(zip(edges, edges[1:])):
        preds[:, :, s] = fw[:, :, a:b].sum(axis=2)
    return preds.reshape(D, *sizes.shape)


def field_cache(mu, model: ModelSpec, pi: DataDistribution, sizes=None) -> np.ndarray:
    """The law of an ensemble mu (n, p), or of its RidgeBlock, as its residual
    columns d1l(mu[F(., x_j)], y_j): (D,) for the uniform law on all points.

    A block lends its f.  With ``sizes`` (S,) its columns are consecutive
    ensembles of those sizes, each its own uniform law, and the result is
    (D, S); with ``sizes`` (k, S), k stacked copies of the same S segments,
    (D, k, S), summed one segment position at a time for all k copies.  A
    segment's columns equal, bit for bit, those of the segment's own block.
    """
    if isinstance(mu, RidgeBlock):
        block = mu
    elif sizes is not None:
        raise ValueError("sizes needs the law as a RidgeBlock")
    else:
        block = ridge_block(_as_ensemble(mu, model.p), model, pi)
    preds = _law_predictions(block, pi, sizes)
    ys = pi.ys.reshape(len(pi), *(1,) * (preds.ndim - 1))
    return np.asarray(model.loss.d1(preds, ys), dtype=np.float64)


def predict(mu, model: ModelSpec, x: np.ndarray) -> float:
    """Population prediction mu[F(., x)] at a single input x, mu an ensemble (n, p)."""
    W = _as_ensemble(mu, model.p)
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    vals = model.feature.value(W, x)[:, 0]
    return float(np.full(W.shape[0], 1.0 / W.shape[0]) @ vals)


def structural_risk(ensemble: np.ndarray, model: ModelSpec, pi: DataDistribution) -> float:
    """Population risk of the N-particle predictor plus the averaged penalty."""
    W = _as_ensemble(ensemble, model.p)
    preds = _law_predictions(ridge_block(W, model, pi), pi)
    data_term = float(pi.weights @ model.loss.value(preds, pi.ys))
    return data_term + float(np.mean(model.penalty.value(W)))


def risk_gradient(ensemble: np.ndarray, model: ModelSpec, pi: DataDistribution) -> np.ndarray:
    """Gradient (N, p) of ``structural_risk`` with respect to the ensemble: -h(w_k, mu_N) / N."""
    block = ridge_block(ensemble, model, pi)
    h, _, _ = mean_field_terms(block, field_cache(block, model, pi), model, pi)
    return -h / block.W.shape[0]


def _block_and_law(W, law, model: ModelSpec, pi: DataDistribution):
    """The points' RidgeBlock and the law's residual columns, broadcastable to (D, n)."""
    block = W if isinstance(W, RidgeBlock) else ridge_block(W, model, pi)
    r = np.asarray(law)
    if r.ndim == 0 or r.shape[0] != len(pi):
        raise ValueError(f"a law's residual columns need one row per atom ({len(pi)}), "
                         f"got shape {r.shape}")
    return block, (r[:, None] if r.ndim == 1 else r)


def _ridge_drift(block: RidgeBlock, resid: np.ndarray, model: ModelSpec, pi: DataDistribution):
    """Drift h (n, p), its bounded part tilde_h = -sum_j pi_j g_j, particle-last
    (p, n), and the per-atom gradient terms g_j = d1l_j f'(<w, x_j>) x_j,
    atom-major and particle-last (D, p, n).

    Particle-last, numpy's inner loops run over the points, not over p.
    For the zero feature g_j = 0 * (d1l_j x_j), a signed zero as the
    generic product gives, is formed once per law column, and tilde_h is
    broadcast to the points, read-only.
    """
    zero = block.df is None
    g = (0.0 if zero else block.df[:, None, :]) * (resid[:, None, :] * pi.xs[:, :, None])
    th = -(pi.weights[:, None, None] * g).sum(axis=0)  # atom by atom, per point
    if zero:
        th = np.broadcast_to(th, block.W.shape[::-1])
    return th.T - model.penalty.grad(block.W), th, g


def _noise_factor(th: np.ndarray, g: np.ndarray, pi: DataDistribution) -> np.ndarray:
    """The rank-D factor sqrt(pi_j) xi_j = -sqrt(pi_j) (tilde_h + g_j), atom-major and
    particle-last (D, p, n), from tilde_h (p, n) and g (D, p, n)."""
    return -np.sqrt(pi.weights)[:, None, None] * (th + g)


def mean_field_terms(W, law, model: ModelSpec, pi: DataDistribution, need_sigma: bool = False):
    """Drift h, bounded part tilde_h and (optionally) covariance Sigma.

    ``W`` holds the evaluation points (n, p), or their RidgeBlock, and
    ``law`` the population law as its residual columns broadcastable to
    (D, n).  Returns (h, tilde_h, Sigma) with Sigma None
    unless requested; under the model's ``sigma_override`` s, Sigma is the
    constant matrix s * I.
    """
    block, resid = _block_and_law(W, law, model, pi)
    h, th, g = _ridge_drift(block, resid, model, pi)
    n, p = block.W.shape
    if not need_sigma:
        sigma = None
    elif model.sigma_override is not None:
        sigma = np.broadcast_to(model.sigma_override * np.eye(p), (n, p, p)).copy()
    else:
        F = _noise_factor(th, g, pi)
        sigma = (F[:, :, None, :] * F[:, None, :, :]).sum(axis=0).transpose(2, 0, 1)
    return h, th.T, sigma


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
        return h, scale * np.sqrt((F * F).sum(axis=0).T) * Z
    return h, scale * (F * Z.T[:, None, :]).sum(axis=0).T


def mean_field_h(w, mu, model: ModelSpec, pi: DataDistribution) -> np.ndarray:
    """Mean drift field h(w, mu) = tilde_h(w, mu) - gradV(w), mu an ensemble (n, p)."""
    single = np.asarray(w).ndim == 1
    h, _, _ = mean_field_terms(w, field_cache(mu, model, pi), model, pi)
    return h[0] if single else h


def tilde_h(w, mu, model: ModelSpec, pi: DataDistribution) -> np.ndarray:
    """Penalty-free part of the drift under an ensemble mu (n, p); the noise field centers on it."""
    single = np.asarray(w).ndim == 1
    _, th, _ = mean_field_terms(w, field_cache(mu, model, pi), model, pi)
    return th[0] if single else th


def noise_xi(w, mu, model: ModelSpec, pi: DataDistribution, atom) -> np.ndarray:
    """Zero-pi-mean fluctuation of the single-sample gradient term at (x, y).

    ``mu`` is an ensemble (n, p), and ``atom`` a DataAtom or the index of one of pi's atoms.
    """
    if isinstance(atom, numbers.Integral):
        atom = pi.atoms[atom]
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    th = tilde_h(w, mu, model, pi)
    pred = predict(mu, model, atom.x)
    r = float(model.loss.d1(pred, atom.y))
    gF = model.feature.grad(w[None, :], atom.x[None, :])[0, 0]
    return -th - r * gF


def covariance_sigma(w, mu, model: ModelSpec, pi: DataDistribution) -> np.ndarray:
    """Gradient-noise covariance Sigma(w, mu), a p x p PSD matrix, mu an ensemble (n, p)."""
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
