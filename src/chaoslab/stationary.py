"""Stationary-law fixed-point map on a 1-D density grid.

For the one-dimensional mean-field diffusion with drift h(., mu) and
diffusion variance sigma_bar(., mu) = gamma^(1/(1-alpha)) Sigma(., mu) / M
(+ 2 eta when the Langevin channel is on), with Sigma under the model's
noise model, the candidate stationary density given a frozen law mu is

    rho_mu(w)  proportional to  sigma_bar(w, mu)^-1
               * exp( 2 * integral_0^w  h(u, mu) / sigma_bar(u, mu) du ).

A stationary law is a fixed point of mu -> rho_mu.  The map is iterated
with damping (existence of a fixed point is guaranteed, contraction is
not), and the result is validated by simulating the diffusion from the
candidate and measuring the Wasserstein drift of the endpoint law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DOMAIN_REFERENCE, euler_run, meanfield_sigma_scale
from .meanfield import EmpiricalMeasure, FieldCache, field_cache, mean_field_terms
from .model import DataDistribution, Hyperparams, ModelSpec
from .rng import NoisePlan, SLOT_INIT

__all__ = [
    "NonEllipticNoise",
    "GridDensity1D",
    "FixedPointResult",
    "map_H",
    "fixed_point_iterate",
    "stationarity_check",
    "l1_distance",
]

_SIGMA_FLOOR = 1e-12
_BOUNDARY_FRACTION = 1e-12
_MAX_EXPANSIONS = 16


class NonEllipticNoise(ValueError):
    """The effective diffusion variance falls below the floor somewhere on the grid."""


@dataclass(frozen=True)
class GridDensity1D:
    """Normalized density sampled at the centers of a uniform 1-D grid."""

    lo: float
    hi: float
    n_cells: int
    values: np.ndarray

    def __post_init__(self):
        if self.n_cells < 4:
            raise ValueError("need at least 4 grid cells")
        if not self.lo < 0.0 < self.hi:
            raise ValueError(f"grid [{self.lo}, {self.hi}] must contain the origin")
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.n_cells,):
            raise ValueError("values must have one entry per cell")
        if np.any(v < 0):
            raise ValueError("density values must be >= 0")
        z = np.trapezoid(v, dx=self.cell_width)
        if z <= 0:
            raise ValueError("density must have positive mass")
        object.__setattr__(self, "values", v / z)

    @property
    def cell_width(self) -> float:
        return (self.hi - self.lo) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.n_cells) + 0.5) * self.cell_width

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.cell_width))

    def moment(self, k: int) -> float:
        return float(np.trapezoid(self.centers**k * self.values, dx=self.cell_width))

    def as_measure(self) -> EmpiricalMeasure:
        w = self.values * self.cell_width
        return EmpiricalMeasure(self.centers[:, None], w / w.sum())

    def ppf(self, u) -> np.ndarray:
        """Inverse CDF by linear interpolation on the center grid."""
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (self.values[1:] + self.values[:-1]))])
        cdf *= self.cell_width
        cdf /= cdf[-1]
        return np.interp(np.asarray(u, dtype=np.float64), cdf, self.centers)

    @staticmethod
    def gaussian(mean: float, var: float, lo: float, hi: float, n_cells: int) -> "GridDensity1D":
        g = GridDensity1D(lo, hi, n_cells, np.ones(n_cells))
        w = g.centers
        vals = np.exp(-0.5 * (w - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)
        return GridDensity1D(lo, hi, n_cells, vals)


def l1_distance(a: GridDensity1D, b: GridDensity1D) -> float:
    """L1 distance between grid densities (zero extension outside their support)."""
    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    n = 2 * max(a.n_cells, b.n_cells)
    w = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    fa = np.interp(w, a.centers, a.values, left=0.0, right=0.0)
    fb = np.interp(w, b.centers, b.values, left=0.0, right=0.0)
    return float(np.trapezoid(np.abs(fa - fb), dx=(hi - lo) / n))


def _effective_variance(
    centers: np.ndarray,
    law: FieldCache,
    model: ModelSpec,
    pi: DataDistribution,
    hyper: Hyperparams,
) -> tuple[np.ndarray, np.ndarray]:
    """Drift h and effective diffusion variance sigma_bar at the cell centers."""
    h, _, sigma = mean_field_terms(centers[:, None], law, model, pi, need_sigma=True)
    scale = hyper.gamma ** (1.0 / (1.0 - hyper.alpha)) / hyper.M
    sigma_bar = scale * sigma[:, 0, 0] + 2.0 * hyper.eta
    return h[:, 0], sigma_bar


def _density_on_grid(
    lo: float,
    hi: float,
    n_cells: int,
    law: FieldCache,
    model: ModelSpec,
    pi: DataDistribution,
    hyper: Hyperparams,
) -> GridDensity1D:
    centers = lo + (np.arange(n_cells) + 0.5) * (hi - lo) / n_cells
    h, sigma_bar = _effective_variance(centers, law, model, pi, hyper)
    if np.any(sigma_bar < _SIGMA_FLOOR):
        k = int(np.argmin(sigma_bar))
        raise NonEllipticNoise(
            f"effective diffusion variance {sigma_bar[k]:.3e} below floor at w={centers[k]:.4g}; "
            "the fixed-point map needs uniformly elliptic noise"
        )
    ratio = h / sigma_bar
    dw = (hi - lo) / n_cells
    anti = np.concatenate([[0.0], np.cumsum(0.5 * (ratio[1:] + ratio[:-1]) * dw)])
    anti -= np.interp(0.0, centers, anti)
    log_rho = -np.log(sigma_bar) + 2.0 * anti
    log_rho -= log_rho.max()
    return GridDensity1D(lo, hi, n_cells, np.exp(log_rho))


def map_H(
    mu: GridDensity1D,
    model: ModelSpec,
    pi: DataDistribution,
    hyper: Hyperparams,
) -> GridDensity1D:
    """One application of the stationary-density map to a grid density.

    The input density is read as a weighted measure on its cell centers;
    the output grid auto-expands until the boundary density falls below
    1e-12 of the peak (the output has Gaussian-dominated tails, so a finite
    window always suffices).
    """
    if model.p != 1:
        raise ValueError("the stationary map is defined for parameter dimension p = 1")
    law = field_cache(mu.as_measure(), model, pi)
    lo, hi, n = mu.lo, mu.hi, mu.n_cells
    for _ in range(_MAX_EXPANSIONS):
        out = _density_on_grid(lo, hi, n, law, model, pi, hyper)
        peak = float(out.values.max())
        if max(out.values[0], out.values[-1]) <= _BOUNDARY_FRACTION * peak:
            return out
        lo, hi = 1.5 * lo, 1.5 * hi
    raise ValueError("stationary map output does not decay within the expansion budget")


@dataclass
class FixedPointResult:
    density: GridDensity1D
    iterations: int
    residual: float
    history: list[float]
    converged: bool


def fixed_point_iterate(
    mu0: GridDensity1D,
    model: ModelSpec,
    pi: DataDistribution,
    hyper: Hyperparams,
    tol: float = 1e-8,
    max_iter: int = 100,
    damping: float = 1.0,
) -> FixedPointResult:
    """Damped fixed-point iteration mu <- (1-damping) mu + damping H(mu).

    Stops when the L1 residual between the iterate and its image reaches
    ``tol``.  Non-convergence is reported through the result (with the full
    residual history), never raised: a cycling iteration is a finding.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    mu = mu0
    history: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        image = map_H(mu, model, pi, hyper)
        resid = l1_distance(mu, image)
        history.append(resid)
        if resid <= tol:
            return FixedPointResult(mu, iterations, resid, history, True)
        # combine on the image's (possibly wider) grid
        prev = np.interp(image.centers, mu.centers, mu.values, left=0.0, right=0.0)
        mixed = (1.0 - damping) * prev + damping * image.values
        mu = GridDensity1D(image.lo, image.hi, image.n_cells, mixed)
        iterations += 1
    image = map_H(mu, model, pi, hyper)
    resid = l1_distance(mu, image)
    history.append(resid)
    return FixedPointResult(mu, iterations, resid, history, resid <= tol)


def stationarity_check(
    mu_star: GridDensity1D,
    model: ModelSpec,
    pi: DataDistribution,
    hyper: Hyperparams,
    N_ref: int,
    horizon: float,
    plan: NoisePlan,
) -> float:
    """Wasserstein drift of the diffusion started from a candidate stationary law.

    Samples N_ref particles from ``mu_star`` by inverse CDF, runs the
    mean-field diffusion for ``horizon`` and returns the exact 1-D W2
    between the endpoint samples and the candidate density.  Horizon 0
    returns the pure sampling error, the natural baseline.
    """
    if model.p != 1:
        raise ValueError("stationarity_check is defined for p = 1")
    u = plan.uniforms(DOMAIN_REFERENCE, SLOT_INIT, 0, N_ref)
    W0 = mu_star.ppf(u)[:, None]
    traj = euler_run(
        model,
        pi,
        hyper.replace(T=horizon),
        W0,
        plan,
        DOMAIN_REFERENCE,
        sigma_scale=meanfield_sigma_scale(hyper),
        kind="meanfield-sde",
        snapshot_times=[horizon],
    )
    samples = np.sort(traj.endpoint()[:, 0])
    levels = (np.arange(N_ref) + 0.5) / N_ref
    return float(np.sqrt(np.mean((samples - mu_star.ppf(levels)) ** 2)))
