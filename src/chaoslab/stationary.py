"""Stationary-law fixed-point map on a 1-D density grid.

For the one-dimensional mean-field diffusion with drift h(., mu) and
diffusion variance sigma_bar(., mu) = c Sigma(., mu) + 2 eta, with Sigma under
the model's noise model and c = gamma_scale(alpha, 1, gamma, 1) / M, the
candidate stationary density given a frozen law mu is

    rho_mu(w)  proportional to  sigma_bar(w, mu)^-1
               * exp( 2 * integral_0^w  h(u, mu) / sigma_bar(u, mu) du ).

A stationary law is a fixed point of mu -> rho_mu.  The map is iterated
with damping (existence of a fixed point is guaranteed, contraction is
not), and the result is validated by simulating the diffusion from the
candidate and measuring the Wasserstein drift of the endpoint law.

``grid_law_path`` evolves the law of the Euler-discretized mean-field
diffusion itself on a grid of cells, step by step: the deterministic
reference law the coupling companions read at p = 1, with c = sigma_scale^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import DOMAIN_REFERENCE, InitSpec, euler_run, meanfield_sigma_scale
from .meanfield import RidgeBlock, mean_field_terms, ridge_block
from .metrics import w2_1d_quantile
from .model import DataDistribution, Hyperparams, ModelSpec, gamma_scale, time_weight
from .rng import NoisePlan, SLOT_INIT

__all__ = [
    "NonEllipticNoise",
    "UndecayedTails",
    "GridDensity1D",
    "FixedPointResult",
    "map_H",
    "fixed_point_iterate",
    "stationarity_check",
    "l1_distance",
    "GRID_LAW_CELLS",
    "GRID_LAW_WINDOW",
    "GRID_LAW_BAND_SD",
    "GridLawPath",
    "grid_law_path",
    "normal_cdf",
]

_SIGMA_FLOOR = 1e-12
_BOUNDARY_FRACTION = 1e-12
_MAX_EXPANSIONS = 16


class NonEllipticNoise(ValueError):
    """The effective diffusion variance falls below the floor somewhere on the grid."""


class UndecayedTails(ValueError):
    """The map's output keeps mass at its window's edges after every expansion."""


def _cell_centers(lo: float, hi: float, n: int) -> np.ndarray:
    """Centers of the n uniform cells of [lo, hi]."""
    return lo + (np.arange(n) + 0.5) * ((hi - lo) / n)


def _drift_and_variance(points, law: np.ndarray, model: ModelSpec, pi: DataDistribution,
                        c: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Drift h (n,) and variance c Sigma_00 + 2 eta (n,) at the points ((n, 1) or their
    RidgeBlock) under the law's residual row (D,); no Sigma is formed when c is 0."""
    h, _, sigma = mean_field_terms(points, law, model, pi, need_sigma=c > 0)
    var = c * sigma[:, 0, 0] + 2.0 * eta if c > 0 else np.full(h.shape[0], 2.0 * eta)
    return h[:, 0], var


def _grid_residuals(block: RidgeBlock, masses: np.ndarray, model: ModelSpec,
                    pi: DataDistribution) -> np.ndarray:
    """Residual row d1l(mu[F(., x_j)], y_j) (D,) of the law mu that puts ``masses``
    (summing to 1) on the points of ``block``."""
    preds = np.zeros(len(pi)) if block.f is None else (block.f * masses).sum(axis=1)
    return np.asarray(model.loss.d1(preds, pi.ys), dtype=np.float64)


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
        return _cell_centers(self.lo, self.hi, self.n_cells)

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.cell_width))

    def moment(self, k: int) -> float:
        return float(np.trapezoid(self.centers**k * self.values, dx=self.cell_width))

    def ppf(self, u) -> np.ndarray:
        """Inverse CDF by linear interpolation on the center grid."""
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (self.values[1:] + self.values[:-1]))])
        cdf *= self.cell_width
        cdf /= cdf[-1]
        return np.interp(np.asarray(u, dtype=np.float64), cdf, self.centers)

    @staticmethod
    def gaussian(mean: float, var: float, lo: float, hi: float, n_cells: int) -> "GridDensity1D":
        w = _cell_centers(lo, hi, n_cells)
        vals = np.exp(-0.5 * (w - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)
        return GridDensity1D(lo, hi, n_cells, vals)


def l1_distance(a: GridDensity1D, b: GridDensity1D) -> float:
    """L1 distance between grid densities (zero extension outside their support)."""
    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    n = 2 * max(a.n_cells, b.n_cells)
    w = _cell_centers(lo, hi, n)
    fa = np.interp(w, a.centers, a.values, left=0.0, right=0.0)
    fb = np.interp(w, b.centers, b.values, left=0.0, right=0.0)
    return float(np.trapezoid(np.abs(fa - fb), dx=(hi - lo) / n))


def map_H(
    mu: GridDensity1D,
    model: ModelSpec,
    pi: DataDistribution,
    hyper: Hyperparams,
) -> GridDensity1D:
    """One application of the stationary-density map to a grid density.

    The input density is read as masses on its cell centers.  The output,
    rho_mu at the centers of the input's grid, widens that grid by 1.5
    until the boundary density falls below 1e-12 of the peak (the output
    has Gaussian-dominated tails, so a finite window suffices), at most
    16 times; past that it raises ``UndecayedTails``.
    """
    if model.p != 1:
        raise ValueError("the stationary map is defined for parameter dimension p = 1")
    masses = mu.values * mu.cell_width
    law = _grid_residuals(ridge_block(mu.centers[:, None], model, pi),
                          masses / masses.sum(), model, pi)
    lo, hi, n = mu.lo, mu.hi, mu.n_cells
    c = gamma_scale(hyper.alpha, 1.0, hyper.gamma, 1) / hyper.M
    for _ in range(_MAX_EXPANSIONS):
        centers = _cell_centers(lo, hi, n)
        h, sigma_bar = _drift_and_variance(centers[:, None], law, model, pi, c, hyper.eta)
        if np.any(sigma_bar < _SIGMA_FLOOR):
            k = int(np.argmin(sigma_bar))
            raise NonEllipticNoise(
                f"effective diffusion variance {sigma_bar[k]:.3e} below floor at "
                f"w={centers[k]:.4g}; the fixed-point map needs uniformly elliptic noise"
            )
        ratio = h / sigma_bar
        dw = (hi - lo) / n
        anti = np.concatenate([[0.0], np.cumsum(0.5 * (ratio[1:] + ratio[:-1]) * dw)])
        anti -= np.interp(0.0, centers, anti)
        log_rho = -np.log(sigma_bar) + 2.0 * anti
        log_rho -= log_rho.max()
        out = GridDensity1D(lo, hi, n, np.exp(log_rho))
        peak = float(out.values.max())
        if max(out.values[0], out.values[-1]) <= _BOUNDARY_FRACTION * peak:
            return out
        lo, hi = 1.5 * lo, 1.5 * hi
    raise UndecayedTails("stationary map output does not decay within the expansion budget")


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
    residual history), never raised: a cycling iteration is a finding.  An
    image past ``dynamics.MOMENT_CEILING`` (a runaway map) raises ``EnsembleDiverged``.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    mu = mu0
    history: list[float] = []
    for it in range(max_iter + 1):
        image = map_H(mu, model, pi, hyper)
        m2 = image.moment(2)
        if not m2 <= dynamics.MOMENT_CEILING:  # also catches NaN and inf
            raise dynamics.EnsembleDiverged(it, None, m2, dynamics.MOMENT_CEILING)
        resid = l1_distance(mu, image)
        history.append(resid)
        if resid <= tol or it == max_iter:
            return FixedPointResult(mu, it, resid, history, resid <= tol)
        # combine on the image's (possibly wider) grid
        prev = np.interp(image.centers, mu.centers, mu.values, left=0.0, right=0.0)
        mixed = (1.0 - damping) * prev + damping * image.values
        mu = GridDensity1D(image.lo, image.hi, image.n_cells, mixed)


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
    levels = (np.arange(N_ref) + 0.5) / N_ref
    return w2_1d_quantile(traj.endpoint(), mu_star.ppf(levels))


# ----------------------------- law of the Euler scheme on a grid -----------------------------

GRID_LAW_CELLS = 512
GRID_LAW_WINDOW = (-3.0, 3.0)
GRID_LAW_BAND_SD = 8.0
# a transition narrower than this many cells is a point mass at its mean, moved to the mean's cell
_SD_FLOOR_CELLS = 1e-12
# band edges per block of one transition: bounds its temporaries (about 0.5 MiB each);
# the shipped 512-cell law, about 22 200 edges a step, takes one block a step
_BAND_BLOCK = 65536

# Cephes ndtr with x = z / sqrt(2): erf(x) = x T(x^2) / U(x^2) on |x| < 1, and
# erfc(x) = exp(-x^2) P(x) / Q(x) on 1 <= x < 8, exp(-x^2) R(x) / S(x) beyond
# (leading coefficients first; U, Q and S are monic)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _polevl(x: np.ndarray, coefs) -> np.ndarray:
    y = coefs[0] * x
    y += coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


def _p1evl(x: np.ndarray, coefs) -> np.ndarray:
    y = x + coefs[0]
    for c in coefs[1:]:
        y *= x
        y += c
    return y


def _erfc_tail(x: np.ndarray, num, den) -> np.ndarray:
    """0.5 erfc(x) for x >= 1 by one of the exp(-x^2) num(x) / den(x) branches."""
    return 0.5 * np.exp(-x * x) * _polevl(x, num) / _p1evl(x, den)


def normal_cdf(z) -> np.ndarray:
    """Standard normal CDF with numpy alone (Cephes ``ndtr``'s rational approximations).

    Each rational branch is evaluated only on the entries that reach it.
    """
    x = np.asarray(z, dtype=np.float64) * math.sqrt(0.5)
    ax = np.abs(x)
    out = np.empty_like(x)
    inner = ax < 1.0
    xi = x[inner]
    zz = xi * xi
    out[inner] = 0.5 + 0.5 * (xi * _polevl(zz, _ERF_T) / _p1evl(zz, _ERF_U))
    for sel, num, den in ((~inner & (ax < 8.0), _ERFC_P, _ERFC_Q), (ax >= 8.0, _ERFC_R, _ERFC_S)):
        if sel.any():
            tail = _erfc_tail(ax[sel], num, den)
            out[sel] = np.where(x[sel] > 0, 1.0 - tail, tail)
    return out


@dataclass(frozen=True)
class GridLawPath:
    """The law of an Euler scheme at every step, as masses on the centers of a 1-D grid.

    Rows of ``residual_d1``, the law's residual row at each step, are the
    steps 0..n_steps-1 (times 0, dt, ..., T - dt), the rows an Euler step
    reads, as in ``Trajectory.law_path``; ``masses`` is the law at T.
    ``edge_mass`` is the mass that reached past the window, at the start or
    in a step, and was folded into the end cells; ``unresolved_mass`` is
    the largest mass, over the steps, moved by a Gaussian narrower than a cell.
    """

    lo: float
    hi: float
    residual_d1: np.ndarray  # (n_steps, D)
    masses: np.ndarray  # (n_cells,)
    edge_mass: float
    unresolved_mass: float

    @property
    def centers(self) -> np.ndarray:
        return _cell_centers(self.lo, self.hi, self.masses.shape[0])


def _grid_init(init: InitSpec, lo: float, hi: float, n_cells: int):
    """Window, cell masses and outside mass of the init box.

    A box of positive width gets its exact cell overlaps.  A box of width
    zero, the point mass at ``init.low``, shifts the window so that the
    point sits on a cell center.  Mass outside the window goes to the end
    cells.
    """
    dx = (hi - lo) / n_cells
    if init.high > init.low:
        cdf = np.clip((lo + np.arange(n_cells + 1) * dx - init.low) / (init.high - init.low),
                      0.0, 1.0)
        outside = float(cdf[0] + (1.0 - cdf[-1]))
        cdf[0], cdf[-1] = 0.0, 1.0
        return lo, hi, np.diff(cdf), outside
    k = math.floor((init.low - lo) / dx)
    shift = init.low - (lo + (k + 0.5) * dx)
    masses = np.zeros(n_cells)
    masses[min(max(k, 0), n_cells - 1)] = 1.0
    return lo + shift, hi + shift, masses, 0.0 if 0 <= k < n_cells else 1.0


def _transition(masses: np.ndarray, means: np.ndarray, sd: np.ndarray, lo: float, dx: float):
    """Masses after cell i's mass moves to N(means_i, sd_i^2); and the mass folded at the edges.

    Each Gaussian is integrated over the cells of its own band, the cells
    within GRID_LAW_BAND_SD sd of its mean plus one, by differences of its
    CDF; the band's outer edges are -inf and +inf, so its end cells take
    the tails and mass is conserved.  Bands sit end to end in flat arrays,
    one edge per entry, a block of cells at a time.
    """
    n_cells = masses.shape[0]
    K = np.ceil(GRID_LAW_BAND_SD / dx * sd).astype(np.int64) + 1
    first = np.floor((means - lo) / dx).astype(np.int64) - K  # each band's first cell
    z0 = (lo + first * dx - means) / sd
    dz = dx / sd
    n_edges = 2 * K + 2
    ends = np.cumsum(n_edges)
    out = np.zeros(n_cells + 2)  # out[0] and out[-1] take what leaves the window
    a = 0
    while a < n_cells:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - n_edges[a] + _BAND_BLOCK, "right")))
        counts = n_edges[a:b]
        stops = np.cumsum(counts)
        row = np.repeat(np.arange(a, b), counts)
        j = np.arange(stops[-1]) - np.repeat(stops - counts, counts)  # edge offset in its band
        cdf = normal_cdf(z0[row] + j * dz[row])
        cdf[stops - counts] = 0.0
        cdf[stops - 1] = 1.0
        moved = np.diff(cdf)  # entry e: the cell between edges e and e + 1 of its band
        moved[stops[:-1] - 1] = 0.0  # from a band's last edge to the next band's first
        moved *= masses[row[:-1]]
        target = np.clip(first[row[:-1]] + j[:-1], -1, n_cells) + 1
        out += np.bincount(target, weights=moved, minlength=n_cells + 2)
        a = b
    new = out[1:-1]
    new[0] += out[0]
    new[-1] += out[-1]
    return new, float(out[0] + out[-1])


def grid_law_path(
    model: ModelSpec,
    pi: DataDistribution,
    hyper: Hyperparams,
    init: InitSpec,
    sigma_scale: float,
    n_cells: int = GRID_LAW_CELLS,
) -> GridLawPath:
    """Law of the Euler-discretized McKean-Vlasov equation at p = 1, on a grid.

    A Markov-chain approximation (Kushner & Dupuis): the law is masses on
    the ``n_cells`` centers of GRID_LAW_WINDOW, and each step sends the mass of
    cell i to N(c_i + tw h_i dt, tw^2 dt (sigma_scale^2 Sigma_00,i + 2 eta)),
    the Euler step of a particle at c_i, with tw = (t + 1)^-alpha and h,
    Sigma the drift and noise of the law at the cell centers
    (``mean_field_terms`` on the centers' RidgeBlock, under the model's
    noise model).  The residual rows of the law at steps 0..n_steps-1 are
    the path a particle driven by that law reads.  The only error is the grid's:
    compare paths at ``n_cells`` and ``n_cells // 2`` to size it.
    """
    if model.p != 1:
        raise ValueError(f"the grid law is defined for p = 1, got p={model.p}")
    if n_cells < 4:
        raise ValueError("need at least 4 grid cells")
    lo, hi, masses, edge_mass = _grid_init(init, *GRID_LAW_WINDOW, n_cells)
    dx = (hi - lo) / n_cells
    centers = _cell_centers(lo, hi, n_cells)
    block = ridge_block(centers[:, None], model, pi)
    resid = np.empty((hyper.euler_steps(), len(pi)))
    unresolved = 0.0
    for n in range(resid.shape[0]):
        resid[n] = _grid_residuals(block, masses, model, pi)
        h, var = _drift_and_variance(block, resid[n], model, pi, sigma_scale**2, hyper.eta)
        tw = time_weight(n * hyper.dt, hyper.alpha)
        sd = tw * np.sqrt(hyper.dt * var)
        unresolved = max(unresolved, float(masses[sd < dx].sum()))
        masses, left = _transition(masses, centers + tw * hyper.dt * h,
                                   np.maximum(sd, _SD_FLOOR_CELLS * dx), lo, dx)
        edge_mass += left
    return GridLawPath(lo, hi, resid, masses, edge_mass, unresolved)
