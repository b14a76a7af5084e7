"""Distances between laws and paths, histograms, and rate fitting.

Wasserstein-2 comes in three flavors: exact 1-D via sorted pairing, exact
small-n via the assignment problem, and a sliced Monte Carlo approximation
with a reported standard error.  ``path_metric`` is the truncated
sup-over-windows metric on continuous paths, and ``fit_rate`` performs the
log-log least squares used by every convergence study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "RateFit",
    "SlicedW2",
    "PathMetric",
    "w2_1d",
    "w2_1d_quantile",
    "w2_exact",
    "w2_sliced",
    "w2_ensembles",
    "path_metric",
    "fit_rate",
    "mixture_bound_check",
    "histogram_rows",
]

W2_EXACT_MAX_N = 256
# quantile differences above this are rescaled before squaring; below it the
# squares cannot overflow, so every such distance keeps the unscaled formula's bits
_W2_SCALE_ABOVE = 1e150


def _flat_samples(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 2 and a.shape[1] == 1:
        a = a[:, 0]
    if a.ndim != 1:
        raise ValueError("expected 1-D samples")
    if a.size == 0:
        raise ValueError("empty sample set")
    return a


def w2_1d(a, b) -> float:
    """Exact W2 between two equally weighted 1-D sample sets of equal size."""
    a = _flat_samples(a)
    b = _flat_samples(b)
    if a.shape != b.shape:
        raise ValueError(f"sample counts differ: {a.shape[0]} vs {b.shape[0]}")
    return w2_1d_quantile(a, b)


def w2_1d_quantile(a, b) -> float:
    """Exact W2 between 1-D empirical measures with arbitrary sample counts.

    Integrates the squared difference of the two piecewise-constant quantile
    functions over the merged probability breakpoints.
    """
    a = np.sort(_flat_samples(a))
    b = np.sort(_flat_samples(b))
    na, nb = len(a), len(b)
    cuts = np.sort(np.concatenate([np.arange(1, na) / na, np.arange(1, nb) / nb, [0.0, 1.0]]))
    cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]  # np.unique would import numpy.ma
    widths = np.diff(cuts)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    qa = a[np.minimum((mids * na).astype(np.int64), na - 1)]
    qb = b[np.minimum((mids * nb).astype(np.int64), nb - 1)]
    d = qa - qb
    s = float(np.max(np.abs(d)))
    if s > _W2_SCALE_ABOVE:
        # the squares would overflow though the distance is finite: factor out the
        # largest difference first (an infinite one makes the distance infinite)
        return s if math.isinf(s) else s * float(np.sqrt(np.sum(widths * (d / s) ** 2)))
    return float(np.sqrt(np.sum(widths * d ** 2)))


def _paired_points(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape != b.shape:
        raise ValueError(f"sample shapes differ: {a.shape} vs {b.shape}")
    if a.shape[0] == 0:
        raise ValueError("empty sample set")
    return a, b


def w2_exact(a, b) -> float:
    """Exact W2 between equally weighted point clouds via optimal assignment."""
    # imported here: scipy.optimize costs more to import than most CLI calls
    # spend computing, and nothing else in chaoslab needs scipy
    from scipy.optimize import linear_sum_assignment

    a, b = _paired_points(a, b)
    n = a.shape[0]
    if n > W2_EXACT_MAX_N:
        raise ValueError(f"w2_exact is limited to n <= {W2_EXACT_MAX_N}, got {n}")
    cost = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


class SlicedW2(NamedTuple):
    value: float
    stderr: float

    def __float__(self) -> float:
        return self.value


def w2_sliced(a, b, n_proj: int = 64, seed: int = 0) -> SlicedW2:
    """Sliced W2: mean squared 1-D distance over random directions, square-rooted.

    The stderr is the Monte Carlo error of the mean of squares, propagated
    through the square root.
    """
    a, b = _paired_points(a, b)
    if n_proj < 1:
        raise ValueError("n_proj must be >= 1")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_proj, a.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pa = np.sort(a @ dirs.T, axis=0)  # (n, n_proj)
    pb = np.sort(b @ dirs.T, axis=0)
    sq = np.mean((pa - pb) ** 2, axis=0)  # (n_proj,)
    mean_sq = float(np.mean(sq))
    se_sq = float(np.std(sq, ddof=1) / math.sqrt(n_proj)) if n_proj > 1 else 0.0
    val = math.sqrt(mean_sq)
    return SlicedW2(val, se_sq / (2.0 * val) if val > 0 else math.sqrt(max(se_sq, 0.0)))


def w2_ensembles(a, b, seed: int = 0, n_proj: int = 256) -> float:
    """W2 between two ensembles, routed to the best affordable estimator.

    1-D uses the exact quantile coupling (any sample counts); small point
    clouds use the exact assignment; everything else falls back to the
    sliced approximation.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 1 or a.shape[1] == 1:
        return w2_1d_quantile(a, b)
    if a.shape == b.shape and a.shape[0] <= W2_EXACT_MAX_N:
        return w2_exact(a, b)
    return w2_sliced(a, b, n_proj=n_proj, seed=seed).value


class PathMetric(NamedTuple):
    value: float
    tail_bound: float  # truncation error of the dyadic sum

    def __float__(self) -> float:
        return self.value


def path_metric(u1, u2, times, n_max: int) -> PathMetric:
    """Truncated dyadic path metric sum_{n<=n_max} 2^-n d_n / (1 + d_n).

    d_n is the sup distance over the grid restricted to [0, n]; the dropped
    tail is at most 2^-n_max, returned as the error bar.
    """
    times = np.asarray(times, dtype=np.float64)
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    if u1.ndim == 1:
        u1 = u1[:, None]
    if u2.ndim == 1:
        u2 = u2[:, None]
    if u1.shape != u2.shape or u1.shape[0] != times.shape[0]:
        raise ValueError("paths must share one time grid")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if times[0] > 0 or times[-1] < n_max:
        raise ValueError(f"time grid [{times[0]}, {times[-1]}] does not cover [0, {n_max}]")
    dist = np.linalg.norm(u1 - u2, axis=1)
    total = 0.0
    for n in range(1, n_max + 1):
        d_n = float(dist[times <= n + 1e-12].max())
        total += 2.0**-n * d_n / (1.0 + d_n)
    return PathMetric(total, 2.0**-n_max)


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(error) against log(N)."""

    slope: float
    intercept: float
    r2: float
    points: tuple[tuple[float, float, float], ...]  # (N, error, stderr)


def fit_rate(points: Sequence[tuple]) -> RateFit:
    """Ordinary least squares on (log N, log error); needs >= 3 positive errors."""
    pts = []
    for p in points:
        n, e = float(p[0]), float(p[1])
        s = float(p[2]) if len(p) > 2 else 0.0
        pts.append((n, e, s))
    if len(pts) < 3:
        raise ValueError("fit_rate needs at least 3 points")
    errs = np.array([p[1] for p in pts])
    if np.any(errs <= 0):
        raise ValueError("fit_rate requires strictly positive errors")
    x = np.log(np.array([p[0] for p in pts]))
    y = np.log(errs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(float(slope), float(intercept), r2, tuple(pts))


def mixture_bound_check(components: Sequence[tuple]) -> bool:
    """Check the mixture transport inequality on empirical components.

    ``components`` is a sequence of (samples_a, samples_b) pairs with equal
    counts inside each pair; the mixtures are the concatenations weighted by
    component size.  Verifies W2^2(mix_a, mix_b) <= sum_k alpha_k
    W2^2(a_k, b_k) with every distance computed exactly.
    """
    if not components:
        raise ValueError("need at least one component")
    total = sum(np.asarray(a).shape[0] for a, _ in components)
    bound = 0.0
    mix_a, mix_b = [], []
    for a, b in components:
        a, b = _paired_points(a, b)
        alpha = a.shape[0] / total
        bound += alpha * w2_exact(a, b) ** 2
        mix_a.append(a)
        mix_b.append(b)
    lhs = w2_exact(np.concatenate(mix_a), np.concatenate(mix_b)) ** 2
    return lhs <= bound + 1e-12


def histogram_rows(samples, n_bins: int = 40, lo: float | None = None, hi: float | None = None):
    """Histogram of 1-D samples as (bin_left, bin_right, count, density) rows."""
    s = _flat_samples(samples)
    lo = float(s.min()) if lo is None else lo
    hi = float(s.max()) if hi is None else hi
    if hi <= lo:
        hi = lo + 1.0
    counts, edges = np.histogram(s, bins=n_bins, range=(lo, hi))
    width = edges[1] - edges[0]
    dens = counts / (len(s) * width)
    return [
        {"bin_left": float(edges[i]), "bin_right": float(edges[i + 1]),
         "count": int(counts[i]), "density": float(dens[i])}
        for i in range(n_bins)
    ]
