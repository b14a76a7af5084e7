"""Desk-scale studies on synthetic models, with machine-checkable verdicts.

Each study takes a config dataclass and emits a ``StudyReport``: config
echo, CSV-serializable metric tables, and named verdicts (measured value,
threshold, pass/fail).  A study is declared by how it collects its results
(a task function and its tasks, or a callable given the pool's map) and a
pure ``(config, results) -> Findings`` step; ``run_study`` owns the clock,
the budget warning, the one process pool and divergence: a task whose
ensemble crosses the moment ceiling turns the report into one failing
``diverged`` verdict with no tables.  Reports are deterministic given
(config, seed), bit for bit at any pool width.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .dynamics import (
    DOMAIN_REFERENCE,
    DOMAIN_SYSTEM,
    EnsembleDiverged,
    InitSpec,
    euler_run,
    euler_step,
    guard_segments,
    interacting_sde_run,
    meanfield_ode_run,
    meanfield_sde_run,
    meanfield_sigma_scale,
    msgld_run,
    sgd_run,
    sgd_sde_endpoints,
)
from .meanfield import field_cache, noise_width, ridge_block
from .model import (
    FEATURES,
    LOSSES,
    DataAtom,
    DataDistribution,
    Hyperparams,
    ModelSpec,
    gamma_scale,
    make_model,
    require,
    time_weight,
)
from .rng import NoisePlan, SLOT_DIFFUSION, SLOT_LANGEVIN
from .metrics import fit_rate, histogram_rows, w2_1d_quantile, w2_ensembles
from .stationary import GRID_LAW_CELLS, grid_law_path

__all__ = [
    "Verdict",
    "StudyReport",
    "Findings",
    "run_study",
    "ProblemConfig",
    "ChaosRateConfig",
    "TwoRegimeConfig",
    "SweepConfig",
    "HistogramConfig",
    "ConsistencyConfig",
    "ChaosErrorEstimate",
    "coupled_chaos_error",
    "chaos_rate_study",
    "two_regime_study",
    "gamma_sweep",
    "batch_sweep",
    "histogram_convergence_study",
    "sgd_sde_consistency_study",
]


# ----------------------------- report plumbing -----------------------------


@dataclass
class Verdict:
    name: str
    measured: float
    threshold: float
    op: str  # "<=", ">=", or "na"
    passed: bool | None
    note: str = ""

    @staticmethod
    def le(name: str, measured: float, threshold: float, note: str = "") -> "Verdict":
        return Verdict(name, float(measured), float(threshold), "<=",
                       bool(measured <= threshold), note)

    @staticmethod
    def ge(name: str, measured: float, threshold: float, note: str = "") -> "Verdict":
        return Verdict(name, float(measured), float(threshold), ">=",
                       bool(measured >= threshold), note)

    @staticmethod
    def not_applicable(name: str, note: str) -> "Verdict":
        return Verdict(name, math.nan, math.nan, "na", None, note)


@dataclass
class StudyReport:
    study_id: str
    config: dict
    tables: dict[str, list[dict]]
    verdicts: list[Verdict]
    warnings: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool | None:
        """All applicable verdicts pass; None when no verdict applies."""
        applicable = [v.passed for v in self.verdicts if v.passed is not None]
        return all(applicable) if applicable else None

    def verdict(self, name: str) -> Verdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)


class Findings(NamedTuple):
    """What a study's pure step makes of its results."""

    tables: dict[str, list[dict]]
    verdicts: list[Verdict]
    config_extras: dict = {}
    warnings: tuple[str, ...] = ()


@contextmanager
def _pool_map(workers: int):
    """An order-preserving map on one process pool of ``workers``, serial at 1;
    its results are bitwise-identical at any width.  A task that diverges
    raises its ``EnsembleDiverged`` with a note naming the task."""
    if workers <= 1:
        yield lambda fn, tasks: _in_order(fn, tasks, map(fn, tasks))
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield lambda fn, tasks: _in_order(fn, tasks, pool.map(fn, tasks))


def _in_order(fn, tasks, results) -> list:
    out = []
    for task in tasks:
        try:
            out.append(next(results))
        except EnsembleDiverged as exc:
            exc.add_note(f"in task {task!r} of {getattr(fn, 'func', fn).__name__}")
            raise
    return out


def run_study(study_id: str, config, workers: int, collect, judge) -> StudyReport:
    """Collect a study's results on one pool of ``workers`` and judge them:
    ``collect`` is a ``(task function, tasks)`` pair or a callable given the
    pool's map, and ``judge(config, results)`` returns the ``Findings``."""
    t0 = time.time()
    try:
        with _pool_map(workers) as pmap:
            results = collect(pmap) if callable(collect) else pmap(*collect)
    except EnsembleDiverged as exc:
        where = "; ".join(getattr(exc, "__notes__", ())) or "outside the mapped tasks"
        found = Findings({}, [Verdict.le("diverged", exc.value, exc.ceiling, note=(
            f"ensemble second moment over its ceiling {where} at step {exc.step} (t={exc.t:.6g})"
        ))])
    else:
        found = judge(config, results)
    report = StudyReport(study_id, {**asdict(config), **found.config_extras}, found.tables,
                         found.verdicts, list(found.warnings), time.time() - t0)
    if config.budget_s is not None and report.elapsed_s > config.budget_s:
        report.warnings.append(
            f"wall clock {report.elapsed_s:.1f}s exceeded budget {config.budget_s:.1f}s"
        )
    return report


# ----------------------------- synthetic problems -----------------------------


@dataclass(frozen=True)
class ProblemConfig:
    """Synthetic learning problem used by the studies.

    ``labels="noisy"`` places four atoms with incompatible labels so the
    gradient-noise covariance stays bounded away from zero; ``"realizable"``
    labels the same inputs with a teacher so residuals (and the injected
    noise) decay along training.
    """

    feature: str = "tanh-dot"
    loss: str = "square"
    penalty: float = 0.01
    p: int = 1
    labels: str = "noisy"
    teacher: float = 0.8
    init_kind: str = "uniform"
    init_low: float = -0.04
    init_high: float = 0.04
    init_w0: float = 0.0

    def __post_init__(self):
        # every field is checked here, so build() cannot fail
        require(self.feature in FEATURES, "feature", f"be one of {', '.join(FEATURES)}",
                self.feature)
        require(self.loss in LOSSES, "loss", f"be one of {', '.join(LOSSES)}", self.loss)
        make_model(self.feature, self.loss, self.penalty, p=self.p)  # checks penalty and p
        require(self.labels in ("noisy", "realizable", "single"), "labels",
                "be noisy, realizable or single", self.labels)
        require(self.init_kind in ("uniform", "dirac"), "init_kind", "be uniform or dirac",
                self.init_kind)
        require(self.init_kind == "dirac" or self.init_low <= self.init_high, "init_low",
                f"be <= init_high={self.init_high}", self.init_low)
        for name in ("teacher", "init_low", "init_high", "init_w0"):
            require(math.isfinite(getattr(self, name)), name, "be finite", getattr(self, name))

    def build(self) -> tuple[ModelSpec, DataDistribution, InitSpec]:
        model = make_model(self.feature, self.loss, self.penalty, p=self.p)
        if self.labels == "noisy":
            atoms = [
                DataAtom([0.8] * self.p, 0.9, 0.25),
                DataAtom([-0.6] * self.p, -0.4, 0.25),
                DataAtom([1.0] * self.p, -0.2, 0.25),
                DataAtom([-0.9] * self.p, 0.7, 0.25),
            ]
        elif self.labels == "realizable":
            w_star = np.full(self.p, self.teacher)
            atoms = [
                DataAtom([x] * self.p, float(np.tanh(float(np.dot(w_star, [x] * self.p)))), 0.25)
                for x in (0.7, -0.7, 1.3, -1.3)
            ]
        else:  # single
            atoms = [DataAtom([1.0] * self.p, 1.0, 1.0)]
        pi = DataDistribution(atoms)
        if self.init_kind == "uniform":
            init = InitSpec.uniform(self.init_low, self.init_high)
        else:  # dirac
            init = InitSpec.dirac([self.init_w0] * self.p)
        return model, pi, init


# ----------------------------- chaos rate study -----------------------------


@dataclass(frozen=True)
class ChaosRateConfig:
    problem: ProblemConfig = ProblemConfig()
    hyper: Hyperparams = Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=5.0, dt=0.02)
    N_grid: tuple[int, ...] = (32, 64, 128, 256, 512)
    m: int = 4
    N_ref: int = 4096
    reps: int = 24
    seed: int = 123
    slope_threshold: float = -0.7
    endpoint_ratio: float = 8.0  # error(N_min) / error(N_max) must reach this
    budget_s: float | None = None

    def __post_init__(self):
        require(len(self.N_grid) >= 4 and min(self.N_grid) >= 1, "N_grid",
                "hold at least 4 sizes, each >= 1", self.N_grid)
        ratios = [self.N_grid[i + 1] / self.N_grid[i] for i in range(len(self.N_grid) - 1)]
        require(max(ratios) / min(ratios) <= 1.0 + 1e-9, "N_grid", "be geometrically spaced",
                self.N_grid)
        # coupled_chaos_error's bounds: companion k replays test particle k of every
        # system, and the reference is at least as large as every system
        require(1 <= self.m <= min(self.N_grid), "m",
                f"lie in [1, smallest N={min(self.N_grid)}]", self.m)
        require(self.N_ref >= max(self.N_grid), "N_ref", f"be >= largest N={max(self.N_grid)}",
                self.N_ref)
        require(self.reps >= 1, "reps", "be >= 1", self.reps)
        require(self.endpoint_ratio > 0, "endpoint_ratio", "be > 0", self.endpoint_ratio)
        require(self.budget_s is None or self.budget_s > 0, "budget_s", "be > 0", self.budget_s)
        self.hyper.euler_steps()


def _stratified_reference(init: InitSpec, n: int, p: int) -> np.ndarray | None:
    """Quantile-midpoint quadrature of the init law (p = 1 only).

    Removes the O(n^-1/2) sampling error of the reference law, which would
    otherwise show up as a common floor in the coupling errors.
    """
    if p != 1:
        return None
    q = (np.arange(n) + 0.5) / n
    if init.kind == "uniform":
        return (init.low + (init.high - init.low) * q)[:, None]
    if init.kind == "dirac":
        return np.tile(np.asarray(init.w0, dtype=np.float64).reshape(-1), (n, 1))
    return None


@dataclass
class ChaosErrorEstimate:
    """Monte Carlo estimate of E[sup_t sum_{k<=m} ||W_t^{k,N} - W_t^{k,*}||^2].

    ``reference`` names the law the companions W^{k,*} read, one path per
    study: ``"grid"``, the grid law of the Euler scheme (p = 1, with noise),
    or ``"particle"``, a reference ensemble of N_ref particles.
    ``ref_bias_scale`` sizes the reference's own error: the largest gap
    between the grid paths at GRID_LAW_CELLS and half as many cells for
    ``"grid"``, the O(N_ref^-1/2) proxy bias for ``"particle"``.
    ``reference_note`` says why a grid law was tried and not used, if so.
    """

    value: float
    stderr: float
    per_rep: np.ndarray
    N: int
    m: int
    N_ref: int
    ref_bias_scale: float
    reference: str
    reference_note: str = ""


# the reps are stepped in blocks of about this many particles (12 reps of the
# shipped grid), a size set by the grid alone, never by the workers
_COUPLING_BLOCK_PARTICLES = 12_000


def _coupled_grid_reps(model, pi, hyper, Ns, m, init, plan, path, rs) -> list[dict[int, float]]:
    """Repetitions ``rs`` of the coupling, stacked in one block, each sharing
    its streams across the whole N grid.

    Rep r's m companions and every test system of the grid form its
    segments, and the reps' segments are stacked in order and stepped
    together: the companions' columns carry the reference law's residuals,
    row n of ``path``, each test segment its own, and every particle keeps
    its scale.  Rep r draws on its own ``plan.child("rep", r)``; row k of
    each of its system-domain Gaussian blocks drives particle k of every
    test system and of the companions, so companion k replays test particle
    k and the error ratios across N concentrate (common random numbers).
    Every test system keeps its own moment guard, and a rep's sups equal,
    bit for bit, those of the rep stepped alone.
    """
    p, k = model.p, len(rs)
    plans = [plan.child("rep", r) for r in rs]
    n_sys = max(Ns)
    mf_scale = _companion_scale(hyper)
    sizes = (m, *Ns)
    L = sum(sizes)
    segments = np.tile(sizes, (k, 1))
    names = [None if i == 0 else f"rep {r} (N={Ns[i - 1]})" for r in rs for i in range(len(sizes))]
    # each particle's draw row in the reps' stacked blocks of n_sys rows
    rows = (n_sys * np.arange(k)[:, None]
            + np.concatenate([np.arange(s) for s in sizes])).ravel()
    W = np.concatenate([init.draw(pl, DOMAIN_SYSTEM, n_sys, p) for pl in plans])[rows]
    scales = np.tile(np.repeat(
        [mf_scale] + [math.sqrt(gamma_scale(hyper.alpha, hyper.beta, hyper.gamma, N) / hyper.M)
                      for N in Ns],
        sizes,
    ), k)[:, None]
    comps = L * np.arange(k)[:, None] + np.arange(m)  # each rep's companions
    heads = np.cumsum((0, *sizes))[1:-1, None] + comps[:, None]  # each test system's first m
    eta = hyper.eta
    width = noise_width(model, pi)
    sups = np.zeros((k, len(Ns)))

    for n, law in enumerate(path):
        t = n * hyper.dt
        guard_segments(W, segments, n, t, names=names)
        Zs = np.concatenate([pl.normals(DOMAIN_SYSTEM, SLOT_DIFFUSION, n, n_sys, width)
                             for pl in plans])[rows]
        Zl = np.concatenate([pl.normals(DOMAIN_SYSTEM, SLOT_LANGEVIN, n, n_sys, p)
                             for pl in plans])[rows] if eta > 0 else None
        block = ridge_block(W, model, pi)
        resid = field_cache(block, model, pi, segments).residual_d1
        resid[:, :, 0] = law[:, None]  # the companions follow the reference law
        W = euler_step(block, np.repeat(resid, sizes, axis=2).reshape(len(pi), -1), model, pi,
                       hyper.dt, time_weight(t, hyper.alpha), scales, Zs, Zl, eta)
        sups = np.maximum(sups, ((W[heads] - W[comps][:, None]) ** 2).sum(axis=(2, 3)))
    guard_segments(W, segments, len(path), len(path) * hyper.dt, names=names)
    return [{N: float(v) for N, v in zip(Ns, sup)} for sup in sups]


def _companion_scale(hyper: Hyperparams) -> float:
    """Diffusion factor of the companions' limit: the mean-field one at beta = 1, else 0."""
    return meanfield_sigma_scale(hyper) if hyper.beta == 1.0 else 0.0


# the grid law stands in for the reference unless mass reaches its window's
# edges, or more than this share of it moves by Gaussians narrower than a cell
_GRID_EDGE_TOL = 1e-12
_GRID_UNRESOLVED_TOL = 1e-2


def _companion_law(model, pi, hyper, init, N_ref, plan, pmap):
    """The companions' law for a whole study: (path, reference, ref_bias_scale, note).

    The path is the (n_steps, D) residual row of the law at each Euler step:
    the grid law at p = 1 with noise and a uniform or dirac init, else the
    ``euler_run`` of a reference ensemble of N_ref particles, started at
    the init's quantile midpoints where ``_stratified_reference`` allows
    and otherwise drawn, with its noise, on the plan's reference domain.
    ``pmap`` runs the grid law on its two grids side by side.
    """
    mf_scale = _companion_scale(hyper)
    note = ""
    if model.p == 1 and (mf_scale > 0 or hyper.eta > 0) and init.kind in ("uniform", "dirac"):
        n_steps = hyper.euler_steps()
        # the law on half as many cells sizes the grid's error
        law, half = pmap(partial(grid_law_path, model, pi, hyper, init, mf_scale),
                         (GRID_LAW_CELLS, GRID_LAW_CELLS // 2))
        if law.edge_mass <= _GRID_EDGE_TOL and law.unresolved_mass <= _GRID_UNRESOLVED_TOL:
            path = law.residual_d1[:n_steps]
            gap = np.abs(path - half.residual_d1[:n_steps]).max(initial=0.0)  # T = 0: no rows
            return path, "grid", float(gap), ""
        note = (
            f"grid law not used (edge mass {law.edge_mass:.3g}, tolerance {_GRID_EDGE_TOL:g}; "
            f"mass moved by Gaussians narrower than a cell {law.unresolved_mass:.3g}, tolerance "
            f"{_GRID_UNRESOLVED_TOL:g}): a particle reference of N_ref={N_ref} ran instead"
        )
    W_ref = _stratified_reference(init, N_ref, model.p)
    if W_ref is None:
        W_ref = init.draw(plan, DOMAIN_REFERENCE, N_ref, model.p)
    try:
        ref = euler_run(model, pi, hyper, W_ref, plan, DOMAIN_REFERENCE, mf_scale,
                        "meanfield-reference", snapshot_times=[hyper.T])
    except EnsembleDiverged as exc:
        exc.add_note(f"in the companions' particle reference (N_ref={N_ref})")
        raise
    return ref.law_path, "particle", N_ref**-0.5, note


def coupled_chaos_error(
    model: ModelSpec,
    pi: DataDistribution,
    hyper: Hyperparams,
    Ns,
    m: int,
    N_ref: int,
    reps: int,
    plan: NoisePlan,
    init: InitSpec | None = None,
    workers: int = 1,
) -> dict[int, ChaosErrorEstimate]:
    """Coupling error between the interacting system and its mean-field limit.

    Sznitman's synchronous coupling, for every N of the grid ``Ns`` (one N
    is ``Ns=(N,)``): m mean-field companions share initial conditions and
    Gaussian draws with test particles 1..m, and their law argument is a
    reference law computed once per study, one of two
    (``ChaosErrorEstimate.reference``):

    - at p = 1 with noise (beta = 1 or eta > 0) and a uniform or dirac
      init, the grid law of the Euler scheme (``stationary.grid_law_path``);
      its grid error, the largest gap to the path on half as many cells, is
      the estimate's ``ref_bias_scale``.  If mass reaches the grid's window,
      or the grid does not resolve the noise, the study falls back to the
      particle reference and says so;
    - otherwise the self-consistent reference of N_ref particles, started
      at the init's quantile midpoints at p = 1 with a uniform or dirac
      init (stratified) and drawn otherwise, with an O(N_ref^-1/2) proxy
      bias.

    The reps are stepped in stacked blocks of about
    ``_COUPLING_BLOCK_PARTICLES`` particles, with the same bits at any block
    size and worker count.  The ensemble second moments are guarded at every
    step; a diverging test system is named by its rep and N.
    """
    with _pool_map(workers) as pmap:
        return _coupling_estimates(model, pi, hyper, tuple(Ns), m, N_ref, reps, plan,
                                   InitSpec.uniform() if init is None else init, pmap)


def _coupling_estimates(model, pi, hyper, Ns, m, N_ref, reps, plan, init, pmap):
    """``coupled_chaos_error`` on the map ``pmap``: the reference law, then the reps."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if m > min(Ns):
        raise ValueError(f"m={m} must not exceed the smallest grid N={min(Ns)}")
    if N_ref < max(Ns):
        raise ValueError(f"reference size N_ref={N_ref} must dominate every grid N (max {max(Ns)})")
    path, reference, bias, note = _companion_law(model, pi, hyper, init, N_ref, plan, pmap)
    per_block = max(1, _COUPLING_BLOCK_PARTICLES // (m + sum(Ns)))
    blocks = [tuple(range(a, min(a + per_block, reps))) for a in range(0, reps, per_block)]
    per_rep = [d for block in pmap(partial(_coupled_grid_reps, model, pi, hyper, Ns, m, init,
                                           plan, path), blocks) for d in block]
    out = {}
    for N in Ns:
        vals = np.array([d[N] for d in per_rep])
        stderr = float(vals.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        out[N] = ChaosErrorEstimate(
            float(vals.mean()), stderr, vals, N, m, N_ref, bias, reference, note
        )
    return out


def two_term_bound(N: float, alpha: float, beta: float, M: int) -> float:
    """Two-term rate bound N^(-(1-beta)/(1-alpha))/M + 1/N."""
    return float(N) ** (-(1.0 - beta) / (1.0 - alpha)) / M + 1.0 / float(N)


def chaos_rate_study(config: ChaosRateConfig, workers: int = 1) -> StudyReport:
    """Rate fit and upper-bound compliance of the coupling error over an N grid."""
    model, pi, init = config.problem.build()
    collect = partial(_coupling_estimates, model, pi, config.hyper, config.N_grid, config.m,
                      config.N_ref, config.reps, NoisePlan(config.seed), init)
    return run_study("chaos-rate", config, workers, collect, _chaos_rate_findings)


def _chaos_rate_findings(config: ChaosRateConfig, ests) -> Findings:
    hyper = config.hyper
    rows = [{"N": N, "error": ests[N].value, "stderr": ests[N].stderr,
             "bound": two_term_bound(N, hyper.alpha, hyper.beta, hyper.M),
             "ref_bias_scale": ests[N].ref_bias_scale} for N in config.N_grid]
    e = ests[config.N_grid[0]]
    reference = {"grid": f"grid law of the Euler scheme ({GRID_LAW_CELLS} cells)",
                 "particle": f"particle reference (N_ref={config.N_ref})"}[e.reference]
    notes = (e.reference_note,) if e.reference_note else ()
    zero = [r["N"] for r in rows if r["error"] <= 0]
    if zero:  # an exact coupling, or no steps: there is no rate to fit
        note = f"coupling error 0 at N={zero}; companions' law: {reference}"
        verdicts = [Verdict.not_applicable(name, note)
                    for name in ("slope", "upper_bound_compliance", "endpoint_ratio")]
        return Findings({"errors": rows}, verdicts, {"reference": e.reference}, notes)
    fit = fit_rate([(r["N"], r["error"], r["stderr"]) for r in rows])
    C = rows[0]["error"] / rows[0]["bound"]
    # the anchor margin is 1 by construction; forming it by division anyway
    # could round to 0.999... and trip the >= 1 verdict spuriously
    margins = [C * r["bound"] / r["error"] for r in rows[1:]]
    compliance = min([1.0] + margins)
    ratio = rows[0]["error"] / rows[-1]["error"]

    verdicts = [
        Verdict.le("slope", fit.slope, config.slope_threshold,
                   note=f"log-log fit over N={list(config.N_grid)}, r2={fit.r2:.3f}; "
                        f"companions' law: {reference}"),
        Verdict.ge("upper_bound_compliance", compliance, 1.0,
                   note="min over N of C*bound(N)/error(N), C calibrated at smallest N; "
                        f"non-anchor margins {[round(m, 3) for m in margins]}"),
        Verdict.ge("endpoint_ratio", ratio, config.endpoint_ratio,
                   note="error(N_min)/error(N_max)"),
    ]
    return Findings({"errors": rows}, verdicts,
                    {"fit_slope": fit.slope, "fit_r2": fit.r2, "reference": e.reference}, notes)


# ----------------------------- two-regime study -----------------------------


@dataclass(frozen=True)
class TwoRegimeConfig:
    problem: ProblemConfig = ProblemConfig(init_kind="dirac", init_w0=0.0)
    hyper: Hyperparams = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=5.0, dt=0.02)
    betas: tuple[float, ...] = (0.75, 1.0)
    N_grid: tuple[int, ...] = (4096, 65536, 1048576)
    seeds: int = 16
    seed: int = 7
    engine: str = "sgd"
    statistic: str = "ensemble_mean"
    ratio_threshold: float = 0.3
    floor_jitter: float = 0.5  # relative change of the beta=1 deviation, two largest N
    budget_s: float | None = None

    def __post_init__(self):
        require(min(self.N_grid, default=0) >= 1, "N_grid", "be one or more sizes >= 1", self.N_grid)
        require(all(0.0 <= b <= 1.0 for b in self.betas), "betas", "lie in [0, 1]", self.betas)
        require(self.seeds >= 2, "seeds", "be >= 2 to measure a deviation", self.seeds)
        require(self.engine in ("sgd", "msgld"), "engine", "be sgd or msgld", self.engine)
        require(self.statistic in ("ensemble_mean", "particle0"), "statistic",
                "be ensemble_mean or particle0", self.statistic)
        require(self.ratio_threshold > 0, "ratio_threshold", "be > 0", self.ratio_threshold)
        require(self.floor_jitter > 0, "floor_jitter", "be > 0", self.floor_jitter)
        require(self.budget_s is None or self.budget_s > 0, "budget_s", "be > 0", self.budget_s)


def _regime_shortcut(config: TwoRegimeConfig) -> bool:
    """Whether the study's N-runs reduce to one particle: sgd from a dirac init."""
    return config.engine == "sgd" and config.problem.init_kind == "dirac"


def _regime_task(config: TwoRegimeConfig, task) -> list[float]:
    """The endpoint statistic of the (beta, N) runs of the given seeds."""
    beta, N, seeds = task
    model, pi, init = config.problem.build()
    hyper = config.hyper.replace(beta=beta)
    plans = [NoisePlan(config.seed).child("regime", int(beta * 1000), s) for s in seeds]
    run = msgld_run if config.engine == "msgld" else sgd_run
    hyper_run, N_run = hyper, N
    if _regime_shortcut(config):
        # All particles share the minibatch and start equal, so every
        # particle of the N-run follows one common trajectory; a single
        # particle with the equivalent stepsize gamma * N^(beta-1) matches
        # it to rounding (its stepsize and predictions are formed from other floats).
        hyper_run = hyper.replace(beta=1.0, gamma=hyper.gamma * float(N) ** (hyper.beta - 1.0))
        N_run = 1
    # the seeds' systems run as one stacked block, each on its own plan
    traj = run(model, pi, hyper_run, N_run, init, plans, snapshot_times=[hyper.T])
    W = traj.endpoint().reshape(len(plans), N_run, model.p)
    return (W[:, 0, 0] if config.statistic == "particle0" else W[:, :, 0].mean(axis=1)).tolist()


def two_regime_study(config: TwoRegimeConfig, workers: int = 1) -> StudyReport:
    """Across-seed deviation of the endpoint statistic: vanishing vs stable noise."""
    seeds = range(config.seeds)
    # the shortcut stacks every seed's one particle; a full N-run (up to 2^20
    # particles) is one seed per task, so no block holds several of them
    groups = [tuple(seeds)] if _regime_shortcut(config) else [(s,) for s in seeds]
    tasks = [(beta, N, group) for beta in config.betas for N in config.N_grid for group in groups]
    return run_study("two-regime", config, workers, (partial(_regime_task, config), tasks),
                     _regime_findings)


def _regime_findings(config: TwoRegimeConfig, per_task) -> Findings:
    per_task = np.concatenate(per_task).reshape(len(config.betas), len(config.N_grid), -1)
    rows = []
    devs: dict[tuple[float, int], float] = {}
    for beta, per_beta in zip(config.betas, per_task):
        for N, stats in zip(config.N_grid, per_beta):
            dev = float(stats.std(ddof=1))
            devs[(beta, N)] = dev
            rows.append({"beta": beta, "N": N, "deviation": dev,
                         "mean_stat": float(stats.mean()), "seeds": config.seeds})

    verdicts = []
    n_lo, n_hi = config.N_grid[0], config.N_grid[-1]
    for beta in config.betas:
        if beta < 1.0:
            d0, d1 = devs[(beta, n_lo)], devs[(beta, n_hi)]
            verdicts.append(Verdict.le(f"shrinks_beta_{beta}", d1, d0,
                                       note=f"deviation at N={n_hi} vs N={n_lo}"))
    if 1.0 in config.betas and len(config.N_grid) >= 2:
        n_2nd = config.N_grid[-2]
        d_a, d_b = devs[(1.0, n_2nd)], devs[(1.0, n_hi)]
        jitter = abs(d_a - d_b) / max(d_a, d_b) if max(d_a, d_b) > 0 else 0.0
        verdicts.append(Verdict.le(
            "floor_beta_1", jitter, config.floor_jitter,
            note=f"relative change of deviation between N={n_2nd} and N={n_hi}"))
    others = [b for b in config.betas if b < 1.0]
    if 1.0 in config.betas and others:
        b, denom = max(others), devs[(1.0, n_hi)]
        ratio = devs[(b, n_hi)] / denom if denom > 0 else math.inf
        verdicts.append(Verdict.le("deviation_ratio", ratio, config.ratio_threshold,
                                   note=f"dev(beta={b})/dev(beta=1.0) at N={n_hi}"))
    return Findings({"deviations": rows}, verdicts)


# ----------------------------- gamma / batch sweeps -----------------------------


@dataclass(frozen=True)
class SweepConfig:
    problem: ProblemConfig = ProblemConfig()
    hyper: Hyperparams = Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=5.0, dt=0.02)
    gammas: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125)
    batches: tuple[int, ...] = (1, 4, 16, 64)
    N_ref: int = 4096
    reps: int = 4
    seed: int = 29
    budget_s: float | None = None

    def __post_init__(self):
        require(all(g > 0 for g in self.gammas), "gammas", "be > 0", self.gammas)
        require(all(b >= 1 for b in self.batches), "batches", "be >= 1", self.batches)
        require(self.N_ref >= 1, "N_ref", "be >= 1", self.N_ref)
        require(self.reps >= 1, "reps", "be >= 1", self.reps)
        require(self.budget_s is None or self.budget_s > 0, "budget_s", "be > 0", self.budget_s)
        self.hyper.euler_steps()


def _sweep_task(config: SweepConfig, task) -> float:
    key, value, r = task
    model, pi, init = config.problem.build()
    h = config.hyper
    hyper = h.replace(gamma=value) if key == "gamma" else h.replace(M=int(value))
    plan = NoisePlan(config.seed).child("sweep", key, int(value * 1000), r)
    sde = meanfield_sde_run(model, pi, hyper, config.N_ref, init, plan,
                            snapshot_times=[hyper.T])
    ode = meanfield_ode_run(model, pi, hyper, config.N_ref, init, plan.child("ode"),
                            snapshot_times=[hyper.T])
    return w2_1d_quantile(sde.endpoint()[:, 0], ode.endpoint()[:, 0]) if model.p == 1 \
        else w2_ensembles(sde.endpoint(), ode.endpoint(), seed=config.seed)


def _limit_sweep(config: SweepConfig, key: str, values, workers: int) -> StudyReport:
    tasks = [(key, v, r) for v in values for r in range(config.reps)]
    return run_study(f"{key}-sweep", config, workers, (partial(_sweep_task, config), tasks),
                     partial(_sweep_findings, key, values))


def _sweep_findings(key: str, values, config: SweepConfig, per_task) -> Findings:
    rows = []
    for v, ws in zip(values, np.array(per_task).reshape(len(values), config.reps)):
        stderr = float(ws.std(ddof=1) / math.sqrt(config.reps)) if config.reps > 1 else 0.0
        rows.append({key: v, "w2_to_ode_limit": float(ws.mean()), "stderr": stderr})

    if len(rows) < 2:
        return Findings({"distances": rows}, [Verdict.not_applicable(
            "nonincreasing", f"degenerate single-{key} grid; monotonicity not applicable")])
    d = [r["w2_to_ode_limit"] for r in rows]
    worst = max([-math.inf] + [b - (a + 2 * r["stderr"]) for a, b, r in zip(d, d[1:], rows[1:])])
    verdicts = [Verdict.le("nonincreasing", worst, 0.0, note="each step <= previous + 2*stderr"),
                Verdict.le("final_vs_first", d[-1], 0.5 * d[0],
                           note="last distance <= half of the first")]
    return Findings({"distances": rows}, verdicts)


def gamma_sweep(config: SweepConfig, workers: int = 1) -> StudyReport:
    """Endpoint law of the diffusive limit vs its gamma -> 0 deterministic limit."""
    return _limit_sweep(config, "gamma", config.gammas, workers)


def batch_sweep(config: SweepConfig, workers: int = 1) -> StudyReport:
    """Endpoint law of the diffusive limit vs its M -> infinity limit."""
    return _limit_sweep(config, "batch", config.batches, workers)


# ----------------------------- histogram convergence -----------------------------


@dataclass(frozen=True)
class HistogramConfig:
    problem: ProblemConfig = ProblemConfig()
    hyper: Hyperparams = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=5.0, dt=0.02)
    betas: tuple[float, ...] = (0.5, 0.75, 1.0)
    N_grid: tuple[int, ...] = (256, 1024, 4096)
    n_bins: int = 40
    reps: int = 4  # SGD endpoint laws are pooled over this many runs
    engine: str = "interacting-sde"
    seed: int = 17
    budget_s: float | None = None

    def __post_init__(self):
        require(len(self.N_grid) >= 3 and min(self.N_grid) >= 1, "N_grid",
                "hold at least 3 sizes, each >= 1", self.N_grid)
        require(all(0.0 <= b <= 1.0 for b in self.betas), "betas", "lie in [0, 1]", self.betas)
        require(self.n_bins >= 2, "n_bins", "be >= 2", self.n_bins)
        require(self.reps >= 1, "reps", "be >= 1", self.reps)
        require(self.engine in ("interacting-sde", "sgd"), "engine", "be interacting-sde or sgd",
                self.engine)
        require(self.budget_s is None or self.budget_s > 0, "budget_s", "be > 0", self.budget_s)
        if self.engine == "interacting-sde":  # SGD steps by its stepsize schedule, not dt
            self.hyper.euler_steps()


def _hist_task(config: HistogramConfig, task):
    """Endpoint first coordinates of one (beta, N) grid point.

    With the diffusion engine (independent noise per particle) a single
    run's empirical law converges in N.
    SGD runs are pooled over ``reps`` independent runs instead: one run's
    empirical measure keeps the O(1) randomness of the shared minibatch
    sequence (that randomness IS the second regime), so only the pooled
    per-particle law converges.
    """
    beta, N = task
    model, pi, init = config.problem.build()
    hyper = config.hyper.replace(beta=beta)
    if config.engine == "interacting-sde":
        # rows shared across N (nested ensembles), which stabilizes the
        # consecutive-N distances without changing what they estimate
        plan = NoisePlan(config.seed).child("hist", int(beta * 1000))
        traj = interacting_sde_run(model, pi, hyper, N, init, plan, snapshot_times=[hyper.T])
        return traj.endpoint()[:, 0]
    outs = []
    for r in range(config.reps):
        plan = NoisePlan(config.seed).child("hist", int(beta * 1000), N, r)
        traj = sgd_run(model, pi, hyper, N, init, plan, snapshot_times=[hyper.T])
        outs.append(traj.endpoint()[:, 0])
    return np.concatenate(outs)


def histogram_convergence_study(config: HistogramConfig, workers: int = 1) -> StudyReport:
    """Endpoint weight histograms across N per beta, and the two-regime split."""
    tasks = [(beta, N) for beta in config.betas for N in config.N_grid]
    return run_study("histograms", config, workers, (partial(_hist_task, config), tasks),
                     _hist_findings)


def _hist_findings(config: HistogramConfig, results) -> Findings:
    endpoints = dict(zip([(beta, N) for beta in config.betas for N in config.N_grid], results))
    tables: dict[str, list[dict]] = {}
    rows = []
    for beta in config.betas:
        for N in config.N_grid:
            tables[f"hist_beta{beta}_N{N}"] = histogram_rows(endpoints[(beta, N)], config.n_bins)
        for Na, Nb in zip(config.N_grid, config.N_grid[1:]):
            rows.append({"beta": beta, "N_a": Na, "N_b": Nb,
                         "w2": w2_1d_quantile(endpoints[(beta, Na)], endpoints[(beta, Nb)])})
    tables["consecutive_w2"] = rows

    verdicts = []
    for beta in config.betas:
        seq = [r["w2"] for r in rows if r["beta"] == beta]
        worst = max(b - a for a, b in zip(seq, seq[1:])) if len(seq) > 1 else 0.0
        verdicts.append(Verdict.le(f"w2_decreasing_beta_{beta}", worst, 0.0,
                                   note="W2(law_N, law_2N) decreasing in N"))
    if all(b in config.betas for b in (0.5, 0.75, 1.0)):
        n_top = config.N_grid[-1]
        d_mid = w2_1d_quantile(endpoints[(0.5, n_top)], endpoints[(0.75, n_top)])
        d_sep = w2_1d_quantile(endpoints[(0.75, n_top)], endpoints[(1.0, n_top)])
        verdicts.append(Verdict.le("two_regime_separation", d_mid, d_sep,
                                   note="limits for beta<1 agree; beta=1 differs"))
        tables["regime_separation"] = [{"pair": "0.5-0.75", "w2": d_mid},
                                       {"pair": "0.75-1.0", "w2": d_sep}]
    return Findings(tables, verdicts)


# ----------------------------- SGD vs SDE consistency -----------------------------


@dataclass(frozen=True)
class ConsistencyConfig:
    problem: ProblemConfig = ProblemConfig()
    hyper: Hyperparams = Hyperparams(alpha=0.0, beta=1.0, gamma=0.25, M=1, T=5.0, dt=0.0625)
    N_grid: tuple[int, ...] = (256, 1024, 4096)
    reps: int = 6
    seed: int = 37
    decrease_factor: float = 0.7
    budget_s: float | None = None

    def __post_init__(self):
        require(len(self.N_grid) >= 2 and min(self.N_grid) >= 1, "N_grid",
                "hold at least 2 sizes, each >= 1", self.N_grid)
        require(self.reps >= 2, "reps", "be >= 2 to pool and estimate stderr", self.reps)
        require(self.decrease_factor > 0, "decrease_factor", "be > 0", self.decrease_factor)
        require(self.budget_s is None or self.budget_s > 0, "budget_s", "be > 0", self.budget_s)
        self.hyper.euler_steps()


def _gap_task(config: ConsistencyConfig, task):
    """Endpoint samples of both engines for one repetition (independent noise)."""
    N, r = task
    model, pi, init = config.problem.build()
    return sgd_sde_endpoints(model, pi, config.hyper, N, init,
                             NoisePlan(config.seed).child("gap", N, r))


def sgd_sde_consistency_study(config: ConsistencyConfig, workers: int = 1) -> StudyReport:
    """Endpoint-law gap between the discrete recursion and its diffusion, across N.

    Endpoint laws are pooled over the repetitions before taking the distance:
    a single run's empirical measure carries the O(1) shared-minibatch
    randomness of the second regime, which no amount of particles removes;
    the per-particle laws are what the two engines share.  The stderr comes
    from the half-split pooled gaps.
    """
    tasks = [(N, r) for N in config.N_grid for r in range(config.reps)]
    return run_study("consistency", config, workers, (partial(_gap_task, config), tasks),
                     _gap_findings)


def _gap_findings(config: ConsistencyConfig, per_task) -> Findings:
    def pooled_gap(ends):
        return w2_ensembles(np.concatenate([e[0] for e in ends]),
                            np.concatenate([e[1] for e in ends]), seed=config.seed)

    rows, half = [], config.reps // 2
    for i, N in enumerate(config.N_grid):
        ends = per_task[i * config.reps:(i + 1) * config.reps]
        stderr = 0.5 * abs(pooled_gap(ends[:half]) - pooled_gap(ends[half:]))
        rows.append({"N": N, "gap": float(pooled_gap(ends)), "stderr": float(stderr)})
    worst = max([-math.inf] + [b["gap"] - (config.decrease_factor * a["gap"] + 2 * b["stderr"])
                               for a, b in zip(rows, rows[1:])])
    verdicts = [Verdict.le("gap_decreasing", worst, 0.0,
                           note=f"gap(N_next) <= {config.decrease_factor}*gap(N) + 2*stderr")]
    return Findings({"gaps": rows}, verdicts)
