"""Desk-scale studies on synthetic models, with machine-checkable verdicts.

Each study takes a config dataclass, runs the relevant engines over a grid,
and emits a ``StudyReport``: config echo, CSV-serializable metric tables,
and named verdicts (measured value, threshold, pass/fail).  Reports are
deterministic given (config, seed); grid points and repetitions can run on
a process pool without changing a single bit of the output.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .dynamics import (
    DOMAIN_REFERENCE,
    DOMAIN_SYSTEM,
    InitSpec,
    euler_step,
    guard_moment,
    interacting_sde_run,
    meanfield_ode_run,
    meanfield_sde_run,
    meanfield_sigma_scale,
    msgld_run,
    noise_width,
    sgd_run,
)
from .meanfield import field_cache
from .model import (
    DataAtom,
    DataDistribution,
    Hyperparams,
    ModelSpec,
    gamma_scale,
    make_model,
    time_weight,
)
from .rng import NoisePlan, SLOT_DIFFUSION, SLOT_LANGEVIN
from .metrics import fit_rate, histogram_rows, w2_1d_quantile, w2_ensembles

__all__ = [
    "Verdict",
    "StudyReport",
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


def _budget_warning(report: StudyReport, budget_s: float | None, t0: float):
    report.elapsed_s = time.time() - t0
    if budget_s is not None and report.elapsed_s > budget_s:
        report.warnings.append(
            f"wall clock {report.elapsed_s:.1f}s exceeded budget {budget_s:.1f}s"
        )


def _parallel_map(fn, tasks, workers: int):
    """Order-preserving map, optionally on a process pool (bitwise-identical)."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


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
        elif self.labels == "single":
            atoms = [DataAtom([1.0] * self.p, 1.0, 1.0)]
        else:
            raise ValueError(f"unknown label scheme {self.labels!r}")
        pi = DataDistribution(atoms)
        if self.init_kind == "uniform":
            init = InitSpec.uniform(self.init_low, self.init_high)
        elif self.init_kind == "dirac":
            init = InitSpec.dirac([self.init_w0] * self.p)
        else:
            raise ValueError(f"unknown init kind {self.init_kind!r}")
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
        if len(self.N_grid) < 4:
            raise ValueError("need an N grid with at least 4 sizes")
        ratios = [self.N_grid[i + 1] / self.N_grid[i] for i in range(len(self.N_grid) - 1)]
        if max(ratios) / min(ratios) > 1.0 + 1e-9:
            raise ValueError("N grid must be geometrically spaced")


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
    """Monte Carlo estimate of E[sup_t sum_{k<=m} ||W_t^{k,N} - W_t^{k,*}||^2]."""

    value: float
    stderr: float
    per_rep: np.ndarray
    N: int
    m: int
    N_ref: int
    ref_bias_scale: float  # O(N_ref^-1/2) proxy bias of the reference law


def _coupled_grid_rep(args) -> dict[int, float]:
    """One repetition of the coupling, sharing streams across the whole N grid.

    The reference ensemble and the m companions are stepped once; row k of
    each system-domain Gaussian block drives particle k of every test
    system and of the companions, so companion k replays test particle k
    and the error ratios across N concentrate (common random numbers).
    """
    model, pi, hyper, Ns, m, N_ref, init, plan = args
    p = model.p
    n_steps = int(round(hyper.T / hyper.dt))
    n_sys = max(Ns)

    W_ref = _stratified_reference(init, N_ref, p)
    if W_ref is None:
        W_ref = init.draw(plan, DOMAIN_REFERENCE, np.arange(N_ref), p)
    W_sys = init.draw(plan, DOMAIN_SYSTEM, np.arange(n_sys), p)
    tests = {N: W_sys[:N].copy() for N in Ns}
    W_comp = W_sys[:m].copy()
    test_scales = {
        N: math.sqrt(gamma_scale(hyper.alpha, hyper.beta, hyper.gamma, N) / hyper.M) for N in Ns
    }
    mf_scale = meanfield_sigma_scale(hyper) if hyper.beta == 1.0 else 0.0
    eta = hyper.eta
    width = noise_width(model, pi)
    sups = {N: 0.0 for N in Ns}

    for n in range(n_steps):
        t = n * hyper.dt
        guard_moment(W_ref, n, t)
        for W in tests.values():
            guard_moment(W, n, t)
        tw = time_weight(t, hyper.alpha)
        Zs = plan.normals(DOMAIN_SYSTEM, SLOT_DIFFUSION, n, n_sys, width)
        Zr = plan.normals(DOMAIN_REFERENCE, SLOT_DIFFUSION, n, N_ref, width) if mf_scale > 0 else None
        Zl = Zl_ref = None
        if eta > 0:
            Zl = plan.normals(DOMAIN_SYSTEM, SLOT_LANGEVIN, n, n_sys, p)
            Zl_ref = plan.normals(DOMAIN_REFERENCE, SLOT_LANGEVIN, n, N_ref, p)

        def system_step(W, cache, scale):
            k = W.shape[0]
            return euler_step(W, cache, model, pi, hyper.dt, tw, scale, Zs[:k],
                              None if Zl is None else Zl[:k], eta)

        cache_ref = field_cache(W_ref, model, pi)
        W_comp = system_step(W_comp, cache_ref, mf_scale)
        W_ref = euler_step(W_ref, cache_ref, model, pi, hyper.dt, tw, mf_scale, Zr, Zl_ref, eta)
        tests = {N: system_step(W, field_cache(W, model, pi), test_scales[N])
                 for N, W in tests.items()}
        for N, W in tests.items():
            sups[N] = max(sups[N], float(np.sum((W[:m] - W_comp) ** 2)))
    return sups


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
    Gaussian draws with test particles 1..m; their law argument is the
    empirical law of an independent self-consistent reference ensemble of
    size N_ref, which carries an O(N_ref^-1/2) proxy bias reported on each
    estimate.  At p = 1 a uniform or dirac init gets a quantile-stratified
    reference.  The ensemble second moments are guarded at every step.
    """
    Ns = tuple(Ns)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if m > min(Ns):
        raise ValueError(f"m={m} must not exceed the smallest grid N={min(Ns)}")
    if N_ref < max(Ns):
        raise ValueError(f"reference size N_ref={N_ref} must dominate every grid N (max {max(Ns)})")
    if init is None:
        init = InitSpec.uniform()
    tasks = [(model, pi, hyper, Ns, m, N_ref, init, plan.child("rep", r)) for r in range(reps)]
    per_rep = _parallel_map(_coupled_grid_rep, tasks, workers)
    out = {}
    for N in Ns:
        vals = np.array([d[N] for d in per_rep])
        stderr = float(vals.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        out[N] = ChaosErrorEstimate(
            float(vals.mean()), stderr, vals, N, m, N_ref, N_ref**-0.5
        )
    return out


def two_term_bound(N: float, alpha: float, beta: float, M: int) -> float:
    """Two-term rate bound N^(-(1-beta)/(1-alpha))/M + 1/N."""
    return float(N) ** (-(1.0 - beta) / (1.0 - alpha)) / M + 1.0 / float(N)


def chaos_rate_study(config: ChaosRateConfig, workers: int = 1) -> StudyReport:
    """Rate fit and upper-bound compliance of the coupling error over an N grid."""
    t0 = time.time()
    model, pi, init = config.problem.build()
    hyper = config.hyper
    plan = NoisePlan(config.seed)
    ests = coupled_chaos_error(
        model, pi, hyper, config.N_grid, config.m, config.N_ref, config.reps, plan, init,
        workers=workers,
    )
    rows = []
    for N in config.N_grid:
        e = ests[N]
        rows.append(
            {"N": N, "error": e.value, "stderr": e.stderr,
             "bound": two_term_bound(N, hyper.alpha, hyper.beta, hyper.M),
             "ref_bias_scale": e.ref_bias_scale}
        )
    fit = fit_rate([(r["N"], r["error"], r["stderr"]) for r in rows])
    C = rows[0]["error"] / rows[0]["bound"]
    # the anchor margin is 1 by construction; forming it by division anyway
    # could round to 0.999... and trip the >= 1 verdict spuriously
    margins = [C * r["bound"] / r["error"] for r in rows[1:]]
    compliance = min([1.0] + margins)
    ratio = rows[0]["error"] / rows[-1]["error"]

    verdicts = [
        Verdict.le("slope", fit.slope, config.slope_threshold,
                   note=f"log-log fit over N={list(config.N_grid)}, r2={fit.r2:.3f}"),
        Verdict.ge("upper_bound_compliance", compliance, 1.0,
                   note="min over N of C*bound(N)/error(N), C calibrated at smallest N; "
                        f"non-anchor margins {[round(m, 3) for m in margins]}"),
        Verdict.ge("endpoint_ratio", ratio, config.endpoint_ratio,
                   note="error(N_min)/error(N_max)"),
    ]
    report = StudyReport(
        study_id="chaos-rate",
        config={**asdict(config), "fit_slope": fit.slope, "fit_r2": fit.r2},
        tables={"errors": rows},
        verdicts=verdicts,
    )
    _budget_warning(report, config.budget_s, t0)
    return report


# ----------------------------- two-regime study -----------------------------


@dataclass(frozen=True)
class TwoRegimeConfig:
    problem: ProblemConfig = ProblemConfig(init_kind="dirac", init_w0=0.0)
    hyper: Hyperparams = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=5.0, dt=0.02)
    betas: tuple[float, ...] = (0.75, 1.0)
    N_grid: tuple[int, ...] = (4096, 65536, 1048576)
    seeds: int = 16
    seed: int = 7
    engine: str = "sgd"  # or "msgld"
    statistic: str = "ensemble_mean"  # or "particle0"
    ratio_threshold: float = 0.3
    floor_jitter: float = 0.5  # relative change of the beta=1 deviation, two largest N
    budget_s: float | None = None


def _regime_task(args) -> float:
    config, beta, N, s = args
    model, pi, init = config.problem.build()
    hyper = config.hyper.replace(beta=beta)
    plan = NoisePlan(config.seed).child("regime", int(beta * 1000), s)
    if config.engine == "sgd" and init.kind == "dirac":
        # All particles share the minibatch and start equal, so the whole
        # ensemble rides one common trajectory: simulate a single particle
        # with the equivalent stepsize gamma * N^(beta-1) (bitwise equal).
        hyper1 = hyper.replace(beta=1.0, gamma=hyper.gamma * float(N) ** (hyper.beta - 1.0))
        traj = sgd_run(model, pi, hyper1, 1, init, plan, snapshot_times=[hyper.T])
        return float(traj.endpoint()[0, 0])
    run = msgld_run if config.engine == "msgld" else sgd_run
    traj = run(model, pi, hyper, N, init, plan, snapshot_times=[hyper.T])
    W = traj.endpoint()
    if config.statistic == "particle0":
        return float(W[0, 0])
    return float(W[:, 0].mean())


def two_regime_study(config: TwoRegimeConfig, workers: int = 1) -> StudyReport:
    """Across-seed deviation of the endpoint statistic: vanishing vs stable noise."""
    if config.seeds < 2:
        raise ValueError("need at least 2 seeds to measure a deviation")
    t0 = time.time()
    rows = []
    devs: dict[tuple[float, int], float] = {}
    for beta in config.betas:
        for N in config.N_grid:
            tasks = [(config, beta, N, s) for s in range(config.seeds)]
            stats = np.array(_parallel_map(_regime_task, tasks, workers))
            dev = float(stats.std(ddof=1))
            devs[(beta, N)] = dev
            rows.append({"beta": beta, "N": N, "deviation": dev,
                         "mean_stat": float(stats.mean()), "seeds": config.seeds})

    verdicts = []
    n_lo, n_hi = config.N_grid[0], config.N_grid[-1]
    for beta in config.betas:
        if beta < 1.0:
            d0, d1 = devs[(beta, n_lo)], devs[(beta, n_hi)]
            verdicts.append(
                Verdict.le(f"shrinks_beta_{beta}", d1, d0,
                           note=f"deviation at N={n_hi} vs N={n_lo}")
            )
    if 1.0 in config.betas and len(config.N_grid) >= 2:
        n_2nd = config.N_grid[-2]
        d_a, d_b = devs[(1.0, n_2nd)], devs[(1.0, n_hi)]
        jitter = abs(d_a - d_b) / max(d_a, d_b) if max(d_a, d_b) > 0 else 0.0
        verdicts.append(
            Verdict.le("floor_beta_1", jitter, config.floor_jitter,
                       note=f"relative change of deviation between N={n_2nd} and N={n_hi}")
        )
    if 1.0 in config.betas:
        others = [b for b in config.betas if b < 1.0]
        if others:
            b = max(others)
            denom = devs[(1.0, n_hi)]
            ratio = devs[(b, n_hi)] / denom if denom > 0 else math.inf
            verdicts.append(
                Verdict.le("deviation_ratio", ratio, config.ratio_threshold,
                           note=f"dev(beta={b})/dev(beta=1.0) at N={n_hi}")
            )
    report = StudyReport(
        study_id="two-regime",
        config=asdict(config),
        tables={"deviations": rows},
        verdicts=verdicts,
    )
    _budget_warning(report, config.budget_s, t0)
    return report


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


def _sweep_task(args) -> float:
    config, key, value, r = args
    model, pi, init = config.problem.build()
    if key == "gamma":
        hyper = config.hyper.replace(gamma=value)
    else:
        hyper = config.hyper.replace(M=int(value))
    plan = NoisePlan(config.seed).child("sweep", key, int(value * 1000), r)
    sde = meanfield_sde_run(model, pi, hyper, config.N_ref, init, plan,
                            snapshot_times=[hyper.T])
    ode = meanfield_ode_run(model, pi, hyper, config.N_ref, init, plan.child("ode"),
                            snapshot_times=[hyper.T])
    return w2_1d_quantile(sde.endpoint()[:, 0], ode.endpoint()[:, 0]) if model.p == 1 \
        else w2_ensembles(sde.endpoint(), ode.endpoint(), seed=config.seed)


def _limit_sweep(config: SweepConfig, key: str, values, workers: int) -> StudyReport:
    t0 = time.time()
    rows = []
    for v in values:
        tasks = [(config, key, v, r) for r in range(config.reps)]
        ws = np.array(_parallel_map(_sweep_task, tasks, workers))
        stderr = float(ws.std(ddof=1) / math.sqrt(config.reps)) if config.reps > 1 else 0.0
        rows.append({key: v, "w2_to_ode_limit": float(ws.mean()), "stderr": stderr})

    verdicts = []
    if len(rows) < 2:
        verdicts.append(Verdict.not_applicable(
            "nonincreasing", f"degenerate single-{key} grid; monotonicity not applicable"))
    else:
        worst = -math.inf
        for prev, cur in zip(rows, rows[1:]):
            excess = cur["w2_to_ode_limit"] - (prev["w2_to_ode_limit"] + 2 * cur["stderr"])
            worst = max(worst, excess)
        verdicts.append(Verdict.le("nonincreasing", worst, 0.0,
                                   note="each step <= previous + 2*stderr"))
        verdicts.append(Verdict.le("final_vs_first", rows[-1]["w2_to_ode_limit"],
                                   0.5 * rows[0]["w2_to_ode_limit"],
                                   note="last distance <= half of the first"))
    report = StudyReport(
        study_id=f"{key}-sweep", config=asdict(config),
        tables={"distances": rows}, verdicts=verdicts,
    )
    _budget_warning(report, config.budget_s, t0)
    return report


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


def _hist_task(args):
    """Endpoint first coordinates of one (beta, N) grid point.

    With the diffusion engine (independent noise per particle) a single
    run's empirical law converges in N.
    SGD runs are pooled over ``reps`` independent runs instead: one run's
    empirical measure keeps the O(1) randomness of the shared minibatch
    sequence (that randomness IS the second regime), so only the pooled
    per-particle law converges.
    """
    config, beta, N = args
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
    if len(config.N_grid) < 3:
        raise ValueError("need an N grid with at least 3 sizes")
    t0 = time.time()
    endpoints: dict[tuple[float, int], np.ndarray] = {}
    tasks = [(config, beta, N) for beta in config.betas for N in config.N_grid]
    results = _parallel_map(_hist_task, tasks, workers)
    for (c, beta, N), w in zip(tasks, results):
        endpoints[(beta, N)] = w

    tables: dict[str, list[dict]] = {}
    rows = []
    for beta in config.betas:
        for N in config.N_grid:
            tables[f"hist_beta{beta}_N{N}"] = histogram_rows(
                endpoints[(beta, N)], n_bins=config.n_bins
            )
        for Na, Nb in zip(config.N_grid, config.N_grid[1:]):
            rows.append({
                "beta": beta, "N_a": Na, "N_b": Nb,
                "w2": w2_1d_quantile(endpoints[(beta, Na)], endpoints[(beta, Nb)]),
            })
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
        tables["regime_separation"] = [
            {"pair": "0.5-0.75", "w2": d_mid}, {"pair": "0.75-1.0", "w2": d_sep}
        ]
    report = StudyReport(
        study_id="histograms", config=asdict(config), tables=tables, verdicts=verdicts,
    )
    _budget_warning(report, config.budget_s, t0)
    return report


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


def _gap_task(args):
    """Endpoint samples of both engines for one repetition (independent noise)."""
    config, N, r = args
    model, pi, init = config.problem.build()
    plan = NoisePlan(config.seed).child("gap", N, r)
    t_sgd = sgd_run(model, pi, config.hyper, N, init, plan.child("sgd"),
                    snapshot_times=[config.hyper.T])
    t_sde = interacting_sde_run(model, pi, config.hyper, N, init, plan.child("sde"),
                                snapshot_times=[config.hyper.T])
    return t_sgd.endpoint(), t_sde.endpoint()


def sgd_sde_consistency_study(config: ConsistencyConfig, workers: int = 1) -> StudyReport:
    """Endpoint-law gap between the discrete recursion and its diffusion, across N.

    Endpoint laws are pooled over the repetitions before taking the distance:
    a single run's empirical measure carries the O(1) shared-minibatch
    randomness of the second regime, which no amount of particles removes;
    the per-particle laws are what the two engines share.  The stderr comes
    from the half-split pooled gaps.
    """
    if len(config.N_grid) < 2:
        raise ValueError("need at least 2 grid sizes")
    if config.reps < 2:
        raise ValueError("need at least 2 reps to pool and estimate stderr")
    t0 = time.time()
    rows = []
    for N in config.N_grid:
        tasks = [(config, N, r) for r in range(config.reps)]
        ends = _parallel_map(_gap_task, tasks, workers)
        sgd_all = np.concatenate([e[0] for e in ends])
        sde_all = np.concatenate([e[1] for e in ends])
        gap = w2_ensembles(sgd_all, sde_all, seed=config.seed)
        half = config.reps // 2
        g1 = w2_ensembles(np.concatenate([e[0] for e in ends[:half]]),
                          np.concatenate([e[1] for e in ends[:half]]), seed=config.seed)
        g2 = w2_ensembles(np.concatenate([e[0] for e in ends[half:]]),
                          np.concatenate([e[1] for e in ends[half:]]), seed=config.seed)
        stderr = 0.5 * abs(g1 - g2)
        rows.append({"N": N, "gap": float(gap), "stderr": float(stderr)})

    worst = -math.inf
    for prev, cur in zip(rows, rows[1:]):
        excess = cur["gap"] - (config.decrease_factor * prev["gap"] + 2 * cur["stderr"])
        worst = max(worst, excess)
    verdicts = [Verdict.le("gap_decreasing", worst, 0.0,
                           note=f"gap(N_next) <= {config.decrease_factor}*gap(N) + 2*stderr")]
    report = StudyReport(
        study_id="consistency", config=asdict(config),
        tables={"gaps": rows}, verdicts=verdicts,
    )
    _budget_warning(report, config.budget_s, t0)
    return report
