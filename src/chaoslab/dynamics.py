"""Time-evolution engines.

Engines
-------
- ``sgd_run`` / ``msgld_run``: the discrete recursions on iteration index n,
  with stepsize gamma * N^(beta-1) * (n + 1/gamma_scale)^(-alpha) per
  particle and minibatches drawn from the data distribution.
- ``interacting_sde_run``: explicit Euler-Maruyama for the N-particle
  diffusion whose drift/noise are evaluated against the ensemble's own
  empirical law, with diffusion factor sqrt(gamma_scale(N)/M).
- ``meanfield_ode_run`` / ``meanfield_sde_run``: the limiting dynamics,
  evolved as a self-consistent ensemble whose empirical law stands in for
  the intractable mean-field law.

Every Euler-Maruyama engine, and the synchronous-coupling harness in
``experiments``, advances its particles with ``euler_step``, which takes
the driving law as its ``FieldCache``.

Iteration n of the discrete recursions is stamped with time
n * gamma_scale(N); all engines share the counter-based NoisePlan, so runs
are bitwise reproducible at any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .meanfield import FieldCache, drift_and_noise_factor, field_cache, mean_field_terms
from .model import DataDistribution, Hyperparams, ModelSpec, gamma_scale, time_weight
from .rng import NoisePlan, SLOT_DATA, SLOT_DIFFUSION, SLOT_INIT, SLOT_LANGEVIN

__all__ = [
    "DOMAIN_SYSTEM",
    "DOMAIN_REFERENCE",
    "InitSpec",
    "Trajectory",
    "EnsembleDiverged",
    "TestFunction",
    "sgd_run",
    "msgld_run",
    "interacting_sde_run",
    "meanfield_ode_run",
    "meanfield_sde_run",
    "meanfield_sigma_scale",
    "noise_width",
    "drift_and_noise_root",
    "diffusion_increment",
    "euler_step",
    "euler_run",
    "guard_moment",
    "weak_form_residual",
    "sgd_sde_gap",
]

DOMAIN_SYSTEM = 0
DOMAIN_REFERENCE = 1

DEFAULT_MOMENT_CEILING = 1e8
DEFAULT_SNAPSHOTS = 64


class EnsembleDiverged(RuntimeError):
    """Raised when the ensemble second moment crosses the configured ceiling."""

    def __init__(self, step: int, t: float, value: float, ceiling: float):
        super().__init__(
            f"ensemble second moment {value:.3e} exceeded ceiling {ceiling:.3e} "
            f"at step {step} (t={t:.6g})"
        )
        self.step = step
        self.t = t
        self.value = value
        self.ceiling = ceiling

    def __reduce__(self):
        # rebuilt from its fields when a pool worker sends it back
        return type(self), (self.step, self.t, self.value, self.ceiling)


# ----------------------------- initial conditions -----------------------------


@dataclass(frozen=True)
class InitSpec:
    """Initial-condition law: dirac at w0, uniform box, gaussian, or samples."""

    kind: str = "uniform"
    w0: np.ndarray | None = None
    low: float = -0.04
    high: float = 0.04
    mean: float = 0.0
    std: float = 1.0
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "uniform" and not self.low <= self.high:
            raise ValueError(f"uniform init needs low <= high, got low={self.low}, high={self.high}")

    @staticmethod
    def dirac(w0) -> "InitSpec":
        return InitSpec(kind="dirac", w0=np.atleast_1d(np.asarray(w0, dtype=np.float64)))

    @staticmethod
    def uniform(low: float = -0.04, high: float = 0.04) -> "InitSpec":
        return InitSpec(kind="uniform", low=low, high=high)

    @staticmethod
    def gaussian(mean: float = 0.0, std: float = 1.0) -> "InitSpec":
        return InitSpec(kind="gaussian", mean=mean, std=std)

    @staticmethod
    def from_samples(samples: np.ndarray) -> "InitSpec":
        return InitSpec(kind="samples", samples=np.asarray(samples, dtype=np.float64))

    def draw(self, plan: NoisePlan, domain: int, ids: np.ndarray, p: int) -> np.ndarray:
        n_rows = int(ids.max()) + 1 if len(ids) else 0
        if self.kind == "dirac":
            w0 = np.asarray(self.w0, dtype=np.float64).reshape(-1)
            if w0.shape[0] != p:
                raise ValueError(f"dirac init has dimension {w0.shape[0]}, expected {p}")
            return np.tile(w0, (len(ids), 1))
        if self.kind == "uniform":
            u = plan.uniforms(domain, SLOT_INIT, 0, n_rows * p).reshape(n_rows, p)[ids]
            return self.low + (self.high - self.low) * u
        if self.kind == "gaussian":
            z = plan.normals(domain, SLOT_INIT, 0, n_rows, p)[ids]
            return self.mean + self.std * z
        if self.kind == "samples":
            s = np.asarray(self.samples, dtype=np.float64)
            if s.ndim == 1:
                s = s[:, None]
            u = plan.uniforms(domain, SLOT_INIT, 0, n_rows)[ids]
            idx = np.minimum((u * s.shape[0]).astype(np.int64), s.shape[0] - 1)
            return s[idx]
        raise ValueError(f"unknown init kind {self.kind!r}")


# ----------------------------- trajectories -----------------------------


@dataclass
class Trajectory:
    """Snapshots of an ensemble along a time grid starting at 0."""

    kind: str
    times: np.ndarray  # (n_snap,)
    ensembles: np.ndarray  # (n_snap, N, p)
    hyper: Hyperparams
    meta: dict = field(default_factory=dict)
    model: ModelSpec | None = None
    pi: DataDistribution | None = None

    @property
    def n_particles(self) -> int:
        return self.ensembles.shape[1]

    @property
    def p(self) -> int:
        return self.ensembles.shape[2]

    def endpoint(self) -> np.ndarray:
        return self.ensembles[-1]


def _snapshot_steps(n_steps: int, step_time: float, snapshot_times) -> np.ndarray:
    """Map requested snapshot times onto step indices (0 and n_steps always kept)."""
    if isinstance(snapshot_times, str) and snapshot_times == "all":
        return np.arange(n_steps + 1)
    if snapshot_times is None:
        if n_steps <= DEFAULT_SNAPSHOTS:
            return np.arange(n_steps + 1)
        ts = np.linspace(0.0, n_steps * step_time, DEFAULT_SNAPSHOTS + 1)
    else:
        ts = np.asarray(snapshot_times, dtype=np.float64)
    idx = np.rint(ts / step_time).astype(np.int64)
    idx = np.clip(idx, 0, n_steps)
    return np.unique(np.concatenate([idx, [0, n_steps]]))


def _draws(plan: NoisePlan, domain: int, slot: int, step: int, ids: np.ndarray, p: int) -> np.ndarray:
    block = plan.normals(domain, slot, step, int(ids.max()) + 1, p)
    return block[ids]


def guard_moment(W: np.ndarray, step: int, t: float, ceiling: float = DEFAULT_MOMENT_CEILING):
    """Raise ``EnsembleDiverged`` unless the ensemble second moment is finite and <= ceiling."""
    v = W.ravel()
    m2 = float(v @ v) / W.shape[0]
    if not m2 <= ceiling:  # also catches NaN and inf
        raise EnsembleDiverged(step, t, m2, ceiling)


# ----------------------------- discrete recursions -----------------------------


def _discrete_run(
    model: ModelSpec,
    pi: DataDistribution,
    hyper: Hyperparams,
    N: int,
    init: InitSpec,
    plan: NoisePlan,
    langevin: bool,
    snapshot_times=None,
    particle_ids: np.ndarray | None = None,
    moment_ceiling: float = DEFAULT_MOMENT_CEILING,
) -> Trajectory:
    if N < 1:
        raise ValueError("N must be >= 1")
    g = gamma_scale(hyper.alpha, hyper.beta, hyper.gamma, N)
    n_T = int(math.floor(hyper.T / g + 1e-12))
    if n_T == 0:
        raise ValueError(
            f"horizon T={hyper.T} is shorter than one SGD step gamma_scale={g:.6g}; "
            "nothing to run"
        )
    ids = np.arange(N) if particle_ids is None else np.asarray(particle_ids, dtype=np.int64)
    W = init.draw(plan, DOMAIN_SYSTEM, ids, model.p)
    cum_w = np.cumsum(pi.weights)
    eta = hyper.eta if langevin else 0.0

    snap_steps = _snapshot_steps(n_T, g, snapshot_times)
    snaps = np.empty((len(snap_steps), N, model.p))
    snap_pos = 0
    if snap_steps[0] == 0:
        snaps[0] = W
        snap_pos = 1

    for n in range(n_T):
        guard_moment(W, n, n * g, moment_ceiling)
        stepsize = hyper.gamma * float(N) ** (hyper.beta - 1.0) * (n + 1.0 / g) ** (-hyper.alpha)
        u = plan.uniforms(DOMAIN_SYSTEM, SLOT_DATA, n, hyper.M)
        batch = np.searchsorted(cum_w, u, side="right")
        batch = np.minimum(batch, len(pi) - 1)

        cache = field_cache(W, model, pi)
        r = cache.residual_d1[batch]  # (M,)
        gF = model.feature.grad(W, pi.xs[batch])  # (N, M, p)
        drift = -(gF * r[None, :, None]).mean(axis=1) - model.penalty.grad(W)
        W = W + stepsize * drift
        if eta > 0:
            Z = _draws(plan, DOMAIN_SYSTEM, SLOT_LANGEVIN, n, ids, model.p)
            W = W + math.sqrt(2.0 * eta * stepsize) * Z

        if snap_pos < len(snap_steps) and snap_steps[snap_pos] == n + 1:
            snaps[snap_pos] = W
            snap_pos += 1

    kind = "msgld" if langevin else "sgd"
    return Trajectory(
        kind=kind,
        times=snap_steps * g,
        ensembles=snaps,
        hyper=hyper,
        meta={"gamma_scale": g, "n_steps": n_T, "seed": plan.run_seed, "N": N},
        model=model,
        pi=pi,
    )


def sgd_run(model, pi, hyper, N, init, plan, **kw) -> Trajectory:
    """Minibatch SGD on the structural risk; iteration n lives at time n*gamma_scale."""
    return _discrete_run(model, pi, hyper, N, init, plan, langevin=False, **kw)


def msgld_run(model, pi, hyper, N, init, plan, **kw) -> Trajectory:
    """SGD plus additive Gaussian noise of temperature eta (eta=0 reduces to SGD)."""
    return _discrete_run(model, pi, hyper, N, init, plan, langevin=True, **kw)


# ----------------------------- Euler-Maruyama engines -----------------------------


def noise_width(model: ModelSpec, pi: DataDistribution, sigma_override: float | None = None) -> int:
    """Standard normals per particle that one diffusion increment consumes.

    D (the number of atoms) for the rank-D factor at p > 1, else p.
    """
    return len(pi) if model.p > 1 and sigma_override is None else model.p


def drift_and_noise_root(
    W: np.ndarray,
    cache: FieldCache,
    model: ModelSpec,
    pi: DataDistribution,
    need_noise: bool,
    sigma_override: float | None = None,
):
    """Drift h (n, p) and noise root R (n, k, p) of one Euler-Maruyama step.

    ``W`` holds the particles (n, p) and ``cache`` the ``field_cache`` of the
    law that drives them.  R^T R = Sigma per particle, with k =
    ``noise_width``; R is None when ``need_noise`` is false.  At p = 1, R is
    the scalar root sqrt(Sigma_00), which gives the W2-optimal synchronous
    coupling.  At p > 1 it is the exact rank-D factor sqrt(pi_j) xi_j, or
    sqrt(s) I when Sigma is pinned to s I by ``sigma_override``.
    """
    if not need_noise:
        h, _, _ = mean_field_terms(W, None, model, pi, cache=cache)
        return h, None
    p = model.p
    if p == 1:
        h, _, sigma = mean_field_terms(
            W, None, model, pi, need_sigma=True, sigma_override=sigma_override, cache=cache
        )
        return h, np.sqrt(np.clip(sigma[:, 0, 0], 0.0, None))[:, None, None]
    if sigma_override is not None:
        h, _, _ = mean_field_terms(W, None, model, pi, cache=cache)
        return h, np.broadcast_to(math.sqrt(sigma_override) * np.eye(p), (h.shape[0], p, p))
    return drift_and_noise_factor(W, None, model, pi, cache=cache)


def diffusion_increment(root: np.ndarray, scale: float, Z: np.ndarray) -> np.ndarray:
    """scale * R^T z per particle, for a root from ``drift_and_noise_root`` and Z (n, k)."""
    if root.shape[2] == 1:
        # p = 1: (scale * sqrt(Sigma_00)) * z; tests/test_noise.py pins this rounding
        return scale * root[:, 0] * Z
    return scale * np.einsum("nkp,nk->np", root, Z)


def euler_step(
    W: np.ndarray,
    cache: FieldCache,
    model: ModelSpec,
    pi: DataDistribution,
    dt: float,
    tw: float,
    scale: float,
    Z: np.ndarray | None,
    Z_lang: np.ndarray | None,
    eta: float,
    sigma_override: float | None = None,
) -> np.ndarray:
    """One Euler-Maruyama step of the particles W (n, p) under the law in ``cache``.

    Returns W + tw (h dt + sqrt(dt) scale R^T Z + sqrt(dt) sqrt(2 eta) Z_lang),
    with R the noise root of ``drift_and_noise_root``, Z (n, noise_width) and
    Z_lang (n, p).  The noise term is skipped when scale is 0 and the
    Langevin term when eta is 0; their draws may then be None.
    """
    h, root = drift_and_noise_root(W, cache, model, pi, scale > 0, sigma_override)
    incr = h * dt
    if scale > 0:
        incr = incr + math.sqrt(dt) * diffusion_increment(root, scale, Z)
    if eta > 0:
        incr = incr + math.sqrt(dt) * math.sqrt(2.0 * eta) * Z_lang
    return W + tw * incr


def euler_run(
    model: ModelSpec,
    pi: DataDistribution,
    hyper: Hyperparams,
    W0: np.ndarray,
    plan: NoisePlan,
    domain: int,
    sigma_scale: float,
    kind: str,
    snapshot_times=None,
    sigma_override: float | None = None,
    particle_ids: np.ndarray | None = None,
    moment_ceiling: float = DEFAULT_MOMENT_CEILING,
    extra_meta: dict | None = None,
) -> Trajectory:
    """Euler-Maruyama from W0 for an ensemble driven by its own empirical law.

    Each step is one ``euler_step`` with noise scale sigma_scale and the
    time weight (t+1)^-alpha, drawing the particles' rows of the domain's
    diffusion (when sigma_scale > 0) and Langevin (when eta > 0) blocks.
    """
    if hyper.dt <= 0:
        raise ValueError("dt must be > 0")
    n_steps = int(round(hyper.T / hyper.dt))
    W = np.array(W0, dtype=np.float64)
    N, p = W.shape
    ids = np.arange(N) if particle_ids is None else np.asarray(particle_ids, dtype=np.int64)
    eta = hyper.eta
    width = noise_width(model, pi, sigma_override)

    snap_steps = _snapshot_steps(n_steps, hyper.dt, snapshot_times) if n_steps else np.array([0])
    snaps = np.empty((len(snap_steps), N, p))
    snap_pos = 0
    if snap_steps[0] == 0:
        snaps[0] = W
        snap_pos = 1

    for n in range(n_steps):
        t = n * hyper.dt
        guard_moment(W, n, t, moment_ceiling)
        Z = _draws(plan, domain, SLOT_DIFFUSION, n, ids, width) if sigma_scale > 0 else None
        Z_lang = _draws(plan, domain, SLOT_LANGEVIN, n, ids, p) if eta > 0 else None
        W = euler_step(W, field_cache(W, model, pi), model, pi, hyper.dt,
                       time_weight(t, hyper.alpha), sigma_scale, Z, Z_lang, eta, sigma_override)

        if snap_pos < len(snap_steps) and snap_steps[snap_pos] == n + 1:
            snaps[snap_pos] = W
            snap_pos += 1

    meta = {
        "sigma_scale": sigma_scale,
        "sigma_override": sigma_override,
        "n_steps": n_steps,
        "seed": plan.run_seed,
        "N": N,
    }
    if extra_meta:
        meta.update(extra_meta)
    return Trajectory(
        kind=kind,
        times=snap_steps * hyper.dt,
        ensembles=snaps,
        hyper=hyper,
        meta=meta,
        model=model,
        pi=pi,
    )


# the benchmark's tracer (perfbench/spans.py) looks the engine up by this name
_euler_run = euler_run


def interacting_sde_run(
    model, pi, hyper, N, init, plan, snapshot_times=None, sigma_override=None, **kw
) -> Trajectory:
    """Euler-Maruyama for the N-particle diffusion with factor sqrt(gamma_scale/M)."""
    ids = kw.get("particle_ids")
    ids = np.arange(N) if ids is None else np.asarray(ids, dtype=np.int64)
    W0 = init.draw(plan, DOMAIN_SYSTEM, ids, model.p)
    g = gamma_scale(hyper.alpha, hyper.beta, hyper.gamma, N)
    return euler_run(
        model,
        pi,
        hyper,
        W0,
        plan,
        DOMAIN_SYSTEM,
        sigma_scale=math.sqrt(g / hyper.M),
        kind="interacting-sde",
        snapshot_times=snapshot_times,
        sigma_override=sigma_override,
        extra_meta={"gamma_scale": g},
        **kw,
    )


def meanfield_sigma_scale(hyper: Hyperparams) -> float:
    """Diffusion factor sqrt(gamma^(1/(1-alpha))/M) of the beta = 1 mean-field limit."""
    return math.sqrt(hyper.gamma ** (1.0 / (1.0 - hyper.alpha)) / hyper.M)


def meanfield_ode_run(
    model, pi, hyper, N_ref, init, plan, snapshot_times=None, sigma_override=None, **kw
) -> Trajectory:
    """Limit dynamics for beta < 1: drift only (plus sqrt(2*eta) noise if eta > 0).

    The N_ref-particle ensemble evolves against its own empirical law, which
    is the runtime proxy for the mean-field law.
    """
    if N_ref < 1:
        raise ValueError("N_ref must be >= 1")
    ids = np.arange(N_ref)
    W0 = init.draw(plan, DOMAIN_REFERENCE, ids, model.p)
    return euler_run(
        model,
        pi,
        hyper,
        W0,
        plan,
        DOMAIN_REFERENCE,
        sigma_scale=0.0,
        kind="meanfield-ode",
        snapshot_times=snapshot_times,
        sigma_override=sigma_override,
        **kw,
    )


def meanfield_sde_run(
    model, pi, hyper, N_ref, init, plan, snapshot_times=None, sigma_override=None, **kw
) -> Trajectory:
    """Limit dynamics for beta = 1: diffusion factor sqrt(gamma^(1/(1-alpha))/M)."""
    if N_ref < 1:
        raise ValueError("N_ref must be >= 1")
    ids = np.arange(N_ref)
    W0 = init.draw(plan, DOMAIN_REFERENCE, ids, model.p)
    return euler_run(
        model,
        pi,
        hyper,
        W0,
        plan,
        DOMAIN_REFERENCE,
        sigma_scale=meanfield_sigma_scale(hyper),
        kind="meanfield-sde",
        snapshot_times=snapshot_times,
        sigma_override=sigma_override,
        **kw,
    )


# ----------------------------- weak-form residual -----------------------------


@dataclass(frozen=True)
class TestFunction:
    """Scalar observable with gradient (and Hessian, needed under diffusion)."""

    __test__ = False  # not a pytest class, despite the name

    value: Callable[[np.ndarray], np.ndarray]  # (n, p) -> (n,)
    grad: Callable[[np.ndarray], np.ndarray]  # (n, p) -> (n, p)
    hess: Callable[[np.ndarray], np.ndarray] | None = None  # (n, p) -> (n, p, p)

    @staticmethod
    def linear(a) -> "TestFunction":
        a = np.atleast_1d(np.asarray(a, dtype=np.float64))
        return TestFunction(
            value=lambda W: W @ a,
            grad=lambda W: np.broadcast_to(a, W.shape).copy(),
            hess=lambda W: np.zeros((W.shape[0], a.size, a.size)),
        )

    @staticmethod
    def quadratic() -> "TestFunction":
        return TestFunction(
            value=lambda W: 0.5 * np.sum(W * W, axis=1),
            grad=lambda W: W.copy(),
            hess=lambda W: np.broadcast_to(
                np.eye(W.shape[1]), (W.shape[0], W.shape[1], W.shape[1])
            ).copy(),
        )

    @staticmethod
    def constant(c: float = 1.0) -> "TestFunction":
        return TestFunction(
            value=lambda W: np.full(W.shape[0], c),
            grad=lambda W: np.zeros_like(W),
            hess=lambda W: np.zeros((W.shape[0], W.shape[1], W.shape[1])),
        )


def weak_form_residual(traj: Trajectory, test_fn: TestFunction) -> np.ndarray:
    """Defect of the measure-evolution identity along a mean-field trajectory.

    residual_t = | mean f(W_t) - mean f(W_0)
                  - integral of (s+1)^-alpha mean <h, grad f>
                  - integral of 1/2 (s+1)^-2alpha mean Tr(Cov_eff hess f) |

    where Cov_eff = sigma_scale^2 Sigma(w, law_s) + 2 eta I is the effective
    diffusion covariance the engine actually used (the trace coefficient is
    the Ito-consistent one; see README).  Integrals use the trapezoid rule
    on the trajectory's stored grid, so record every step for sharp checks.
    """
    if traj.kind not in ("meanfield-ode", "meanfield-sde"):
        raise ValueError(f"weak_form_residual needs a mean-field trajectory, got {traj.kind!r}")
    if traj.model is None or traj.pi is None:
        raise ValueError("trajectory lacks model/data context (was it loaded from disk?)")
    model, pi, hyper = traj.model, traj.pi, traj.hyper
    sigma_scale = float(traj.meta.get("sigma_scale", 0.0))
    sigma_override = traj.meta.get("sigma_override")
    eta = hyper.eta
    diffusive = sigma_scale > 0 or eta > 0
    if diffusive and test_fn.hess is None:
        raise ValueError("diffusive trajectory requires a test function with a Hessian")

    n_snap = len(traj.times)
    fbar = np.empty(n_snap)
    integrand = np.empty(n_snap)
    for i in range(n_snap):
        W = traj.ensembles[i]
        t = traj.times[i]
        fbar[i] = float(np.mean(test_fn.value(W)))
        h, _, sigma = mean_field_terms(
            W, W, model, pi, need_sigma=sigma_scale > 0, sigma_override=sigma_override
        )
        drift = float(np.mean(np.sum(h * test_fn.grad(W), axis=1)))
        term = time_weight(float(t), hyper.alpha) * drift
        if diffusive:
            H = test_fn.hess(W)
            if sigma_scale > 0:
                cov = sigma_scale**2 * sigma
            else:
                cov = np.zeros((W.shape[0], W.shape[1], W.shape[1]))
            if eta > 0:
                cov = cov + 2.0 * eta * np.eye(W.shape[1])
            trace = float(np.mean(np.einsum("npq,nqp->n", cov, H)))
            term += 0.5 * time_weight(float(t), hyper.alpha) ** 2 * trace
        integrand[i] = term

    cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(traj.times))]
    )
    return np.abs(fbar - fbar[0] - cum)


# ----------------------------- SGD vs SDE diagnostic -----------------------------


def sgd_sde_gap(
    model: ModelSpec,
    pi: DataDistribution,
    hyper: Hyperparams,
    N: int,
    plan: NoisePlan,
    init: InitSpec | None = None,
) -> float:
    """In-law endpoint gap between the discrete recursion and its diffusion.

    Both engines run with independent noise streams; the returned value is
    the Wasserstein-2 distance between the two endpoint empirical measures
    (a distributional diagnostic, not a pathwise coupling).
    """
    from .metrics import w2_ensembles

    init = init or InitSpec.uniform()
    t_sgd = _discrete_run(
        model, pi, hyper, N, init, plan.child("gap-sgd"), langevin=hyper.eta > 0,
        snapshot_times=[hyper.T],
    )
    t_sde = interacting_sde_run(
        model, pi, hyper, N, init, plan.child("gap-sde"), snapshot_times=[hyper.T]
    )
    return w2_ensembles(t_sgd.endpoint(), t_sde.endpoint(), seed=plan.run_seed)
