"""Time-evolution engines.

Engines
-------
- ``sgd_run`` / ``msgld_run``: the discrete recursions on iteration index n,
  with stepsize gamma * N^(beta-1) * (n + 1/gamma_scale)^(-alpha) per
  particle (``stepsize_schedule / N``) and minibatches drawn from the data
  distribution.
- ``interacting_sde_run``: explicit Euler-Maruyama for the N-particle
  diffusion whose drift/noise are evaluated against the ensemble's own
  empirical law, with diffusion factor sqrt(gamma_scale(N)/M).
- ``meanfield_ode_run`` / ``meanfield_sde_run``: the limiting dynamics,
  evolved as a self-consistent ensemble whose empirical law stands in for
  the intractable mean-field law.

Every engine, and the synchronous-coupling harness in ``experiments``,
advances its particles with ``euler_step``: one ``RidgeBlock`` of the
particles per step, and the driving law as its FieldCache or residual
columns.  For the discrete recursions that law is the minibatch's, c_j / M
for atom counts c_j, and the step has length stepsize and no diffusion
term.  The horizon T of the Euler-Maruyama engines must be a whole number
of Euler steps dt.  The noise model, and so the diffusion increment and
its width, is the ``ModelSpec``'s (``meanfield.drift_and_noise``); the
discrete recursions have no diffusion term and refuse a model that pins
one.  Every draw of an N-particle ensemble is the first N rows of its
(domain, slot, step) block.

Iteration n of the discrete recursions is stamped with time
n * gamma_scale(N); all engines share the counter-based NoisePlan, so runs
are bitwise reproducible at any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .meanfield import (
    RidgeBlock,
    drift_and_noise,
    field_cache,
    mean_field_terms,
    noise_width,
    ridge_block,
)
from .model import (
    DataDistribution,
    Hyperparams,
    ModelSpec,
    gamma_scale,
    stepsize_schedule,
    time_weight,
)
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
    "euler_step",
    "euler_run",
    "guard_moment",
    "guard_segments",
    "weak_form_residual",
    "sgd_sde_endpoints",
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
        # rebuilt from its fields, with its notes, when a pool worker sends it back
        return type(self), (self.step, self.t, self.value, self.ceiling), self.__dict__


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

    def draw(self, plan: NoisePlan, domain: int, n: int, p: int) -> np.ndarray:
        """n particles (n, p), from the first n rows of the domain's init block."""
        if self.kind == "dirac":
            w0 = np.asarray(self.w0, dtype=np.float64).reshape(-1)
            if w0.shape[0] != p:
                raise ValueError(f"dirac init has dimension {w0.shape[0]}, expected {p}")
            return np.tile(w0, (n, 1))
        if self.kind == "uniform":
            u = plan.uniforms(domain, SLOT_INIT, 0, n * p).reshape(n, p)
            return self.low + (self.high - self.low) * u
        if self.kind == "gaussian":
            z = plan.normals(domain, SLOT_INIT, 0, n, p)
            return self.mean + self.std * z
        if self.kind == "samples":
            s = np.asarray(self.samples, dtype=np.float64)
            if s.ndim == 1:
                s = s[:, None]
            if s.shape[1] != p:
                raise ValueError(f"sample init has {s.shape[1]} columns, the model has p={p}")
            u = plan.uniforms(domain, SLOT_INIT, 0, n)
            idx = np.minimum((u * s.shape[0]).astype(np.int64), s.shape[0] - 1)
            return s[idx]
        raise ValueError(f"unknown init kind {self.kind!r}")


# ----------------------------- trajectories -----------------------------


@dataclass
class Trajectory:
    """Snapshots of an ensemble along a time grid starting at 0.

    ``law_path`` (n_steps, D), set by ``euler_run``, holds the residual
    column the ensemble's own law gave each step; it is not saved to disk.
    """

    kind: str
    times: np.ndarray  # (n_snap,)
    ensembles: np.ndarray  # (n_snap, N, p)
    hyper: Hyperparams
    meta: dict = field(default_factory=dict)
    model: ModelSpec | None = None
    pi: DataDistribution | None = None
    law_path: np.ndarray | None = None

    @property
    def n_particles(self) -> int:
        return self.ensembles.shape[1]

    @property
    def p(self) -> int:
        return self.ensembles.shape[2]

    def endpoint(self) -> np.ndarray:
        return self.ensembles[-1]


def _snapshot_steps(n_steps: int, step_time: float, snapshot_times, horizon: float) -> np.ndarray:
    """Map requested snapshot times in [0, horizon] onto step indices (0 and n_steps always kept)."""
    if isinstance(snapshot_times, str) and snapshot_times == "all":
        return np.arange(n_steps + 1)
    if snapshot_times is None:
        if n_steps <= DEFAULT_SNAPSHOTS:
            return np.arange(n_steps + 1)
        ts = np.linspace(0.0, n_steps * step_time, DEFAULT_SNAPSHOTS + 1)
    else:
        ts = np.asarray(snapshot_times, dtype=np.float64)
        if not np.all((ts >= 0.0) & (ts <= horizon)):
            raise ValueError(f"snapshot_times must lie in [0, T={horizon:g}], got {ts.tolist()}")
    idx = np.rint(ts / step_time).astype(np.int64)
    idx = np.sort(np.concatenate([np.clip(idx, 0, n_steps), [0, n_steps]]))
    return idx[np.concatenate(([True], idx[1:] != idx[:-1]))]  # np.unique would import numpy.ma


def guard_moment(W: np.ndarray, step: int, t: float, ceiling: float = DEFAULT_MOMENT_CEILING):
    """Raise ``EnsembleDiverged`` unless the ensemble second moment is finite and <= ceiling."""
    v = W.ravel()
    # vdot is the same BLAS dot as v @ v, but an overflow there raises no
    # floating-point warning: it reads inf, and is reported as a divergence
    m2 = float(np.vdot(v, v)) / W.shape[0]
    if not m2 <= ceiling:  # also catches NaN and inf
        raise EnsembleDiverged(step, t, m2, ceiling)


# a segment's one-pass moment and its exact v @ v / n differ by at most about
# 2 n eps relative for n values, far inside this margin below 10^9 values
_GUARD_MARGIN = 1e-6


def guard_segments(W: np.ndarray, sizes, step: int, t: float,
                   ceiling: float = DEFAULT_MOMENT_CEILING, names=None):
    """``guard_moment`` on each consecutive segment of W of the given sizes, in order.

    One vectorised pass sums every segment; a segment near or past the
    ceiling, or not finite, is checked by ``guard_moment`` itself, so the
    first segment that raises, and its ``value``, are those of
    ``guard_moment``.  With ``names``, one per segment, a segment named None
    is not guarded, and the raised ``EnsembleDiverged`` notes its segment.
    """
    sizes = np.asarray(sizes, dtype=np.int64).ravel()
    if len(sizes) == 1 and names is None:  # one segment: the exact check costs less
        return guard_moment(W, step, t, ceiling)
    edges = np.concatenate(([0], np.cumsum(sizes)))
    with np.errstate(over="ignore"):  # an overflow reads inf, so guard_moment reports it
        m2 = np.add.reduceat(np.square(W), edges[:-1]).sum(axis=1) / sizes
    for i in np.flatnonzero(~(m2 <= ceiling * (1.0 - _GUARD_MARGIN))):
        if names is not None and names[i] is None:
            continue
        try:
            guard_moment(W[edges[i]:edges[i + 1]], step, t, ceiling)
        except EnsembleDiverged as exc:
            if names is not None:
                exc.add_note(f"in {names[i]}")
            raise


class _Snapshots:
    """The ensembles (n_snap, N, p) of a run at the steps ``_snapshot_steps`` picks."""

    def __init__(self, n_steps: int, step_time: float, snapshot_times, horizon: float, W0):
        self.steps = _snapshot_steps(n_steps, step_time, snapshot_times, horizon)
        self.times = self.steps * step_time
        self.ensembles = np.empty((len(self.steps), *W0.shape))
        self.ensembles[0] = W0  # step 0 is always kept
        self._pos = 1

    def record(self, n: int, W: np.ndarray):
        """Keep W, the ensemble after step n, if n is a snapshot step."""
        if self._pos < len(self.steps) and self.steps[self._pos] == n:
            self.ensembles[self._pos] = W
            self._pos += 1


# ----------------------------- discrete recursions -----------------------------


def _discrete_run(
    model: ModelSpec,
    pi: DataDistribution,
    hyper: Hyperparams,
    N: int,
    init: InitSpec,
    plan,
    langevin: bool,
    snapshot_times=None,
    moment_ceiling: float = DEFAULT_MOMENT_CEILING,
) -> Trajectory:
    """The recursion for k independent systems of N particles, one per plan of
    ``plan`` (a NoisePlan is k = 1), stacked in plan order in one block.

    System s draws its start, minibatches and Langevin noise on its own plan,
    is driven by its own minibatch's law, and has its own moment guard, the
    final state included; at p = 1 its rows equal, bit for bit, those of its
    lone run.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if model.sigma_override is not None:
        raise ValueError("the discrete recursions have no diffusion term for the model's "
                         f"sigma_override={model.sigma_override} to pin")
    plans = (plan,) if isinstance(plan, NoisePlan) else tuple(plan)
    k, D = len(plans), len(pi)
    g = gamma_scale(hyper.alpha, hyper.beta, hyper.gamma, N)
    n_T = hyper.sgd_steps(N)
    W = np.concatenate([init.draw(pl, DOMAIN_SYSTEM, N, model.p) for pl in plans])
    sizes = np.full((k, 1), N)  # system s is segment s
    cum_w = np.cumsum(pi.weights)
    # a u at or past a rounded-down cum_w[-1] goes to the last atom of positive weight
    last = int(np.flatnonzero(pi.weights)[-1])
    eta = hyper.eta if langevin else 0.0
    # a minibatch with atom counts c_j is the law c_j / M: as residual columns
    # over pi, d1l_j c_j / (M pi_j), and 0 at atoms of weight 0
    per_count = np.zeros((D, 1))
    np.divide(1.0, hyper.M * pi.weights[:, None], out=per_count, where=pi.weights[:, None] > 0)
    # system s's atom counts sit at s * D + j in one bincount
    offsets = D * np.arange(k)[:, None]

    snaps = _Snapshots(n_T, g, snapshot_times, hyper.T, W)
    for n in range(n_T):
        guard_segments(W, sizes, n, n * g, moment_ceiling)
        u = np.stack([pl.uniforms(DOMAIN_SYSTEM, SLOT_DATA, n, hyper.M) for pl in plans])
        batch = np.minimum(np.searchsorted(cum_w, u, side="right"), last) + offsets
        counts = np.bincount(batch.ravel(), minlength=k * D).reshape(k, D).T
        block = ridge_block(W, model, pi)
        # one law is the (D,) case
        resid = (field_cache(block, model, pi, sizes if k > 1 else None).residual_d1.reshape(D, k)
                 * (counts * per_count))
        Z_lang = np.concatenate([pl.normals(DOMAIN_SYSTEM, SLOT_LANGEVIN, n, N, model.p)
                                 for pl in plans]) if eta > 0 else None
        W = euler_step(block, np.repeat(resid, N, axis=1) if k > 1 else resid, model, pi,
                       stepsize_schedule(hyper, N, n) / N, 1.0, 0.0, None, Z_lang, eta)
        snaps.record(n + 1, W)
    guard_segments(W, sizes, n_T, n_T * g, moment_ceiling)

    seed = plans[0].run_seed if k == 1 else [pl.run_seed for pl in plans]
    meta = {"gamma_scale": g, "n_steps": n_T, "seed": seed, "N": N}
    return Trajectory("msgld" if langevin else "sgd", snaps.times, snaps.ensembles, hyper, meta,
                      model, pi)


def sgd_run(model, pi, hyper, N, init, plan, **kw) -> Trajectory:
    """Minibatch SGD on the structural risk; iteration n lives at time n*gamma_scale.

    Each iteration is one ``euler_step`` of length ``stepsize_schedule / N``
    under the minibatch's law, with no diffusion term.  ``plan`` may be a
    sequence of plans: then it runs that many independent systems of N
    particles in one block, system s in rows s * N to (s + 1) * N.
    """
    return _discrete_run(model, pi, hyper, N, init, plan, langevin=False, **kw)


def msgld_run(model, pi, hyper, N, init, plan, **kw) -> Trajectory:
    """SGD plus additive Gaussian noise of temperature eta (eta=0 reduces to SGD)."""
    return _discrete_run(model, pi, hyper, N, init, plan, langevin=True, **kw)


# ----------------------------- Euler-Maruyama engines -----------------------------


def euler_step(
    block: RidgeBlock,
    law,
    model: ModelSpec,
    pi: DataDistribution,
    dt: float,
    tw: float,
    scale,
    Z: np.ndarray | None,
    Z_lang: np.ndarray | None,
    eta: float,
) -> np.ndarray:
    """One Euler-Maruyama step of the particles W = block.W under ``law``.

    Returns W + tw (h dt + sqrt(dt) scale R^T Z + sqrt(dt) sqrt(2 eta) Z_lang),
    with h and scale R^T Z from ``meanfield.drift_and_noise``, Z
    (n, noise_width) and Z_lang (n, p).  ``law`` is a FieldCache or residual
    columns broadcastable to (D, n), and ``scale`` a float or a per-particle
    column (n, 1).  A step without a diffusion term passes Z None, and the
    Langevin term is skipped when eta is 0; Z_lang may then be None.
    """
    h, noise = drift_and_noise(block, law, model, pi, scale, Z)
    incr = h * dt
    if noise is not None:
        incr += math.sqrt(dt) * noise
    if eta > 0:
        incr += math.sqrt(dt) * math.sqrt(2.0 * eta) * Z_lang
    return block.W + tw * incr


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
    moment_ceiling: float = DEFAULT_MOMENT_CEILING,
) -> Trajectory:
    """Euler-Maruyama from W0 for an ensemble driven by its own empirical law.

    Each step is one ``euler_step`` with noise scale sigma_scale and the
    time weight (t+1)^-alpha, on one activation block of the ensemble,
    drawing the first N rows of the domain's diffusion (when
    sigma_scale > 0) and Langevin (when eta > 0) blocks.  The law each step
    read is kept as the trajectory's ``law_path``.  The ensemble's second
    moment is guarded before each step and after the last.
    """
    n_steps = hyper.euler_steps()
    W = np.array(W0, dtype=np.float64)
    N, p = W.shape
    eta = hyper.eta
    width = noise_width(model, pi)
    law_path = np.empty((n_steps, len(pi)))

    snaps = _Snapshots(n_steps, hyper.dt, snapshot_times, hyper.T, W)
    for n in range(n_steps):
        t = n * hyper.dt
        guard_moment(W, n, t, moment_ceiling)
        Z = plan.normals(domain, SLOT_DIFFUSION, n, N, width) if sigma_scale > 0 else None
        Z_lang = plan.normals(domain, SLOT_LANGEVIN, n, N, p) if eta > 0 else None
        block = ridge_block(W, model, pi)
        cache = field_cache(block, model, pi)
        law_path[n] = cache.residual_d1
        W = euler_step(block, cache, model, pi, hyper.dt, time_weight(t, hyper.alpha),
                       sigma_scale, Z, Z_lang, eta)
        snaps.record(n + 1, W)
    guard_moment(W, n_steps, n_steps * hyper.dt, moment_ceiling)

    meta = {"sigma_scale": sigma_scale, "sigma_override": model.sigma_override,
            "n_steps": n_steps, "seed": plan.run_seed, "N": N}
    return Trajectory(kind, snaps.times, snaps.ensembles, hyper, meta, model, pi, law_path)


# the benchmark's tracer (perfbench/spans.py) looks the engine up by this name
_euler_run = euler_run


def _drawn_run(model, pi, hyper, N, init, plan, domain, sigma_scale, kind, **kw) -> Trajectory:
    """``euler_run`` from N particles of ``init``, drawn on the domain."""
    if N < 1:
        raise ValueError(f"the ensemble needs N >= 1 particles, got {N}")
    W0 = init.draw(plan, domain, N, model.p)
    return euler_run(model, pi, hyper, W0, plan, domain, sigma_scale, kind, **kw)


def interacting_sde_run(model, pi, hyper, N, init, plan, snapshot_times=None, **kw) -> Trajectory:
    """Euler-Maruyama for the N-particle diffusion with factor sqrt(gamma_scale/M)."""
    g = gamma_scale(hyper.alpha, hyper.beta, hyper.gamma, N)
    traj = _drawn_run(model, pi, hyper, N, init, plan, DOMAIN_SYSTEM, math.sqrt(g / hyper.M),
                      "interacting-sde", snapshot_times=snapshot_times, **kw)
    traj.meta["gamma_scale"] = g
    return traj


def meanfield_sigma_scale(hyper: Hyperparams) -> float:
    """Diffusion factor sqrt(gamma^(1/(1-alpha))/M) of the beta = 1 mean-field limit."""
    return math.sqrt(hyper.gamma ** (1.0 / (1.0 - hyper.alpha)) / hyper.M)


def meanfield_ode_run(model, pi, hyper, N_ref, init, plan, snapshot_times=None, **kw) -> Trajectory:
    """Limit dynamics for beta < 1: drift only (plus sqrt(2*eta) noise if eta > 0).

    The N_ref-particle ensemble evolves against its own empirical law, which
    is the runtime proxy for the mean-field law.
    """
    return _drawn_run(model, pi, hyper, N_ref, init, plan, DOMAIN_REFERENCE, 0.0,
                      "meanfield-ode", snapshot_times=snapshot_times, **kw)


def meanfield_sde_run(model, pi, hyper, N_ref, init, plan, snapshot_times=None, **kw) -> Trajectory:
    """Limit dynamics for beta = 1: diffusion factor sqrt(gamma^(1/(1-alpha))/M)."""
    return _drawn_run(model, pi, hyper, N_ref, init, plan, DOMAIN_REFERENCE,
                      meanfield_sigma_scale(hyper), "meanfield-sde", snapshot_times=snapshot_times,
                      **kw)


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
    diffusion covariance the engine actually used, under the noise model of
    ``traj.model`` (the trace coefficient is
    the Ito-consistent one; see README).  Integrals use the trapezoid rule
    on the trajectory's stored grid, so record every step for sharp checks.
    """
    if traj.kind not in ("meanfield-ode", "meanfield-sde"):
        raise ValueError(f"weak_form_residual needs a mean-field trajectory, got {traj.kind!r}")
    if traj.model is None or traj.pi is None:
        raise ValueError("trajectory lacks model/data context (was it loaded from disk?)")
    model, pi, hyper = traj.model, traj.pi, traj.hyper
    sigma_scale = float(traj.meta.get("sigma_scale", 0.0))
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
        h, _, sigma = mean_field_terms(W, field_cache(W, model, pi), model, pi,
                                       need_sigma=sigma_scale > 0)
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


def sgd_sde_endpoints(model: ModelSpec, pi: DataDistribution, hyper: Hyperparams, N: int,
                      init: InitSpec, plan: NoisePlan) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint ensembles at T of the discrete recursion and of its diffusion.

    The recursion is MSGLD when eta > 0 (plain SGD otherwise), so both
    engines carry the same Langevin temperature.  They run on the plan's
    independent children "sgd" and "sde".
    """
    run = msgld_run if hyper.eta > 0 else sgd_run
    t_sgd = run(model, pi, hyper, N, init, plan.child("sgd"), snapshot_times=[hyper.T])
    t_sde = interacting_sde_run(model, pi, hyper, N, init, plan.child("sde"),
                                snapshot_times=[hyper.T])
    return t_sgd.endpoint(), t_sde.endpoint()


def sgd_sde_gap(
    model: ModelSpec,
    pi: DataDistribution,
    hyper: Hyperparams,
    N: int,
    plan: NoisePlan,
    init: InitSpec | None = None,
) -> float:
    """In-law endpoint gap between the discrete recursion and its diffusion.

    The Wasserstein-2 distance between the two endpoint empirical measures
    of ``sgd_sde_endpoints`` (a distributional diagnostic, not a pathwise
    coupling).
    """
    from .metrics import w2_ensembles

    sgd, sde = sgd_sde_endpoints(model, pi, hyper, N, init or InitSpec.uniform(), plan)
    return w2_ensembles(sgd, sde, seed=plan.run_seed)
