"""Learning-problem definitions and the stepsize algebra.

A learning problem is the tuple (feature map F, loss l, penalty V, data
distribution pi, envelopes Phi/Psi).  The data distribution is restricted to
finite support so every integral against pi is an exact finite sum; all
downstream kernels rely on this.

This module also owns the stepsize algebra shared by every dynamics engine:
``gamma_scale`` (the effective discretization step of the particle system),
``stepsize_schedule`` (the per-iteration stepsize of the discrete recursion)
and ``time_weight`` (the continuous-time decay factor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ConfigError",
    "require",
    "DataAtom",
    "DataDistribution",
    "Hyperparams",
    "ModelSpec",
    "AssumptionReport",
    "AssumptionViolation",
    "gamma_scale",
    "stepsize_schedule",
    "time_weight",
    "check_assumptions",
    "make_model",
    "two_point_distribution",
    "FEATURES",
    "LOSSES",
    "RidgeFeature",
    "TanhDotFeature",
    "ZeroFeature",
    "LinearDotFeature",
    "SquareLoss",
    "LogisticLoss",
    "QuadraticPenalty",
]

_WEIGHT_TOL = 1e-12

# sup_z |tanh''(z)| and sup_z |tanh'''(z)|, used by the tanh envelope.
_TANH_D2_MAX = 4.0 / (3.0 * math.sqrt(3.0))
_TANH_D3_MAX = 2.0
# sup_s |s(1-s)(1-2s)| for the logistic sigmoid, attained at s = 1/2 ∓ 1/(2*sqrt(3)).
_LOGISTIC_D3_MAX = 1.0 / (6.0 * math.sqrt(3.0))


# ----------------------------- data distribution -----------------------------


@dataclass(frozen=True)
class DataAtom:
    """One weighted sample (x, y) of a finite-support data distribution."""

    x: np.ndarray
    y: float
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64).reshape(-1))
        if not np.all(np.isfinite(self.x)):
            raise ValueError(f"atom x must be finite, got {self.x}")
        if not math.isfinite(self.y):
            raise ValueError(f"atom y must be finite, got {self.y}")
        if not math.isfinite(self.weight) or self.weight < 0:
            raise ValueError(f"atom weight must be finite and >= 0, got {self.weight}")


@dataclass(frozen=True)
class DataDistribution:
    """Finite-support distribution on feature/label pairs.

    Weights are normalized to sum to one at construction.  ``xs``, ``ys``
    and ``weights`` expose the atoms as arrays for vectorized kernels.
    """

    atoms: tuple[DataAtom, ...]
    d: int = field(init=False)
    xs: np.ndarray = field(init=False, repr=False)
    ys: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    x_max: float = field(init=False)

    def __init__(self, atoms: Sequence[DataAtom]):
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("a data distribution needs at least one atom")
        d = atoms[0].x.shape[0]
        for a in atoms:
            if a.x.shape[0] != d:
                raise ValueError("all atoms must share the feature dimension")
        total = float(sum(a.weight for a in atoms))
        if total <= 0:
            raise ValueError("atom weights must have positive total mass")
        if abs(total - 1.0) > _WEIGHT_TOL:
            atoms = tuple(DataAtom(a.x, a.y, a.weight / total) for a in atoms)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "xs", np.stack([a.x for a in atoms]))
        object.__setattr__(self, "ys", np.array([a.y for a in atoms], dtype=np.float64))
        object.__setattr__(self, "weights", np.array([a.weight for a in atoms], dtype=np.float64))
        object.__setattr__(self, "x_max", float(np.max(np.linalg.norm(self.xs, axis=1))))

    def __len__(self) -> int:
        return len(self.atoms)


def two_point_distribution(x0, y0, x1, y1, w0=0.5) -> DataDistribution:
    """Convenience builder for the ubiquitous two-atom case."""
    return DataDistribution(
        [DataAtom(np.atleast_1d(x0), y0, w0), DataAtom(np.atleast_1d(x1), y1, 1.0 - w0)]
    )


# ----------------------------- config checks -----------------------------


class ConfigError(ValueError):
    """Invalid run configuration; carries the offending field when known."""

    def __init__(self, message: str, field_name: str | None = None):
        super().__init__(message)
        self.field_name = field_name


def require(ok: bool, field_name: str, rule: str, value) -> None:
    """Unless ``ok``, a ConfigError "<field_name> must <rule>, got <value>" naming the field."""
    if not ok:
        raise ConfigError(f"{field_name} must {rule}, got {value}", field_name)


# ----------------------------- hyperparameters -----------------------------


@dataclass(frozen=True)
class Hyperparams:
    """Knobs of a dynamics run.

    alpha: decay exponent of the stepsize sequence, in [0, 1).
    beta:  neuron-count exponent of the stepsize, in [0, 1].
    gamma: base stepsize, > 0.
    M:     batch size, >= 1.
    eta:   Langevin temperature, >= 0 (0 recovers plain SGD).
    T:     time horizon, >= 0.
    dt:    Euler step of the continuous-time engines, > 0; they need T to be
           a whole number of steps (``euler_steps``).
    """

    alpha: float = 0.0
    beta: float = 1.0
    gamma: float = 1.0
    M: int = 1
    eta: float = 0.0
    T: float = 1.0
    dt: float = 1e-2

    def __post_init__(self):
        require(0.0 <= self.alpha < 1.0, "alpha", "lie in [0, 1)", self.alpha)
        require(0.0 <= self.beta <= 1.0, "beta", "lie in [0, 1]", self.beta)
        require(self.gamma > 0, "gamma", "be > 0", self.gamma)
        require(self.M >= 1, "M", "be >= 1", self.M)
        require(self.eta >= 0, "eta", "be >= 0", self.eta)
        require(self.T >= 0, "T", "be >= 0", self.T)
        require(self.dt > 0, "dt", "be > 0", self.dt)

    def euler_steps(self) -> int:
        """Number of Euler steps dt in the horizon T; a ConfigError unless it is a whole
        number that an array can hold."""
        steps, most = self.T / self.dt, np.iinfo(np.intp).max
        if not steps <= most:  # T / dt may overflow to inf
            raise ConfigError(f"dt={self.dt} makes T/dt = {steps:.6g} Euler steps in the horizon "
                              f"T={self.T}, more than the {most} an array can hold", "hyper.dt")
        n = round(steps)
        if abs(n * self.dt - self.T) > 1e-9 * max(self.T, self.dt):
            raise ConfigError(f"horizon T={self.T} is not a whole number of Euler steps "
                              f"dt={self.dt} (T/dt = {steps:.6g})", "hyper.T")
        return n

    def sgd_steps(self, N: int) -> int:
        """Iterations floor(T / gamma_scale(N)); a ConfigError if none or too many for an array."""
        g = gamma_scale(self.alpha, self.beta, self.gamma, N)
        # g underflows to 0 below the smallest float, and T / g overflows to inf above it
        steps, most = self.T / g if g > 0 else math.inf, np.iinfo(np.intp).max
        if not steps <= most:
            raise ConfigError(f"gamma={self.gamma} makes T/gamma_scale = {steps:.6g} SGD steps "
                              f"at N={N} in the horizon T={self.T}, more than the {most} an "
                              "array can hold", "hyper.gamma")
        n = int(math.floor(steps + 1e-12))
        if n == 0:
            raise ConfigError(f"horizon T={self.T} is shorter than one SGD step "
                              f"gamma_scale={g:.6g}; nothing to run", "hyper.T")
        return n

    def replace(self, **kw) -> "Hyperparams":
        from dataclasses import replace

        return replace(self, **kw)


# ----------------------------- stepsize algebra -----------------------------


def gamma_scale(alpha: float, beta: float, gamma: float, N: int) -> float:
    """Effective discretization step gamma^(1/(1-alpha)) * N^((beta-1)/(1-alpha))."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return float(gamma ** (1.0 / (1.0 - alpha)) * float(N) ** ((beta - 1.0) / (1.0 - alpha)))


def stepsize_schedule(hyper: Hyperparams, N: int, n: int) -> float:
    """Stepsize gamma * N^beta * (n + gamma_scale^-1)^-alpha of iteration n."""
    if n < 0:
        raise ValueError(f"iteration index must be >= 0, got {n}")
    g = gamma_scale(hyper.alpha, hyper.beta, hyper.gamma, N)
    return float(hyper.gamma * float(N) ** hyper.beta * (n + 1.0 / g) ** (-hyper.alpha))


def time_weight(t: float, alpha: float) -> float:
    """Continuous-time decay factor (t + 1)^-alpha."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    return float((t + 1.0) ** (-alpha))


# ----------------------------- feature maps -----------------------------


class RidgeFeature:
    """A ridge feature F(w, x) = f(<w, x>), given by ``activation``: z -> (f(z), f'(z)).

    The population kernels evaluate ``activation`` once per step on the
    atom-major pre-activations X @ W.T, a (D, n) block; ``value`` (n, D)
    and ``grad`` (n, D, p) are the particle-major views the audit and the
    single-atom kernels use.
    """

    def activation(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def derivative_norms(self, w: np.ndarray, x: np.ndarray) -> tuple[float, float, float, float]:
        """Closed-form ||F||, ||D1F||, ||D2F||, ||D3F|| at (w, x), the norms in w
        that the hypothesis audit sums against Phi(x)."""
        raise NotImplementedError

    def value(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        return self.activation(W @ X.T)[0]

    def grad(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        return self.activation(W @ X.T)[1][:, :, None] * X[None, :, :]


class TanhDotFeature(RidgeFeature):
    """F(w, x) = tanh(<w, x>); requires p == d."""

    name = "tanh-dot"

    def activation(self, z):
        t = np.tanh(z)
        return t, 1.0 - t**2

    def derivative_norms(self, w: np.ndarray, x: np.ndarray) -> tuple[float, float, float, float]:
        z = float(w @ x)
        t = math.tanh(z)
        s = 1.0 - t * t
        xn = float(np.linalg.norm(x))
        d2 = abs(-2.0 * t * s)
        d3 = abs(-2.0 * s * (s - 2.0 * t * t))
        return abs(t), s * xn, d2 * xn * xn, d3 * xn * xn * xn

    def envelope(self, x: np.ndarray) -> float:
        xn = float(np.linalg.norm(x))
        return 1.0 + xn + _TANH_D2_MAX * xn * xn + _TANH_D3_MAX * xn * xn * xn


class ZeroFeature(RidgeFeature):
    """F identically zero; the pure-penalty / pure-noise test bed."""

    name = "zero"

    def activation(self, z):
        return np.zeros_like(z), np.zeros_like(z)

    def derivative_norms(self, w, x):
        return 0.0, 0.0, 0.0, 0.0

    def envelope(self, x: np.ndarray) -> float:
        return 1.0


class LinearDotFeature(RidgeFeature):
    """F(w, x) = <w, x>.  Unbounded in w: violates the envelope bound by design."""

    name = "linear-dot"

    def activation(self, z):
        return z, np.ones_like(z)

    def derivative_norms(self, w, x):
        W1, X1 = w[None, :], x[None, :]
        return (abs(float(self.value(W1, X1)[0, 0])),
                float(np.linalg.norm(self.grad(W1, X1)[0, 0])), 0.0, 0.0)

    def envelope(self, x: np.ndarray) -> float:
        return 1.0


# ----------------------------- losses -----------------------------


class SquareLoss:
    """l(yhat, y) = (yhat - y)^2 / 2."""

    name = "square"

    def value(self, yhat, y):
        return 0.5 * (np.asarray(yhat) - np.asarray(y)) ** 2

    def d1(self, yhat, y):
        return np.asarray(yhat) - np.asarray(y)

    def d2(self, yhat, y):
        return np.ones_like(np.asarray(yhat, dtype=np.float64))

    def d3(self, yhat, y):
        return np.zeros_like(np.asarray(yhat, dtype=np.float64))

    def envelope(self, y: float) -> float:
        return max(1.0, abs(float(y)))


class LogisticLoss:
    """l(yhat, y) = log(1 + exp(-y * yhat)); binary labels."""

    name = "logistic"

    def value(self, yhat, y):
        z = -np.asarray(y) * np.asarray(yhat)
        return np.logaddexp(0.0, z)

    def _sig(self, yhat, y):
        # sigma(-y*yhat) = exp(-log(1 + exp(y*yhat))); logaddexp never overflows
        z = np.asarray(y) * np.asarray(yhat)
        return np.exp(-np.logaddexp(0.0, z))

    def d1(self, yhat, y):
        return -np.asarray(y) * self._sig(yhat, y)

    def d2(self, yhat, y):
        s = self._sig(yhat, y)
        return np.asarray(y) ** 2 * s * (1.0 - s)

    def d3(self, yhat, y):
        s = self._sig(yhat, y)
        return -np.asarray(y) ** 3 * s * (1.0 - s) * (1.0 - 2.0 * s)

    def envelope(self, y: float) -> float:
        ay = abs(float(y))
        return max(1.0, 0.5 * ay, 0.25 * ay * ay + _LOGISTIC_D3_MAX * ay**3)


# ----------------------------- penalties -----------------------------


class QuadraticPenalty:
    """V(w) = lam * ||w||^2 / 2."""

    name = "quadratic"

    def __init__(self, lam: float):
        if lam < 0:
            raise ValueError("penalty strength must be >= 0")
        self.lam = float(lam)

    def value(self, W: np.ndarray) -> np.ndarray:
        return 0.5 * self.lam * np.sum(W * W, axis=1)

    def grad(self, W: np.ndarray) -> np.ndarray:
        return self.lam * W


FEATURES = {"tanh-dot": TanhDotFeature, "zero": ZeroFeature, "linear-dot": LinearDotFeature}
LOSSES = {"square": SquareLoss, "logistic": LogisticLoss}


# ----------------------------- model spec -----------------------------


@dataclass(frozen=True)
class ModelSpec:
    """One learning problem: feature map, loss, penalty and their envelopes.

    Immutable after construction and safe to share across workers.  ``phi``
    and ``psi`` are the per-sample envelope functions; builtins ship closed
    forms, custom models may pass anything >= 1.  The population kernels
    and engines need a ridge feature's ``activation``; the hypothesis audit
    needs its ``value`` and its closed-form ``derivative_norms``.

    ``sigma_override`` is the noise model: None takes the gradient-noise
    covariance Sigma(w, mu) of the problem, a number s >= 0 pins it to s I
    for every kernel and diffusion engine.
    """

    feature: object
    loss: object
    penalty: object
    p: int
    phi: Callable[[np.ndarray], float] = None  # type: ignore[assignment]
    psi: Callable[[float], float] = None  # type: ignore[assignment]
    sigma_override: float | None = None

    def __post_init__(self):
        require(self.p >= 1, "p", "be >= 1", self.p)
        s = self.sigma_override
        require(s is None or math.isfinite(s) and s >= 0, "sigma_override", "be finite and >= 0", s)
        if self.phi is None:
            object.__setattr__(self, "phi", self.feature.envelope)
        if self.psi is None:
            object.__setattr__(self, "psi", self.loss.envelope)

    def phis(self, pi: DataDistribution) -> np.ndarray:
        return np.array([self.phi(x) for x in pi.xs])

    def psis(self, pi: DataDistribution) -> np.ndarray:
        return np.array([self.psi(y) for y in pi.ys])


def make_model(
    feature: str = "tanh-dot",
    loss: str = "square",
    penalty: float = 0.0,
    p: int = 1,
) -> ModelSpec:
    """Build a ModelSpec from the builtin registry.

    ``penalty`` is the quadratic strength lam >= 0.
    """
    require(penalty >= 0, "penalty", "be >= 0", penalty)
    if feature not in FEATURES:
        raise KeyError(f"unknown feature {feature!r}; choose from {sorted(FEATURES)}")
    if loss not in LOSSES:
        raise KeyError(f"unknown loss {loss!r}; choose from {sorted(LOSSES)}")
    return ModelSpec(feature=FEATURES[feature](), loss=LOSSES[loss](),
                     penalty=QuadraticPenalty(penalty), p=p)


# ----------------------------- hypothesis audit -----------------------------


@dataclass(frozen=True)
class AssumptionViolation:
    condition: str
    atom_index: int | None
    probe_index: int | None
    lhs: float
    rhs: float

    def __str__(self):
        where = f"atom={self.atom_index} probe={self.probe_index}"
        return f"{self.condition} violated ({where}): {self.lhs:.6g} > {self.rhs:.6g}"


@dataclass(frozen=True)
class AssumptionReport:
    violations: tuple[AssumptionViolation, ...]
    moment_value: float
    n_checks: int

    @property
    def ok(self) -> bool:
        return not self.violations


def check_assumptions(
    model: ModelSpec,
    pi: DataDistribution,
    probe_ws: Sequence[np.ndarray],
) -> AssumptionReport:
    """Audit the regularity hypotheses of a model against a distribution.

    Checks, for every atom and probe weight: the loss-derivative bounds
    |d1 l(0, y)| <= Psi(y) and |d2 l| + |d3 l| <= Psi(y); the feature bound
    ||F|| + ||D1 F|| + ||D2 F|| + ||D3 F|| <= Phi(x), with the feature's
    closed-form ``derivative_norms``; and the moment sum of Phi^10 + Psi^4
    over the atoms.  Violations are report entries, never exceptions.
    """
    if len(probe_ws) == 0:
        raise ValueError("probe_ws must be nonempty")
    probes = [np.asarray(w, dtype=np.float64).reshape(-1) for w in probe_ws]
    violations: list[AssumptionViolation] = []
    n_checks = 0

    phis = model.phis(pi)
    psis = model.psis(pi)
    for j, atom in enumerate(pi.atoms):
        psi = psis[j]
        lhs = abs(float(model.loss.d1(0.0, atom.y)))
        n_checks += 1
        if lhs > psi * (1 + 1e-12):
            violations.append(AssumptionViolation("|d1 l(0, y)| <= Psi(y)", j, None, lhs, psi))
        # second/third loss derivatives probed at predictions reachable from the probes
        yhats = [0.0]
        for w in probes:
            yhats.append(float(model.feature.value(w[None, :], atom.x[None, :])[0, 0]))
        for i, yh in enumerate(yhats):
            lhs = abs(float(model.loss.d2(yh, atom.y))) + abs(float(model.loss.d3(yh, atom.y)))
            n_checks += 1
            if lhs > psi * (1 + 1e-12):
                violations.append(
                    AssumptionViolation("|d2 l| + |d3 l| <= Psi(y)", j, i - 1 if i else None, lhs, psi)
                )

    for j, atom in enumerate(pi.atoms):
        phi = phis[j]
        for i, w in enumerate(probes):
            f0, d1, d2, d3 = model.feature.derivative_norms(w, atom.x)
            lhs = f0 + d1 + d2 + d3
            n_checks += 1
            if lhs > phi * (1 + 1e-9):
                violations.append(
                    AssumptionViolation("||F|| + ||D1F|| + ||D2F|| + ||D3F|| <= Phi(x)", j, i, lhs, phi)
                )

    with np.errstate(over="ignore"):  # an overflow reads inf, reported just below
        moment = float(np.sum(pi.weights * (phis**10 + psis**4)))
    n_checks += 1
    if not np.isfinite(moment):
        violations.append(AssumptionViolation("moment sum finite", None, None, moment, math.inf))

    return AssumptionReport(tuple(violations), moment, n_checks)
