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
    "TanhDotFeature",
    "ZeroFeature",
    "LinearDotFeature",
    "SquareLoss",
    "LogisticLoss",
    "QuadraticPenalty",
    "ZeroPenalty",
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
        if self.weight < 0:
            raise ValueError(f"atom weight must be >= 0, got {self.weight}")


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
    dt:    Euler step of the continuous-time engines, > 0.
    """

    alpha: float = 0.0
    beta: float = 1.0
    gamma: float = 1.0
    M: int = 1
    eta: float = 0.0
    T: float = 1.0
    dt: float = 1e-2

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if self.T < 0:
            raise ValueError(f"T must be >= 0, got {self.T}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")

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


class TanhDotFeature:
    """F(w, x) = tanh(<w, x>); requires p == d."""

    name = "tanh-dot"

    def value(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        return np.tanh(W @ X.T)

    def grad(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        z = W @ X.T  # (n, D)
        s = 1.0 - np.tanh(z) ** 2
        return s[:, :, None] * X[None, :, :]

    # Exact operator norms of the differentials, used by the hypothesis audit.
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


class ZeroFeature:
    """F identically zero; the pure-penalty / pure-noise test bed."""

    name = "zero"

    def value(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        return np.zeros((W.shape[0], X.shape[0]))

    def grad(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        return np.zeros((W.shape[0], X.shape[0], W.shape[1]))

    def derivative_norms(self, w, x):
        return 0.0, 0.0, 0.0, 0.0

    def envelope(self, x: np.ndarray) -> float:
        return 1.0


class LinearDotFeature:
    """F(w, x) = <w, x>.  Unbounded in w: violates the envelope bound by design."""

    name = "linear-dot"

    def value(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        return W @ X.T

    def grad(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        return np.broadcast_to(X[None, :, :], (W.shape[0], X.shape[0], X.shape[1])).copy()

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


class ZeroPenalty:
    name = "none"
    lam = 0.0

    def value(self, W: np.ndarray) -> np.ndarray:
        return np.zeros(W.shape[0])

    def grad(self, W: np.ndarray) -> np.ndarray:
        return np.zeros_like(W)


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
    forms, custom models may pass anything >= 1.
    """

    feature: object
    loss: object
    penalty: object
    p: int
    phi: Callable[[np.ndarray], float] = None  # type: ignore[assignment]
    psi: Callable[[float], float] = None  # type: ignore[assignment]
    name: str = "custom"

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("parameter dimension must be >= 1")
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
    name: str | None = None,
) -> ModelSpec:
    """Build a ModelSpec from the builtin registry.

    ``penalty`` is the quadratic strength lam; 0 selects the zero penalty.
    """
    if feature not in FEATURES:
        raise KeyError(f"unknown feature {feature!r}; choose from {sorted(FEATURES)}")
    if loss not in LOSSES:
        raise KeyError(f"unknown loss {loss!r}; choose from {sorted(LOSSES)}")
    pen = QuadraticPenalty(penalty) if penalty > 0 else ZeroPenalty()
    return ModelSpec(
        feature=FEATURES[feature](),
        loss=LOSSES[loss](),
        penalty=pen,
        p=p,
        name=name or f"{feature}+{loss}",
    )


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


def _fd_derivative_norms(feature, w, x, n_dirs, eps, rng) -> tuple[float, float, float, float]:
    """Sampled lower bounds of ||F||, ||D1F||, ||D2F||, ||D3F|| at (w, x).

    Directional central differences of the analytic gradient; operator norms
    are estimated as the max over ``n_dirs`` random unit directions, which
    keeps the audit sound (it can only under-report a violation margin).
    """
    p = w.shape[0]
    W1 = w[None, :]
    X1 = x[None, :]
    f0 = abs(float(feature.value(W1, X1)[0, 0]))
    g0 = float(np.linalg.norm(feature.grad(W1, X1)[0, 0]))
    dirs = rng.standard_normal((n_dirs, p))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    d2 = 0.0
    d3 = 0.0
    for u in dirs:
        gp = feature.grad((w + eps * u)[None, :], X1)[0, 0]
        gm = feature.grad((w - eps * u)[None, :], X1)[0, 0]
        gc = feature.grad(W1, X1)[0, 0]
        d2 = max(d2, float(np.linalg.norm((gp - gm) / (2 * eps))))
        d3 = max(d3, float(np.linalg.norm((gp - 2 * gc + gm) / eps**2)))
    return f0, g0, d2, d3


def check_assumptions(
    model: ModelSpec,
    pi: DataDistribution,
    probe_ws: Sequence[np.ndarray],
    n_dirs: int = 8,
    fd_eps: float = 1e-4,
    seed: int = 0,
) -> AssumptionReport:
    """Audit the regularity hypotheses of a model against a distribution.

    Checks, for every atom and probe weight: the loss-derivative bounds
    |d1 l(0, y)| <= Psi(y) and |d2 l| + |d3 l| <= Psi(y); the feature bound
    ||F|| + ||D1 F|| + ||D2 F|| + ||D3 F|| <= Phi(x) (analytic norms where
    the feature provides them, sampled finite differences otherwise); and
    the moment sum of Phi^10 + Psi^4 over the atoms.  Violations are report
    entries, never exceptions.
    """
    if len(probe_ws) == 0:
        raise ValueError("probe_ws must be nonempty")
    rng = np.random.default_rng(seed)
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
            if hasattr(model.feature, "derivative_norms"):
                f0, d1, d2, d3 = model.feature.derivative_norms(w, atom.x)
            else:
                f0, d1, d2, d3 = _fd_derivative_norms(model.feature, w, atom.x, n_dirs, fd_eps, rng)
            lhs = f0 + d1 + d2 + d3
            n_checks += 1
            if lhs > phi * (1 + 1e-9):
                violations.append(
                    AssumptionViolation("||F|| + ||D1F|| + ||D2F|| + ||D3F|| <= Phi(x)", j, i, lhs, phi)
                )

    moment = float(np.sum(pi.weights * (phis**10 + psis**4)))
    n_checks += 1
    if not np.isfinite(moment):
        violations.append(AssumptionViolation("moment sum finite", None, None, moment, math.inf))

    return AssumptionReport(tuple(violations), moment, n_checks)
