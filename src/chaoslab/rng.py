"""Counter-based noise streams for reproducible parallel simulation.

Every random draw of a run is addressed by (run_seed, domain, slot, step,
row): the Philox key mixes (run_seed, domain, slot) and the step index sits
in a high counter word, so streams for distinct addresses never overlap and
a draw does not depend on evaluation order or worker count.

Rows within one (domain, slot, step) block are the particle ids: row k of a
block is the same no matter how many rows are generated, so a companion
particle can replay exactly the draws of test particle k while a reference
ensemble lives in its own domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NoisePlan", "SLOT_DIFFUSION", "SLOT_LANGEVIN", "SLOT_DATA", "SLOT_INIT"]

SLOT_DIFFUSION = 0  # Gaussians multiplying the diffusion noise root
SLOT_LANGEVIN = 1  # additive Langevin Gaussians
SLOT_DATA = 2  # minibatch sampling uniforms
SLOT_INIT = 3  # initial-condition draws

_MASK64 = (1 << 64) - 1
_SALT = 0x9E3779B97F4A7C15


def _mix64(*values: int) -> int:
    """splitmix64 finalizer folded over the inputs."""
    acc = 0x243F6A8885A308D3
    for v in values:
        acc = (acc + (int(v) & _MASK64) + _SALT) & _MASK64
        z = acc
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc = z ^ (z >> 31)
    return acc


@dataclass(frozen=True)
class NoisePlan:
    """Addressable, order-independent random streams for one run."""

    run_seed: int

    def _generator(self, domain: int, slot: int, step: int) -> np.random.Generator:
        key = np.array(
            [_mix64(self.run_seed, domain), _mix64(slot, self.run_seed)], dtype=np.uint64
        )
        counter = np.array([0, 0, int(step) & _MASK64, 1], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(counter=counter, key=key))

    def normals(self, domain: int, slot: int, step: int, n: int, p: int) -> np.ndarray:
        """Standard Gaussians of shape (n, p); row k belongs to particle id k."""
        return self._generator(domain, slot, step).standard_normal((n, p))

    def uniforms(self, domain: int, slot: int, step: int, n: int) -> np.ndarray:
        return self._generator(domain, slot, step).random(n)

    def child(self, *keys) -> "NoisePlan":
        """Independent derived plan, e.g. per repetition or grid point."""
        return NoisePlan(child_seed(self.run_seed, *keys))


def child_seed(seed: int, *keys) -> int:
    """Deterministic derived seed for sweep/repetition children."""
    hashed = [_stable_str_hash(k) if isinstance(k, str) else int(k) for k in keys]
    return _mix64(seed, *hashed)


def _stable_str_hash(s: str) -> int:
    # FNV-1a; Python's builtin hash is salted per process and unusable here.
    acc = 1469598103934665603
    for ch in s.encode("utf-8"):
        acc = ((acc ^ ch) * 1099511628211) & _MASK64
    return acc
