"""Initial phase configurations (paper Sec. 3.2: "different initial
conditions (synchronized, desynchronized)").

All helpers return an ``(n,)`` phase vector for ``t = 0``; specs, the
CLI and the experiments name them through
:func:`repro.runs.spec.initial_from_spec`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "synchronized",
    "perturbed",
    "random_phases",
    "splayed",
    "wavefront",
]


def synchronized(n: int, phase: float = 0.0) -> np.ndarray:
    """All oscillators in the same phase (the translationally symmetric,
    bulk-synchronous lock-step state)."""
    if n < 1:
        raise ValueError("n must be positive")
    return np.full(n, float(phase))


def perturbed(n: int, rank: int = 0, offset: float = -0.5) -> np.ndarray:
    """Synchronised except one rank displaced by ``offset`` radians.

    A negative offset puts the rank *behind* — the phase-space picture
    of a one-off delay that has just finished.
    """
    theta = synchronized(n)
    if not (0 <= rank < n):
        raise ValueError(f"rank {rank} out of range for n={n}")
    theta[rank] += float(offset)
    return theta


def random_phases(n: int, spread: float = 2.0 * np.pi,
                  rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Uniform random phases in ``[0, spread)`` (desynchronised start)."""
    if n < 1:
        raise ValueError("n must be positive")
    if spread <= 0:
        raise ValueError("spread must be positive")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return rng.uniform(0.0, spread, size=n)


def splayed(n: int, gap: float) -> np.ndarray:
    """Linear phase ramp ``theta_i = i * gap``.

    With ``gap = 2*sigma/3`` (the bottleneck potential's stable gap)
    this is the asymptotic computational-wavefront state; starting from
    it tests the *stability* of the desynchronised equilibrium.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return np.arange(n, dtype=float) * float(gap)


def wavefront(n: int, gap: float, noise: float = 0.0,
              rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Splayed state plus optional Gaussian jitter on each phase."""
    theta = splayed(n, gap)
    if noise > 0.0:
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        theta = theta + rng.normal(0.0, noise, size=n)
    return theta

