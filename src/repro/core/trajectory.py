"""Trajectory container and the paper's standard phase views.

The paper's artifact offers three visualisations (Sec. 3.2):

(i)   the *circle diagram* — instantaneous phases on the unit circle,
      coloured by frequency;
(ii)  the *timeline of phase differences* between coupled oscillators;
(iii) the *timeline of potentials* along the coupled pairs.

Its standard view plots ``theta_i - omega*t`` **normalised to the
slowest ("lagger") process as the baseline** — this is what makes idle
waves and computational wavefronts visible as ridges/slopes.
:class:`OscillatorTrajectory` implements all of these as array-returning
methods; rendering lives in :mod:`repro.viz`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..integrate.solution import Solution
from .model import PhysicalOscillatorModel

__all__ = ["OscillatorTrajectory"]


@dataclass
class OscillatorTrajectory:
    """Solved phases ``theta_i(t)`` plus the model that produced them.

    Attributes
    ----------
    ts:
        Time mesh, shape ``(n_t,)``.
    thetas:
        Phases, shape ``(n_t, n)``.
    model:
        The (declarative) model; used for ``omega``, topology, potential.
    solution:
        The raw solver output (kept for dense evaluation and stats).
    seed:
        Seed used for the noise realisation (``None`` = fresh entropy).
    """

    ts: np.ndarray
    thetas: np.ndarray
    model: PhysicalOscillatorModel
    solution: Solution | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        self.ts = np.asarray(self.ts, dtype=float)
        self.thetas = np.asarray(self.thetas, dtype=float)
        if self.thetas.ndim != 2:
            raise ValueError("thetas must be 2-D (n_t, n)")
        if self.ts.shape[0] != self.thetas.shape[0]:
            raise ValueError("ts and thetas disagree on the number of samples")
        if self.thetas.shape[1] != self.model.n:
            raise ValueError(
                f"thetas has {self.thetas.shape[1]} oscillators, "
                f"model has {self.model.n}"
            )

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of oscillators."""
        return int(self.thetas.shape[1])

    @property
    def n_samples(self) -> int:
        """Number of time samples."""
        return int(self.ts.shape[0])

    @property
    def t_end(self) -> float:
        """Final time."""
        return float(self.ts[-1])

    @property
    def final_phases(self) -> np.ndarray:
        """Phases at the final time, shape ``(n,)``."""
        return self.thetas[-1]

    # ------------------------------------------------------------------
    # The paper's standard views
    # ------------------------------------------------------------------
    def comoving_phases(self) -> np.ndarray:
        """``theta_i(t) - omega*t`` — phases in the co-rotating frame."""
        return self.thetas - self.model.omega * self.ts[:, None]

    def lagger_normalized(self) -> np.ndarray:
        """Co-rotating phases with the lagger as baseline (standard view).

        At each time the minimum co-moving phase (the slowest process)
        is subtracted, so the output is >= 0 with the lagger pinned at 0
        — the representation in which idle waves appear as travelling
        ridges (paper Sec. 3.2).
        """
        x = self.comoving_phases()
        return x - x.min(axis=1, keepdims=True)

    def phase_differences(self, pairs: list[tuple[int, int]] | None = None
                          ) -> np.ndarray:
        """Timeline of ``theta_j - theta_i`` for the given pairs.

        Defaults to the ring-adjacent pairs ``(i, i+1 mod n)`` — the
        gaps whose asymptotics define sync (all ~0) vs. desync (all at
        the potential's stable gap).  Shape ``(n_t, len(pairs))``.
        """
        if pairs is None:
            pairs = [(i, (i + 1) % self.n) for i in range(self.n)]
        out = np.empty((self.n_samples, len(pairs)))
        for k, (i, j) in enumerate(pairs):
            out[:, k] = self.thetas[:, j] - self.thetas[:, i]
        return out

    def potential_timeline(self, pairs: list[tuple[int, int]] | None = None
                           ) -> np.ndarray:
        """Timeline of ``V(theta_j - theta_i)`` along coupled pairs.

        Defaults to every directed edge of the topology; shape
        ``(n_t, n_pairs)``.  Near an asymptotic state all entries sit at
        (or oscillate tightly around) zeros of the potential.
        """
        if pairs is None:
            rows, cols = self.model.topology.edge_list()
            pairs = list(zip(rows.tolist(), cols.tolist()))
        diffs = self.phase_differences(pairs)
        return np.asarray(self.model.potential(diffs), dtype=float)

    def circle_state(self, t_index: int = -1) -> dict:
        """Circle-diagram data at one sample: positions + frequencies.

        Returns ``{"angles": theta mod 2*pi, "x": cos, "y": sin,
        "frequency": estimated instantaneous frequency}`` — the model's
        circle view colours points by frequency (blue fast, yellow slow).
        """
        theta = self.thetas[t_index]
        # Frequency from a backward difference (forward at the start).
        if self.n_samples < 2:
            freq = np.full(self.n, self.model.omega)
        else:
            k = t_index if t_index >= 0 else self.n_samples + t_index
            k0 = max(k - 1, 0)
            k1 = k if k > k0 else k0 + 1
            dt = self.ts[k1] - self.ts[k0]
            freq = (self.thetas[k1] - self.thetas[k0]) / dt if dt > 0 else \
                np.full(self.n, self.model.omega)
        ang = np.mod(theta, 2.0 * np.pi)
        return {
            "angles": ang,
            "x": np.cos(ang),
            "y": np.sin(ang),
            "frequency": freq,
        }

    # ------------------------------------------------------------------
    # Asymptotics
    # ------------------------------------------------------------------
    def tail(self, fraction: float = 0.2) -> "OscillatorTrajectory":
        """The final ``fraction`` of the trajectory (asymptotic window)."""
        if not (0.0 < fraction <= 1.0):
            raise ValueError("fraction must be in (0, 1]")
        k = max(2, int(np.ceil(self.n_samples * fraction)))
        return OscillatorTrajectory(
            ts=self.ts[-k:], thetas=self.thetas[-k:],
            model=self.model, solution=self.solution, seed=self.seed,
        )

    def asymptotic_gaps(self, fraction: float = 0.1) -> np.ndarray:
        """Time-averaged adjacent phase gaps over the final window."""
        tail = self.tail(fraction)
        return tail.phase_differences().mean(axis=0)

    def mean_frequency(self) -> np.ndarray:
        """Average frequency of each oscillator over the whole run."""
        span = self.ts[-1] - self.ts[0]
        if span <= 0:
            return np.full(self.n, np.nan)
        return (self.thetas[-1] - self.thetas[0]) / span

    def resample(self, n_points: int) -> "OscillatorTrajectory":
        """Uniform-mesh resample via the solver's dense output, or
        piecewise-linear on the mesh when there is none."""
        sol = self.solution
        if sol is None or sol.dense is None:
            sol = Solution(ts=self.ts, ys=self.thetas)
        sol = sol.resample(n_points)
        return OscillatorTrajectory(ts=sol.ts, thetas=sol.ys, model=self.model,
                                    solution=self.solution, seed=self.seed)
