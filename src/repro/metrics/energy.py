"""Energy (Lyapunov) diagnostics for the oscillator model.

For a *symmetric* topology and an *odd* potential, the co-moving phase
dynamics of Eq. 2 (silent system) is an exact gradient flow:

    dx_i/dt = (v_p/N) sum_j T_ij V(x_j - x_i) = -dE/dx_i,

    E(x) = (v_p / 2N) sum_{i,j} T_ij U(x_i - x_j),   U' = V, U(0) = 0.

Consequences the library exposes and the tests verify:

* ``E`` decreases monotonically along trajectories — a Lyapunov
  function that rules out cycles and explains why every run settles;
* the *synchronised* state is the global minimum of the tanh energy
  (``U = log cosh``: single convex well), while the bottleneck energy
  (``U`` has a local maximum at 0 and minima at ``±2*sigma/3``) makes
  lock-step a saddle/maximum and the computational wavefront the
  low-energy state — the paper's "avoid the bottleneck by drifting out
  of lockstep" as literal energy minimisation;
* energy gaps quantify *how far* a configuration is from its asymptote
  (used as a convergence diagnostic by the simulation driver's users).
"""

from __future__ import annotations

import numpy as np

from ..core.model import PhysicalOscillatorModel
from ..core.trajectory import OscillatorTrajectory
from .streaming import sample_energy

__all__ = ["system_energy", "energy_series", "pair_energy_curve",
           "wavefront_energy", "sync_energy"]


def system_energy(model: PhysicalOscillatorModel,
                  theta: np.ndarray) -> float:
    """Total interaction energy ``E`` of one phase configuration.

    Defined for any model, but only a Lyapunov function when the
    topology is symmetric and the potential odd (both true for every
    configuration in the paper).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.n,):
        raise ValueError(f"theta has shape {theta.shape}, "
                         f"expected ({model.n},)")
    rows, cols = model.topology.edge_list()
    return float(sample_energy(theta[None, :], rows, cols,
                               [model.potential],
                               np.array([model.v_p / (2.0 * model.n)]))[0])


def energy_series(traj: OscillatorTrajectory) -> np.ndarray:
    """``E(t)`` along a trajectory (computed in the co-moving frame —
    the uniform rotation carries no interaction energy)."""
    x = traj.comoving_phases()
    return np.array([system_energy(traj.model, row) for row in x])


def pair_energy_curve(potential, span: float = 10.0,
                      n_points: int = 401) -> dict:
    """The pair energy ``U(d)`` on a grid (for plotting/export).

    Returns ``{"d": grid, "U": values, "V": potential values}``.
    """
    d = np.linspace(-span, span, n_points)
    return {
        "d": d,
        "U": np.asarray(potential.antiderivative(d), dtype=float),
        "V": np.asarray(potential(d), dtype=float),
    }


def sync_energy(model: PhysicalOscillatorModel) -> float:
    """Energy of the perfectly synchronised state (always 0 by the
    ``U(0) = 0`` normalisation — kept for readable comparisons)."""
    return system_energy(model, np.zeros(model.n))


def wavefront_energy(model: PhysicalOscillatorModel,
                     gap: float | None = None) -> float:
    """Energy of the zigzag wavefront state with the given gap.

    Defaults to the potential's stable gap (``2*sigma/3`` for the
    bottleneck potential); for that potential the result is *negative*
    — the wavefront is energetically favourable over lock-step, the
    formal statement of bottleneck evasion.
    """
    g = model.potential.stable_gap() if gap is None else float(gap)
    theta = np.tile([0.0, g], model.n // 2 + 1)[:model.n]
    return system_energy(model, theta)
