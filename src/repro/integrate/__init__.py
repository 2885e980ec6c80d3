"""From-scratch ODE/SDE/DDE integrators for the oscillator model.

The paper's artifact solves Eq. (2) with MATLAB's ``ode45``
(Dormand-Prince 5(4)).  This package provides:

* :func:`solve_dopri45` — the same embedded RK pair with PI step-size
  control and dense output,
* :func:`solve_rk4`, :func:`solve_euler`, :func:`solve_euler_maruyama` —
  fixed-step RK4, explicit Euler and its stochastic variant for
  white-noise jitter, sharing one march (:mod:`.fixed_step`),
* :class:`HistoryBuffer` — Hermite-interpolated state history for the
  delayed interaction term ``theta_j(t - tau_ij)``.

All solvers return a :class:`Solution`.
"""

from .controller import StepController, error_norm, error_norm_members, initial_step
from .dopri import solve_dopri45
from .fixed_step import solve_euler, solve_euler_maruyama, solve_rk4
from .history import HistoryBuffer
from .solution import Solution, SolverStats, record_stride

__all__ = [
    "record_stride",
    "StepController",
    "error_norm",
    "error_norm_members",
    "initial_step",
    "solve_dopri45",
    "solve_euler",
    "solve_euler_maruyama",
    "HistoryBuffer",
    "solve_rk4",
    "Solution",
    "SolverStats",
]
