"""The physical oscillator model (paper Eq. 2) and the Kuramoto baseline.

The POM describes ``N`` MPI processes as coupled oscillators:

.. math::

    \\dot\\theta_i(t) = \\frac{2\\pi}{t_{comp} + t_{comm} + \\zeta_i(t)}
        + \\frac{v_p}{N} \\sum_{j=1}^{N} T_{ij}
          V\\big(\\theta_j(t - \\tau_{ij}(t)) - \\theta_i(t)\\big)

with

* intrinsic frequency set by the compute-communicate cycle duration,
* process-local noise ``zeta_i`` (jitter / load imbalance / injected
  one-off delays) perturbing the period,
* a 0/1 topology matrix ``T`` (sparse communication structure),
* an interaction potential ``V`` (scalable: tanh; bottlenecked:
  short-range-repulsive sine/sgn),
* coupling strength ``v_p = beta * kappa / (t_comp + t_comm)``,
* optional per-edge interaction delays ``tau_ij`` (ODE -> DDE).

:class:`PhysicalOscillatorModel` is a declarative description; calling
:meth:`~PhysicalOscillatorModel.realize` freezes the random noise
channels into a :class:`RealizedModel` whose ``rhs`` is a plain function
of ``(t, theta)`` suitable for any explicit integrator.

:class:`KuramotoModel` implements the unmodified Eq. 1 (all-to-all
``sin`` coupling) as the comparison baseline the paper argues against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..backends import HeteroBatchedBackend, make_batched_backend
from ..integrate.history import HistoryBuffer
from ..kernels import normalize_kernel_name
from .coupling import CouplingSpec
from .noise import (
    DelaySchedule,
    InteractionNoise,
    LocalNoise,
    NoInteractionNoise,
    NoNoise,
    OneOffDelay,
    TauField,
    ZetaProcess,
)
from .potentials import Potential
from .topology import Topology

__all__ = ["PhysicalOscillatorModel", "RealizedModel", "KuramotoModel"]


@dataclass
class PhysicalOscillatorModel:
    """Declarative description of the POM (Eq. 2).

    Parameters
    ----------
    topology:
        Communication topology ``T_ij``.
    potential:
        Interaction potential ``V``.
    t_comp, t_comm:
        Durations of the computation and communication phase of one
        cycle (seconds); the natural period is their sum.
    coupling:
        Protocol/wait-mode specification that determines
        ``v_p = beta*kappa/(t_comp+t_comm)``.
    local_noise:
        ``zeta_i(t)`` channel (default: silent system).
    interaction_noise:
        ``tau_ij(t)`` channel (default: no delays — pure ODE).
    delays:
        One-off extra-workload injections (idle-wave triggers).
    v_p_override:
        If set, bypasses the coupling formula and uses this coupling
        strength directly (used by parameter sweeps that scan ``v_p``
        or ``beta*kappa`` continuously).
    kernel:
        Coupling-loop kernel of the edge-list coupling: ``"auto"``
        (default — ``"cc"`` when it can run, else ``"numpy"``),
        ``"numpy"``, or ``"cc"``.  See :mod:`repro.kernels`.
    """

    topology: Topology
    potential: Potential
    t_comp: float
    t_comm: float
    coupling: CouplingSpec = field(default_factory=CouplingSpec)
    local_noise: LocalNoise = field(default_factory=NoNoise)
    interaction_noise: InteractionNoise = field(default_factory=NoInteractionNoise)
    delays: Sequence[OneOffDelay] = ()
    v_p_override: float | None = None
    kernel: str = "auto"

    def __post_init__(self) -> None:
        if self.t_comp < 0 or self.t_comm < 0:
            raise ValueError("t_comp and t_comm must be non-negative")
        normalize_kernel_name(self.kernel)
        if self.t_comp + self.t_comm <= 0:
            raise ValueError("the cycle time t_comp + t_comm must be positive")
        for d in self.delays:
            if d.rank >= self.topology.n:
                raise ValueError(
                    f"one-off delay rank {d.rank} out of range "
                    f"(N={self.topology.n})"
                )

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of oscillators."""
        return self.topology.n

    @property
    def period(self) -> float:
        """Unperturbed cycle time ``T = t_comp + t_comm``."""
        return self.t_comp + self.t_comm

    @property
    def omega(self) -> float:
        """Unperturbed angular frequency ``2*pi/T``."""
        return 2.0 * np.pi / self.period

    @property
    def v_p(self) -> float:
        """Coupling strength (override or the Sec. 3.1 formula)."""
        if self.v_p_override is not None:
            return float(self.v_p_override)
        return self.coupling.v_p(self.topology, self.t_comp, self.t_comm)

    @property
    def beta_kappa(self) -> float:
        """Dimensionless stiffness ``beta*kappa`` (from the formula)."""
        if self.v_p_override is not None:
            return float(self.v_p_override) * self.period
        return self.coupling.beta_kappa(self.topology)

    # ------------------------------------------------------------------
    def realize(self, t_end: float,
                rng: np.random.Generator | int | None = None,
                kernel: str | None = None,
                threads: int | None = None) -> "RealizedModel":
        """Freeze all stochastic channels for a concrete run.

        Parameters
        ----------
        t_end:
            Horizon the noise realisations must cover.
        rng:
            Generator or integer seed; ``None`` uses fresh entropy.
        kernel:
            Per-run override of the model's ``kernel`` knob.
        threads:
            In-kernel thread count for the compiled kernels (runtime
            knob only — bit-identical for any value, so it never enters
            ``describe()`` or content hashes).  Default: the
            ``POM_NUM_THREADS`` environment variable, else 1.
        """
        if t_end <= 0:
            raise ValueError("t_end must be positive")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        zeta = self.local_noise.realize(self.n, t_end, rng)
        tau = self.interaction_noise.realize(self.topology, t_end, rng)
        schedule = DelaySchedule(self.delays, self.period)
        return RealizedModel(model=self, zeta=zeta, tau=tau,
                             delay_schedule=schedule,
                             kernel=kernel if kernel is not None
                             else self.kernel,
                             threads=threads)

    def describe(self) -> dict:
        """Metadata dictionary used by exporters."""
        return {
            "n": self.n,
            "t_comp": self.t_comp,
            "t_comm": self.t_comm,
            "period": self.period,
            "omega": self.omega,
            "v_p": self.v_p,
            "beta_kappa": self.beta_kappa,
            "kernel": self.kernel,
            "potential": self.potential.describe(),
            "topology": self.topology.describe(),
            "coupling": self.coupling.describe(self.topology),
            "local_noise": self.local_noise.describe(),
            "interaction_noise": self.interaction_noise.describe(),
            "delays": DelaySchedule(self.delays, self.period).describe(),
        }


class RealizedModel:
    """A POM with frozen noise: a deterministic RHS ``f(t, theta)``.

    Adaptive solvers evaluate the RHS at arbitrary, repeated times, so
    every random channel must be a function of time only — this object
    guarantees that.

    The RHS arithmetic is the ``(1, N)`` view of a one-member
    :class:`~repro.backends.HeteroBatchedBackend` — row 0 of the same
    stack a campaign shard evaluates, so a point evaluation here runs the
    same edge-list kernel as the solvers.
    """

    def __init__(self, model: PhysicalOscillatorModel, zeta: ZetaProcess,
                 tau: TauField, delay_schedule: DelaySchedule,
                 kernel: str = "auto", threads: int | None = None) -> None:
        self.model = model
        self.zeta = zeta
        self.tau = tau
        self.delay_schedule = delay_schedule
        self._period = model.period
        self._n = model.n
        self._kernel_request = normalize_kernel_name(kernel)
        # Runtime-only knob: never describes/hashes (results are
        # bit-identical for any thread count).
        self._threads_request = threads
        self._backend: HeteroBatchedBackend | None = None
        # Row 0 of the stack's memoised (1, N) frequency, kept so a memo
        # hit returns the same array object.
        self._freq_row: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of oscillators."""
        return self._n

    @property
    def backend(self) -> HeteroBatchedBackend:
        """This realisation as a one-member stack (compiled on first use).

        Lazy so that the solvers, which stack many realisations into
        their own backend, do not pay for R unused compilations.
        """
        if self._backend is None:
            self._backend = make_batched_backend(
                [self], kernel=self._kernel_request,
                threads=self._threads_request)
        return self._backend

    @property
    def has_delays(self) -> bool:
        """True if the interaction-noise channel delays some edge."""
        return not self.tau.is_zero

    def max_delay(self) -> float:
        """History horizon needed by the DDE integrator."""
        return self.tau.max_delay()

    # ------------------------------------------------------------------
    def intrinsic_frequency(self, t: float) -> np.ndarray:
        """Per-process frequency ``2*pi/(T + zeta_i(t) + delay terms)``.

        A non-positive or infinite effective period yields frequency 0
        (a fully stalled process), which is the exact meaning of a
        one-off full-stall injection.
        """
        freq = self.backend.intrinsic_frequency(t)
        row = self._freq_row
        if row is None or row.base is not freq:
            row = self._freq_row = freq[0]
        return row

    def coupling_term(self, t: float, theta: np.ndarray,
                      history: HistoryBuffer | None = None) -> np.ndarray:
        """Interaction term ``(v_p/N) * sum_j T_ij V(theta_j^(del) - theta_i)``.

        ``history`` returns ``(N,)`` states; the stack reads ``(1, N)``.
        """
        if history is not None:
            single = history

            def history(s: float) -> np.ndarray:
                return single(s)[None, :]

        return self.backend.coupling(t, theta.reshape(1, -1), history)[0]

    def rhs(self, t: float, theta: np.ndarray,
            history: HistoryBuffer | None = None) -> np.ndarray:
        """Full right-hand side of Eq. 2."""
        return self.intrinsic_frequency(t) + self.coupling_term(t, theta, history)


@dataclass
class KuramotoModel:
    """The plain Kuramoto model (paper Eq. 1) — baseline comparator.

    .. math::

        \\dot\\theta_i = \\omega_i + \\frac{K}{N} \\sum_j
            \\sin(\\theta_j - \\theta_i)

    All-to-all coupling, periodic sinusoidal potential, optionally
    heterogeneous natural frequencies.  The paper lists three reasons it
    cannot describe parallel programs (global coupling = per-cycle
    barrier; no desynchronised equilibria; 2*pi phase slips); the
    benchmark :mod:`benchmarks.bench_kuramoto_baseline` demonstrates all
    three against the POM.
    """

    n: int
    coupling_k: float
    omega: Sequence[float] | float = 1.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least two oscillators")
        om = np.asarray(self.omega, dtype=float)
        if om.ndim == 0:
            om = np.full(self.n, float(om))
        if om.shape != (self.n,):
            raise ValueError(f"omega has shape {om.shape}, expected ({self.n},)")
        self._omega_vec = om

    @property
    def omega_vec(self) -> np.ndarray:
        """Natural frequencies, shape ``(n,)``."""
        return self._omega_vec

    def rhs(self, t: float, theta: np.ndarray) -> np.ndarray:
        """Right-hand side of Eq. 1 (vectorised)."""
        dmat = theta[None, :] - theta[:, None]
        return self._omega_vec + (self.coupling_k / self.n) * np.sin(dmat).sum(axis=1)

    def make_ode_rhs(self):
        """Closure for the ODE solvers."""
        return self.rhs

    def critical_coupling(self, gamma: float) -> float:
        """Onset of synchronisation ``K_c = 2*gamma`` for a Lorentzian
        frequency distribution with half-width ``gamma`` (classic result,
        Strogatz 2000) — used in baseline validation tests."""
        return 2.0 * gamma

    def describe(self) -> dict:
        """Metadata dictionary used by exporters."""
        return {
            "model": "kuramoto",
            "n": self.n,
            "K": self.coupling_k,
            "omega_mean": float(self._omega_vec.mean()),
            "omega_std": float(self._omega_vec.std()),
        }
