"""Noise processes of the physical oscillator model (paper Sec. 3.1).

Eq. (2) contains two noise channels:

* **Process-local noise** ``zeta_i(t)`` — enters the denominator of the
  intrinsic frequency ``2*pi / (t_comp + t_comm + zeta_i(t))``; it models
  system noise (OS jitter, clock variation) and, with a static
  realisation, load imbalance.  Implemented as piecewise-constant
  processes that are *frozen per realisation*: an adaptive solver may
  evaluate the RHS at any time, repeatedly, so the noise must be a
  deterministic function of time once drawn.
* **Interaction noise** ``tau_ij(t)`` — random communication delays that
  retard the partner phase, ``theta_j(t - tau_ij(t))``; realised as a
  per-edge piecewise-constant delay field.

**One-off delays** (the paper's injected extra workload that launches an
idle wave) are modelled exactly: a process that performs extra work of
duration ``delay`` seconds inside a window ``W`` accumulates the phase
deficit ``omega * delay``.  Solving for the additional period gives
``zeta = delay * T / (W - delay)`` (and a fully stalled process,
``W == delay``, corresponds to ``zeta = inf``, i.e. frequency zero
during the window).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .topology import Topology

__all__ = [
    "ZetaProcess",
    "LocalNoise",
    "NoNoise",
    "GaussianJitter",
    "UniformJitter",
    "LognormalJitter",
    "StaticLoadImbalance",
    "CompositeNoise",
    "OneOffDelay",
    "DelaySchedule",
    "InteractionNoise",
    "NoInteractionNoise",
    "ConstantInteractionNoise",
    "RandomInteractionNoise",
    "TauField",
]


# ======================================================================
# Process-local noise zeta_i(t)
# ======================================================================
class ZetaProcess:
    """A frozen realisation of the per-process noise ``zeta_i(t)``.

    Piecewise-constant in time with refresh interval ``dt``; values
    beyond the precomputed horizon clamp to the last interval (the
    simulation driver always realises over the full span).

    Parameters
    ----------
    values:
        Array of shape ``(n_intervals, n)`` — one row per refresh
        interval, one column per process.
    dt:
        Refresh interval (> 0).
    t0:
        Start time of interval 0.
    """

    def __init__(self, values: np.ndarray, dt: float, t0: float = 0.0) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be 2-D (n_intervals, n)")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.values = values
        self.dt = float(dt)
        self.t0 = float(t0)

    @property
    def n(self) -> int:
        """Number of processes."""
        return int(self.values.shape[1])

    def interval(self, t: float) -> int:
        """Index of the (clamped) refresh interval that holds ``t``.

        Two times with the same index see the same noise vector, which
        is what the backends' intrinsic-frequency memo keys on.
        """
        k = math.floor((t - self.t0) / self.dt)
        return min(max(k, 0), self.values.shape[0] - 1)

    def __call__(self, t: float) -> np.ndarray:
        """Noise vector at time ``t`` (shape ``(n,)``)."""
        return self.values[self.interval(t)]

    def max_abs(self) -> float:
        """Largest |zeta| of the realisation (for stability checks)."""
        vals = self.values[np.isfinite(self.values)]
        return float(np.abs(vals).max()) if vals.size else 0.0


class LocalNoise(ABC):
    """Specification of a process-local noise channel.

    ``realize`` draws a frozen :class:`ZetaProcess` for a concrete
    simulation (``n`` processes, time span ``[0, t_end]``).
    """

    @abstractmethod
    def realize(self, n: int, t_end: float,
                rng: np.random.Generator) -> ZetaProcess:
        """Draw a realisation covering ``[0, t_end]``."""

    def describe(self) -> dict:
        """Metadata dictionary used by exporters."""
        return {"type": type(self).__name__}


def _n_intervals(t_end: float, dt: float) -> int:
    return max(1, int(np.ceil(t_end / dt + 1e-12)))


class _Refreshed:
    """Rejects a non-positive ``refresh`` at construction (dataclass
    mixin), before a spec validates and a solve divides by it."""

    def __post_init__(self) -> None:
        if not self.refresh > 0:
            raise ValueError(f"refresh must be positive, got {self.refresh!r}")


class NoNoise(LocalNoise):
    """The silent system: ``zeta_i(t) = 0``."""

    def realize(self, n: int, t_end: float,
                rng: np.random.Generator) -> ZetaProcess:
        return ZetaProcess(np.zeros((1, n)), dt=max(t_end, 1.0))


@dataclass
class GaussianJitter(_Refreshed, LocalNoise):
    """Zero-mean Gaussian period jitter, refreshed every ``refresh`` s.

    ``std`` is in seconds (same unit as ``t_comp``/``t_comm``).  Values
    are clipped at ``clip_sigmas`` standard deviations so that the period
    ``T + zeta`` cannot accidentally become non-positive for reasonable
    parameters (the model additionally guards the denominator).
    """

    std: float
    refresh: float = 0.1
    clip_sigmas: float = 4.0

    def realize(self, n: int, t_end: float,
                rng: np.random.Generator) -> ZetaProcess:
        if self.std < 0:
            raise ValueError("std must be non-negative")
        m = _n_intervals(t_end, self.refresh)
        vals = rng.normal(0.0, self.std, size=(m, n))
        lim = self.clip_sigmas * self.std
        np.clip(vals, -lim, lim, out=vals)
        return ZetaProcess(vals, dt=self.refresh)

    def describe(self) -> dict:
        return {"type": "GaussianJitter", "std": self.std,
                "refresh": self.refresh}


@dataclass
class UniformJitter(_Refreshed, LocalNoise):
    """Uniform period jitter on ``[-half_width, +half_width]`` seconds."""

    half_width: float
    refresh: float = 0.1

    def realize(self, n: int, t_end: float,
                rng: np.random.Generator) -> ZetaProcess:
        if self.half_width < 0:
            raise ValueError("half_width must be non-negative")
        m = _n_intervals(t_end, self.refresh)
        vals = rng.uniform(-self.half_width, self.half_width, size=(m, n))
        return ZetaProcess(vals, dt=self.refresh)

    def describe(self) -> dict:
        return {"type": "UniformJitter", "half_width": self.half_width,
                "refresh": self.refresh}


@dataclass
class LognormalJitter(_Refreshed, LocalNoise):
    """One-sided (slowdown-only) noise: ``zeta >= 0`` lognormal.

    OS noise only ever *delays* work, so a one-sided distribution is the
    physically faithful choice; ``median`` and ``sigma`` parameterise the
    underlying lognormal.
    """

    median: float
    sigma: float = 1.0
    refresh: float = 0.1

    def realize(self, n: int, t_end: float,
                rng: np.random.Generator) -> ZetaProcess:
        if self.median < 0:
            raise ValueError("median must be non-negative")
        m = _n_intervals(t_end, self.refresh)
        if self.median == 0.0:
            vals = np.zeros((m, n))
        else:
            vals = rng.lognormal(np.log(self.median), self.sigma, size=(m, n))
        return ZetaProcess(vals, dt=self.refresh)

    def describe(self) -> dict:
        return {"type": "LognormalJitter", "median": self.median,
                "sigma": self.sigma, "refresh": self.refresh}


@dataclass
class StaticLoadImbalance(LocalNoise):
    """Time-independent per-rank period offsets (load imbalance).

    The paper notes the local-noise channel "can also serve to model
    load imbalance" — a static realisation of ``zeta_i``.

    Parameters
    ----------
    offsets:
        Either an explicit per-rank sequence (length must match ``n`` at
        realisation time) or ``None`` with ``amplitude`` to draw one
        static uniform sample per rank.
    amplitude:
        Half-width for the drawn offsets when ``offsets is None``.
    """

    offsets: Sequence[float] | None = None
    amplitude: float = 0.0

    def realize(self, n: int, t_end: float,
                rng: np.random.Generator) -> ZetaProcess:
        if self.offsets is not None:
            off = np.asarray(self.offsets, dtype=float)
            if off.shape != (n,):
                raise ValueError(
                    f"offsets has shape {off.shape}, expected ({n},)"
                )
        else:
            off = rng.uniform(-self.amplitude, self.amplitude, size=n)
        return ZetaProcess(off[None, :], dt=max(t_end, 1.0))

    def describe(self) -> dict:
        return {"type": "StaticLoadImbalance", "amplitude": self.amplitude,
                "explicit": self.offsets is not None}


@dataclass
class CompositeNoise(LocalNoise):
    """Sum of several local-noise channels (e.g. imbalance + jitter)."""

    parts: Sequence[LocalNoise] = field(default_factory=tuple)

    def realize(self, n: int, t_end: float,
                rng: np.random.Generator) -> ZetaProcess:
        if not self.parts:
            return NoNoise().realize(n, t_end, rng)
        procs = [p.realize(n, t_end, rng) for p in self.parts]
        # Common refresh grid: the finest dt among parts.
        dt = min(p.dt for p in procs)
        m = _n_intervals(t_end, dt)
        vals = np.zeros((m, n))
        for p in procs:
            for k in range(m):
                vals[k] += p((k + 0.5) * dt)
        return ZetaProcess(vals, dt=dt)

    def describe(self) -> dict:
        return {"type": "CompositeNoise",
                "parts": [p.describe() for p in self.parts]}


# ======================================================================
# One-off delays (idle-wave injection)
# ======================================================================
@dataclass(frozen=True)
class OneOffDelay:
    """A singular extra-workload event on one rank (paper Sec. 5.1).

    Parameters
    ----------
    rank:
        Affected process index.
    t_start:
        When the extra work begins (seconds).
    delay:
        Extra work duration in seconds — the phase deficit is
        ``omega * delay``.
    window:
        Over how long the slowdown is spread.  ``None`` (default) means
        the process is completely stalled for ``delay`` seconds
        (``window == delay``); a larger window models partial slowdown.
    """

    rank: int
    t_start: float
    delay: float
    window: float | None = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        if self.delay <= 0:
            raise ValueError("delay must be positive")
        if self.window is not None and self.window < self.delay:
            raise ValueError("window must be >= delay")

    @property
    def effective_window(self) -> float:
        """Slowdown window (defaults to a full stall of length delay)."""
        return self.delay if self.window is None else self.window

    def zeta_extra(self, period: float) -> float:
        """Additional period during the window for phase-exact injection.

        Derived from equating the accumulated phase deficit with
        ``omega * delay``; infinite for a full stall.
        """
        w = self.effective_window
        if w <= self.delay * (1.0 + 1e-12):
            return np.inf
        return self.delay * period / (w - self.delay)

    @property
    def t_end(self) -> float:
        """End of the slowdown window."""
        return self.t_start + self.effective_window


class DelaySchedule:
    """A set of one-off delays exposed as a time-dependent zeta term.

    The schedule needs the unperturbed period ``T = t_comp + t_comm`` to
    convert each delay into the exact additional-period value.
    """

    def __init__(self, delays: Sequence[OneOffDelay], period: float) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.delays = tuple(delays)
        self.period = float(period)
        self._extras = [d.zeta_extra(period) for d in self.delays]

    def active(self, t: float) -> tuple[int, ...]:
        """Indices of the delays whose window holds ``t``.

        The schedule's value at ``t`` is a function of this set alone,
        so it keys the backends' intrinsic-frequency memo.
        """
        if not self.delays:
            return ()
        return tuple(i for i, d in enumerate(self.delays)
                     if d.t_start <= t < d.t_end)

    def __call__(self, t: float, n: int) -> np.ndarray:
        """Additional zeta vector at time ``t`` for ``n`` processes."""
        out = np.zeros(n)
        for d, extra in zip(self.delays, self._extras):
            if d.rank < n and d.t_start <= t < d.t_end:
                out[d.rank] += extra
        return out

    def max_rank(self) -> int:
        """Largest rank index referenced (for validation)."""
        return max((d.rank for d in self.delays), default=-1)

    def describe(self) -> list[dict]:
        """Metadata used by exporters."""
        return [
            {"rank": d.rank, "t_start": d.t_start, "delay": d.delay,
             "window": d.effective_window}
            for d in self.delays
        ]


# ======================================================================
# Interaction noise tau_ij(t)
# ======================================================================
class TauField:
    """Frozen realisation of the interaction delays ``tau_ij(t)``.

    Piecewise-constant per-edge delays of shape ``(n_intervals,
    n_edges)``, in the topology's row-major edge order: Eq. 2 only
    retards the partner phase where ``T_ij != 0``, so pairs without an
    edge store nothing, and an edgeless topology's field is zero.  The
    constant channels realise a read-only broadcast of one value.
    """

    def __init__(self, values: np.ndarray, dt: float) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be 2-D (n_intervals, n_edges)")
        if dt <= 0:
            raise ValueError("dt must be positive")
        if np.any(values < 0):
            raise ValueError("delays must be non-negative")
        self.values = values
        self.dt = float(dt)
        #: True when the field never delays (the pure-ODE fast path)
        self.is_zero = bool(np.all(values == 0.0))

    def interval(self, t: float) -> int:
        """Index of the (clamped) refresh interval that holds ``t``."""
        k = int(np.floor(t / self.dt))
        return min(max(k, 0), self.values.shape[0] - 1)

    def __call__(self, t: float) -> np.ndarray:
        """Per-edge delays at time ``t`` (shape ``(n_edges,)``)."""
        return self.values[self.interval(t)]

    def max_delay(self) -> float:
        """Upper bound on any delay (bounds the DDE history horizon)."""
        return float(self.values.max()) if self.values.size else 0.0


class InteractionNoise(ABC):
    """Specification of the interaction-delay channel ``tau_ij(t)``."""

    @abstractmethod
    def realize(self, topology: "Topology", t_end: float,
                rng: np.random.Generator) -> TauField:
        """Draw the per-edge delays over ``[0, t_end]``."""

    def describe(self) -> dict:
        """Metadata dictionary used by exporters."""
        return {"type": type(self).__name__}


class NoInteractionNoise(InteractionNoise):
    """tau_ij = 0: the pure-ODE model."""

    def realize(self, topology: "Topology", t_end: float,
                rng: np.random.Generator) -> TauField:
        return ConstantInteractionNoise(0.0).realize(topology, t_end, rng)


@dataclass
class ConstantInteractionNoise(InteractionNoise):
    """Uniform constant delay ``tau`` on every edge."""

    tau: float

    def realize(self, topology: "Topology", t_end: float,
                rng: np.random.Generator) -> TauField:
        if self.tau < 0:
            raise ValueError("tau must be non-negative")
        vals = np.broadcast_to(float(self.tau), (1, topology.n_edges))
        return TauField(vals, dt=max(t_end, 1.0))

    def describe(self) -> dict:
        return {"type": "ConstantInteractionNoise", "tau": self.tau}


@dataclass
class RandomInteractionNoise(_Refreshed, InteractionNoise):
    """Per-edge uniform random delays in ``[lo, hi]``, refreshed.

    Models varying communication time (network contention); the paper's
    ``tau_ij(t)`` with a uniform distribution.  Each interval keeps the
    edge entries of one ``(N, N)`` draw: the stream of a dense
    ``(n_intervals, N, N)`` draw, bit for bit.
    """

    lo: float = 0.0
    hi: float = 0.0
    refresh: float = 1.0

    def realize(self, topology: "Topology", t_end: float,
                rng: np.random.Generator) -> TauField:
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError("need 0 <= lo <= hi")
        m, n = _n_intervals(t_end, self.refresh), topology.n
        rows, cols = topology.edge_list()
        vals = np.empty((m, rows.size))
        for k in range(m):
            vals[k] = rng.uniform(self.lo, self.hi, size=(n, n))[rows, cols]
        return TauField(vals, dt=self.refresh)

    def describe(self) -> dict:
        return {"type": "RandomInteractionNoise", "lo": self.lo,
                "hi": self.hi, "refresh": self.refresh}
