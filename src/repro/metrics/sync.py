"""Synchronisation / desynchronisation classification and settle times.

Implements the verdicts the paper's evaluation relies on:

* **resynchronisation** (Sec. 5.2.1) — after a disturbance the phases
  "snap back": the co-moving spread decays towards zero and every
  oscillator runs at the natural frequency;
* **desynchronisation** (Sec. 5.2.2) — the symmetric state is unstable;
  adjacent gaps grow and settle at the potential's first zero, giving a
  broken-symmetry state with identical frequencies but non-zero phase
  offsets (the computational wavefront).

The classifier looks at the asymptotic window of a trajectory and asks
two questions: has the spread stopped changing (settled)?  and is it
(near) zero?  Settled + small spread => SYNCHRONIZED; settled + broken
symmetry => DESYNCHRONIZED (on a ring the wavefront state is a domain
pattern of gaps ±2*sigma/3 whose *magnitudes* sit at the potential
zero; ``gap_uniformity`` quantifies how clean the pattern is); still
shrinking => TRANSIENT; growing/irregular => INCOHERENT.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .order_parameter import order_parameter_series
from .phase import phase_spread_series

__all__ = ["SyncState", "SyncVerdict", "classify", "settle_time",
           "fixed_point_residual"]


class SyncState(enum.Enum):
    """Asymptotic regime of an oscillator trajectory."""

    SYNCHRONIZED = "synchronized"
    DESYNCHRONIZED = "desynchronized"
    TRANSIENT = "transient"
    INCOHERENT = "incoherent"


@dataclass
class SyncVerdict:
    """Classification result plus the evidence behind it.

    Attributes
    ----------
    state:
        The regime.
    final_spread:
        Co-moving phase spread averaged over the tail window (radians).
    mean_gap:
        Mean *signed* adjacent gap over the tail (radians).  On a ring
        the signed gaps sum to zero identically, so a desynchronised
        ring shows ``mean_gap ~ 0`` with large ``mean_abs_gap``.
    mean_abs_gap:
        Mean magnitude of the adjacent gaps — the quantity that settles
        at the potential's first zero (2*sigma/3) in the
        desynchronised state, with mixed signs on a ring (domains) and
        uniform sign on an open chain (clean wavefront).
    gap_std:
        Std of the per-pair tail-averaged |gaps| — small means every
        pair sits at the same equilibrium distance.
    gap_uniformity:
        ``1 - gap_std / mean_abs_gap`` clipped to [0, 1]: 1 for a
        perfectly clean wavefront (every |gap| equal), lower for
        domain-wall-rich ring states.
    r_final:
        Kuramoto order parameter averaged over the tail.
    drift:
        Residual rate of change of the spread (rad/s) — ~0 for settled
        states.
    """

    state: SyncState
    final_spread: float
    mean_gap: float
    mean_abs_gap: float
    gap_std: float
    gap_uniformity: float
    r_final: float
    drift: float

    @property
    def is_synchronized(self) -> bool:
        """Convenience flag."""
        return self.state is SyncState.SYNCHRONIZED

    @property
    def is_desynchronized(self) -> bool:
        """Convenience flag."""
        return self.state is SyncState.DESYNCHRONIZED


def classify(
    ts: np.ndarray,
    thetas: np.ndarray,
    omega: float,
    *,
    tail_fraction: float = 0.2,
    sync_spread_tol: float = 0.05,
    drift_tol: float = 1e-2,
) -> SyncVerdict:
    """Classify the asymptotic state of a phase trajectory.

    Parameters
    ----------
    ts, thetas:
        Trajectory mesh (``(n_t,)``) and phases (``(n_t, n)``).
    omega:
        Natural angular frequency for the co-moving frame.
    tail_fraction:
        Portion of the run treated as "asymptotic".
    sync_spread_tol:
        Spread below which the state counts as synchronised (radians).
    drift_tol:
        Max |d(spread)/dt| for a state to count as settled (rad/s).
    """
    ts = np.asarray(ts, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or ts.shape[0] != thetas.shape[0]:
        raise ValueError("shape mismatch between ts and thetas")
    n_t, n = thetas.shape
    k = max(2, int(np.ceil(n_t * tail_fraction)))
    tail_t = ts[-k:]
    tail_x = thetas[-k:] - omega * tail_t[:, None]

    spread_series = phase_spread_series(tail_x)
    final_spread = float(spread_series.mean())

    # Residual drift of the spread, from a least-squares line.
    if tail_t[-1] > tail_t[0]:
        drift = float(np.polyfit(tail_t, spread_series, 1)[0])
    else:
        drift = 0.0

    # Tail-averaged interior gaps (exclude the ring-wrap pair).
    gaps = np.diff(tail_x, axis=1)        # (k, n-1)
    per_pair = gaps.mean(axis=0)
    mean_gap = float(per_pair.mean())
    abs_pair = np.abs(per_pair)
    mean_abs_gap = float(abs_pair.mean())
    gap_std = float(abs_pair.std())

    r_final = float(order_parameter_series(tail_x).mean())

    uniformity = 0.0
    if mean_abs_gap > 0:
        uniformity = float(np.clip(1.0 - gap_std / mean_abs_gap, 0.0, 1.0))

    settled = abs(drift) <= drift_tol
    if settled and final_spread <= sync_spread_tol:
        state = SyncState.SYNCHRONIZED
    elif settled:
        state = SyncState.DESYNCHRONIZED
    elif drift < 0:
        state = SyncState.TRANSIENT       # still relaxing towards sync
    else:
        state = SyncState.INCOHERENT      # spread still growing

    return SyncVerdict(state=state, final_spread=final_spread,
                       mean_gap=mean_gap, mean_abs_gap=mean_abs_gap,
                       gap_std=gap_std, gap_uniformity=uniformity,
                       r_final=r_final, drift=drift)


def settle_time(
    ts: np.ndarray,
    thetas: np.ndarray,
    omega: float,
    *,
    tol: float = 0.05,
    mode: str = "sync",
    target_gap: float | None = None,
) -> float:
    """First time after which the trajectory stays within tolerance.

    ``mode="sync"``: spread of co-moving phases stays below ``tol``.
    ``mode="desync"``: every interior gap stays within ``tol`` of
    ``target_gap`` (e.g. the potential's stable gap).

    Returns ``inf`` if the condition is never met (or never holds
    through the end).
    """
    ts = np.asarray(ts, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    x = thetas - omega * ts[:, None]
    if mode == "sync":
        ok = phase_spread_series(x) <= tol
    elif mode == "desync":
        if target_gap is None:
            raise ValueError('mode="desync" requires target_gap')
        gaps = np.diff(x, axis=1)
        ok = np.all(np.abs(gaps - target_gap) <= tol, axis=1)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if not ok[-1]:
        return float("inf")
    # Walk backwards to the first index of the trailing True block.
    idx = len(ok) - 1
    while idx > 0 and ok[idx - 1]:
        idx -= 1
    return float(ts[idx])


def fixed_point_residual(thetas_tail: np.ndarray, ts_tail: np.ndarray) -> float:
    """RMS deviation of per-oscillator frequency from the common mean.

    In any settled state (sync or splayed wavefront) all oscillators
    share one frequency; this residual is ~0 there and positive during
    transients.  Units: rad/s.
    """
    ts_tail = np.asarray(ts_tail, dtype=float)
    thetas_tail = np.asarray(thetas_tail, dtype=float)
    if thetas_tail.shape[0] < 2:
        raise ValueError("need at least two samples")
    span = ts_tail[-1] - ts_tail[0]
    if span <= 0:
        raise ValueError("tail must span positive time")
    freqs = (thetas_tail[-1] - thetas_tail[0]) / span
    return float(np.sqrt(np.mean((freqs - freqs.mean()) ** 2)))
