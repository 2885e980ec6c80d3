"""Idle-wave detection and speed measurement on DES traces.

An idle wave is the travelling front of delay launched by a one-off
disturbance (paper Sec. 5.1): the injected rank finishes its iteration
late, its communication partners wait on it one iteration later, their
partners after that, and so on.  The cleanest observable is the
*baseline-subtracted* iteration-end matrix: ``lag[k, i] =
end_disturbed[k, i] - end_baseline[k, i]`` is zero ahead of the wave
and jumps to (a fraction of) the injected delay when the wave arrives
at rank ``i``.

Speed is measured exactly like on the model side: a linear fit of rank
distance (ring metric) vs. arrival time, in ranks/second; an
iteration-based speed (ranks/iteration) is also reported because it is
what the analytic model of ref. [4] predicts: ``±max(d)`` ranks per
iteration for eager protocol in each direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..metrics.wave import _ring_distance
from ..simulator.trace import Trace

__all__ = ["TraceWaveFit", "lag_matrix", "trace_arrival_times",
           "measure_trace_wave"]


@dataclass
class TraceWaveFit:
    """Idle-wave measurement on a trace pair.

    Attributes
    ----------
    speed_ranks_per_second:
        Slope of distance vs. arrival time (``nan`` if unmeasurable).
    speed_ranks_per_iteration:
        Slope of distance vs. arrival iteration index.
    arrivals_time:
        Per-rank arrival times (s), ``inf`` = never reached.
    arrivals_iteration:
        Per-rank arrival iteration indices (float; ``inf`` = never).
    distances:
        Ring distances from the source rank.
    max_lag:
        Per-rank maximum lag behind the baseline (s) — the wave
        amplitude, whose decay with distance measures damping.
    decay_length_ranks:
        e-folding distance of the amplitude (``inf`` = no decay).
    """

    speed_ranks_per_second: float
    speed_ranks_per_iteration: float
    arrivals_time: np.ndarray
    arrivals_iteration: np.ndarray
    distances: np.ndarray
    max_lag: np.ndarray
    decay_length_ranks: float


def lag_matrix(baseline: Trace, disturbed: Trace) -> np.ndarray:
    """Per-(iteration, rank) lag of the disturbed run behind the baseline."""
    if baseline.iteration_ends.shape != disturbed.iteration_ends.shape:
        raise ValueError("traces have different shapes")
    return disturbed.iteration_ends - baseline.iteration_ends


def trace_arrival_times(
    baseline: Trace,
    disturbed: Trace,
    *,
    threshold_fraction: float = 0.25,
) -> tuple[np.ndarray, np.ndarray]:
    """First (time, iteration) at which each rank lags the baseline.

    The threshold is a fraction of the peak lag anywhere in the run
    (robust to kernels where the delay is partially absorbed).
    Returns ``(arrival_times, arrival_iterations)`` with ``inf`` for
    ranks never reached.
    """
    lag = lag_matrix(baseline, disturbed)
    peak = float(lag.max())
    if peak <= 0:
        n = lag.shape[1]
        return np.full(n, np.inf), np.full(n, np.inf)
    thr = threshold_fraction * peak

    n_iters, n = lag.shape
    arr_t = np.full(n, np.inf)
    arr_k = np.full(n, np.inf)
    hit = lag >= thr
    any_hit = hit.any(axis=0)
    first_k = np.argmax(hit, axis=0)
    for r in range(n):
        if any_hit[r]:
            k = int(first_k[r])
            arr_k[r] = k
            arr_t[r] = baseline.iteration_ends[k, r]
    return arr_t, arr_k


def measure_trace_wave(
    baseline: Trace,
    disturbed: Trace,
    source: int,
    *,
    threshold_fraction: float = 0.25,
    min_ranks: int = 3,
) -> TraceWaveFit:
    """Measure the idle wave launched at ``source`` from a trace pair."""
    lag = lag_matrix(baseline, disturbed)
    n = lag.shape[1]
    if not (0 <= source < n):
        raise ValueError(f"source rank {source} out of range")
    arr_t, arr_k = trace_arrival_times(baseline, disturbed,
                                       threshold_fraction=threshold_fraction)
    dist = _ring_distance(n, source)
    max_lag = lag.max(axis=0)

    reached = np.isfinite(arr_t) & (dist > 0)
    if reached.sum() >= min_ranks:
        d = dist[reached]
        slope_t = np.polyfit(d, arr_t[reached], 1)[0]
        slope_k = np.polyfit(d, arr_k[reached], 1)[0]
        speed_t = 1.0 / slope_t if slope_t > 0 else float("nan")
        speed_k = 1.0 / slope_k if slope_k > 0 else float("nan")
    else:
        speed_t = float("nan")
        speed_k = float("nan")

    # Amplitude decay with distance (exponential fit on positive lags).
    mask = (dist > 0) & (max_lag > 1e-12)
    if mask.sum() >= 3:
        coeffs = np.polyfit(dist[mask], np.log(max_lag[mask]), 1)
        decay = float(-1.0 / coeffs[0]) if coeffs[0] < 0 else float("inf")
    else:
        decay = float("nan")

    return TraceWaveFit(
        speed_ranks_per_second=float(speed_t),
        speed_ranks_per_iteration=float(speed_k),
        arrivals_time=arr_t,
        arrivals_iteration=arr_k,
        distances=dist,
        max_lag=max_lag,
        decay_length_ranks=decay,
    )
