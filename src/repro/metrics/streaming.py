"""Streaming in-solve reductions over the batched ``(R, N)`` super-state.

The paper's Sec. 5 claims only ever consume kilobyte-scale reductions
(order parameter, desync wavefront, energy) — never the ``(R, n_t, N)``
trajectory stack itself.  This module makes those reductions
first-class: a :class:`StreamingObserver` folds named metric
accumulators per accepted solver step, so shards can cache metric
arrays instead of trajectories (``ScenarioSpec(metrics=[...],
trajectories="none")``).

Bit-identity is by construction, not by luck: the *same* per-sample
kernels run in both paths.  Streaming calls them on the live solver
state after each accepted step; :func:`metrics_from_trajectories`
re-drives the same observer over the stored trajectory rows.  Because
each row is copied to the same contiguous ``(R, N)`` layout the solver
produced, every reduction sees identical bytes in identical order —
streamed and post-hoc results are equal to the last bit for every
integrator (asserted by the test suite and CI).

The order parameter's ``cos``/``sin`` means (:func:`mean_cos_sin`) are
the one reduction here with a compiled twin: on a ``cc`` shard they run
:func:`repro.kernels.cc.mean_cos_sin` (libmvec SIMD ``cos``/``sin``, an
order of magnitude faster than NumPy's scalar libm pass at N = 1e4), on
a ``numpy`` shard the NumPy reference.  The observer picks the kernel
its members' coupling resolves to, which the shard's payload and cache
key already name, and the post-hoc path re-derives it from the same
members.  The compiled reduction is row-local and thread-count
invariant, so the bit-identity above holds under either kernel.

Registry
--------
``order_parameter``
    Kuramoto ``r(t)`` per member, shape ``(R, n_t)`` — the formula of
    :func:`repro.metrics.order_parameter.order_parameter_series`.
``phase_spread``
    ``max(theta) - min(theta)`` per member, shape ``(R, n_t)``.
``energy``
    Interaction energy ``(v_p / 2N) * sum_edges U(theta_i - theta_j)``
    per member, shape ``(R, n_t)``, evaluated on each member's own edge
    list (the uniform rotation cancels in the differences, so raw phases
    equal the co-moving frame here).
``wavefront``
    Per-rank first arrival time of the idle wave, shape ``(R, N)``:
    the first accepted step where the co-moving phase deficit relative
    to the initial state exceeds the threshold
    (:func:`repro.metrics.wave.arrival_times` semantics with
    ``t_injection = 0``); ``inf`` for ranks never reached.
``phase_histogram``
    Occupancy counts of the wrapped phases over ``HISTOGRAM_BINS``
    uniform bins on ``[0, 2*pi)``, accumulated over all accepted steps,
    shape ``(R, HISTOGRAM_BINS)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.simulation import grid_kernel
from ..kernels import cc, family_coefficients, resolve_kernel, resolve_threads

__all__ = [
    "HISTOGRAM_BINS",
    "METRIC_NAMES",
    "SERIES_METRICS",
    "WAVEFRONT_THRESHOLD",
    "StreamingObserver",
    "metrics_from_trajectories",
    "parse_trajectories",
    "validate_metrics",
]

#: the named reductions a ScenarioSpec may declare
METRIC_NAMES = ("order_parameter", "phase_spread", "energy", "wavefront",
                "phase_histogram")

#: reductions producing one value per member per accepted step
SERIES_METRICS = ("order_parameter", "phase_spread", "energy")

#: phase-deficit threshold of the streaming wavefront detector (matches
#: the default of :func:`repro.metrics.wave.arrival_times`)
WAVEFRONT_THRESHOLD = 0.1

#: uniform bins over [0, 2*pi) of the streaming phase histogram
HISTOGRAM_BINS = 32

_TWO_PI = 2.0 * np.pi


def validate_metrics(metrics) -> tuple[str, ...]:
    """Normalise a spec's ``metrics`` field to a tuple of known names.

    Order is preserved (it fixes artefact column order); duplicates and
    unknown names raise.
    """
    if metrics is None:
        return ()
    if isinstance(metrics, str):
        raise ValueError(
            f"metrics must be a sequence of names, got the string "
            f"{metrics!r} (did you mean [{metrics!r}]?)")
    out = tuple(str(m) for m in metrics)
    seen = set()
    for name in out:
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r}; available: "
                             f"{', '.join(METRIC_NAMES)}")
        if name in seen:
            raise ValueError(f"duplicate metric {name!r}")
        seen.add(name)
    return out


def parse_trajectories(mode: str):
    """Parse a ``trajectories`` mode into a solver ``record`` value.

    ``"full"`` and ``"none"`` pass through; ``"stride:K"`` returns the
    positive integer ``K`` (keep every K-th accepted step, plus the
    initial and final states).
    """
    if mode in ("full", "none"):
        return mode
    if isinstance(mode, str) and mode.startswith("stride:"):
        try:
            k = int(mode.split(":", 1)[1])
        except ValueError:
            k = 0
        if k >= 1:
            return k
    raise ValueError(
        f"unknown trajectories mode {mode!r}; expected \"full\", "
        "\"none\", or \"stride:K\" with integer K >= 1")


# ----------------------------------------------------------------------
# per-sample kernels — the single source of truth for both the
# streaming and the post-hoc path (this sharing is what makes them
# bit-identical)
# ----------------------------------------------------------------------
def mean_cos_sin(theta: np.ndarray, kernel: str = "auto",
                 threads: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary part of ``mean(exp(i*theta))`` over the last axis.

    The one order-parameter reduction: :func:`sample_order_parameter`
    and :mod:`repro.metrics.order_parameter` both call it.  ``kernel``
    (resolved by :func:`repro.kernels.resolve_kernel`) picks the
    implementation: ``"numpy"`` is the reference, two real passes that
    cost half of one complex ``exp``; ``"cc"`` is the compiled
    :func:`repro.kernels.cc.mean_cos_sin`, which agrees with it to a few
    ulps and gives the same bits for a row wherever it sits in the
    input and for any ``threads`` (default: ``POM_NUM_THREADS``).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size == 0 or resolve_kernel(kernel, has_coefficients=True) \
            == "numpy":
        return np.cos(theta).mean(axis=-1), np.sin(theta).mean(axis=-1)
    theta = np.ascontiguousarray(theta)
    out = np.empty((2,) + theta.shape[:-1])
    cc.mean_cos_sin(theta.reshape(-1, theta.shape[-1]), out.reshape(2, -1),
                    resolve_threads(threads))
    c, s = out
    return c[()], s[()]


def sample_order_parameter(y: np.ndarray, kernel: str = "auto",
                           threads: int | None = None) -> np.ndarray:
    """Kuramoto ``r`` of each member row of a ``(R, N)`` state."""
    return np.hypot(*mean_cos_sin(y, kernel, threads))


def sample_phase_spread(y: np.ndarray) -> np.ndarray:
    """``max - min`` phase spread of each member row."""
    return y.max(axis=1) - y.min(axis=1)


def sample_energy(y: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                  potentials: Sequence, vp_over_2n: np.ndarray) -> np.ndarray:
    """Interaction energy of each member row, on one shared edge list.

    The one energy formula: :func:`repro.metrics.energy.system_energy`
    and the streamed ``energy`` metric both call it.
    """
    d = y[:, rows] - y[:, cols]
    out = np.empty(len(potentials), dtype=float)
    for r, pot in enumerate(potentials):
        u = np.asarray(pot.antiderivative(d[r]), dtype=float)
        out[r] = vp_over_2n[r] * u.sum()
    return out


def sample_histogram_indices(y: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin index of each wrapped phase over ``[0, 2*pi)``."""
    idx = np.floor(np.mod(y, _TWO_PI) * (n_bins / _TWO_PI)).astype(np.intp)
    return np.clip(idx, 0, n_bins - 1)


def _members_kernel(models: Sequence) -> str:
    """The kernel :func:`repro.core.simulate_grid`'s stacked backend of
    ``models`` resolves to."""
    coeffs = family_coefficients([m.potential for m in models])
    return resolve_kernel(grid_kernel(models),
                          has_coefficients=coeffs is not None)


class StreamingObserver:
    """Fold metric accumulators over accepted solver steps.

    Built once per shard from the fused member models; the integrators
    call it as ``observer(t, y)`` with the stacked ``(R, N)`` state at
    ``t0`` and after every accepted step.  :meth:`finalize` returns the
    kilobyte-scale arrays the cache stores::

        {"metrics_ts": (n_t,),
         "metric_<series>": (R, n_t),       # order_parameter, ...
         "metric_wavefront": (R, N),        # arrival times, inf unreached
         "metric_phase_histogram": (R, B)}  # int64 occupancy counts

    The order parameter runs on the kernel the members' coupling
    resolves to (the one :func:`repro.core.simulate_grid` picks), so a
    shard's streamed metric bits are keyed by the kernel its payload
    names, and re-driving the observer over stored trajectories of the
    same members reproduces them.  ``threads`` sets that kernel's
    thread count, which never changes the bits.

    The observer is single-use: observing after :meth:`finalize` or
    finalizing twice is not supported.
    """

    def __init__(self, models: Sequence, metrics: Sequence[str], *,
                 n_bins: int = HISTOGRAM_BINS,
                 wavefront_threshold: float = WAVEFRONT_THRESHOLD,
                 threads: int | None = None) -> None:
        self.metrics = validate_metrics(metrics)
        self._ts: list[float] = []
        self._series: dict[str, list[np.ndarray]] = {
            name: [] for name in self.metrics if name in SERIES_METRICS}
        self._n_bins = int(n_bins)
        self._threshold = float(wavefront_threshold)
        if "order_parameter" in self.metrics:
            self._kernel = _members_kernel(models)
            self._threads = threads

        if "energy" in self.metrics:
            # One pass per distinct edge list: a topology-fused shard
            # stacks members of different topologies.
            from ..backends.hetero import same_topology

            groups: list[tuple] = []
            for r, m in enumerate(models):
                for topo, members in groups:
                    if same_topology(topo, m.topology):
                        members.append(r)
                        break
                else:
                    groups.append((m.topology, [r]))
            vp_over_2n = np.array([m.v_p / (2.0 * m.n) for m in models],
                                  dtype=float)
            self._energy_groups = [
                (np.asarray(members, dtype=np.intp), *topo.edge_list(),
                 [models[r].potential for r in members],
                 vp_over_2n[members])
                for topo, members in groups]
        if "wavefront" in self.metrics:
            self._omegas = np.array([m.omega for m in models],
                                    dtype=float)[:, None]
            self._baseline: np.ndarray | None = None
            self._arrivals: np.ndarray | None = None
        if "phase_histogram" in self.metrics:
            self._counts: np.ndarray | None = None

    def __call__(self, t: float, y: np.ndarray) -> None:
        """Observe the state at one accepted step (or ``t0``)."""
        t = float(t)
        self._ts.append(t)
        for name in self.metrics:
            if name == "order_parameter":
                self._series[name].append(sample_order_parameter(
                    y, self._kernel, self._threads))
            elif name == "phase_spread":
                self._series[name].append(sample_phase_spread(y))
            elif name == "energy":
                energy = np.empty(y.shape[0])
                for idx, rows, cols, pots, vps in self._energy_groups:
                    energy[idx] = sample_energy(y[idx], rows, cols, pots,
                                                vps)
                self._series[name].append(energy)
            elif name == "wavefront":
                x = y - self._omegas * t
                if self._baseline is None:
                    self._baseline = np.array(x)
                    self._arrivals = np.full(y.shape, np.inf)
                newly = ((self._baseline - x >= self._threshold)
                         & np.isinf(self._arrivals))
                self._arrivals[newly] = t
            elif name == "phase_histogram":
                idx = sample_histogram_indices(y, self._n_bins)
                if self._counts is None:
                    self._counts = np.zeros((y.shape[0], self._n_bins),
                                            dtype=np.int64)
                for r in range(idx.shape[0]):
                    self._counts[r] += np.bincount(
                        idx[r], minlength=self._n_bins)

    @property
    def n_observed(self) -> int:
        """Accepted steps observed so far (including ``t0``)."""
        return len(self._ts)

    def finalize(self) -> dict[str, np.ndarray]:
        """The cacheable metric arrays (empty dict for no metrics)."""
        if not self.metrics:
            return {}
        out: dict[str, np.ndarray] = {
            "metrics_ts": np.asarray(self._ts, dtype=float)}
        for name in self.metrics:
            if name in SERIES_METRICS:
                out[f"metric_{name}"] = np.stack(self._series[name], axis=1)
            elif name == "wavefront":
                out["metric_wavefront"] = self._arrivals
            elif name == "phase_histogram":
                out["metric_phase_histogram"] = self._counts
        return out


def metrics_from_trajectories(ts: np.ndarray, thetas: np.ndarray,
                              models: Sequence, metrics: Sequence[str], *,
                              n_bins: int = HISTOGRAM_BINS) -> dict:
    """Post-hoc metrics from a stored ``(R, n_t, N)`` trajectory stack.

    Re-drives a :class:`StreamingObserver` over the trajectory rows —
    the same kernels (the order parameter's resolved from ``models``,
    as in the solve), on the same contiguous ``(R, N)`` layout the
    solver streamed — so the result is bit-identical to the in-solve
    metrics of the same run.
    """
    ts = np.asarray(ts, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 3:
        raise ValueError(
            f"thetas must be a (R, n_t, N) stack, got shape {thetas.shape}")
    if thetas.shape[1] != ts.shape[0]:
        raise ValueError("shape mismatch between ts and thetas")
    obs = StreamingObserver(models, metrics, n_bins=n_bins)
    for k in range(ts.shape[0]):
        obs(ts[k], np.ascontiguousarray(thetas[:, k, :]))
    return obs.finalize()
