"""Simulation driver: integrate a model into an `OscillatorTrajectory`.

One solve path: :func:`simulate_grid` integrates a set of members as one
``(R, N)`` super-state over the edge-list
:class:`~repro.backends.HeteroBatchedBackend`, and :func:`simulate` is a
one-member :func:`simulate_grid` — a member solved alone and the same
member inside a campaign shard share their bits.

Solver selection
----------------
* ``"dopri"`` (default) — the adaptive Dormand-Prince 5(4) pair, the
  method the paper's MATLAB artifact uses (``ode45``).  When noise or
  one-off delays make the RHS piecewise-smooth, the maximum step is
  capped at half the shortest feature length so the controller resolves
  the kinks instead of stepping over them.
* ``"rk4"`` / ``"euler"`` — fixed-step references.
* Interaction delays (``tau_ij > 0``) switch to a fixed-step RK4 with a
  cubic-Hermite :class:`~repro.integrate.history.HistoryBuffer`
  (method-of-steps; sub-step lookups past the last accepted point are
  linearly extrapolated from the recorded derivative, keeping the
  scheme second-order accurate for delays smaller than the step).
* ``"em"`` — Euler-Maruyama treating a Gaussian local-noise channel as
  true white noise instead of a frozen piecewise-constant sample.  Not
  available with interaction delays (the DDE path has no diffusion
  term).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..backends import HeteroBatchedBackend, make_batched_backend
from ..integrate import (
    HistoryBuffer,
    solve_dopri45,
    solve_euler,
    solve_euler_maruyama,
    solve_rk4,
)
from .initial import synchronized
from .model import KuramotoModel, PhysicalOscillatorModel
from .noise import GaussianJitter, NoNoise
from .trajectory import OscillatorTrajectory

__all__ = ["simulate", "simulate_grid", "simulate_kuramoto", "default_dt"]

#: the ``method=`` values of :func:`simulate` / :func:`simulate_grid`
METHODS = ("dopri", "rk4", "euler", "em")


def default_dt(model: PhysicalOscillatorModel, safety: float = 50.0) -> float:
    """A fixed step that resolves both the cycle and the coupling.

    The two time scales are the oscillation period ``T`` and the
    coupling relaxation time ``~1/v_p``; the step is the smaller of the
    two divided by ``safety``.
    """
    t_cycle = model.period
    v = abs(model.v_p)
    t_coupling = 1.0 / v if v > 0 else np.inf
    return min(t_cycle, t_coupling) / safety


def _noise_feature_dt(model: PhysicalOscillatorModel) -> float:
    """Shortest piecewise-constant feature the solver must resolve."""
    feature = np.inf
    noise = model.local_noise
    refresh = getattr(noise, "refresh", None)
    if refresh is not None and not isinstance(noise, NoNoise):
        feature = min(feature, float(refresh))
    for d in model.delays:
        feature = min(feature, max(d.effective_window, 1e-9))
    return feature


def simulate(
    model: PhysicalOscillatorModel,
    t_end: float,
    *,
    theta0: Sequence[float] | np.ndarray | None = None,
    method: str = "dopri",
    dt: float | None = None,
    rtol: float = 1e-6,
    atol: float = 1e-9,
    seed: int | None = None,
    n_samples: int | None = None,
    kernel: str | None = None,
    threads: int | None = None,
) -> OscillatorTrajectory:
    """Integrate the POM from 0 to ``t_end``.

    A one-member :func:`simulate_grid`: the same backend, solver and
    bits as this model's row in any member set.

    Parameters
    ----------
    model:
        Declarative model description.
    t_end:
        Integration horizon in seconds.
    theta0:
        Initial phases; default all-zero (synchronised).
    method:
        ``"dopri"`` | ``"rk4"`` | ``"euler"`` | ``"em"``.
    dt:
        Fixed step for the non-adaptive methods (default:
        :func:`default_dt`).
    rtol, atol:
        Tolerances for ``"dopri"``.
    seed:
        Seed for the noise realisation — fixed seed = reproducible run;
        ``None`` draws fresh entropy.
    n_samples:
        If set, the returned trajectory is resampled onto a uniform mesh
        of this many points (adaptive meshes are irregular).
    kernel:
        Coupling-loop kernel override (``"auto"`` | ``"numpy"`` |
        ``"cc"``, see :mod:`repro.kernels`); default: the model's own
        ``kernel`` knob.
    threads:
        In-kernel thread count for the compiled kernels (bit-identical
        for any value); default: ``POM_NUM_THREADS``, else 1.

    Returns
    -------
    OscillatorTrajectory
    """
    theta0 = (synchronized(model.n) if theta0 is None
              else np.asarray(theta0, dtype=float))
    if theta0.shape != (model.n,):
        raise ValueError(f"theta0 has shape {theta0.shape}, expected ({model.n},)")
    return simulate_grid(
        [model], t_end, seeds=seed, theta0=theta0, method=method, dt=dt,
        rtol=rtol, atol=atol, n_samples=n_samples, kernel=kernel,
        threads=threads)[0]


def _subset_rhs_factory(stacked: HeteroBatchedBackend):
    """Member-subset RHS factory for the per-member adaptive control.

    Builds (and caches) a small backend over just the requested member
    rows so the solver can re-step a few stiff members without paying
    for the whole batch.  Member rows are independent, which is what
    makes the row-subset evaluation exact.
    """
    cache: dict[tuple[int, ...], object] = {}

    def factory(idx: tuple[int, ...]):
        fn = cache.get(idx)
        if fn is None:
            fn = stacked.subset(idx).make_ode_rhs()
            if len(cache) < 64:     # bound memory for pathological grids
                cache[idx] = fn
        return fn

    return factory


def _solve_em_stacked(stacked: HeteroBatchedBackend, amps: np.ndarray,
                      t_end: float, theta0s: np.ndarray, dt: float,
                      seeds: Sequence[int], observer=None,
                      record: str | int = "full"):
    """Batched Euler-Maruyama: (R, N) Wiener increments inside the solver.

    ``amps`` is the per-member diffusion amplitude column ``(R, 1)``;
    each member's increments come from its own seeded generator, in the
    same order the sequential per-seed solve draws them, so the batched
    ensemble reproduces the one-seed-at-a-time runs bit for bit.
    """
    drift = stacked.make_em_drift()

    def diffusion(t: float, theta: np.ndarray) -> np.ndarray:
        return np.broadcast_to(amps, theta.shape)

    rngs = [np.random.default_rng(s) for s in seeds]
    return solve_euler_maruyama(drift, diffusion, (0.0, t_end), theta0s,
                                dt=dt, rng=rngs, observer=observer,
                                record=record)


def _em_amplitude(model: PhysicalOscillatorModel) -> float:
    """Diffusion amplitude of the EM noise mapping.

    The drift uses the *noise-free* intrinsic frequency plus the one-off
    delay schedule; the Gaussian channel's std maps to the diffusion
    amplitude ``omega^2/(2*pi) * std`` (first-order expansion of
    ``2*pi/(T + zeta)`` around ``zeta = 0``).
    """
    noise = model.local_noise
    if not isinstance(noise, GaussianJitter):
        raise ValueError('method "em" requires a GaussianJitter local noise')
    return model.omega ** 2 / (2.0 * np.pi) * noise.std


def _solve_stacked(stacked, models: Sequence[PhysicalOscillatorModel],
                   t_end: float, theta0s: np.ndarray, method: str,
                   dt: float, rtol: float, atol: float,
                   seeds: Sequence[int], observer=None,
                   record: str | int = "full"):
    """Solver dispatch of :func:`simulate_grid`.

    ``observer``/``record`` are the streaming-metrics hooks of
    :mod:`repro.metrics.streaming`: the observer sees the stacked
    ``(R, N)`` state at ``t0`` and after every accepted step (on every
    method, including the DDE path whose ``step_callback`` is occupied
    by the history buffer), while ``record`` controls which states the
    returned mesh retains.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; "
                         f"available: {', '.join(METHODS)}")
    if method == "em" and stacked.has_delays:
        # Interaction delays switch to the deterministic DDE integrator,
        # which has no diffusion term — silently dropping the white
        # noise would simulate the wrong stochastic model.
        raise ValueError(
            'method "em" is not supported for models with interaction '
            "delays (the DDE path has no diffusion term)"
        )
    if stacked.has_delays:
        history = HistoryBuffer(0.0, theta0s)
        rhs = stacked.make_dde_rhs(history)
        history._fs[0] = rhs(0.0, theta0s)

        def cb(t: float, y: np.ndarray) -> None:
            history.append(t, y, rhs(t, y))

        return solve_rk4(rhs, (0.0, t_end), theta0s, dt=dt, step_callback=cb,
                         observer=observer, record=record)
    if method == "dopri":
        max_step = min(_noise_feature_dt(m) for m in models) / 2.0
        return solve_dopri45(
            stacked.make_ode_rhs(), (0.0, t_end), theta0s,
            rtol=rtol, atol=atol,
            max_step=max_step if np.isfinite(max_step) else np.inf,
            subset_rhs=_subset_rhs_factory(stacked),
            observer=observer, record=record)
    if method == "rk4":
        return solve_rk4(stacked.make_ode_rhs(), (0.0, t_end), theta0s, dt=dt,
                         observer=observer, record=record)
    if method == "euler":
        return solve_euler(stacked.make_ode_rhs(), (0.0, t_end), theta0s,
                           dt=dt, observer=observer, record=record)
    amps = np.array([_em_amplitude(m) for m in models])[:, None]
    return _solve_em_stacked(stacked, amps, t_end, theta0s, dt, seeds,
                             observer=observer, record=record)


class _MemberDense:
    """One member's slice of a stacked ``(R, N)`` dense output."""

    def __init__(self, dense, member: int) -> None:
        self._dense = dense
        self._member = member

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return self._dense(t)[:, self._member, :]


def _fan_out(sol, models: Sequence[PhysicalOscillatorModel],
             seeds: Sequence[int],
             n_samples: int | None) -> list[OscillatorTrajectory]:
    """Slice a stacked solution back into per-member trajectories.

    Each member gets its own :class:`~repro.integrate.Solution` view —
    the shared mesh, its row of the states, a member-sliced dense output
    (when the solver built one), and the shared solver stats (including
    ``member_rejections`` from the per-member step control).
    """
    from ..integrate import Solution

    # Resample the whole stack in one pass — evaluating the stacked
    # dense output once and slicing rows, instead of one full-batch
    # evaluation per member.
    sampled = sol.resample(n_samples) if n_samples is not None else sol

    trajs = []
    for r, (model, seed) in enumerate(zip(models, seeds)):
        member_sol = Solution(
            ts=sol.ts, ys=sol.ys[:, r, :], stats=sol.stats,
            dense=(_MemberDense(sol.dense, r) if sol.dense is not None
                   else None),
            success=sol.success, message=sol.message)
        trajs.append(OscillatorTrajectory(
            ts=sampled.ts, thetas=sampled.ys[:, r, :],
            model=model, solution=member_sol, seed=seed))
    return trajs


def _as_seed(seed) -> int | None:
    """A member seed as a plain ``int``; ``None`` (fresh entropy) stays."""
    return None if seed is None else int(seed)


def grid_kernel(models: Sequence[PhysicalOscillatorModel]) -> str:
    """The ``kernel=`` request :func:`simulate_grid` makes for ``models``
    without an override: their declarative ``kernel`` field when they
    agree, else ``"auto"`` for the stacked backend."""
    requested = {m.kernel for m in models}
    return requested.pop() if len(requested) == 1 else "auto"


def simulate_grid(
    models: Sequence[PhysicalOscillatorModel],
    t_end: float,
    *,
    seeds: int | Sequence[int | None] | None = 0,
    theta0: Sequence[float] | np.ndarray | None = None,
    theta0s: Sequence | np.ndarray | None = None,
    method: str = "dopri",
    dt: float | None = None,
    rtol: float = 1e-6,
    atol: float = 1e-9,
    n_samples: int | None = None,
    kernel: str | None = None,
    threads: int | None = None,
    observer=None,
    record: str | int = "full",
) -> list[OscillatorTrajectory]:
    """Integrate a set of members as one ``(R, N)`` super-state.

    The one solve behind every member set: seed ensembles
    (:func:`repro.core.run_ensemble`), model-mode grids
    (:func:`repro.core.grid_sweep`) and every campaign shard of
    :mod:`repro.runs`.  The models may differ in coupling strength,
    period, potential, noise, one-off delay schedule — and even
    **topology** (a machine-design sweep over same-N candidate networks
    runs through the backend's padded stacked edge-list path,
    bit-identical to grouping by topology) — only the oscillator count N
    must be shared.  All members are compiled into a single
    :class:`~repro.backends.HeteroBatchedBackend` and integrated in one
    solver pass; per-member trajectories are fanned back out, each
    carrying its own model metadata.

    The members share one time mesh.  Under ``"dopri"`` every member
    individually satisfies the tolerances (per-member error norm, see
    :func:`repro.integrate.controller.error_norm`), and a member that
    rejects a step the rest accepted is re-stepped on its own instead of
    shrinking the shared step.  :func:`simulate` is the one-member case;
    under the fixed-step methods (and the DDE path) each member matches
    its own :func:`simulate` call bit for bit, because every row runs the
    same arithmetic whatever the other rows hold.

    Parameters
    ----------
    models:
        One declarative model per member.
    t_end:
        Shared integration horizon.
    seeds:
        A single seed applied to every member (the usual sweep
        convention: identical noise stream per point), or one seed per
        model.  ``None`` draws fresh entropy for every member.
    theta0:
        Shared initial phases for all members (default: synchronised).
    theta0s:
        Per-member initial phases ``(R, N)``; overrides ``theta0``.
    method, dt, rtol, atol, n_samples, kernel, threads:
        As in :func:`simulate`.  ``"em"`` batches too: each member draws
        its ``(N,)`` Wiener increments from its own seeded generator, in
        the order :func:`simulate` draws them.
    observer:
        Streaming-metrics hook (e.g. a
        :class:`repro.metrics.streaming.StreamingObserver`), called with
        the stacked ``(R, N)`` state at ``t0`` and after every accepted
        step.  Never changes the integration itself.
    record:
        Trajectory retention: ``"full"`` (default) | ``"none"`` |
        stride ``K``.  Thinned retention is incompatible with
        ``n_samples`` (resampling needs the full mesh).

    Returns
    -------
    list[OscillatorTrajectory]
        One trajectory per model, in input order, all on the shared mesh.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if n_samples is not None and record != "full":
        raise ValueError('n_samples requires record="full"')
    models = list(models)
    if len(models) == 0:
        raise ValueError("need at least one model")
    n = models[0].n
    for m in models[1:]:
        if m.n != n:
            raise ValueError("grid models disagree on N")

    if np.ndim(seeds) == 0:
        seed_list = [_as_seed(seeds)] * len(models)
    else:
        seed_list = [_as_seed(s) for s in seeds]
        if len(seed_list) != len(models):
            raise ValueError(
                f"got {len(seed_list)} seeds for {len(models)} models")

    if kernel is None:
        kernel = grid_kernel(models)
    members = [m.realize(t_end, rng=s, kernel=kernel)
               for m, s in zip(models, seed_list)]
    stacked = make_batched_backend(members, kernel=kernel, threads=threads)

    if theta0s is not None:
        theta0s = np.asarray(theta0s, dtype=float).copy()
    else:
        base = (synchronized(n) if theta0 is None
                else np.asarray(theta0, dtype=float))
        theta0s = np.tile(base, (len(models), 1))
    if theta0s.shape != (len(models), n):
        raise ValueError(
            f"stacked theta0 has shape {theta0s.shape}, "
            f"expected ({len(models)}, {n})"
        )
    if dt is None:
        dt = min(default_dt(m) for m in models)

    sol = _solve_stacked(stacked, models, t_end, theta0s, method, dt,
                         rtol, atol, seed_list, observer=observer,
                         record=record)
    if not sol.success:
        raise RuntimeError(f"grid integration failed: {sol.message}")
    return _fan_out(sol, models, seed_list, n_samples)


def simulate_kuramoto(
    model: KuramotoModel,
    t_end: float,
    *,
    theta0: Sequence[float] | np.ndarray | None = None,
    method: str = "dopri",
    dt: float | None = None,
    rtol: float = 1e-6,
    atol: float = 1e-9,
):
    """Integrate the plain Kuramoto baseline; returns the raw Solution.

    (The Kuramoto model has no notion of topology/potential metadata, so
    no :class:`OscillatorTrajectory` wrapper — metrics operate on the
    arrays directly.)
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    theta0 = (np.zeros(model.n) if theta0 is None
              else np.asarray(theta0, dtype=float).copy())
    if theta0.shape != (model.n,):
        raise ValueError(f"theta0 has shape {theta0.shape}, expected ({model.n},)")
    if method == "dopri":
        return solve_dopri45(model.rhs, (0.0, t_end), theta0, rtol=rtol, atol=atol)
    if method == "rk4":
        if dt is None:
            dt = 0.02 / max(abs(model.coupling_k), float(np.max(np.abs(model.omega_vec))), 1.0)
        return solve_rk4(model.rhs, (0.0, t_end), theta0, dt=dt)
    raise ValueError(f"unknown method {method!r}")
