"""Parameter sweeps for the in-text claims (Sec. 5.1 / 5.2).

CLAIM-BK  — idle-wave speed grows monotonically with the coupling knob
            ``beta*kappa``; ``beta*kappa ~ 0`` means free-running
            processes (no wave), large values a stiff, strongly
            synchronising system.
CLAIM-SIGMA — the bottleneck horizon ``sigma`` sets both the asymptotic
            phase gap (``2*sigma/3``) and (inversely) the idle-wave
            speed: small sigma = stiff code, fast waves, small spread.
CLAIM-KM  — the plain Kuramoto model cannot reproduce the parallel-
            program phenomenology: all-to-all coupling synchronises in
            O(1) cycles (a per-cycle barrier), and no stable
            desynchronised state exists for any K > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core import (
    BottleneckPotential,
    KuramotoPotential,
    PhysicalOscillatorModel,
    TanhPotential,
    all_to_all,
    ring,
    simulate,
)
from ..metrics.order_parameter import order_parameter_series
from ..metrics.sync import classify, settle_time
from ..metrics.wave import measure_wave_speed
from ..runs import ScenarioSpec, run_spec
from ..viz.export import write_csv

__all__ = [
    "BetaKappaSweep",
    "SigmaSweep",
    "KuramotoBaseline",
    "beta_kappa_spec",
    "sigma_spec",
    "sweep_beta_kappa",
    "sweep_sigma",
    "kuramoto_baseline",
]

_T_INJECT = 20.0


def beta_kappa_spec(
    values: np.ndarray | list[float] | None = None,
    *,
    n_ranks: int = 24,
    t_comp: float = 0.9,
    t_comm: float = 0.1,
    t_end: float = 300.0,
    delay_rank: int = 4,
    seed: int = 0,
) -> ScenarioSpec:
    """The CLAIM-BK campaign as a declarative :class:`ScenarioSpec`.

    The ``v_p_override`` axis carries ``beta*kappa / T`` per grid point;
    everything else (ring, tanh potential, the one-off delay) is the
    shared base model.
    """
    if values is None:
        values = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    period = t_comp + t_comm
    return ScenarioSpec(
        name="sweep-beta-kappa",
        model={
            "topology": {"kind": "ring", "n": n_ranks, "distances": [1, -1]},
            "potential": {"kind": "tanh"},
            "t_comp": t_comp,
            "t_comm": t_comm,
            "delays": [{"rank": delay_rank, "t_start": _T_INJECT,
                        "delay": 2.0 * period}],
        },
        t_end=t_end,
        seed=seed,
        axes=[("v_p_override", [float(bk) / period for bk in values])],
    )


def sigma_spec(
    sigmas: np.ndarray | list[float] | None = None,
    *,
    n_ranks: int = 24,
    t_comp: float = 0.9,
    t_comm: float = 0.1,
    t_end: float = 500.0,
    delay_rank: int = 4,
    seed: int = 0,
) -> ScenarioSpec:
    """The CLAIM-SIGMA campaign as a declarative :class:`ScenarioSpec`."""
    if sigmas is None:
        sigmas = np.array([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
    return ScenarioSpec(
        name="sweep-sigma",
        model={
            "topology": {"kind": "ring", "n": n_ranks, "distances": [1, -1]},
            "potential": {"kind": "bottleneck"},
            "t_comp": t_comp,
            "t_comm": t_comm,
            "delays": [{"rank": delay_rank, "t_start": _T_INJECT,
                        "delay": 2.0 * (t_comp + t_comm)}],
        },
        t_end=t_end,
        seed=seed,
        initial={"kind": "normal", "std": 1e-3, "seed": seed},
        axes=[("potential.sigma", [float(s) for s in sigmas])],
    )


@dataclass
class BetaKappaSweep:
    """CLAIM-BK result: wave speed and settle time vs beta*kappa.

    Attributes
    ----------
    beta_kappa:
        The swept coupling values.
    wave_speed:
        Idle-wave speed (ranks/s) per value (nan = no wave detected).
    resync_time:
        Settle time back to synchrony after the one-off delay (s).
    spread_peak:
        Maximum co-moving spread during the transient (rad).
    """

    beta_kappa: np.ndarray
    wave_speed: np.ndarray
    resync_time: np.ndarray
    spread_peak: np.ndarray


def sweep_beta_kappa(
    values: np.ndarray | list[float] | None = None,
    *,
    n_ranks: int = 24,
    t_comp: float = 0.9,
    t_comm: float = 0.1,
    t_end: float = 300.0,
    delay_rank: int = 4,
    seed: int = 0,
    out_dir: str | Path | None = None,
    jobs: int = 1,
    shard_members: int | None = None,
    cache=None,
    resume: bool = True,
) -> BetaKappaSweep:
    """Sweep the coupling strength (via ``v_p_override = beta*kappa/T``).

    Uses a fixed next-neighbour ring and the scalable potential so only
    the coupling knob varies (the paper's Sec. 5.1.1 story).  The
    campaign is :func:`beta_kappa_spec`, run through the run
    orchestration layer (:mod:`repro.runs`): the grid compiles to
    stacked shards, executes on ``jobs`` processes, and — with
    ``cache=`` — replays/resumes from the content-addressed result
    store.  The default ``shard_members=None`` fuses the whole grid into
    one stacked solve; ``shard_members=1`` solves point by point (the
    cross-check against :func:`repro.core.simulate`), and bounded
    shards in between trade mesh identity (dopri results then agree
    within solver tolerances) for multiprocess scaling.
    """
    if values is None:
        values = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    values = np.asarray(values, dtype=float)

    run = run_spec(
        beta_kappa_spec(values, n_ranks=n_ranks, t_comp=t_comp,
                        t_comm=t_comm, t_end=t_end,
                        delay_rank=delay_rank, seed=seed),
        jobs=jobs, shard_members=shard_members, cache=cache, resume=resume)
    trajs = run.trajectories()

    speeds, resync, peaks = [], [], []
    for traj in trajs:
        model = traj.model
        wave = measure_wave_speed(traj.ts, traj.thetas, model.omega,
                                  delay_rank, t_injection=_T_INJECT)
        speeds.append(wave.speed)
        st = settle_time(traj.ts, traj.thetas, model.omega, tol=0.1)
        # Time from the injection, not from t=0.
        resync.append(st - _T_INJECT if np.isfinite(st) else np.inf)
        x = traj.comoving_phases()
        peaks.append(float((x.max(axis=1) - x.min(axis=1)).max()))

    result = BetaKappaSweep(
        beta_kappa=values,
        wave_speed=np.asarray(speeds),
        resync_time=np.asarray(resync),
        spread_peak=np.asarray(peaks),
    )
    if out_dir is not None:
        write_csv(Path(out_dir) / "sweep_beta_kappa.csv",
                  {"beta_kappa": values, "wave_speed_ranks_per_s": speeds,
                   "resync_time_s": resync, "spread_peak_rad": peaks},
                  meta={"experiment": "CLAIM-BK", "n_ranks": n_ranks})
    return result


@dataclass
class SigmaSweep:
    """CLAIM-SIGMA result: asymptotics vs the interaction horizon.

    Attributes
    ----------
    sigma:
        Swept horizon values.
    mean_abs_gap:
        Asymptotic |adjacent gap| (theory: ``2*sigma/3``).
    theory_gap:
        ``2*sigma/3``.
    phase_spread:
        Asymptotic co-moving spread (grows with sigma).
    wave_speed:
        Idle-wave speed from a one-off delay on the desynchronised
        background (decreases with sigma).
    """

    sigma: np.ndarray
    mean_abs_gap: np.ndarray
    theory_gap: np.ndarray
    phase_spread: np.ndarray
    wave_speed: np.ndarray


def sweep_sigma(
    sigmas: np.ndarray | list[float] | None = None,
    *,
    n_ranks: int = 24,
    t_comp: float = 0.9,
    t_comm: float = 0.1,
    t_end: float = 500.0,
    delay_rank: int = 4,
    seed: int = 0,
    out_dir: str | Path | None = None,
    jobs: int = 1,
    shard_members: int | None = None,
    cache=None,
    resume: bool = True,
) -> SigmaSweep:
    """Sweep the bottleneck horizon sigma on a next-neighbour ring.

    The campaign is :func:`sigma_spec`, run through the run
    orchestration layer (:mod:`repro.runs`) — one stacked super-state by
    default (the potentials differ per member; the heterogeneous backend
    groups them), point by point with ``shard_members=1`` (the
    cross-check against :func:`repro.core.simulate`), sharded across
    ``jobs`` processes when ``shard_members`` bounds the shard size,
    cached/resumable with ``cache=``.
    """
    if sigmas is None:
        sigmas = np.array([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
    sigmas = np.asarray(sigmas, dtype=float)

    run = run_spec(
        sigma_spec(sigmas, n_ranks=n_ranks, t_comp=t_comp, t_comm=t_comm,
                   t_end=t_end, delay_rank=delay_rank, seed=seed),
        jobs=jobs, shard_members=shard_members, cache=cache, resume=resume)
    trajs = run.trajectories()

    gaps, spreads, speeds = [], [], []
    for traj in trajs:
        model = traj.model
        verdict = classify(traj.ts, traj.thetas, model.omega)
        gaps.append(verdict.mean_abs_gap)
        spreads.append(verdict.final_spread)
        wave = measure_wave_speed(traj.ts, traj.thetas, model.omega,
                                  delay_rank, t_injection=_T_INJECT)
        speeds.append(wave.speed)

    result = SigmaSweep(
        sigma=sigmas,
        mean_abs_gap=np.asarray(gaps),
        theory_gap=2.0 * sigmas / 3.0,
        phase_spread=np.asarray(spreads),
        wave_speed=np.asarray(speeds),
    )
    if out_dir is not None:
        write_csv(Path(out_dir) / "sweep_sigma.csv",
                  {"sigma": sigmas, "mean_abs_gap": gaps,
                   "theory_gap": result.theory_gap,
                   "phase_spread": spreads, "wave_speed": speeds},
                  meta={"experiment": "CLAIM-SIGMA", "n_ranks": n_ranks})
    return result


@dataclass
class KuramotoBaseline:
    """CLAIM-KM result: why the plain Kuramoto model is unsuitable.

    Attributes
    ----------
    km_sync_time:
        Time for the all-to-all Kuramoto model to reach r > 0.99 from a
        perturbed state — effectively immediate (the "barrier").
    pom_sync_time:
        Same threshold for the sparse-ring POM — finite, topology-
        limited relaxation.
    km_final_gap:
        Asymptotic |gap| of the Kuramoto model started from the
        ring-compatible zigzag wavefront (gaps alternating ±2*sigma/3):
        the sinusoidal coupling collapses it towards synchrony — the KM
        has no stable desynchronised state for K > 0.
    pom_final_gap:
        Asymptotic |gap| of the bottleneck POM from the same start
        (holds the 2*sigma/3 wavefront: it is a stable equilibrium).
    km_phase_slip_invariance:
        Max RHS difference when shifting one oscillator by 2*pi —
        ulp-level for Kuramoto (phase slips allowed), > 0 for the POM.
    pom_phase_slip_invariance:
        Same probe for the POM potentials (tanh): non-zero.
    """

    km_sync_time: float
    pom_sync_time: float
    km_final_gap: float
    pom_final_gap: float
    km_phase_slip_invariance: float
    pom_phase_slip_invariance: float


def kuramoto_baseline(
    *,
    n: int = 24,
    coupling_k: float = 2.0,
    sigma: float = 1.5,
    t_end: float = 300.0,
    seed: int = 0,
    out_dir: str | Path | None = None,
) -> KuramotoBaseline:
    """Run the three CLAIM-KM probes.

    The Kuramoto side is the Eq. 2 member that is Eq. 1: the ``sin``
    potential on ``all_to_all(n)`` with ``v_p = K``, at the ring POM's
    frequency ``2*pi/(t_comp + t_comm)``.
    """
    rng = np.random.default_rng(seed)
    theta0 = rng.uniform(-0.5, 0.5, size=n)

    # 1. Sync speed: all-to-all KM vs sparse-ring POM (same frequency).
    km = PhysicalOscillatorModel(all_to_all(n), KuramotoPotential(),
                                 t_comp=0.9, t_comm=0.1,
                                 v_p_override=coupling_k)
    traj_km = simulate(km, t_end, theta0=theta0, seed=seed)
    r = order_parameter_series(traj_km.thetas)
    km_sync = _first_crossing(traj_km.ts, r, 0.99)

    pom = PhysicalOscillatorModel(
        topology=ring(n, (1, -1)), potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1,
    )
    traj = simulate(pom, t_end, theta0=theta0, seed=seed)
    rp = order_parameter_series(traj.thetas)
    pom_sync = _first_crossing(traj.ts, rp, 0.99)

    # 2. Desync capability: start in the ring-compatible zigzag
    # wavefront (gaps alternating +-2*sigma/3) and watch the gap.
    gap0 = 2.0 * sigma / 3.0
    zigzag = np.tile([0.0, gap0], n // 2 + 1)[:n]
    traj_km2 = simulate(km, t_end, theta0=zigzag, seed=seed)
    km_gap = float(np.abs(np.diff(traj_km2.final_phases)).mean())
    pom2 = PhysicalOscillatorModel(
        topology=ring(n, (1, -1)), potential=BottleneckPotential(sigma=sigma),
        t_comp=0.9, t_comm=0.1,
    )
    traj2 = simulate(pom2, t_end, theta0=zigzag, seed=seed)
    v2 = classify(traj2.ts, traj2.thetas, pom2.omega)
    pom_gap = v2.mean_abs_gap

    # 3. Phase slips: shift one oscillator by 2*pi and compare the RHS.
    theta = rng.uniform(0, 2 * np.pi, size=n)
    shifted = theta.copy()
    shifted[0] += 2.0 * np.pi
    km_slip, pom_slip = (
        float(np.abs(rhs(0.0, theta) - rhs(0.0, shifted)).max())
        for rhs in (km.realize(1.0, rng=0).rhs, pom.realize(1.0, rng=0).rhs))

    result = KuramotoBaseline(
        km_sync_time=km_sync,
        pom_sync_time=pom_sync,
        km_final_gap=km_gap,
        pom_final_gap=pom_gap,
        km_phase_slip_invariance=km_slip,
        pom_phase_slip_invariance=pom_slip,
    )
    if out_dir is not None:
        write_csv(Path(out_dir) / "kuramoto_baseline.csv",
                  {"metric": ["sync_time_s", "final_gap_rad",
                              "phase_slip_rhs_change"],
                   "kuramoto": [km_sync, km_gap, km_slip],
                   "pom": [pom_sync, pom_gap, pom_slip]},
                  meta={"experiment": "CLAIM-KM", "n": n, "K": coupling_k,
                        "sigma": sigma})
    return result


def _first_crossing(ts: np.ndarray, series: np.ndarray,
                    threshold: float) -> float:
    """First time the series exceeds the threshold and stays there."""
    above = series >= threshold
    if not above[-1]:
        return float("inf")
    idx = len(above) - 1
    while idx > 0 and above[idx - 1]:
        idx -= 1
    return float(ts[idx])
