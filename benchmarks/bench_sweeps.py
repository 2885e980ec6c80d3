"""Looped vs. batched parameter-sweep benchmark — JSON artefact writer.

Measures the claims of the heterogeneous batching layer:

1. **sweep_sigma wall-clock** — the Sec. 5.2.2 bottleneck-horizon grid
   (16 points at the paper's N = 24 ring), one stacked solve vs. the
   point-by-point loop (``shard_members=1``: one single-member shard
   per point).
2. **sweep_beta_kappa wall-clock** — the Sec. 5.1.1 coupling-strength
   grid, idem (members differ in ``v_p``; the stiffest member sub-steps
   on its own under the per-member step control).
3. **Batched Euler-Maruyama** — a stochastic seed ensemble integrated as
   one ``(R, N)`` super-state with per-member Wiener streams
   (``run_ensemble``) vs. a loop of ``simulate()``, including the
   seed-for-seed equivalence check of ``simulate_grid`` against it.
4. **Topology-axis fusion** (PR 10) — a machine-design grid (same model,
   four same-N candidate interconnects) solved as one fused stacked
   shard vs. one shard per topology group, including the bit-identity
   check between the two layouts.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_sweeps.py --out BENCH_sweeps.json

``--quick`` shrinks the horizons/grids for CI smoke jobs.  The JSON
artefact records the numbers so the perf trajectory is tracked from PR
to PR.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from statistics import median

import numpy as np

from repro.core import (
    GaussianJitter,
    PhysicalOscillatorModel,
    TanhPotential,
    ring,
    run_ensemble,
    simulate,
    simulate_grid,
)
from repro.experiments.sweeps import sweep_beta_kappa, sweep_sigma


def _time(fn, repeats: int) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(median(times))


def bench_sweep_sigma(n_points: int, n_ranks: int, t_end: float,
                      repeats: int) -> dict:
    """CLAIM-SIGMA grid: one stacked solve vs. the per-point loop."""
    sigmas = np.linspace(0.25, 3.0, n_points)
    t_loop = _time(lambda: sweep_sigma(sigmas=sigmas, n_ranks=n_ranks,
                                       t_end=t_end, shard_members=1),
                   repeats)
    t_bat = _time(lambda: sweep_sigma(sigmas=sigmas, n_ranks=n_ranks,
                                      t_end=t_end), repeats)
    return {
        "n_points": n_points,
        "n_ranks": n_ranks,
        "t_end": t_end,
        "looped_s": t_loop,
        "batched_s": t_bat,
        "speedup_batched_vs_looped": t_loop / t_bat,
    }


def bench_sweep_beta_kappa(n_points: int, n_ranks: int, t_end: float,
                           repeats: int) -> dict:
    """CLAIM-BK grid: members differ in v_p (mixed stiffness)."""
    values = np.linspace(0.0, 16.0, n_points)
    t_loop = _time(lambda: sweep_beta_kappa(values=values, n_ranks=n_ranks,
                                            t_end=t_end, shard_members=1),
                   repeats)
    t_bat = _time(lambda: sweep_beta_kappa(values=values, n_ranks=n_ranks,
                                           t_end=t_end), repeats)
    return {
        "n_points": n_points,
        "n_ranks": n_ranks,
        "t_end": t_end,
        "looped_s": t_loop,
        "batched_s": t_bat,
        "speedup_batched_vs_looped": t_loop / t_bat,
    }


def bench_em_ensemble(n: int, r: int, t_end: float, dt: float,
                      repeats: int) -> dict:
    """Batched vs. sequential Euler-Maruyama, plus the bitwise check."""
    model = PhysicalOscillatorModel(
        topology=ring(n, (1, -1)), potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1,
        local_noise=GaussianJitter(std=0.02, refresh=0.5))
    seeds = tuple(range(r))
    metrics = {"final_spread": lambda tr: float(np.ptp(tr.final_phases))}

    # Seed-for-seed equivalence guard: the batched solve must reproduce
    # each sequential per-seed run bit for bit (identical Wiener draws).
    bat_trajs = simulate_grid([model] * r, t_end, seeds=seeds, method="em",
                              dt=dt)
    max_diff = 0.0
    for seed, traj in zip(seeds, bat_trajs):
        ref = simulate(model, t_end, seed=seed, method="em", dt=dt)
        max_diff = max(max_diff,
                       float(np.abs(traj.thetas - ref.thetas).max()))

    def looped():
        for seed in seeds:
            traj = simulate(model, t_end, seed=seed, method="em", dt=dt)
            for fn in metrics.values():
                fn(traj)

    t_seq = _time(looped, repeats)
    t_bat = _time(lambda: run_ensemble(model, t_end, metrics, seeds=seeds,
                                       method="em", dt=dt), repeats)
    return {
        "n": n,
        "seeds": r,
        "t_end": t_end,
        "dt": dt,
        "sequential_s": t_seq,
        "batched_s": t_bat,
        "speedup_batched_vs_sequential": t_seq / t_bat,
        "max_abs_diff_vs_sequential": max_diff,
    }


def bench_topology_fused(n: int, seeds: int, t_end: float, dt: float,
                         repeats: int) -> dict:
    """Machine-design grid: one fused stacked solve vs. per-group shards.

    Four same-N candidate interconnects (ring / torus / hypercube /
    dragonfly) x ``seeds`` noise realisations under an explicit
    fixed-step dt, so the planner may fuse the whole grid into one
    shard.  The fused and per-group layouts must agree bit for bit.
    """
    from repro.runs import ScenarioSpec, run_spec

    spec = ScenarioSpec(
        name="bench-topology-fused",
        model={
            "topology": {"kind": "ring", "n": n, "distances": [1, -1]},
            "potential": {"kind": "bottleneck", "sigma": 1.5},
            "t_comp": 0.9,
            "t_comm": 0.1,
        },
        t_end=t_end,
        solver={"method": "rk4", "dt": dt},
        initial={"kind": "normal", "std": 1e-3, "seed": 7},
        axes=[
            ("topology", [
                {"kind": "ring", "n": n, "distances": [1, -1]},
                {"kind": "torus2d", "nx": 8, "ny": n // 8},
                {"kind": "hypercube",
                 "dim": int(np.log2(n))},
                {"kind": "dragonfly", "groups": 8, "routers": n // 8},
            ]),
            ("seed", list(range(seeds))),
        ],
        metrics=["order_parameter", "phase_spread"],
        trajectories="none",
    )
    # Doubles as the warm-up for the timed passes below.
    fused = run_spec(spec)
    grouped = run_spec(spec, fuse_topologies=False)
    identical = fused.npz_bytes() == grouped.npz_bytes()

    # The gated margin is small (fusion saves the per-shard solver loops
    # and, under cc, folds the per-group kernel calls into one call per
    # coupling evaluation), so take the median of >= 3 passes even in
    # --quick mode.
    repeats = max(repeats, 3)
    t_fused = _time(lambda: run_spec(spec), repeats)
    t_grouped = _time(lambda: run_spec(spec, fuse_topologies=False),
                      repeats)
    return {
        "n": n,
        "topologies": 4,
        "seeds": seeds,
        "t_end": t_end,
        "dt": dt,
        "grouped_s": t_grouped,
        "fused_s": t_fused,
        "speedup_topo_fused_vs_grouped": t_grouped / t_fused,
        "fused_bit_identical_to_grouped": bool(identical),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default="BENCH_sweeps.json",
                   help="output JSON path")
    p.add_argument("--quick", action="store_true",
                   help="smaller grids/horizons for CI smoke jobs")
    args = p.parse_args(argv)

    if args.quick:
        sigma_points, bk_points, t_end, repeats = 6, 6, 60.0, 1
        em_r, em_t = 4, 10.0
        topo_seeds, topo_t = 3, 20.0
    else:
        sigma_points, bk_points, t_end, repeats = 16, 12, 300.0, 3
        em_r, em_t = 16, 30.0
        topo_seeds, topo_t = 8, 60.0

    result = {
        "benchmark": "sweeps",
        "quick": args.quick,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "sweep_sigma": bench_sweep_sigma(sigma_points, 24, t_end, repeats),
        "sweep_beta_kappa": bench_sweep_beta_kappa(bk_points, 24, t_end,
                                                   repeats),
        "em_ensemble": bench_em_ensemble(64, em_r, em_t, 0.005, repeats),
        "topology_fused": bench_topology_fused(64, topo_seeds, topo_t,
                                               0.05, repeats),
    }

    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    for key in ("sweep_sigma", "sweep_beta_kappa"):
        s = result[key]
        print(f"{key} {s['n_points']} points N={s['n_ranks']} "
              f"t_end={s['t_end']}: looped {s['looped_s']:.2f} s, "
              f"batched {s['batched_s']:.2f} s "
              f"=> {s['speedup_batched_vs_looped']:.1f}x")
    em = result["em_ensemble"]
    print(f"EM ensemble N={em['n']} seeds={em['seeds']} t_end={em['t_end']}: "
          f"sequential {em['sequential_s']:.2f} s, "
          f"batched {em['batched_s']:.2f} s "
          f"=> {em['speedup_batched_vs_sequential']:.1f}x "
          f"(max |diff| vs sequential: {em['max_abs_diff_vs_sequential']:.3g})")
    tf = result["topology_fused"]
    print(f"topology fusion N={tf['n']} {tf['topologies']} kinds x "
          f"{tf['seeds']} seeds t_end={tf['t_end']}: "
          f"grouped {tf['grouped_s']:.2f} s, fused {tf['fused_s']:.2f} s "
          f"=> {tf['speedup_topo_fused_vs_grouped']:.1f}x "
          f"(bit-identical: {tf['fused_bit_identical_to_grouped']})")
    if not tf["fused_bit_identical_to_grouped"]:
        raise SystemExit("topology fusion changed result bits")
    print(f"written: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
