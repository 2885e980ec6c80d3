"""Dense vs. edge-list vs. batched backend benchmark — JSON artefact writer.

Measures the claims of the backend layer:

1. **RHS speedup** — one Eq. 2 evaluation on a nearest-neighbour ring at
   N = 4096: the O(E) edge-list coupling (a realisation's one-member
   stack) vs. the O(N^2) dense reference.
2. **Batched RHS throughput** — an 8-member super-state evaluation vs.
   8 separate one-member stacks, at a large and a small ring.  The two
   sizes bracket the two regimes: at large N the edge kernel is
   memory-bound (one bincount over R*E moves the same bytes as R
   bincounts over E, so batching cannot beat the loop no matter how the
   buffers are managed — the stacked scratch is preallocated either
   way), while at small N the per-call *Python* overhead dominates and
   batching amortises it R-fold.  The paper's sweeps live at N = 24-128,
   i.e. squarely in the second regime.
3. **Ensemble wall-clock** — 8 seeds: a loop of ``simulate()`` vs. the
   one stacked ``run_ensemble`` solve.
4. **Kernel ladder** — the large-N regime (ring N = 1e4 / 1e5 and a
   ~1e5-rank torus, built edge-native so no dense matrix is ever
   materialised), plus a 16x16 torus at design-grid scale: one
   single-state (one-member stack) and one 8-member batched RHS
   evaluation under each available coupling kernel (``numpy`` vs. the
   fused compiled ``cc``), reported as speedups over the ``numpy``
   kernel.
5. **Kernel call cost** — microseconds per small ``cc`` ring call
   (``ring_batched`` plus the ``np.empty`` output a backend allocates),
   at the paper's ring N = 24 and at a campaign shard's (R, N) =
   (2, 256), where the fixed per-call cost rivals the arithmetic.
   Plain host numbers: no ratio, so no gate.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_backends.py --out BENCH_backends.json

``--quick`` shrinks the problem sizes for CI smoke jobs.  The JSON
artefact records the numbers so the perf trajectory is tracked from PR
to PR; ``benchmarks/check_regression.py`` gates CI on the committed
quick baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from statistics import median

import numpy as np

from repro import kernels
from repro.backends import DenseBackend, HeteroBatchedBackend
from repro.core import (
    GaussianJitter,
    PhysicalOscillatorModel,
    TanhPotential,
    ring,
    run_ensemble,
    simulate,
    torus2d,
)


def _time(fn, repeats: int) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(median(times))


def _time_best(fn, repeats: int) -> float:
    """Minimum wall-clock seconds of ``fn()`` over ``repeats`` runs.

    The kernel ladder compares pure compute kernels, where the minimum
    is the standard estimator: it filters scheduler/frequency noise that
    the median still admits on busy hosts, and the quantity of interest
    is the kernels' capability ratio, not a typical-load figure.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(min(times))


def bench_rhs(n: int, repeats: int) -> dict:
    """Single-state RHS: dense vs. edge-list on a ring of size ``n``."""
    model = PhysicalOscillatorModel(
        topology=ring(n, (1, -1)), potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1)
    dense = DenseBackend(model.realize(10.0, rng=0))
    sparse = model.realize(10.0, rng=0)
    theta = np.random.default_rng(0).normal(0.0, 1.0, n)

    # Warm up + correctness guard.
    np.testing.assert_allclose(sparse.rhs(0.0, theta), dense.rhs(0.0, theta),
                               rtol=1e-12, atol=1e-12)
    t_dense = _time(lambda: dense.rhs(0.0, theta), repeats)
    t_sparse = _time(lambda: sparse.rhs(0.0, theta), repeats)
    return {
        "n": n,
        "n_edges": model.topology.n_edges,
        "dense_s": t_dense,
        "sparse_s": t_sparse,
        "speedup_sparse_vs_dense": t_dense / t_sparse,
    }


def bench_batched_rhs(n: int, r: int, repeats: int) -> dict:
    """Batched super-state RHS vs. R separate one-member evaluations."""
    model = PhysicalOscillatorModel(
        topology=ring(n, (1, -1)), potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1,
        local_noise=GaussianJitter(std=0.02, refresh=0.5))
    members = [model.realize(10.0, rng=s) for s in range(r)]
    stacked = HeteroBatchedBackend(members)
    thetas = np.random.default_rng(1).normal(0.0, 1.0, (r, n))

    ref = np.stack([m.rhs(0.0, thetas[i]) for i, m in enumerate(members)])
    np.testing.assert_allclose(stacked.rhs(0.0, thetas), ref,
                               rtol=1e-12, atol=1e-12)
    # Sub-millisecond evaluations: alternate the two sides inside every
    # repeat so host-load drift lands on both medians alike.
    loops, batched = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i, m in enumerate(members):
            m.rhs(0.0, thetas[i])
        t1 = time.perf_counter()
        stacked.rhs(0.0, thetas)
        loops.append(t1 - t0)
        batched.append(time.perf_counter() - t1)
    t_loop, t_batched = float(median(loops)), float(median(batched))
    return {
        "n": n,
        "members": r,
        "member_loop_s": t_loop,
        "batched_s": t_batched,
        "speedup_batched_vs_loop": t_loop / t_batched,
    }


def bench_ensemble(n: int, r: int, t_end: float, repeats: int) -> dict:
    """Ensemble wall-clock: a ``simulate()`` loop vs. ``run_ensemble``."""
    model = PhysicalOscillatorModel(
        topology=ring(n, (1, -1)), potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1,
        local_noise=GaussianJitter(std=0.02, refresh=0.5))
    metrics = {"final_spread": lambda tr: float(np.ptp(tr.final_phases))}
    seeds = tuple(range(r))

    def looped():
        for seed in seeds:
            traj = simulate(model, t_end, seed=seed)
            for fn in metrics.values():
                fn(traj)

    t_seq = _time(looped, repeats)
    t_bat = _time(lambda: run_ensemble(model, t_end, metrics, seeds=seeds),
                  repeats)
    return {
        "n": n,
        "seeds": r,
        "t_end": t_end,
        "sequential_s": t_seq,
        "batched_s": t_bat,
        "speedup_batched_vs_sequential": t_seq / t_bat,
    }


def _ladder_kernels() -> list[str]:
    """Kernels to compare: numpy always, cc when a compiler works."""
    return ["numpy", "cc"] if kernels.cc_available() else ["numpy"]


def bench_kernel_case(topology, r: int, repeats: int) -> dict:
    """Single and batched RHS under every available coupling kernel.

    The topology is its edge list (never densified), so this runs at
    N = 1e5 where the dense path would need an 80 GB matrix.  Noise-free
    model: the ladder isolates the coupling kernel, which is the part
    the ``kernel=`` knob swaps.
    """
    model = PhysicalOscillatorModel(
        topology=topology, potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1)
    n = topology.n
    theta = np.random.default_rng(0).normal(0.0, 1.0, n)
    thetas = np.random.default_rng(1).normal(0.0, 1.0, (r, n))
    members = [model.realize(10.0, rng=s) for s in range(r)]

    case: dict = {
        "topology": topology.name,
        "n": n,
        "n_edges": topology.n_edges,
        "members": r,
        "metric": "coupling seconds per evaluation",
        "single": {},
        "batched": {},
    }
    ref_single = ref_batched = None
    backends = {}
    for name in _ladder_kernels():
        single = model.realize(10.0, rng=0, kernel=name)
        stacked = HeteroBatchedBackend(members, kernel=name)
        # Warm up (first compiled call loads the library) + correctness guard.
        s_val = single.coupling_term(0.0, theta)
        b_val = stacked.coupling(0.0, thetas)
        if ref_single is None:
            ref_single, ref_batched = s_val, b_val
        else:
            np.testing.assert_allclose(s_val, ref_single,
                                       rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(b_val, ref_batched,
                                       rtol=1e-10, atol=1e-12)
        backends[name] = (single, stacked)
    # Interleave the kernels round-robin so host-load drift cannot land
    # on one kernel only; keep the per-kernel minimum across all rounds.
    for mode in ("single", "batched"):
        best = {name: np.inf for name in backends}
        for _ in range(2 * repeats + 1):
            for name, (single, stacked) in backends.items():
                if mode == "single":
                    t = _time_best(lambda: single.coupling_term(0.0, theta),
                                   3)
                else:
                    t = _time_best(lambda: stacked.coupling(0.0, thetas), 3)
                best[name] = min(best[name], t)
        case[mode].update(best)
    for mode in ("single", "batched"):
        base = case[mode]["numpy"]
        for name, t in list(case[mode].items()):
            if name != "numpy":
                case[mode][f"speedup_{name}_vs_numpy"] = base / t
    return case


def bench_kernel_call(repeats: int) -> dict:
    """Microseconds per ``cc.ring_batched`` call at two small shapes."""
    if not kernels.cc_available():
        return {"skipped": "cc kernel unavailable (no compiler or Python.h)"}
    from repro.kernels import cc as cc_kernels

    out: dict = {"cpu_count": os.cpu_count()}
    calls = 2000
    for r, n in ((1, 24), (2, 256)):
        rows, cols = ring(n, (1, -1)).edge_list()
        # bottleneck, sigma=1, per member
        call = cc_kernels.bind([rows] * r, [cols] * r, n,
                               ([1] * r, [1.0] * r, [0.0] * r), [0.5] * r)
        theta = np.random.default_rng(0).uniform(-np.pi, np.pi, (r, n))

        def loop():
            for _ in range(calls):
                cc_kernels.ring_batched(call, theta, np.empty((r, n)))

        out[f"ring_{r}x{n}"] = _time_best(loop, repeats) / calls * 1e6
    return out


def bench_kernel_ladder(quick: bool, repeats: int) -> list[dict]:
    """The ring/torus ladder (edge-list topologies, never densified)."""
    if quick:
        cases = [ring(4096, (1, -1))]
    else:
        cases = [
            ring(10_000, (1, -1)),
            ring(100_000, (1, -1)),
            torus2d(16, 16),                  # N = 256, design-grid scale
            torus2d(316, 316),                # ~1e5 ranks, degree 4
        ]
    return [bench_kernel_case(t, 8, repeats) for t in cases]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default="BENCH_backends.json",
                   help="output JSON path")
    p.add_argument("--quick", action="store_true",
                   help="smaller sizes for CI smoke jobs")
    p.add_argument("--rhs-n", type=int, default=None,
                   help="override ring size for the RHS case")
    args = p.parse_args(argv)

    rhs_n = args.rhs_n or (1024 if args.quick else 4096)
    repeats = 5 if args.quick else 11
    ens_n = 64 if args.quick else 128
    ens_t = 10.0 if args.quick else 30.0

    result = {
        "benchmark": "backends",
        "quick": args.quick,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "rhs_ring": bench_rhs(rhs_n, repeats),
        "batched_rhs": bench_batched_rhs(rhs_n, 8, 20 * repeats + 1),
        "batched_rhs_small": bench_batched_rhs(128, 8, 20 * repeats + 1),
        "ensemble": bench_ensemble(ens_n, 8, ens_t, 3),
        "kernels_available": _ladder_kernels(),
        "kernel_ladder": bench_kernel_ladder(args.quick, repeats),
        "kernel_call_us": bench_kernel_call(repeats),
    }

    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    rr = result["rhs_ring"]
    er = result["ensemble"]
    print(f"RHS ring N={rr['n']}: dense {rr['dense_s'] * 1e3:.2f} ms, "
          f"sparse {rr['sparse_s'] * 1e3:.3f} ms "
          f"=> {rr['speedup_sparse_vs_dense']:.1f}x")
    for key, note in (("batched_rhs", "memory-bound at this size"),
                      ("batched_rhs_small", "overhead-amortising regime")):
        br = result[key]
        print(f"batched RHS N={br['n']} R={br['members']}: "
              f"loop {br['member_loop_s'] * 1e3:.3f} ms, "
              f"batched {br['batched_s'] * 1e3:.3f} ms "
              f"=> {br['speedup_batched_vs_loop']:.1f}x ({note})")
    print(f"ensemble N={er['n']} seeds={er['seeds']} t_end={er['t_end']}: "
          f"sequential {er['sequential_s']:.2f} s, "
          f"batched {er['batched_s']:.2f} s "
          f"=> {er['speedup_batched_vs_sequential']:.1f}x")
    for case in result["kernel_ladder"]:
        for mode in ("single", "batched"):
            parts = [f"{k} {case[mode][k] * 1e3:.3f} ms"
                     for k in _ladder_kernels()]
            ratios = [f"{k} {case[mode][f'speedup_{k}_vs_numpy']:.1f}x"
                      for k in _ladder_kernels() if k != "numpy"]
            print(f"kernel ladder {case['topology']} N={case['n']} "
                  f"{mode}: " + ", ".join(parts)
                  + " | vs numpy: " + ", ".join(ratios))
    kc = result["kernel_call_us"]
    if "skipped" not in kc:
        print("cc ring call: " + ", ".join(
            f"{k} {v:.2f} us" for k, v in kc.items() if k.startswith("ring_")))
    print(f"written: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
