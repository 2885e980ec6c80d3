"""Run-orchestration benchmark — JSON artefact writer.

Measures the two claims of the campaign layer (:mod:`repro.runs`):

1. **Sharded multiprocess execution** — a fixed-step sigma x seed
   campaign compiled into bounded shards and executed with ``jobs=1``
   vs ``jobs=4``.  Fixed-step members are arithmetically independent,
   so the two runs are *bit-for-bit identical* (asserted here) and the
   speedup is pure orchestration win.  (On single-core CI runners the
   ratio hovers around 1; the regression gate floors it well below
   that, so the gate catches orchestration overhead blow-ups, not
   missing cores.)
2. **Warm-cache replay** — the same campaign against a fresh
   content-addressed cache: the cold run solves and stores every
   shard, the warm run must be a pure cache hit (zero solves —
   asserted), replaying in milliseconds.  Gated against the time to
   read and sha256 the cached blobs, not against the cold solve.
3. **In-kernel thread scaling** — the compiled ``cc`` ring and
   edge-list kernels at large N, ``threads=1`` vs ``threads=T``
   (bit-equality asserted).  Skipped with a note when the ``cc``
   toolchain or its OpenMP support is unavailable.
4. **Streaming metrics** — a metric-only campaign
   (``trajectories="none"``) vs the same campaign with full
   trajectory capture: cached bytes (gated ``speedup_cache_shrink``
   >= 20x), warm replay, and fully cached service fetch latency.

The artefact records ``platform.cpu_count`` so the regression gate's
hard floors (``check_regression.py --floor KEY:MIN[:MINCPUS]``) can
skip parallel-speedup floors for runs measured on hosts without
enough cores, instead of failing or silently passing.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_runs.py --out BENCH_runs.json

``--quick`` shrinks the campaign for CI smoke jobs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import tempfile
import time
from statistics import median

import numpy as np

from repro.runs import (ScenarioSpec, ResultCache, compile_plan, run_plan,
                        run_plan_queue)


def _time(fn, repeats: int) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(median(times))


def campaign(n_sigmas: int, n_seeds: int, n_ranks: int,
             t_end: float) -> ScenarioSpec:
    """The benchmark campaign: a bottleneck-horizon x seed grid (rk4)."""
    return ScenarioSpec(
        name="bench-runs",
        model={
            "topology": {"kind": "ring", "n": n_ranks,
                         "distances": [1, -1]},
            "potential": {"kind": "bottleneck", "sigma": 1.0},
            "t_comp": 0.9,
            "t_comm": 0.1,
            "local_noise": {"kind": "gaussian", "std": 0.01,
                            "refresh": 0.5},
        },
        t_end=t_end,
        solver={"method": "rk4"},
        initial={"kind": "normal", "std": 1e-3, "seed": 0},
        axes=[
            ("potential.sigma",
             np.linspace(0.5, 2.5, n_sigmas).tolist()),
            ("seed", list(range(n_seeds))),
        ],
    )


def bench_sharded_jobs(spec: ScenarioSpec, shard_members: int,
                       jobs: int, repeats: int) -> dict:
    """jobs=1 vs jobs=N wall-clock on the same shard decomposition.

    Wall-clock is decomposed into in-worker solve time; the remainder
    is pool/orchestration overhead, including the result pipe
    (``transport`` reads ``"pickle"``).  Workers are pinned to one
    in-kernel thread each (the executor default), recorded in the
    ``threads`` column.
    """
    plan = compile_plan(spec, shard_members=shard_members)

    r1 = run_plan(plan, jobs=1)
    rn = run_plan(plan, jobs=jobs)
    max_diff = max(
        float(np.abs(a.thetas - b.thetas).max())
        for a, b in zip(r1.members, rn.members)
    )
    if max_diff != 0.0:
        raise AssertionError(
            f"jobs=1 and jobs={jobs} disagree (max |diff| {max_diff:g})")

    t1 = _time(lambda: run_plan(plan, jobs=1), repeats)
    tn = _time(lambda: run_plan(plan, jobs=jobs), repeats)
    return {
        "members": plan.n_members,
        "shards": plan.n_shards,
        "shard_members": shard_members,
        "jobs": jobs,
        "threads": 1,
        "transport": rn.transport,
        "worker_omp": rn.worker_omp,
        "jobs1_s": t1,
        f"jobs{jobs}_s": tn,
        "jobs1_solve_s": r1.solve_s,
        f"jobs{jobs}_solve_s": rn.solve_s,
        f"speedup_jobs{jobs}_vs_jobs1": t1 / tn,
        "max_abs_diff_vs_jobs1": max_diff,
    }


def bench_kernel_threads(n: int, iters: int, repeats: int,
                         threads: int) -> dict:
    """Single-process ``cc`` kernel thread scaling at large N.

    Times the ring-specialised and generic edge-list fused kernels
    serial vs ``threads``-way parallel on a nearest-neighbour ring of
    ``n`` oscillators, asserting bit-equality.  Returns a skip record
    when the compiled kernel (or its OpenMP build) is unavailable.
    """
    from repro.kernels import cc as cc_kernels

    if not cc_kernels.cc_available():
        return {"skipped": "cc kernel unavailable (no working compiler)"}
    if not cc_kernels.openmp_available():
        return {"skipped": "cc kernel built without OpenMP"}

    rng = np.random.default_rng(42)
    theta = rng.uniform(-np.pi, np.pi, (1, n))
    rows = np.repeat(np.arange(n, dtype=np.int64), 2)
    cols = np.empty_like(rows)
    cols[0::2] = (np.arange(n) + 1) % n
    cols[1::2] = (np.arange(n) - 1) % n
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    # bottleneck, sigma=1, as one-member (R=1) coefficient arrays
    coeffs = ([1], [1.0], [0.0])
    vp = [0.5]
    ring_calls = {t: cc_kernels.bind([rows], [cols], n, coeffs, vp,
                                     threads=t)
                  for t in (1, threads)}
    # the same ring through the general edge-list kernel (one edge range)
    edge_calls = {t: cc_kernels.KernelCall(
        "fused_batched", (rows, cols, [0], [rows.size]), (*coeffs, vp),
        (1, n), t)
        for t in (1, threads)}

    def ring(t):
        return cc_kernels.ring_batched(ring_calls[t], theta, np.empty((1, n)))

    def edges(t):
        return cc_kernels.fused_batched(edge_calls[t], theta,
                                        np.empty((1, n)))

    out = {"n": n, "iters": iters, "threads": threads}
    for name, fn in (("ring", ring), ("edges", edges)):
        if not np.array_equal(fn(1), fn(threads)):
            raise AssertionError(
                f"cc {name} kernel: threads={threads} disagrees with serial")
        t1 = _time(lambda: [fn(1) for _ in range(iters)], repeats)
        tt = _time(lambda: [fn(threads) for _ in range(iters)], repeats)
        out[name] = {
            "threads1_s": t1,
            f"threads{threads}_s": tt,
            f"speedup_threads{threads}_vs_threads1": t1 / tt,
        }
    return out


def bench_queue_overhead(spec: ScenarioSpec, shard_members: int,
                         jobs: int, repeats: int) -> dict:
    """Durable-queue execution vs the plain process pool.

    Times a cold campaign through :func:`run_plan_queue` (SQLite queue,
    leases, heartbeats, spawned workers, result verification) against
    the same campaign on the plain ``ProcessPoolExecutor`` path, after
    asserting the two are bit-identical.  The gated ratio is the
    queue's *relative* cost — its crash-safety tax — which must not
    silently blow up as the queue grows features.
    """
    plan = compile_plan(spec, shard_members=shard_members)

    with tempfile.TemporaryDirectory(prefix="pom-bench-queue-") as d:
        rq = run_plan_queue(plan, os.path.join(d, "check", "q.db"),
                            jobs=jobs)
    rp = run_plan(plan, jobs=jobs)
    max_diff = max(
        float(np.abs(a.thetas - b.thetas).max())
        for a, b in zip(rp.members, rq.members)
    )
    if max_diff != 0.0:
        raise AssertionError(
            f"queue and pool runs disagree (max |diff| {max_diff:g})")

    pool_s = _time(lambda: run_plan(plan, jobs=jobs), repeats)

    def cold_queue():
        # a fresh queue+cache per sample: cold coordination, no resume
        with tempfile.TemporaryDirectory(prefix="pom-bench-queue-") as d:
            run_plan_queue(plan, os.path.join(d, "q.db"), jobs=jobs)

    queue_s = _time(cold_queue, repeats)
    return {
        "members": plan.n_members,
        "shards": plan.n_shards,
        "jobs": jobs,
        "pool_s": pool_s,
        "queue_s": queue_s,
        "speedup_queue_vs_pool": pool_s / queue_s,
        "max_abs_diff_vs_pool": max_diff,
    }


def bench_cache_replay(spec: ScenarioSpec, shard_members: int,
                       repeats: int) -> dict:
    """Warm pure-cache-hit replay vs reading the cached bytes.

    The gated ratio divides the time to read and sha256 every cached
    shard blob by the warm replay, so it measures what replay adds on
    top of reading its bytes and does not move with solver speed.  The
    cold solve-and-store time is reported beside it, ungated.
    """
    plan = compile_plan(spec, shard_members=shard_members)
    with tempfile.TemporaryDirectory(prefix="pom-bench-cache-") as d:
        cache = ResultCache(d)
        t0 = time.perf_counter()
        cold = run_plan(plan, jobs=1, cache=cache)
        cold_s = time.perf_counter() - t0
        if cold.n_executed != plan.n_shards:
            raise AssertionError("cold run was not fully executed")

        warm = run_plan(plan, jobs=1, cache=cache)
        if warm.n_executed != 0:
            raise AssertionError(
                f"warm replay executed {warm.n_executed} shard(s); "
                "expected a pure cache hit")
        # Replays are milliseconds — always take a few samples so one
        # cold-page hiccup cannot poison the gated ratio.
        warm_s = _time(lambda: run_plan(plan, jobs=1, cache=cache),
                       max(repeats, 3))
        blobs = [cache.store.path_for(key) for key in cache.store.keys()]

        def raw_read():
            for path in blobs:
                hashlib.sha256(path.read_bytes()).hexdigest()

        raw_s = _time(raw_read, max(repeats, 3))
        size = cache.store.size_bytes()
    return {
        "members": plan.n_members,
        "shards": plan.n_shards,
        "cold_solve_s": cold_s,
        "warm_replay_s": warm_s,
        "raw_read_s": raw_s,
        "speedup_replay_vs_raw_read": raw_s / warm_s,
        "cache_bytes": size,
    }


def bench_service_overhead(spec, shard_members: int, repeats: int) -> dict:
    """HTTP submit+fetch of a fully cached campaign vs direct cache read.

    The service's promise is that repeat queries cost a network
    round-trip, not a solve: with every shard cached, a submit
    short-circuits to ``done`` and a fetch streams the stored artefact.
    This leg measures that whole HTTP round-trip against the in-process
    equivalent (assemble from cache, encode to NPZ) — the gated ratio
    is the service tax per fully cached query, which must not silently
    blow up as endpoints grow features.
    """
    from repro.runs import collect_cached
    from repro.service import CampaignServer, ServiceClient

    plan = compile_plan(spec, shard_members=shard_members)
    with tempfile.TemporaryDirectory(prefix="pom-bench-svc-") as d:
        with CampaignServer(os.path.join(d, "q.db"),
                            workers=0) as server:
            client = ServiceClient(server.url)
            cache = server.service.cache
            run_plan(plan, jobs=1, cache=cache)

            first = client.submit(spec, shard_members=shard_members)
            if not first["cached"]:
                raise AssertionError(
                    "warmed submit was not a full cache hit")
            # Build and store the campaign artefact once; timed fetches
            # below stream it, exactly like repeat user queries.
            client.result_bytes(first["id"])

            def service_roundtrip():
                out = client.submit(spec, shard_members=shard_members)
                client.result_bytes(out["id"])

            def direct_read():
                collect_cached(plan, cache).npz_bytes()

            # Round-trips are milliseconds; always take a few samples.
            service_s = _time(service_roundtrip, max(repeats, 3))
            direct_s = _time(direct_read, max(repeats, 3))
    return {
        "members": plan.n_members,
        "shards": plan.n_shards,
        "service_s": service_s,
        "direct_s": direct_s,
        "speedup_service_vs_direct": direct_s / service_s,
    }


def streaming_campaign(n_ranks: int, n_seeds: int,
                       t_end: float) -> ScenarioSpec:
    """The streaming-metrics campaign: one declared series reduction."""
    return ScenarioSpec(
        name="bench-streaming",
        model={
            "topology": {"kind": "ring", "n": n_ranks,
                         "distances": [1, -1]},
            "potential": {"kind": "bottleneck", "sigma": 1.0},
            "t_comp": 0.9,
            "t_comm": 0.1,
        },
        t_end=t_end,
        solver={"method": "rk4"},
        initial={"kind": "normal", "std": 1e-3, "seed": 0},
        axes=[("seed", list(range(n_seeds)))],
        metrics=["order_parameter"],
    )


def bench_streaming(n_ranks: int, n_seeds: int, t_end: float,
                    repeats: int) -> dict:
    """Metric-only campaigns vs full-trajectory campaigns.

    The tentpole claim of the streaming layer: declaring ``metrics=``
    with ``trajectories="none"`` caches kilobyte-scale reductions
    instead of ``(R, n_t, N)`` stacks, so **cache bytes shrink by the
    oscillator count** (gated: ``speedup_cache_shrink`` >= 20x), warm
    replays touch far fewer bytes, and a fully cached service fetch
    streams a small artefact.  Bit-identity of the streamed metric
    against the full-trajectory run is asserted before anything is
    timed.
    """
    from repro.service import CampaignServer, ServiceClient

    full_spec = streaming_campaign(n_ranks, n_seeds, t_end)
    d = full_spec.to_dict()
    d["trajectories"] = "none"
    metric_spec = ScenarioSpec.from_dict(d)
    full_plan = compile_plan(full_spec)
    metric_plan = compile_plan(metric_spec)

    out: dict = {"members": full_plan.n_members, "n_ranks": n_ranks,
                 "t_end": t_end}
    with tempfile.TemporaryDirectory(prefix="pom-bench-stream-") as dtmp:
        full_cache = ResultCache(os.path.join(dtmp, "full"))
        metric_cache = ResultCache(os.path.join(dtmp, "metric"))

        t0 = time.perf_counter()
        rf = run_plan(full_plan, jobs=1, cache=full_cache)
        out["cold_full_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        rm = run_plan(metric_plan, jobs=1, cache=metric_cache)
        out["cold_metric_s"] = time.perf_counter() - t0

        for a, b in zip(rf.members, rm.members):
            if not np.array_equal(a.metrics["order_parameter"],
                                  b.metrics["order_parameter"]):
                raise AssertionError(
                    "streamed metric differs between capture modes")

        full_bytes = full_cache.store.size_bytes()
        metric_bytes = metric_cache.store.size_bytes()
        out["cache_bytes_full"] = full_bytes
        out["cache_bytes_metric"] = metric_bytes
        # The gated ratio: gate-able (speedup_ prefix) although it is a
        # size shrink, not a time ratio.
        out["speedup_cache_shrink"] = full_bytes / metric_bytes

        out["warm_replay_full_s"] = _time(
            lambda: run_plan(full_plan, jobs=1, cache=full_cache),
            max(repeats, 3))
        out["warm_replay_metric_s"] = _time(
            lambda: run_plan(metric_plan, jobs=1, cache=metric_cache),
            max(repeats, 3))

        with CampaignServer(os.path.join(dtmp, "q.db"),
                            workers=0) as server:
            client = ServiceClient(server.url)
            cache = server.service.cache
            run_plan(full_plan, jobs=1, cache=cache)
            run_plan(metric_plan, jobs=1, cache=cache)
            fid = client.submit(full_spec)["id"]
            mid = client.submit(metric_spec)["id"]
            # store both artefacts once; timed fetches stream them
            client.result_bytes(fid)
            client.result_bytes(mid)
            out["fetch_full_s"] = _time(
                lambda: client.result_bytes(fid), max(repeats, 3))
            out["fetch_metric_s"] = _time(
                lambda: client.result_bytes(mid), max(repeats, 3))
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default="BENCH_runs.json",
                   help="output JSON path")
    p.add_argument("--quick", action="store_true",
                   help="smaller campaign for CI smoke jobs")
    p.add_argument("--jobs", type=int, default=4,
                   help="worker count for the multiprocess leg")
    p.add_argument("--threads", type=int, default=4,
                   help="thread count for the in-kernel scaling leg")
    args = p.parse_args(argv)

    if args.quick:
        n_sigmas, n_seeds, n_ranks, t_end = 4, 2, 24, 40.0
        shard_members, repeats = 2, 1
        # Same N as the full run: the thread-scaling floor is gated on
        # the quick artefact, and at N ~ 4k the OpenMP fork/join cost
        # still rivals the row work.
        kernel_n, kernel_iters = 10_000, 50
        stream_n, stream_seeds, stream_t_end = 128, 4, 30.0
    else:
        n_sigmas, n_seeds, n_ranks, t_end = 8, 2, 32, 120.0
        shard_members, repeats = 2, 3
        kernel_n, kernel_iters = 10_000, 200
        stream_n, stream_seeds, stream_t_end = 256, 4, 60.0

    spec = campaign(n_sigmas, n_seeds, n_ranks, t_end)
    result = {
        "benchmark": "runs",
        "quick": args.quick,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "sharded_sweep": bench_sharded_jobs(spec, shard_members, args.jobs,
                                            repeats),
        "queue_overhead": bench_queue_overhead(spec, shard_members,
                                               args.jobs, repeats),
        "cache_replay": bench_cache_replay(spec, shard_members, repeats),
        "service_overhead": bench_service_overhead(spec, shard_members,
                                                   repeats),
        "kernel_threads": bench_kernel_threads(kernel_n, kernel_iters,
                                               max(repeats, 3),
                                               args.threads),
        "streaming": bench_streaming(stream_n, stream_seeds, stream_t_end,
                                     repeats),
    }

    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    s = result["sharded_sweep"]
    jobs = s["jobs"]
    print(f"sharded sweep {s['members']} members / {s['shards']} shards: "
          f"jobs=1 {s['jobs1_s']:.2f} s, jobs={jobs} "
          f"{s[f'jobs{jobs}_s']:.2f} s "
          f"=> {s[f'speedup_jobs{jobs}_vs_jobs1']:.2f}x "
          f"(max |diff|: {s['max_abs_diff_vs_jobs1']:g}, "
          f"transport={s['transport']}, "
          f"solve {s[f'jobs{jobs}_solve_s']:.2f} s)")
    k = result["kernel_threads"]
    if "skipped" in k:
        print(f"kernel threads: skipped ({k['skipped']})")
    else:
        t = k["threads"]
        for name in ("ring", "edges"):
            kk = k[name]
            print(f"kernel threads ({name}, N={k['n']}): "
                  f"threads=1 {kk['threads1_s']:.3f} s, threads={t} "
                  f"{kk[f'threads{t}_s']:.3f} s => "
                  f"{kk[f'speedup_threads{t}_vs_threads1']:.2f}x")
    q = result["queue_overhead"]
    print(f"queue overhead ({q['shards']} shards, jobs={q['jobs']}): "
          f"pool {q['pool_s']:.2f} s, queue {q['queue_s']:.2f} s "
          f"=> {q['speedup_queue_vs_pool']:.2f}x "
          f"(max |diff|: {q['max_abs_diff_vs_pool']:g})")
    c = result["cache_replay"]
    print(f"cache replay: cold {c['cold_solve_s']:.2f} s, warm "
          f"{c['warm_replay_s']:.4f} s, raw read+sha256 "
          f"{c['raw_read_s']:.4f} s "
          f"=> {c['speedup_replay_vs_raw_read']:.2f}x "
          f"({c['cache_bytes'] / 1e6:.1f} MB stored)")
    v = result["service_overhead"]
    print(f"service overhead (fully cached, {v['shards']} shards): "
          f"HTTP submit+fetch {v['service_s']:.4f} s, direct cache read "
          f"{v['direct_s']:.4f} s "
          f"=> {v['speedup_service_vs_direct']:.2f}x")
    st = result["streaming"]
    print(f"streaming metrics (N={st['n_ranks']}, {st['members']} members): "
          f"cache {st['cache_bytes_full'] / 1e6:.1f} MB full vs "
          f"{st['cache_bytes_metric'] / 1e3:.1f} kB metric-only "
          f"=> {st['speedup_cache_shrink']:.0f}x shrink; warm replay "
          f"{st['warm_replay_full_s']:.4f} s vs "
          f"{st['warm_replay_metric_s']:.4f} s; service fetch "
          f"{st['fetch_full_s']:.4f} s vs {st['fetch_metric_s']:.4f} s")
    print(f"written: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
