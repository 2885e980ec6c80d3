"""One benchmark run: set up a workload, loop its operations, print a result.

Started by ``run.py`` in a fresh process per run, with the program's
sources on ``PYTHONPATH``.  Usage::

    python3 perfbench/workloads.py --workload ring_large --seed 1 \\
        --seconds 50 --trace 0 --work-dir .perfbench_work/run-1

Each workload is a closed loop driven by this one process through the
public API (``ScenarioSpec`` -> ``compile_plan`` -> ``run_plan`` /
``ResultCache`` -> ``CampaignServer`` + ``ServiceClient``).  One cycle
runs the workload's campaign, replays it warm from a full result cache,
and submits + fetches the cached campaign over HTTP.  Every operation's
output is checked; a failed check counts the operation as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures
half the time untraced and half traced (layer wrappers from
``tracing.py`` installed), prints the per-layer metrics, and writes the
spans to ``<work-dir>/../traces/<workload>-seed<seed>.npz``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from repro import kernels  # noqa: E402
from repro.runs import (ResultCache, ScenarioSpec, compile_plan,  # noqa: E402
                        run_plan)
from repro.service import CampaignServer, ServiceClient  # noqa: E402
from tracing import SpanRecorder, install, layer_metrics  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

#: set-up steps that can repeat in one process; their median enters setup_s
SETUP_ROUNDS = 5

#: ring_large horizon (model seconds) and the numpy-checked prefix
RING_T_END = 0.25
RING_PREFIX_T = 0.1
#: |cc - numpy| bound on the prefix order parameter (the kernels differ
#: in summation order only, ~1e-10 in the phases)
RING_PREFIX_TOL = 1e-9


def ring_spec(seed: int, t_end: float = RING_T_END,
              kernel: str | None = None) -> ScenarioSpec:
    """Ring N=1e4 (edge-backed), 8 seeds, metric-only rk4."""
    model = {
        "topology": {"kind": "ring", "n": 10_000, "distances": [1, -1]},
        "potential": {"kind": "bottleneck", "sigma": 1.0},
        "t_comp": 0.9,
        "t_comm": 0.1,
        "local_noise": {"kind": "gaussian", "std": 0.01, "refresh": 0.5},
    }
    if kernel is not None:
        model["kernel"] = kernel
    return ScenarioSpec(
        name="ring-large", model=model, t_end=t_end,
        solver={"method": "rk4", "dt": 0.01}, seed=seed,
        initial={"kind": "normal", "std": 1e-3, "seed": seed},
        axes=[("seed", [8 * seed + i for i in range(8)])],
        metrics=["order_parameter"], trajectories="none")


def cache_spec(seed: int) -> ScenarioSpec:
    """8 sigma x 2 seeds, ring N=256, rk4, full trajectories."""
    return ScenarioSpec(
        name="campaign-cache",
        model={
            "topology": {"kind": "ring", "n": 256, "distances": [1, -1]},
            "potential": {"kind": "bottleneck", "sigma": 1.0},
            "t_comp": 0.9,
            "t_comm": 0.1,
            "local_noise": {"kind": "gaussian", "std": 0.01, "refresh": 0.5},
        },
        t_end=4.0, solver={"method": "rk4"}, seed=seed,
        initial={"kind": "normal", "std": 1e-3, "seed": seed},
        axes=[("potential.sigma", [0.5 + 2.0 * i / 7 for i in range(8)]),
              ("seed", [2 * seed, 2 * seed + 1])])


@dataclass(frozen=True)
class Workload:
    """How one workload builds its campaign and what a cycle runs."""

    spec: object
    shard_members: int | None
    jobs: int
    fresh_cache_per_cycle: bool
    replays: int
    fetches: int


WORKLOADS = {
    "ring_large": Workload(ring_spec, None, 1, False, 1, 8),
    "campaign_cache": Workload(cache_spec, 2, 2, True, 3, 6),
}


# ----------------------------------------------------------------------
# output checks: each returns None, or a one-line description of the fault
# ----------------------------------------------------------------------
def _same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and np.array_equal(a, b)


def same_members(run, ref) -> str | None:
    """Bit-identity of every member's arrays between two runs."""
    if len(run.members) != len(ref.members):
        return f"{len(run.members)} members, want {len(ref.members)}"
    for m, r in zip(run.members, ref.members):
        if m.index != r.index:
            return f"member order {m.index} != {r.index}"
        if not (_same(m.ts, r.ts) and _same(m.thetas, r.thetas)
                and _same(m.metrics_ts, r.metrics_ts)
                and set(m.metrics) == set(r.metrics)
                and all(_same(m.metrics[k], r.metrics[k])
                        for k in m.metrics)):
            return f"member {m.index} differs from the reference"
    return None


def npz_matches(blob: bytes, run) -> str | None:
    """Whether a fetched NPZ holds exactly ``run``'s member arrays."""
    with np.load(io.BytesIO(blob), allow_pickle=False) as z:
        for m in run.members:
            i = m.index
            want = {}
            if m.ts is not None:
                want[f"ts_{i}"] = m.ts
                want[f"thetas_{i}"] = m.thetas
            if m.metrics_ts is not None:
                want[f"metrics_ts_{i}"] = m.metrics_ts
            for name, arr in m.metrics.items():
                want[f"metric_{name}_{i}"] = arr
            for key, arr in want.items():
                if key not in z.files or not _same(z[key], arr):
                    return f"fetched {key} differs from the solved result"
    return None


def check_ring(run) -> str | None:
    """Order parameter finite and within [0, 1] for every member."""
    for m in run.members:
        r = m.metrics.get("order_parameter")
        if r is None or not np.all(np.isfinite(r)):
            return f"member {m.index}: order parameter missing or not finite"
        if r.min() < 0.0 or r.max() > 1.0 + 1e-12:
            return f"member {m.index}: order parameter outside [0, 1]"
    return None


def osc_steps(run) -> float:
    """Sum over members of N x accepted steps."""
    total = 0.0
    for m in run.members:
        mesh = m.ts if m.ts is not None else m.metrics_ts
        total += m.member.model["topology"]["n"] * (len(mesh) - 1)
    return total


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


# ----------------------------------------------------------------------
class Bench:
    """One workload's state across set-up and the measured cycles."""

    def __init__(self, name: str, seed: int, work: Path,
                 rec: SpanRecorder | None) -> None:
        self.name = name
        self.cfg = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.rec = rec
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []
        self.server = None
        self.ref = None
        self.new_phase()

    def new_phase(self) -> None:
        self.samples = {"campaign": [], "replay": [], "fetch": []}
        self.throughput: list[float] = []

    def span(self, name: str):
        return self.rec.span(name) if self.rec is not None else nullcontext()

    def _operation(self, kind: str):
        if self.tracing:
            return self.rec.operation(kind)
        return nullcontext()

    def _tally_run(self, run) -> None:
        """Executor figures the pool reports for its worker processes."""
        if self.rec is not None and getattr(run, "transport", None):
            self.rec.count("executor.pool_solve_s", run.solve_s)
            self.rec.count("executor.transport_s",
                           getattr(run, "transport_s", 0.0))

    def fail(self, kind: str, fault: str) -> None:
        self.failed += 1
        self.faults.append(f"{kind}: {fault}")
        print(f"[perfbench] {self.name} {kind} failed: {fault}",
              file=sys.stderr)

    def op(self, kind: str, fn, check):
        """Run one timed operation, then check its output untimed.

        Returns ``(output, wall)``, or ``None`` when it failed.
        """
        self.attempted += 1
        try:
            with self._operation(kind):
                t0 = time.perf_counter()
                out = fn()
                wall = time.perf_counter() - t0
                if kind in ("campaign", "replay"):
                    self._tally_run(out)
            fault = check(out)
        except Exception:
            fault = traceback.format_exc(limit=4)
        if fault:
            self.fail(kind, fault)
            return None
        self.samples[kind].append(wall)
        return out, wall

    def setup_step(self, kind: str, fn):
        with self._operation(f"setup.{kind}"):
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Everything before the first timed operation.

        ``setup_s`` = imports + kernel load + the median of
        ``SETUP_ROUNDS`` full set-up rounds.  A round builds the spec,
        compiles the plan, starts the server, solves the campaign inline
        into a fresh cache (the reference, checked), and makes the first
        fetch of the campaign, in which the server assembles and stores
        the artefact.  Rounds after the first must reproduce
        the first round's reference bit for bit.
        """
        _, kernel_s = self.setup_step("kernel", kernels.cc_available)
        rounds = []
        for i in range(SETUP_ROUNDS):
            if self.server is not None:
                self.server.close()
                shutil.rmtree(self.state_dir, ignore_errors=True)
            self.state_dir = self.work / f"setup-{i}"
            self.cache_dir = self.state_dir / "cache"
            rounds.append(self._setup_round())
        self.cache_bytes = ResultCache(self.cache_dir).store.size_bytes()
        self.setup_s = _IMPORT_S + kernel_s + statistics.median(rounds)

    def _setup_round(self) -> float:
        def build():
            with self.span("spec.build"):
                self.spec = self.cfg.spec(self.seed)
            with self.span("plan.compile"):
                self.plan = compile_plan(
                    self.spec, shard_members=self.cfg.shard_members)
            self.server = CampaignServer(self.state_dir / "queue.db",
                                         cache=self.cache_dir,
                                         workers=0).start()
            self.client = ServiceClient(self.server.url, timeout=60.0)
            self.client.healthz()

        _, build_s = self.setup_step("build", build)
        ref, ref_s = self.setup_step("reference", self._reference)
        blob, fetch_s = self.setup_step("fetch",
                                        lambda: self._first_fetch(ref))
        self.ref, self.blob = ref, blob
        return build_s + ref_s + fetch_s

    def _reference(self):
        """Solve the campaign inline into the cache and check it."""
        ref = run_plan(self.plan, jobs=1, cache=ResultCache(self.cache_dir))
        fault = None
        if self.name == "ring_large":
            fault = check_ring(ref) or self._check_ring_prefix(ref)
        if self.ref is not None:
            fault = fault or same_members(ref, self.ref)
        if fault:
            raise RuntimeError(f"reference solve, seed {self.seed}: {fault}")
        return ref

    def _first_fetch(self, ref) -> bytes:
        sub = self.client.submit(self.spec,
                                 shard_members=self.cfg.shard_members)
        blob = self.client.result_bytes(sub["id"])
        fault = npz_matches(blob, ref)
        if not sub["cached"] or fault:
            raise RuntimeError(f"first fetch: {fault or 'not cached'}")
        return blob

    def _check_ring_prefix(self, ref) -> str | None:
        """The cc solve's order parameter against a numpy-kernel prefix."""
        np_run = run_plan(compile_plan(ring_spec(self.seed, RING_PREFIX_T,
                                                 kernel="numpy")), jobs=1)
        for m, r in zip(ref.members, np_run.members):
            want = r.metrics["order_parameter"]
            got = m.metrics["order_parameter"][:len(want)]
            err = float(np.max(np.abs(got - want)))
            if not err <= RING_PREFIX_TOL:
                return (f"member {m.index}: |cc - numpy| = {err:.3g} on the "
                        f"t<={RING_PREFIX_T} prefix (tol {RING_PREFIX_TOL})")
        return None

    # ------------------------------------------------------------------
    def cycle(self) -> None:
        cfg, plan, ref = self.cfg, self.plan, self.ref
        base = ref
        if cfg.fresh_cache_per_cycle:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            done = self.op(
                "campaign",
                lambda: run_plan(plan, jobs=cfg.jobs,
                                 cache=ResultCache(self.cache_dir)),
                lambda r: (None if r.n_executed == r.n_shards
                           else f"{r.n_cached} shard(s) came from the cache")
                or same_members(r, ref) or self._check_cache_size())
        else:
            done = self.op(
                "campaign", lambda: run_plan(plan, jobs=cfg.jobs),
                lambda r: check_ring(r) or same_members(r, ref))
        if done is not None:
            run, wall = done
            self.throughput.append(osc_steps(run) / wall)
            if cfg.fresh_cache_per_cycle:
                base = run
        del done

        for _ in range(cfg.replays):
            self.op(
                "replay",
                lambda: run_plan(plan, jobs=cfg.jobs,
                                 cache=ResultCache(self.cache_dir)),
                lambda r: (None if r.n_executed == 0
                           else f"{r.n_executed} shard(s) re-solved")
                or same_members(r, base))

        for i in range(cfg.fetches):
            decode = i == 0 and base is not ref
            self.op("fetch", self._fetch,
                    lambda out: self._check_fetch(out, base, decode))

    def _check_cache_size(self) -> str | None:
        size = ResultCache(self.cache_dir).store.size_bytes()
        if size != self.cache_bytes:
            return f"cache holds {size} bytes, set-up fill held " \
                   f"{self.cache_bytes}"
        return None

    def _fetch(self):
        with self.span("service.submit"):
            sub = self.client.submit(self.spec,
                                     shard_members=self.cfg.shard_members)
        with self.span("service.fetch"):
            blob = self.client.result_bytes(sub["id"])
        if self.rec is not None:
            self.rec.count("service.fetch_bytes", len(blob))
        return sub, blob

    def _check_fetch(self, out, base, decode: bool) -> str | None:
        sub, blob = out
        if sub["id"] != self.spec.content_hash() or not sub["cached"]:
            return "submit did not answer from the cache"
        if blob != self.blob:
            return "fetched bytes differ from the first fetch"
        return npz_matches(blob, base) if decode else None

    def measure(self, seconds: float) -> None:
        """Run whole cycles while the next one fits in ``seconds``."""
        t0 = time.perf_counter()
        n = 0
        while True:
            self.cycle()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / n > seconds:
                return

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    # ------------------------------------------------------------------
    def end_to_end(self) -> dict:
        s = self.samples
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "setup_s": (self.setup_s, "s"),
            "campaign_s": (median(s["campaign"]), "s"),
            "osc_steps_per_s": (median(self.throughput), "1/s"),
            "replay_s": (median(s["replay"]), "s"),
            # Fetches are short and number hundreds per run, so the best
            # one is the host's fast-spell speed, which a slow spell that
            # moves the median does not change.
            "fetch_s": (min(s["fetch"], default=0.0), "s"),
            "cache_mb": (self.cache_bytes / 1e6, "MB"),
            "peak_rss_mb": ((self_rss + child_rss) / 1024.0, "MB"),
            "success_rate": (1.0 - self.failed / max(self.attempted, 1), "1"),
        }


def host_info(name: str) -> dict:
    """The host and the resolved numerics every result is recorded with."""
    spec = WORKLOADS[name].spec(0)
    n = spec.model["topology"]["n"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": kernels.resolve_kernel("auto", has_coefficients=True,
                                         n_edges=2 * n),
        "threads": kernels.resolve_threads(),
        "cc_available": kernels.cc_available(),
        "openmp_available": kernels.openmp_available(),
        "numba_available": kernels.numba_available(),
        "cc_build_cache": "warm (run.py loads the kernel before set-up)",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", type=Path, required=True)
    args = p.parse_args(argv)

    rec = SpanRecorder() if args.trace else None
    uninstall = install(rec) if rec is not None else None
    bench = Bench(args.workload, args.seed, args.work_dir, rec)
    notes = []
    try:
        bench.tracing = rec is not None
        bench.setup()
        if rec is None:
            bench.measure(args.seconds)
            metrics = bench.end_to_end()
        else:
            # Untraced half without the wrappers, then the traced half.
            uninstall()
            bench.tracing = False
            bench.measure(args.seconds / 2)
            untraced = median(bench.samples["campaign"])
            bench.new_phase()
            uninstall = install(rec)
            bench.tracing = True
            bench.measure(args.seconds / 2)
            traced = median(bench.samples["campaign"])
            bench.tracing = False
            metrics = layer_metrics(
                rec, overhead=traced / untraced if untraced else 0.0)
            path = rec.write(args.work_dir.parent / "traces"
                             / f"{args.workload}-seed{args.seed}.npz")
            notes.append(f"spans written to {path}")
            if bench.cfg.jobs > 1:
                notes.append(
                    "pool workers are not traced: solver-layer spans come "
                    "from the inline jobs=1 reference solve in set-up")
            if rec.missing:
                notes.append("layer functions not found: "
                             f"{sorted(set(rec.missing))}")
    finally:
        bench.close()

    counts = {k: len(v) for k, v in bench.samples.items()}
    print(json.dumps({"host": host_info(args.workload),
                      "workload": args.workload, "seed": args.seed,
                      "samples": counts, "notes": notes,
                      "faults": bench.faults[:5]}))
    correct = bench.failed == 0 and all(counts.values())
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
