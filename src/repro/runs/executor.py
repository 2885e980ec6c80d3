"""Sharded campaign executor: multiprocess solves with caching/resume.

Runs a compiled :class:`~repro.runs.plan.Plan`:

1. **cache probe** — with a :class:`~repro.runs.cache.ResultCache` and
   ``resume=True`` (the default), every shard whose key is already
   stored is loaded instead of solved.  A finished campaign replays as
   a pure cache hit (zero solves — asserted by tests); a killed one
   resumes from its completed shards.
2. **execution** — pending shards run inline (``jobs=1``) or through a
   ``ProcessPoolExecutor``.  A shard solve is a pure function of its
   payload (models, seeds, and initial states are rebuilt from the spec
   dicts inside the worker; per-member seeds were fixed at expansion
   time), so the worker count can never change the bits — ``jobs=1``
   and ``jobs=8`` produce identical results, and every completed shard
   is persisted immediately, making the campaign kill-safe.
3. **assembly** — member results are ordered by their global member
   index, independent of shard completion order.

Pool workers start through an initializer that pins
``OMP_NUM_THREADS`` / the BLAS thread knobs / the kernels' own
``POM_NUM_THREADS`` to the per-shard ``threads`` count (default 1), so
``jobs x threads`` never oversubscribes the machine.  The compiled
kernels read ``POM_NUM_THREADS`` at call time, so the pin is effective
even under the fork start method.  Executed shard results return to the
parent through the pool's own result pipe (pickled); a worker that dies
abnormally breaks the pool, and the parent re-solves the unfinished
shards inline.

``progress`` receives one event dict per completed shard (``cached``
True/False), which the CLI renders as a live campaign log.

:func:`run_plan_queue` runs the same plan through a durable
:class:`~repro.runs.queue.WorkQueue` instead of a pool: drainer
processes (:func:`drain_queue`, the body of ``pom worker``) claim
shards under leases and persist them to the cache.  :class:`WorkerPool`
is the one supervisor of those drainers, ticked from
:func:`run_plan_queue`'s own loop and from ``pom serve``'s monitor
thread.  Supervisors and idle drainers wake every :data:`POLL_S`
seconds.  Campaign state (counts, retries, quarantines, overall
status) comes from one ledger, :meth:`WorkQueue.describe` scoped to
the plan's shard keys; "done" means loadable (:func:`load_done`) for
the queue run and the service's result endpoint alike.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
import sys
import tempfile
import threading
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..core import OscillatorTrajectory, simulate_grid
from ..kernels import THREADS_ENV_VAR
from ..metrics.streaming import StreamingObserver, parse_trajectories
from .cache import ResultCache
from .faults import FaultInjector, ensure_shared_state_dir, injector_from_env
from .plan import BUILD_TAGS, Plan, compile_plan
from .spec import MemberSpec, ScenarioSpec

__all__ = ["POLL_S", "MemberResult", "RunResult", "WorkerPool", "assemble",
           "collect_cached", "drain_queue", "execute_shard", "load_done",
           "run_plan", "run_plan_queue", "run_spec"]

#: seconds between queue-supervisor ticks and between an idle drainer's
#: claim attempts (tests monkeypatch it)
POLL_S = 0.2

#: thread-count environment knobs pinned inside pool workers
_PIN_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _release_free_heap() -> None:
    """Return the C heap's free pages to the OS before forking a pool.

    Once a multi-MB buffer (a shard's trajectories, a fetched artefact)
    has been freed, glibc serves buffers up to that size from the heap
    and trims the heap only when twice that much is free at its top.
    The orchestrator then keeps tens of MB of freed heap resident, and
    every fork worker counts those pages in its own RSS.  How much stays
    depends on heap layout, which unrelated allocation changes move:
    perfbench campaign_cache's peak RSS (orchestrator + largest worker)
    read 311-394 MB over 8 runs on a 2-core x86-64 host, and 266-302 MB
    with this call.  ``malloc_trim(0)`` takes ~0.3 ms; C libraries
    without it are left alone.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc (e.g. musl)
        pass


def _worker_env(threads: int | None) -> dict[str, str]:
    """Environment pins for pool workers: ``threads`` each, default 1."""
    t = 1 if threads is None else int(threads)
    env = {var: str(t) for var in _PIN_ENV_VARS}
    env[THREADS_ENV_VAR] = str(t)
    return env


def _init_worker(env: dict) -> None:
    """Pool-worker initializer: apply the thread pins before any solve."""
    os.environ.update(env)


def execute_shard(payload: dict, threads: int | None = None) -> dict:
    """Solve one shard (top-level so worker processes can import it).

    Returns the arrays the cache stores: the global member ``indices``
    and the solve wall-clock, plus — depending on the payload —

    * ``ts`` and the stacked member phases ``thetas (R, n_t, N)`` when
      ``trajectories`` is ``"full"`` (default) or ``"stride:K"``
      (thinned retention); metric-only shards
      (``trajectories="none"``) carry **no** trajectory arrays at all,
    * streamed metric arrays (``metrics_ts`` + ``metric_<name>``,
      kilobyte-scale) when the payload declares ``metrics``, folded by
      a :class:`~repro.metrics.streaming.StreamingObserver` per
      accepted solver step over the ``(R, N)`` super-state.

    ``threads`` is the in-kernel thread count (pool workers leave it
    ``None`` and inherit the pinned ``POM_NUM_THREADS`` instead); it
    never changes the bits, so it stays out of the payload and the
    cache key.

    A payload is refused (``RuntimeError``) unless its ``cc_build`` is
    this process's :func:`repro.kernels.cc.build_tag` and its
    ``numpy_build`` this process's :func:`repro.kernels.numpy_build`:
    another build's bits must not land under the planner's key.  In a
    queue the refusal takes the fail -> retry/quarantine path; no
    worker falls back to another build.
    """
    for kernel, tag in BUILD_TAGS.items():
        build = payload.get(f"{kernel}_build")
        if build is not None and build != tag():
            raise RuntimeError(
                f"shard planned for {kernel} build {build}, but this "
                f"process runs {kernel} build {tag()}")
    t0 = time.perf_counter()
    members = [MemberSpec.from_dict(m) for m in payload["members"]]
    models = [m.build_model() for m in members]
    n = models[0].n
    theta0s = np.stack([m.build_theta0(n) for m in members])
    solver = payload["solver"]
    metrics = tuple(payload.get("metrics") or ())
    trajectories = payload.get("trajectories", "full")
    observer = (StreamingObserver(models, metrics, threads=threads)
                if metrics else None)
    trajs = simulate_grid(
        models, payload["t_end"],
        seeds=[m.seed for m in members],
        theta0s=theta0s,
        method=solver["method"],
        dt=solver["dt"],
        rtol=solver["rtol"],
        atol=solver["atol"],
        n_samples=solver.get("n_samples"),
        threads=threads,
        observer=observer,
        record=parse_trajectories(trajectories),
    )
    out = {
        "indices": np.asarray([m.index for m in members], dtype=np.int64),
    }
    if trajectories != "none":
        out["ts"] = trajs[0].ts
        out["thetas"] = np.stack([t.thetas for t in trajs])
    if observer is not None:
        out.update(observer.finalize())
    out["seconds"] = time.perf_counter() - t0
    return out


def _execute_shard_pickle(payload: dict, index: int) -> dict:
    """Pool-worker entry: fault hooks, the solve, and the pinning witness.

    The result dict travels back through the pool's own result pipe.
    ``worker_omp`` is the only non-array entry it adds, and
    :meth:`ResultCache.save` drops non-array entries, so the cached
    bytes equal an inline solve's.  The ``POM_FAULTS`` chaos hooks fire
    here (worker side), never in the orchestrating parent.
    """
    injector_from_env().fire("shard-start", shard=index)
    data = execute_shard(payload)
    data["worker_omp"] = os.environ.get("OMP_NUM_THREADS")
    return data


@dataclass
class MemberResult:
    """One grid point's solved results plus its provenance.

    ``trajectory()`` rebuilds the declarative model from the member's
    spec dict, so results that crossed a process boundary (or came out
    of the cache) still carry full model metadata.  For metric-only
    campaigns (``trajectories="none"``) ``ts``/``thetas`` are ``None``
    and the streamed reductions live in ``metrics`` (keyed by metric
    name, on the ``metrics_ts`` observation mesh).
    """

    member: MemberSpec
    ts: np.ndarray | None
    thetas: np.ndarray | None
    metrics_ts: np.ndarray | None = None
    metrics: dict = field(default_factory=dict)

    @property
    def index(self) -> int:
        """Global member index (expansion order)."""
        return self.member.index

    @property
    def params(self) -> dict:
        """The member's axis coordinates."""
        return self.member.params

    @property
    def seed(self) -> int:
        """Noise-realisation seed."""
        return self.member.seed

    @property
    def has_trajectory(self) -> bool:
        """Whether this member carries phase states (any capture mode)."""
        return self.thetas is not None

    def trajectory(self) -> OscillatorTrajectory:
        """The solved phases as a full :class:`OscillatorTrajectory`."""
        if self.thetas is None:
            raise ValueError(
                f"member {self.index} has no trajectory (the campaign "
                'ran with trajectories="none"; re-run with '
                'trajectories="full" or consume the streamed metrics)')
        return OscillatorTrajectory(ts=self.ts, thetas=self.thetas,
                                    model=self.member.build_model(),
                                    seed=self.member.seed)


@dataclass
class RunResult:
    """Outcome of a campaign execution.

    Attributes
    ----------
    spec:
        The campaign that ran.
    members:
        Per-member results in global member order.
    n_shards, n_executed, n_cached:
        Shard accounting — ``n_executed == 0`` is the pure-cache-hit
        replay the acceptance tests assert.
    wall_s:
        End-to-end wall-clock of :func:`run_plan`.
    solve_s:
        Summed in-worker solve time of the executed shards.
    transport:
        A report of how executed shard results reached the parent:
        ``"pickle"`` (the pool's result pipe) when a pool ran, ``None``
        when everything ran inline or came from the cache.
    worker_omp:
        ``OMP_NUM_THREADS`` as reported from inside a pool worker (the
        pinning witness asserted by CI), or ``None`` when no pool ran.
    queue:
        Durable-queue execution report when the campaign ran through
        :func:`run_plan_queue` (``None`` for in-process runs): the
        ledger of the plan's own shards (``counts``, ``retried``,
        ``quarantined``, ``missing``, ``status``, as
        :meth:`WorkQueue.describe` gives them) plus ``path``,
        ``workers`` and ``spawned``.  The ``retried`` map (shard index
        -> attempts) is how recovered worker deaths stay visible in the
        run report.
    """

    spec: ScenarioSpec
    members: list[MemberResult]
    n_shards: int = 0
    n_executed: int = 0
    n_cached: int = 0
    wall_s: float = 0.0
    solve_s: float = 0.0
    transport: str | None = None
    worker_omp: str | None = None
    queue: dict | None = field(default=None)

    def __len__(self) -> int:
        return len(self.members)

    def trajectories(self) -> list[OscillatorTrajectory]:
        """All member trajectories, in member (expansion) order."""
        return [m.trajectory() for m in self.members]

    def summary_table(self) -> dict:
        """Axis columns plus standard sync/streamed metrics per member.

        Columns: one per axis path, plus ``seed``; when trajectories
        were captured, ``final_spread``, ``mean_abs_gap``, ``r_final``,
        and ``state`` from :func:`repro.metrics.sync.classify`; when the
        spec declared streaming metrics, one summary column per metric
        (``<name>_final`` for the series reductions,
        ``wavefront_reached`` rank counts, ``phase_histogram_peak`` bin
        indices) in declaration order.  A trajectory-mode and a
        metric-only campaign with the same ``metrics`` therefore agree
        bit-for-bit on the shared metric columns — the CI stream-smoke
        invariant.
        """
        from ..metrics.streaming import SERIES_METRICS
        from ..metrics.sync import classify

        # ``seed`` already has a dedicated column; don't duplicate it
        # when it is also swept as an axis.
        paths = [p for p, _ in self.spec.axes if p != "seed"]
        table: dict[str, list] = {p: [] for p in paths}
        table["seed"] = []
        has_traj = all(m.thetas is not None for m in self.members)
        if has_traj:
            table.update({"final_spread": [], "mean_abs_gap": [],
                          "r_final": [], "state": []})
        metric_names = [name for name in getattr(self.spec, "metrics", ())
                        if all(name in m.metrics for m in self.members)]
        for name in metric_names:
            if name in SERIES_METRICS:
                table[f"{name}_final"] = []
            elif name == "wavefront":
                table["wavefront_reached"] = []
            elif name == "phase_histogram":
                table["phase_histogram_peak"] = []
        for m in self.members:
            for p in paths:
                table[p].append(m.params.get(p))
            table["seed"].append(m.seed)
            if has_traj:
                model = m.member.build_model()
                verdict = classify(m.ts, m.thetas, model.omega)
                table["final_spread"].append(verdict.final_spread)
                table["mean_abs_gap"].append(verdict.mean_abs_gap)
                table["r_final"].append(verdict.r_final)
                table["state"].append(verdict.state.value)
            for name in metric_names:
                arr = m.metrics[name]
                if name in SERIES_METRICS:
                    table[f"{name}_final"].append(float(arr[-1]))
                elif name == "wavefront":
                    table["wavefront_reached"].append(
                        int(np.isfinite(arr).sum()))
                elif name == "phase_histogram":
                    table["phase_histogram_peak"].append(
                        int(np.argmax(arr)))
        return table

    def _npz_arrays(self) -> dict[str, np.ndarray]:
        """The canonical ``.npz`` payload: spec hash + per-member arrays.

        Trajectory campaigns contribute ``ts_<i>`` / ``thetas_<i>``;
        campaigns with streamed metrics contribute ``metrics_ts_<i>``
        plus ``metric_<name>_<i>`` (meshes are per-member because
        adaptive shards may differ); metric-only campaigns carry no
        trajectory arrays at all.
        """
        arrays: dict[str, np.ndarray] = {
            "spec_hash": np.frombuffer(
                self.spec.content_hash().encode(), dtype=np.uint8),
        }
        for m in self.members:
            if m.ts is not None:
                arrays[f"ts_{m.index}"] = m.ts
                arrays[f"thetas_{m.index}"] = m.thetas
            if m.metrics_ts is not None:
                arrays[f"metrics_ts_{m.index}"] = m.metrics_ts
            for name, arr in m.metrics.items():
                arrays[f"metric_{name}_{m.index}"] = arr
        return arrays

    def save_npz(self, path: str | Path) -> Path:
        """Write every member's arrays to one ``.npz`` file.

        Arrays are named ``ts_<index>`` / ``thetas_<index>`` (and/or
        ``metrics_ts_<index>`` / ``metric_<name>_<index>`` for streamed
        metrics); the file also records the spec hash, so two runs of
        the same campaign (any ``jobs=``) produce comparable artefacts.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self._npz_arrays())
        return path

    def npz_bytes(self) -> bytes:
        """The :meth:`save_npz` artefact as in-memory bytes.

        Same arrays, same names — the campaign service streams this
        over HTTP and stores it content-addressed without touching the
        filesystem twice.  Zip container metadata (timestamps) may
        differ between writes; the *decoded arrays* are the identity
        that matters, and they are bit-equal to a ``save_npz`` file.
        """
        import io

        buf = io.BytesIO()
        np.savez(buf, **self._npz_arrays())
        return buf.getvalue()


@dataclass
class _ShardOutcome:
    data: dict
    cached: bool


def assemble(plan: Plan, outcomes: dict[int, _ShardOutcome], t0: float,
             **report) -> RunResult:
    """Fan shard outcomes back out to an ordered :class:`RunResult`.

    Member order is the expansion order, never completion order — the
    bit-for-bit anchor across ``jobs=`` settings and executors.
    Members are rebuilt from the shard payloads (no second grid
    expansion).  Shard accounting comes from each outcome's ``cached``
    flag, ``wall_s`` runs from ``t0``, and ``report`` fills the
    remaining :class:`RunResult` fields.
    """
    results: list[MemberResult] = []
    solve_s = 0.0
    n_executed = 0
    for shard in plan.shards:
        out = outcomes[shard.index]
        if not out.cached:
            n_executed += 1
            solve_s += float(out.data.get("seconds", 0.0))
        ts = out.data.get("ts")
        thetas = out.data.get("thetas")
        metrics_ts = out.data.get("metrics_ts")
        metric_names = [name for name in shard.payload.get("metrics", ())
                        if f"metric_{name}" in out.data]
        members_by_index = {m["index"]: MemberSpec.from_dict(m)
                            for m in shard.payload["members"]}
        for row, gindex in enumerate(out.data["indices"].tolist()):
            metrics = {name: out.data[f"metric_{name}"][row]
                       for name in metric_names}
            results.append(MemberResult(
                member=members_by_index[int(gindex)],
                ts=ts,
                thetas=thetas[row] if thetas is not None else None,
                metrics_ts=metrics_ts,
                metrics=metrics))
    results.sort(key=lambda m: m.index)
    return RunResult(spec=plan.spec, members=results,
                     n_shards=plan.n_shards, n_executed=n_executed,
                     n_cached=plan.n_shards - n_executed,
                     wall_s=time.perf_counter() - t0, solve_s=solve_s,
                     **report)


def _load_cached(shards, cache: ResultCache | None
                 ) -> tuple[dict[int, _ShardOutcome], list]:
    """Load ``shards`` from ``cache``: ``(outcomes by shard index, missing)``.

    The one cache probe: a shard whose entry is absent or fails its
    checksum lands in ``missing`` (in ``shards`` order).  ``cache=None``
    loads nothing.
    """
    outcomes: dict[int, _ShardOutcome] = {}
    missing = []
    for shard in shards:
        data = cache.load(shard.key) if cache is not None else None
        if data is None:
            missing.append(shard)
        else:
            outcomes[shard.index] = _ShardOutcome(data=data, cached=True)
    return outcomes, missing


def load_done(shards, cache: ResultCache, queue
              ) -> tuple[dict[int, _ShardOutcome], list]:
    """Done means loadable: load ``shards`` once, requeue what fails.

    The check :func:`run_plan_queue` and the campaign service's result
    endpoint run on shards the queue marks done: one whose cached
    result is missing or corrupt (a torn write, bit rot) goes back to
    ``pending`` instead of being assembled.  Returns ``(outcomes by
    shard index, requeued shards)``.
    """
    outcomes, bad = _load_cached(shards, cache)
    if bad:
        queue.requeue([s.key for s in bad])
    return outcomes, bad


def collect_cached(plan: Plan, cache: ResultCache) -> RunResult | None:
    """Assemble a campaign purely from cached shard solves, or ``None``.

    Every shard of ``plan`` must load (checksum-verified) from
    ``cache``; any missing or corrupt shard returns ``None``.  Assembly
    is the same member-ordered fan-out as :func:`run_plan`, so the
    result is bit-identical to an executed campaign.
    """
    t0 = time.perf_counter()
    outcomes, missing = _load_cached(plan.shards, cache)
    return None if missing else assemble(plan, outcomes, t0)


def run_plan(plan: Plan, *,
             jobs: int = 1,
             cache: ResultCache | str | Path | None = None,
             resume: bool = True,
             threads: int | None = None,
             progress: Callable[[dict], None] | None = None) -> RunResult:
    """Execute a compiled plan; see the module docstring for semantics.

    Parameters
    ----------
    plan:
        Output of :func:`~repro.runs.plan.compile_plan`.
    jobs:
        Worker processes; ``1`` runs inline (no pool).  Pool results
        come back through the pool's result pipe; the bits equal an
        inline run's.
    cache:
        Result cache (directory path or :class:`ResultCache`); solved
        shards are stored there and — with ``resume`` — reused.
    resume:
        Reuse cached shard solves.  ``False`` recomputes everything
        (and overwrites the stored artefacts): the escape hatch for a
        cache poisoned by an unversioned numerics change.
    threads:
        In-kernel thread count per shard solve.  ``None`` pins pool
        workers to 1 thread each (``jobs x threads`` never
        oversubscribes) and lets the inline path resolve
        ``POM_NUM_THREADS``.  Never affects results or cache keys.
    progress:
        Callback receiving one event dict per completed shard.
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)

    t0 = time.perf_counter()
    outcomes, pending = _load_cached(plan.shards,
                                     cache if resume else None)
    done = 0
    total = plan.n_shards

    def _notify(shard, data, cached: bool) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress({
                "kind": "shard",
                "shard": shard.index,
                "members": shard.n_members,
                "cached": cached,
                "seconds": float(data.get("seconds", 0.0)),
                "done": done,
                "total": total,
            })

    def _solved(shard, data) -> None:
        # Persist immediately: a kill after this point loses at most
        # the in-flight shards.
        if cache is not None:
            cache.save(shard.key, data)
        outcomes[shard.index] = _ShardOutcome(data=data, cached=False)
        _notify(shard, data, False)

    for shard in plan.shards:
        if shard.index in outcomes:
            _notify(shard, outcomes[shard.index].data, True)

    transport: str | None = None
    worker_omp: str | None = None
    if jobs > 1 and len(pending) > 1:
        transport = "pickle"
        if injector_from_env():
            # Chaos run: all workers (and any inline fallback here)
            # must share one fire-count budget.
            ensure_shared_state_dir(tempfile.mkdtemp(prefix="pom-faults-"))
        _release_free_heap()
        try:
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(pending)),
                    initializer=_init_worker,
                    initargs=(_worker_env(threads),)) as pool:
                futures = {
                    pool.submit(_execute_shard_pickle, s.payload, s.index): s
                    for s in pending
                }
                remaining = set(futures)
                while remaining:
                    finished, remaining = wait(
                        remaining, return_when=FIRST_COMPLETED)
                    for fut in finished:
                        data = fut.result()
                        worker_omp = data["worker_omp"]
                        _solved(futures[fut], data)
        except BrokenProcessPool:
            # A worker died abnormally (SIGKILL, OOM).  Shard solves are
            # pure functions, so the campaign degrades to inline
            # execution of whatever the pool did not finish instead of
            # losing the run.
            n_left = sum(s.index not in outcomes for s in pending)
            warnings.warn(
                f"worker process died; re-solving {n_left} "
                "unfinished shard(s) inline", RuntimeWarning)
    for shard in pending:
        if shard.index not in outcomes:
            _solved(shard, execute_shard(shard.payload, threads=threads))

    return assemble(plan, outcomes, t0, transport=transport,
                    worker_omp=worker_omp)


# ======================================================================
# durable-queue execution (leases, heartbeats, retry, quarantine)
# ======================================================================

class _Heartbeat:
    """Background lease keeper for one claimed shard.

    Beats every ``every`` seconds until stopped.  Stops beating on its
    own when the per-shard ``timeout`` elapses (so the lease expires
    and the reaper hands the shard to another worker) or when a beat
    reports the lease already lost (``lost``) — the fencing signals the
    drain loop inspects after the solve returns.
    """

    def __init__(self, queue, lease, *, every: float, lease_ttl: float,
                 timeout: float | None) -> None:
        self.queue = queue
        self.lease = lease
        self.every = every
        self.lease_ttl = lease_ttl
        self.timeout = timeout
        self.lost = False
        self.timed_out = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        start = time.monotonic()
        while not self._stop.wait(self.every):
            if self.timeout is not None \
                    and time.monotonic() - start > self.timeout:
                self.timed_out = True
                return
            if not self.queue.heartbeat(self.lease.key, self.lease.lease_id,
                                        lease_ttl=self.lease_ttl):
                self.lost = True
                return

    def __enter__(self) -> _Heartbeat:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def drain_queue(queue, cache: ResultCache, *,
                worker: str = "worker",
                lease_ttl: float = 30.0,
                heartbeat_every: float | None = None,
                timeout: float | None = None,
                max_shards: int | None = None,
                probe_cache: bool = True,
                faults: FaultInjector | None = None,
                progress: Callable[[dict], None] | None = None) -> dict:
    """Worker loop: claim, heartbeat, solve, persist, complete.

    The body of ``pom worker`` and of the processes
    :func:`run_plan_queue` spawns.  Per shard: claim a lease, probe the
    shared cache (a hit completes without solving — this is how resumed
    campaigns and fenced stragglers converge), otherwise solve under a
    heartbeat, persist to the cache **before** completing (so a crash
    between the two costs one redundant solve, never a result), and
    complete fenced on the lease id.  Failures are recorded through
    :meth:`WorkQueue.fail` — retry with exponential backoff, then
    quarantine with the captured traceback.

    ``timeout`` bounds the heartbeat span of one solve: past it the
    lease is allowed to lapse, another worker re-claims (the backoff
    ladder applies), and this worker's eventual result is fenced out —
    though whatever it manages to cache still serves the re-claimer.

    Returns counts: ``solved``, ``cache_hits``, ``failed``, ``fenced``,
    ``quarantined``, ``stalled``.
    """
    import traceback as tb_mod

    if faults is None:
        faults = injector_from_env()
    every = heartbeat_every if heartbeat_every is not None \
        else max(lease_ttl / 3.0, 0.05)
    stats = {"solved": 0, "cache_hits": 0, "failed": 0, "fenced": 0,
             "quarantined": 0, "stalled": 0}

    def _notify(lease, outcome: str, seconds: float = 0.0) -> None:
        if progress is not None:
            progress({"kind": "worker-shard", "worker": worker,
                      "shard": lease.index, "attempt": lease.attempts,
                      "outcome": outcome, "seconds": seconds})

    while max_shards is None or \
            stats["solved"] + stats["cache_hits"] < max_shards:
        queue.reap()
        lease = queue.claim(worker, lease_ttl=lease_ttl)
        if lease is None:
            if queue.unfinished() == 0:
                break
            # Everything claimable is leased out or inside a retry
            # backoff window; linger — leases may be reaped back.
            time.sleep(POLL_S)
            continue
        try:
            fired = faults.fire("shard-start", shard=lease.index)
            stall = next((f for f in fired if f.kind == "stall"), None)
            if stall is not None:
                # A hung/partitioned worker: no heartbeats while the
                # lease runs out under us.
                stats["stalled"] += 1
                time.sleep(stall.secs if stall.secs is not None
                           else 2.0 * lease_ttl + 0.5)
            if probe_cache:
                data = cache.load(lease.key)
                if data is not None:
                    if queue.complete(lease.key, lease.lease_id,
                                      cached=True, seconds=0.0):
                        stats["cache_hits"] += 1
                        _notify(lease, "cache-hit")
                    else:
                        stats["fenced"] += 1
                        _notify(lease, "fenced")
                    continue
            with _Heartbeat(queue, lease, every=every, lease_ttl=lease_ttl,
                            timeout=timeout) as hb:
                data = execute_shard(lease.payload)
            cache.save(lease.key, data)
            for f in faults.fire("cache-saved", shard=lease.index):
                if f.kind == "corrupt-cache":
                    # Torn write chaos: truncate the blob we just
                    # stored; the checksummed store must flag it and
                    # the orchestrator must re-run the shard.
                    path = cache.store.path_for(lease.key)
                    path.write_bytes(path.read_bytes()[:64])
            if hb.timed_out:
                queue.fail(lease.key, lease.lease_id,
                           f"solve exceeded timeout={timeout}s "
                           "(result cached; retry will hit it)")
                stats["failed"] += 1
                _notify(lease, "timeout", float(data.get("seconds", 0.0)))
            elif queue.complete(lease.key, lease.lease_id, cached=False,
                                seconds=float(data.get("seconds", 0.0))):
                stats["solved"] += 1
                _notify(lease, "solved", float(data.get("seconds", 0.0)))
            else:
                stats["fenced"] += 1
                _notify(lease, "fenced", float(data.get("seconds", 0.0)))
        except Exception:
            verdict = queue.fail(lease.key, lease.lease_id,
                                 tb_mod.format_exc())
            if verdict == "quarantined":
                stats["quarantined"] += 1
            elif verdict == "retry":
                stats["failed"] += 1
            else:
                stats["fenced"] += 1
            _notify(lease, verdict)
    return stats


def _queue_worker_entry(queue_path: str, cache_root: str,
                        opts: dict) -> None:
    """Top-level entry for spawned queue-worker processes."""
    from .queue import WorkQueue

    os.environ.update(_worker_env(opts.get("threads")))
    queue = WorkQueue(queue_path, backoff=opts.get("backoff", 0.5))
    cache = ResultCache(cache_root)
    drain_queue(queue, cache,
                worker=opts.get("worker", f"worker-{os.getpid()}"),
                lease_ttl=opts.get("lease_ttl", 30.0),
                heartbeat_every=opts.get("heartbeat_every"),
                timeout=opts.get("timeout"),
                probe_cache=opts.get("probe_cache", True))


class WorkerPool:
    """Keep up to ``jobs`` queue-drainer processes alive while work exists.

    The one supervisor of queue drainers.  Each :meth:`tick` reaps
    expired leases, forgets dead workers, and spawns replacements up to
    ``min(jobs, unfinished)``.  :func:`run_plan_queue` ticks it from its
    own loop; ``pom serve`` ticks it from the monitor thread behind
    :meth:`start`, every :data:`POLL_S` seconds.  Workers are plain
    :func:`_queue_worker_entry` processes — the same body as ``pom
    worker`` — so they exit on their own when the queue drains, and
    quarantine (``max_attempts``) bounds how long a poisoned shard can
    keep the pool busy.

    ``queue`` is the caller's :class:`~repro.runs.queue.WorkQueue`.
    ``max_spawns`` caps the processes started over the pool's life
    (``None``: no cap); once it is spent and every worker has died,
    :meth:`tick` returns 0 and the caller decides what to do.
    """

    def __init__(self, queue, cache_root: str | Path, jobs: int, *,
                 worker_opts: dict | None = None,
                 max_spawns: int | None = None) -> None:
        if jobs < 0:
            raise ValueError("jobs must be non-negative")
        self.queue = queue
        self.cache_root = Path(cache_root)
        self.jobs = int(jobs)
        self.worker_opts = dict(worker_opts or {})
        self.max_spawns = max_spawns
        self.spawned = 0
        self._procs: list[mp.Process] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def tick(self) -> int:
        """One supervision round; returns the live worker count."""
        self.queue.reap()
        self._procs = [p for p in self._procs if p.is_alive()]
        deficit = min(self.jobs, self.queue.unfinished()) - len(self._procs)
        while deficit > 0 and (self.max_spawns is None
                               or self.spawned < self.max_spawns):
            opts = dict(self.worker_opts,
                        worker=f"{os.uname().nodename}-w{self.spawned}")
            proc = mp.Process(target=_queue_worker_entry,
                              args=(str(self.queue.path),
                                    str(self.cache_root), opts),
                              daemon=True)
            proc.start()
            self._procs.append(proc)
            self.spawned += 1
            deficit -= 1
        return len(self._procs)

    def start(self) -> "WorkerPool":
        """Tick from a background monitor thread until :meth:`stop`."""
        if self.jobs > 0 and not self._thread.is_alive():
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(POLL_S):
            self.tick()

    def stop(self) -> None:
        """Stop the monitor and terminate any live workers."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
        for p in self._procs:
            if p.is_alive():
                p.terminate()
        for p in self._procs:
            p.join(timeout=5.0)
        self._procs = []

    @property
    def alive(self) -> int:
        """Currently live worker processes."""
        return sum(1 for p in self._procs if p.is_alive())


def run_plan_queue(plan: Plan, queue_path: str | Path, *,
                   jobs: int = 1,
                   cache: ResultCache | str | Path | None = None,
                   resume: bool = True,
                   threads: int | None = None,
                   lease_ttl: float = 30.0,
                   heartbeat_every: float | None = None,
                   max_attempts: int = 3,
                   backoff: float = 0.5,
                   timeout: float | None = None,
                   progress: Callable[[dict], None] | None = None
                   ) -> RunResult:
    """Execute a plan through a durable work queue (crash-safe).

    Shards become leased messages in a SQLite-backed
    :class:`~repro.runs.queue.WorkQueue` at ``queue_path``; a
    :class:`WorkerPool` keeps ``jobs`` worker processes draining it (any
    number of *external* ``pom worker`` processes — on this host or any
    host sharing the filesystem — may drain the same queue
    concurrently).  Each tick the orchestrator reads the queue once,
    summarises the plan's shards (:func:`~repro.runs.queue.summarise`,
    the ledger behind :meth:`WorkQueue.describe`), loads the shards
    newly marked done through :func:`load_done` (requeueing any whose
    cached result does not load — e.g. a corrupt entry from a kill
    mid-write), and ticks the pool, which reaps expired leases and
    respawns dead workers.  Each shard is read from the cache once by
    the orchestrator.  Other campaigns sharing the queue file are
    neither waited for nor reported.

    The bit-identical contract of :func:`run_plan` holds: shard solves
    are pure, the cache round-trip is exact, and assembly orders by
    member index — so a queue campaign with workers SIGKILLed and
    leases expiring mid-run still equals ``jobs=1``.

    Degradations:

    * an unwritable ``queue_path`` falls back to plain in-process
      execution with a warning (never fails a campaign over a missing
      mount);
    * if workers keep dying past the respawn budget (``2 * n_shards +
      4`` spawns), the orchestrator drains the remainder inline (fault
      injection disabled — the orchestrator is the recovery path, not a
      chaos target).

    Raises ``RuntimeError`` if shards end up quarantined: the campaign
    is incomplete, and the report (also available via ``pom queue``)
    carries each quarantined shard's captured traceback; also if a
    shard's freshly computed result fails to load four times (the cache
    tier is persistently failing).
    """
    from .queue import (WorkQueue, default_queue_sibling, summarise,
                        writable_queue_path)

    if jobs < 1:
        raise ValueError("jobs must be positive")
    queue_path = Path(queue_path)
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    if not writable_queue_path(queue_path):
        warnings.warn(
            f"queue path {queue_path} is not writable; degrading to "
            "in-process execution (no durable queue, no multi-host "
            "workers)", RuntimeWarning)
        return run_plan(plan, jobs=jobs, cache=cache, resume=resume,
                        threads=threads, progress=progress)
    if cache is None:
        # The queue is coordination state; the sibling cache is the
        # shared result tier a resumed/multi-worker campaign converges
        # through.  A queue without a cache cannot be crash-safe.
        cache = ResultCache(default_queue_sibling(queue_path, "cache"))

    t0 = time.perf_counter()
    ensure_shared_state_dir(default_queue_sibling(queue_path, "faults"))
    queue = WorkQueue(queue_path, backoff=backoff)
    queue.enqueue_plan(plan, max_attempts=max_attempts)
    plan_keys = [s.key for s in plan.shards]
    if not resume:
        queue.requeue(plan_keys)

    outcomes: dict[int, _ShardOutcome] = {}

    def _absorb(rows: dict, at_start: bool) -> list:
        """Load the shards newly marked done; return the ones requeued.

        Shards already done when the run started count as cache hits.
        """
        fresh = [s for s in plan.shards if s.index not in outcomes
                 and rows[s.key].state == "done"]
        loaded, bad = load_done(fresh, cache, queue)
        for shard in fresh:
            out = loaded.get(shard.index)
            if out is None:
                continue
            row = rows[shard.key]
            out.cached = at_start or row.cached
            outcomes[shard.index] = out
            if progress is not None:
                progress({"kind": "shard", "shard": shard.index,
                          "members": shard.n_members, "cached": out.cached,
                          "attempts": row.attempts,
                          "seconds": float(row.seconds or 0.0),
                          "done": len(outcomes), "total": plan.n_shards})
        return bad

    pool = WorkerPool(queue, cache.root, jobs,
                      worker_opts={"lease_ttl": lease_ttl,
                                   "heartbeat_every": heartbeat_every,
                                   "timeout": timeout, "backoff": backoff,
                                   "threads": threads,
                                   "probe_cache": resume},
                      max_spawns=2 * plan.n_shards + 4)
    at_start = True
    # Per shard: how often a result this run computed failed to load.
    unloadable: dict[str, int] = {}
    try:
        while True:
            snapshot = queue.rows()
            ledger = summarise(snapshot, plan_keys)
            bad = _absorb({r.key: r for r in snapshot}, at_start)
            for shard in () if at_start else bad:
                unloadable[shard.key] = unloadable.get(shard.key, 0) + 1
                if unloadable[shard.key] > 3:
                    raise RuntimeError(
                        f"shard {shard.index}'s result remained unloadable "
                        "after 3 recompute rounds; cache tier is "
                        "persistently failing")
            at_start = False
            if bad:
                continue
            counts = ledger["counts"]
            if counts["pending"] + counts["leased"] == 0:
                break
            if not pool.tick():
                # Respawn budget exhausted (workers keep dying): the
                # orchestrator is the last line — drain inline with
                # fault injection off.
                drain_queue(queue, cache, worker="orchestrator",
                            lease_ttl=lease_ttl, timeout=timeout,
                            probe_cache=resume,
                            faults=FaultInjector.disabled())
                continue
            time.sleep(POLL_S)
    finally:
        pool.stop()

    quarantined = ledger["quarantined"]
    if quarantined:
        details = "; ".join(
            f"shard {q['shard']} after {q['attempts']} attempt(s)"
            for q in quarantined)
        raise RuntimeError(
            f"campaign incomplete: {len(quarantined)} shard(s) "
            f"quarantined ({details}); inspect with `pom queue "
            f"{queue_path}` and requeue with --requeue-quarantined")
    return assemble(plan, outcomes, t0,
                    queue=dict(ledger, path=str(queue_path), workers=jobs,
                               spawned=pool.spawned))


def run_spec(spec: ScenarioSpec, *,
             jobs: int = 1,
             shard_members: int | None = None,
             fuse_topologies: bool | None = None,
             cache: ResultCache | str | Path | None = None,
             resume: bool = True,
             threads: int | None = None,
             queue: str | Path | None = None,
             progress: Callable[[dict], None] | None = None,
             **queue_kwargs) -> RunResult:
    """Compile and execute a scenario in one call (the common entry).

    ``fuse_topologies`` is forwarded to
    :func:`~repro.runs.plan.compile_plan` (default ``None``: merge
    same-N topology groups for the fixed-step methods, bit-identical to
    per-group shards).  With ``queue=`` the campaign runs through the
    durable work queue (:func:`run_plan_queue`, which accepts the extra
    ``queue_kwargs`` like ``lease_ttl`` / ``max_attempts``); otherwise
    in-process via :func:`run_plan`.
    """
    plan = compile_plan(spec, shard_members=shard_members,
                        fuse_topologies=fuse_topologies)
    if queue is not None:
        return run_plan_queue(plan, queue, jobs=jobs, cache=cache,
                              resume=resume, threads=threads,
                              progress=progress, **queue_kwargs)
    if queue_kwargs:
        raise TypeError(
            f"unexpected arguments {sorted(queue_kwargs)} "
            "(queue-only options need queue=)")
    return run_plan(plan, jobs=jobs, cache=cache, resume=resume,
                    threads=threads, progress=progress)
