"""Command-line interface: ``pom`` / ``python -m repro``.

Subcommands
-----------
``pom list``
    Show the available experiments.
``pom run <experiment|spec.json> [--out DIR] [--jobs N] [--cache DIR]``
    Regenerate one paper artefact, or execute a declarative scenario
    spec through the run orchestration layer (sharded across ``--jobs``
    processes, cached/resumable under ``--cache``).  With ``--queue
    PATH`` the campaign runs through the durable work queue: shards
    become leased messages, worker deaths are reaped/retried, and any
    number of extra ``pom worker`` processes (or hosts sharing the
    filesystem) can help drain it.
``pom plan <experiment|spec.json>``
    Compile a scenario into its shard decomposition and show it
    (with per-shard cache state when ``--cache`` is given).
``pom worker <queue.db> [--cache DIR] [--lease-ttl S]``
    Drain shards from a durable campaign queue until it is empty —
    start as many of these as you have cores/hosts.
``pom queue <queue.db> [--requeue-quarantined]``
    Inspect a campaign queue: state counts, retried shards, and
    quarantined shards with their captured tracebacks.
``pom serve <queue.db> [--cache DIR] [--port P] [--workers N]``
    HTTP campaign service over the queue + cache: ``POST /v1/campaigns``
    (spec -> content-hashed campaign id; full cache hits short-circuit,
    misses are enqueued), ``GET /v1/campaigns/{id}`` (status),
    ``GET /v1/campaigns/{id}/result`` (NPZ/CSV artefact), ``/v1/healthz``
    and ``/v1/registry``.  ``--workers N`` keeps N drainer processes
    alive while the queue has work.
``pom submit <spec.json|experiment> --url URL [--wait]``
    Submit a campaign to a running service; prints the campaign id.
``pom status <id|spec.json|experiment> --url URL``
    Campaign status by id (or by spec — the id is the spec hash).
``pom fetch <id|spec.json|experiment> --url URL [--out PATH]``
    Download a finished campaign's result artefact.
``pom model ...``
    Free-form oscillator-model run with ASCII output — the scriptable
    replacement for the paper's MATLAB GUI.
``pom trace ...``
    Free-form cluster-simulator run with an ASCII trace timeline.
``pom report <file.md> [--full]``
    Run the whole experiment suite and write a markdown reproduction
    report (quick configurations by default).
"""

from __future__ import annotations

import argparse
import sys

from .kernels import available_kernels, resolve_kernel
from .core import simulate
from .experiments.registry import get_experiment, list_experiments
from .metrics.sync import classify
from .runs.spec import INITIAL_KINDS, initial_from_spec, model_from_spec
from .simulator import (
    Injection,
    kernel_from_name,
    paper_program,
    run_program,
)
from .viz.ascii import circle_diagram, heatmap, timeline

__all__ = ["main", "build_parser"]


def _add_queue_knobs(parser: argparse.ArgumentParser) -> None:
    """Lease/retry knobs shared by ``pom run --queue`` and ``pom worker``."""
    parser.add_argument("--lease-ttl", type=float, default=30.0,
                        metavar="S",
                        help="shard lease duration; a worker silent this "
                             "long loses the shard to the reaper "
                             "(default 30)")
    parser.add_argument("--heartbeat", type=float, default=None,
                        metavar="S",
                        help="heartbeat interval while solving "
                             "(default: lease-ttl / 3)")
    parser.add_argument("--backoff", type=float, default=0.5, metavar="S",
                        help="base retry delay; attempt k waits "
                             "backoff * 2^(k-1) (default 0.5)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-shard solve timeout: past it the "
                             "worker lets its lease lapse so the shard "
                             "is retried elsewhere (default: none)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    p = argparse.ArgumentParser(
        prog="pom",
        description="Physical Oscillator Model for Supercomputing — "
                    "reproduction toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the reproducible paper artefacts")

    run_p = sub.add_parser("run", help="regenerate one paper artefact or "
                                       "execute a scenario spec")
    run_p.add_argument("experiment",
                       help="experiment name (see `pom list`) or a "
                            "scenario-spec .json file")
    run_p.add_argument("--out", default=None,
                       help="directory for CSV/NPZ output (default: no "
                            "files)")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for sharded campaign "
                            "execution (default 1; results are identical "
                            "for any value)")
    run_p.add_argument("--cache", default=None, metavar="DIR",
                       help="content-addressed result cache: finished "
                            "campaigns replay as pure cache hits, killed "
                            "ones resume from completed shards")
    run_p.add_argument("--resume", dest="resume", action="store_true",
                       default=True,
                       help="reuse cached shard solves (default)")
    run_p.add_argument("--no-resume", dest="resume", action="store_false",
                       help="recompute and overwrite cached shards")
    run_p.add_argument("--shard-members", type=int, default=None,
                       help="max members per shard (default: fuse whole "
                            "compatible groups; bounded shards enable "
                            "--jobs scaling, bit-for-bit for fixed-step "
                            "methods; 1 solves point by point, the "
                            "cross-check against single solves)")
    run_p.add_argument("--fuse-topologies", dest="fuse_topologies",
                       action="store_true", default=None,
                       help="merge same-N topology groups into one stacked "
                            "shard (default: automatic for fixed-step "
                            "methods, where the merge is bit-for-bit "
                            "identical to per-group shards)")
    run_p.add_argument("--no-fuse-topologies", dest="fuse_topologies",
                       action="store_false",
                       help="keep one shard per topology value")
    run_p.add_argument("--threads", type=int, default=None,
                       help="in-kernel thread count per shard solve "
                            "(default: POM_NUM_THREADS, else 1; workers "
                            "are pinned to 1 when --jobs > 1 unless set "
                            "explicitly; results are identical for any "
                            "value)")
    run_p.add_argument("--quick", action="store_true",
                       help="reduced-size smoke configuration (the "
                            "registry entry's quick_kwargs)")
    run_p.add_argument("--metrics", default=None, metavar="NAMES",
                       help="comma-separated streaming metrics to fold "
                            "in-solve (overrides the spec's metrics=; e.g. "
                            "order_parameter,wavefront); changes the spec "
                            "hash and therefore the cache keys")
    run_p.add_argument("--trajectories", default=None,
                       metavar="MODE",
                       help='trajectory capture override: "full", "none" '
                            '(metric-only, kilobyte-scale cache), or '
                            '"stride:K" (every Kth accepted step)')
    run_p.add_argument("--queue", default=None, metavar="DB",
                       help="execute through a durable SQLite work queue "
                            "at this path: leased shards, heartbeats, "
                            "retry on worker loss; extra `pom worker` "
                            "processes may drain the same queue")
    run_p.add_argument("--max-attempts", type=int, default=3,
                       help="attempts per shard before quarantine "
                            "(queue mode; default 3)")
    _add_queue_knobs(run_p)

    worker_p = sub.add_parser("worker", help="drain shards from a durable "
                                             "campaign queue")
    worker_p.add_argument("queue", help="queue database (`pom run --queue` "
                                        "path)")
    worker_p.add_argument("--cache", default=None, metavar="DIR",
                          help="shared result cache (default: "
                               "<queue>.cache, the orchestrator's "
                               "default)")
    worker_p.add_argument("--name", default=None,
                          help="worker id recorded on claimed shards "
                               "(default: host-pid)")
    worker_p.add_argument("--max-shards", type=int, default=None,
                          help="exit after completing this many shards "
                               "(default: run until the queue drains)")
    worker_p.add_argument("--threads", type=int, default=None,
                          help="in-kernel threads per solve (default 1)")
    _add_queue_knobs(worker_p)

    queue_p = sub.add_parser("queue", help="inspect a campaign queue "
                                           "(states, retries, quarantine)")
    queue_p.add_argument("queue", help="queue database path")
    queue_p.add_argument("--requeue-quarantined", action="store_true",
                         help="give quarantined shards a fresh set of "
                              "attempts")

    serve_p = sub.add_parser("serve", help="HTTP campaign service over a "
                                           "durable queue + result cache")
    serve_p.add_argument("queue", help="queue database path (shared with "
                                       "any `pom worker` drainers)")
    serve_p.add_argument("--cache", default=None, metavar="DIR",
                         help="shared result cache (default: <queue>.cache)")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8765,
                         help="bind port; 0 picks an ephemeral port "
                              "(default 8765)")
    serve_p.add_argument("--workers", type=int, default=0, metavar="N",
                         help="keep N queue-drainer processes alive while "
                              "the queue has work (default 0: rely on "
                              "external `pom worker` processes)")
    serve_p.add_argument("--metrics", default=None, metavar="FILE",
                         help="JSON-lines request log (default: "
                              "<queue>.metrics.jsonl)")
    serve_p.add_argument("--shard-members", type=int, default=None,
                         help="default max members per shard for submitted "
                              "campaigns (requests may override)")
    serve_p.add_argument("--max-attempts", type=int, default=3,
                         help="attempts per shard before quarantine "
                              "(default 3)")
    serve_p.add_argument("--threads", type=int, default=None,
                         help="in-kernel threads per spawned worker "
                              "(default 1)")
    _add_queue_knobs(serve_p)

    def _add_client_knobs(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--url", default="http://127.0.0.1:8765",
                            help="service base URL "
                                 "(default http://127.0.0.1:8765)")

    submit_p = sub.add_parser("submit", help="submit a campaign to a "
                                             "running `pom serve`")
    submit_p.add_argument("spec",
                          help="scenario-spec .json file or a registry "
                               "experiment with a declarative spec")
    _add_client_knobs(submit_p)
    submit_p.add_argument("--quick", action="store_true",
                          help="reduced-size configuration for registry "
                               "specs")
    submit_p.add_argument("--shard-members", type=int, default=None,
                          help="max members per shard")
    submit_p.add_argument("--wait", action="store_true",
                          help="poll until the campaign is done")
    submit_p.add_argument("--timeout", type=float, default=600.0,
                          metavar="S",
                          help="--wait deadline in seconds (default 600)")

    status_p = sub.add_parser("status", help="campaign status from a "
                                             "running `pom serve`")
    status_p.add_argument("campaign",
                          help="campaign id (spec content hash), or a spec "
                               ".json / registry experiment to hash")
    _add_client_knobs(status_p)
    status_p.add_argument("--quick", action="store_true",
                          help="reduced-size configuration for registry "
                               "specs")

    fetch_p = sub.add_parser("fetch", help="download a campaign result "
                                           "from a running `pom serve`")
    fetch_p.add_argument("campaign",
                         help="campaign id (spec content hash), or a spec "
                              ".json / registry experiment to hash")
    _add_client_knobs(fetch_p)
    fetch_p.add_argument("--quick", action="store_true",
                         help="reduced-size configuration for registry "
                              "specs")
    fetch_p.add_argument("--out", default=".", metavar="PATH",
                         help="output file or directory (default: current "
                              "directory)")
    fetch_p.add_argument("--format", default="npz", choices=["npz", "csv"],
                         help="artefact format (default npz)")

    plan_p = sub.add_parser("plan", help="compile a scenario spec and show "
                                         "its shard decomposition")
    plan_p.add_argument("spec",
                        help="scenario-spec .json file or a registry "
                             "experiment with a declarative spec")
    plan_p.add_argument("--cache", default=None, metavar="DIR",
                        help="show per-shard cache state against this "
                             "result cache")
    plan_p.add_argument("--shard-members", type=int, default=None,
                        help="max members per shard")
    plan_p.add_argument("--fuse-topologies", dest="fuse_topologies",
                        action="store_true", default=None,
                        help="merge same-N topology groups into one "
                             "stacked shard (default: automatic for "
                             "fixed-step methods)")
    plan_p.add_argument("--no-fuse-topologies", dest="fuse_topologies",
                        action="store_false",
                        help="keep one shard per topology value")
    plan_p.add_argument("--quick", action="store_true",
                        help="reduced-size configuration for registry "
                             "specs")

    model_p = sub.add_parser("model", help="run the oscillator model")
    model_p.add_argument("--n", type=int, default=24, help="oscillators")
    model_p.add_argument("--potential", default="tanh",
                         help="tanh | bottleneck | kuramoto | linear")
    model_p.add_argument("--sigma", type=float, default=1.0,
                         help="bottleneck interaction horizon")
    model_p.add_argument("--distances", default="1,-1",
                         help="comma-separated distance set, e.g. 1,-1,-2")
    model_p.add_argument("--t-comp", type=float, default=0.9)
    model_p.add_argument("--t-comm", type=float, default=0.1)
    model_p.add_argument("--t-end", type=float, default=300.0)
    model_p.add_argument("--protocol", default="eager",
                         choices=["eager", "rendezvous"])
    model_p.add_argument("--waitall", action="store_true",
                         help="group waits in one MPI_Waitall (kappa = max)")
    model_p.add_argument("--initial", default="sync",
                         help=" | ".join(INITIAL_KINDS) + " (random, "
                              "normal and wavefront draw from --seed; "
                              "splayed and wavefront gap 2*sigma/3)")
    model_p.add_argument("--delay-rank", type=int, default=None,
                         help="inject a one-off delay on this rank")
    model_p.add_argument("--delay", type=float, default=2.0,
                         help="one-off delay duration (s)")
    model_p.add_argument("--seed", type=int, default=0)
    model_p.add_argument("--kernel", default="auto",
                         choices=list(available_kernels()),
                         help="coupling-loop kernel of the edge-list "
                              "coupling (auto: cc when a compiler works, "
                              "else numpy)")
    model_p.add_argument("--threads", type=int, default=None,
                         help="in-kernel thread count for the compiled "
                              "kernels (default: POM_NUM_THREADS, else 1; "
                              "results are identical for any value)")
    model_p.add_argument("--view", default="phases",
                         choices=["phases", "circle", "summary"])

    report_p = sub.add_parser("report",
                              help="write a markdown reproduction report")
    report_p.add_argument("path", help="output .md file")
    report_p.add_argument("--full", action="store_true",
                          help="paper-scale configurations (slower)")

    trace_p = sub.add_parser("trace", help="run the MPI cluster simulator")
    trace_p.add_argument("--kernel", default="pisolver",
                         help="pisolver | stream | schoenauer")
    trace_p.add_argument("--ranks", type=int, default=40)
    trace_p.add_argument("--iters", type=int, default=40)
    trace_p.add_argument("--distances", default="1,-1")
    trace_p.add_argument("--delay-rank", type=int, default=None)
    trace_p.add_argument("--delay-iter", type=int, default=5)
    trace_p.add_argument("--delay-multiple", type=float, default=3.0,
                         help="delay as a multiple of the sweep time")
    trace_p.add_argument("--seed", type=int, default=0)
    return p


def _parse_distances(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise SystemExit(f"bad distance set {text!r}: {exc}") from exc


def _cmd_list() -> int:
    for name, desc in list_experiments():
        print(f"{name:>12}  {desc}")
    return 0


def _looks_like_spec_file(name: str) -> bool:
    import os

    return name.endswith(".json") or os.sep in name


def _resolve_spec(name_or_path: str, *, quick: bool = False):
    """A ScenarioSpec from a .json file or a spec-carrying registry entry."""
    from .runs import ScenarioSpec

    if _looks_like_spec_file(name_or_path):
        return ScenarioSpec.from_json(name_or_path)
    exp = get_experiment(name_or_path)
    if exp.spec_factory is None:
        raise SystemExit(
            f"experiment {name_or_path!r} has no declarative scenario spec; "
            "point at a spec .json file instead"
        )
    return exp.spec_factory(**(exp.quick_kwargs if quick else {}))


def _print_shard_progress(event: dict) -> None:
    # event["done"] is the completion counter — with --jobs N shards
    # finish out of order, so the shard id is reported separately.
    state = "cache hit" if event["cached"] else f"{event['seconds']:.2f}s"
    retried = ""
    if event.get("attempts", 1) > 1:
        retried = f"  [retried: attempt {event['attempts']}]"
    print(f"  [{event['done']}/{event['total']}] shard {event['shard']} "
          f"({event['members']} members): {state}{retried}")


def _run_spec_file(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .runs import compile_plan, run_plan, run_plan_queue
    from .viz.export import write_csv

    if args.quick and _looks_like_spec_file(args.experiment):
        print("(--quick has no effect on spec-file campaigns — size the "
              "spec itself)")
    spec = _resolve_spec(args.experiment, quick=args.quick)
    if getattr(args, "metrics", None) is not None \
            or getattr(args, "trajectories", None) is not None:
        from .runs import ScenarioSpec

        d = spec.to_dict()
        if args.metrics is not None:
            d["metrics"] = [m for m in
                            (s.strip() for s in args.metrics.split(","))
                            if m]
        if args.trajectories is not None:
            d["trajectories"] = args.trajectories
        spec = ScenarioSpec.from_dict(d)
    spec.validate()
    plan = compile_plan(spec, shard_members=args.shard_members,
                        fuse_topologies=getattr(args, "fuse_topologies",
                                                None))
    print(f"[{spec.name}] {plan.n_members} members in {plan.n_shards} "
          f"shard(s), spec {spec.content_hash()[:16]}")
    if args.queue:
        result = run_plan_queue(
            plan, args.queue, jobs=args.jobs, cache=args.cache,
            resume=args.resume, threads=args.threads,
            lease_ttl=args.lease_ttl, heartbeat_every=args.heartbeat,
            max_attempts=args.max_attempts, backoff=args.backoff,
            timeout=args.timeout, progress=_print_shard_progress)
    else:
        result = run_plan(plan, jobs=args.jobs, cache=args.cache,
                          resume=args.resume, threads=args.threads,
                          progress=_print_shard_progress)
    if result.transport is not None:
        # The pinning witness CI greps for: workers run 1 thread each
        # unless --threads raises it explicitly.
        print(f"workers: {args.jobs} x OMP_NUM_THREADS="
              f"{result.worker_omp or (args.threads or 1)}, "
              f"transport={result.transport}")
    if result.queue is not None:
        q = result.queue
        retried = q.get("retried") or {}
        print(f"queue {q['path']}: {q['workers']} worker(s) "
              f"({q['spawned']} spawned), {len(retried)} shard(s) retried")
        for shard, attempts in sorted(retried.items()):
            print(f"  shard {shard}: recovered after {attempts} attempts")
    print(f"done: {result.n_executed} shard(s) solved, "
          f"{result.n_cached} from cache, {result.wall_s:.2f}s")
    if args.out:
        out = Path(args.out)
        csv_path = write_csv(out / f"{spec.name}.csv",
                             result.summary_table(),
                             meta={"spec": spec.content_hash(),
                                   "name": spec.name})
        npz_path = result.save_npz(out / f"{spec.name}.npz")
        print(f"written: {csv_path} and {npz_path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import inspect

    if _looks_like_spec_file(args.experiment) or args.queue \
            or args.metrics is not None or args.trajectories is not None \
            or args.fuse_topologies is not None:
        # --queue routes registry experiments through their declarative
        # spec (required for durable execution); _resolve_spec rejects
        # entries that have none.  --metrics/--trajectories/
        # --fuse-topologies likewise only exist on the spec path.
        return _run_spec_file(args)

    exp = get_experiment(args.experiment)
    print(f"[{exp.id}] {exp.description}")
    params = inspect.signature(exp.runner).parameters
    kwargs = {}
    if args.quick:
        kwargs.update(exp.quick_kwargs)
    if args.out:
        kwargs["out_dir"] = args.out
    # Orchestration knobs: forwarded to campaign-shaped runners only.
    orchestration = {"jobs": args.jobs, "cache": args.cache,
                     "resume": args.resume,
                     "shard_members": args.shard_members}
    requested = (args.jobs != 1 or args.cache is not None
                 or args.shard_members is not None or not args.resume
                 or args.threads is not None)
    if all(k in params for k in orchestration):
        kwargs.update(orchestration)
        if "threads" in params:
            kwargs["threads"] = args.threads
    elif requested:
        print("(--jobs/--cache/--resume/--shard-members/--threads have no "
              "effect on this experiment)")
    result = exp.runner(**kwargs)
    print(result)
    if args.out:
        print(f"CSV written to {args.out}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import os

    from .runs import ResultCache, WorkQueue, drain_queue
    from .runs.queue import default_queue_sibling

    queue = WorkQueue(args.queue, backoff=args.backoff)
    cache_root = args.cache or default_queue_sibling(args.queue, "cache")
    cache = ResultCache(cache_root)
    name = args.name or f"{os.uname().nodename}-{os.getpid()}"
    # Same pinning contract as pool workers: one in-kernel thread
    # unless raised explicitly.
    from .runs.executor import _worker_env

    os.environ.update(_worker_env(args.threads))

    def _progress(event: dict) -> None:
        print(f"  shard {event['shard']} attempt {event['attempt']}: "
              f"{event['outcome']} ({event['seconds']:.2f}s)")

    print(f"worker {name} draining {queue.path} (cache {cache.root}, "
          f"lease {args.lease_ttl:g}s)")
    stats = drain_queue(queue, cache, worker=name,
                        lease_ttl=args.lease_ttl,
                        heartbeat_every=args.heartbeat,
                        timeout=args.timeout,
                        max_shards=args.max_shards,
                        progress=_progress)
    print(f"drained: {stats['solved']} solved, {stats['cache_hits']} cache "
          f"hits, {stats['failed']} failed, {stats['fenced']} fenced, "
          f"{stats['quarantined']} quarantined")
    return 0


def _cmd_queue(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .runs import WorkQueue
    from .runs.queue import summarise

    if not Path(args.queue).exists():
        # Inspection must never create the database as a side effect —
        # a typo'd path would otherwise leave a stray empty queue file.
        _print_ledger(f"queue {args.queue} (spec None): no such queue file",
                      summarise([]))
        return 0
    queue = WorkQueue(args.queue)
    if args.requeue_quarantined:
        n = queue.requeue_quarantined()
        print(f"requeued {n} quarantined shard(s)")
    specs = ", ".join(h[:16] for h in queue.spec_hashes()) or "None"
    _print_ledger(f"queue {queue.path} (spec {specs}):", queue.describe())
    return 0


def _print_ledger(header: str, ledger: dict) -> None:
    """Print a queue ledger (``WorkQueue.describe`` or a service status).

    Quarantined shards show their captured error when the ledger
    carries one.
    """
    counts = ledger["counts"]
    print(header)
    print("  " + "  ".join(f"{state}={counts[state]}"
                           for state in ("pending", "leased", "done",
                                         "quarantined")))
    for shard, attempts in sorted(ledger["retried"].items(),
                                  key=lambda kv: int(kv[0])):
        print(f"  shard {shard}: done after {attempts} attempts (retried)")
    for q in ledger["quarantined"]:
        print(f"  shard {q['shard']}: QUARANTINED after {q['attempts']} "
              "attempt(s)")
        for line in (q["error"] or "").rstrip().splitlines():
            print(f"    | {line}")


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .service import CampaignServer

    worker_opts = {"lease_ttl": args.lease_ttl,
                   "heartbeat_every": args.heartbeat,
                   "timeout": args.timeout, "backoff": args.backoff,
                   "threads": args.threads}
    server = CampaignServer(args.queue, args.cache,
                            host=args.host, port=args.port,
                            workers=args.workers, metrics=args.metrics,
                            shard_members=args.shard_members,
                            max_attempts=args.max_attempts,
                            worker_opts=worker_opts)
    service = server.service
    print(f"pom serve on {server.url}")
    print(f"  queue    {service.queue_path}")
    print(f"  cache    {service.cache.root}")
    print(f"  metrics  {server.metrics.path}")
    print(f"  workers  {args.workers}")

    def _sigterm(signum, frame):
        # CI (and any supervisor) stops the service with SIGTERM; route
        # it through the KeyboardInterrupt path so workers are
        # terminated and the socket is released instead of orphaned.
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0


def _campaign_id(arg: str, *, quick: bool = False) -> str:
    """Resolve a CLI campaign argument to its id (the spec hash).

    A hex string is already an id; anything else is a spec file or a
    registry experiment, hashed exactly as the server hashes it — so
    ``pom status sweep.json`` works without copying ids around.
    """
    candidate = arg.strip().lower()
    if len(candidate) >= 8 and set(candidate) <= set("0123456789abcdef"):
        return candidate
    spec = _resolve_spec(arg, quick=quick)
    return spec.content_hash()


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError

    spec = _resolve_spec(args.spec, quick=args.quick)
    spec.validate()
    client = ServiceClient(args.url)
    try:
        out = client.submit(spec, shard_members=args.shard_members)
        origin = "cache" if out["cached"] else \
            f"queue (+{out['new_shards']} new shard(s))"
        print(f"campaign {out['id']}")
        print(f"  {out['members']} members in {out['shards']} shard(s) "
              f"via {origin}; status: {out['status']}")
        if args.wait and out["status"] != "done":
            out = client.wait(out["id"], timeout=args.timeout)
            print(f"  done: {out['counts']['done']}/{out['shards']} "
                  "shard(s)")
    except ServiceError as exc:
        raise SystemExit(f"submit failed: {exc}") from exc
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError

    cid = _campaign_id(args.campaign, quick=args.quick)
    try:
        status = ServiceClient(args.url).status(cid)
        _print_ledger(f"campaign {status['id']} [{status['name']}]: "
                      f"{status['status']}", status)
    except ServiceError as exc:
        raise SystemExit(f"status failed: {exc}") from exc
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError

    cid = _campaign_id(args.campaign, quick=args.quick)
    try:
        path = ServiceClient(args.url).fetch(cid, args.out,
                                             fmt=args.format)
    except ServiceError as exc:
        raise SystemExit(f"fetch failed: {exc}") from exc
    print(f"fetched campaign {cid[:16]} -> {path}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .runs import ResultCache, compile_plan

    spec = _resolve_spec(args.spec, quick=args.quick)
    spec.validate()
    plan = compile_plan(spec, shard_members=args.shard_members,
                        fuse_topologies=args.fuse_topologies)
    cache = ResultCache(args.cache) if args.cache else None
    info = plan.describe(cache)
    print(f"[{info['name']}] spec {info['spec_hash']}: "
          f"{info['members']} members -> {len(info['shards'])} shard(s)")
    for row in info["shards"]:
        state = ""
        if "cached" in row:
            state = "  [cached]" if row["cached"] else "  [pending]"
        topo = (f"topologies={row['topologies']}  "
                if row.get("topologies", 1) > 1 else "")
        print(f"  shard {row['shard']:>3}  members={row['members']:<4} "
              f"{topo}method={row['method']}  kernel={row['kernel']}  "
              f"t_end={row['t_end']:g}  "
              f"key={row['key']}{state}")
    for kernel, build in info["builds"].items():
        print(f"{kernel} build: {build}")
    if cache is not None:
        c = info["cache"]
        print(f"cache {c['root']}: {c['entries']} entries, "
              f"{c['size_bytes'] / 1e6:.1f} MB "
              f"(numerics {c['numerics_version']})")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    potential = {"kind": args.potential}
    if args.potential.startswith("bottle"):
        potential["sigma"] = args.sigma
    model = model_from_spec({
        "topology": {"kind": "ring", "n": args.n,
                     "distances": list(_parse_distances(args.distances))},
        "potential": potential,
        "t_comp": args.t_comp,
        "t_comm": args.t_comm,
        "coupling": {"protocol": args.protocol,
                     "wait_mode": "waitall" if args.waitall else "separate"},
        "delays": ([] if args.delay_rank is None else
                   [{"rank": args.delay_rank, "t_start": 0.1 * args.t_end,
                     "delay": args.delay}]),
        "kernel": args.kernel,
    })
    initial = {"kind": args.initial}
    if args.initial in ("random", "normal", "wavefront"):
        initial["seed"] = args.seed
    if args.initial in ("splayed", "wavefront"):
        initial["gap"] = 2 * args.sigma / 3
    try:
        theta0 = initial_from_spec(initial, args.n)
    except ValueError as exc:
        raise SystemExit(f"bad --initial: {exc}") from exc
    traj = simulate(model, args.t_end, theta0=theta0, seed=args.seed,
                    threads=args.threads)
    verdict = classify(traj.ts, traj.thetas, model.omega)

    # Report the kernel that actually ran, not the "auto" request.
    coeffs = model.potential.kernel_coefficients()
    kernel = resolve_kernel(args.kernel, has_coefficients=coeffs is not None)
    print(f"N={args.n} potential={model.potential.name} beta*kappa="
          f"{model.beta_kappa:g} v_p={model.v_p:g} kernel={kernel}")
    if args.view == "circle":
        print(circle_diagram(traj.final_phases, title="asymptotic phases"))
    elif args.view == "phases":
        print(heatmap(traj.lagger_normalized(),
                      title="lagger-normalised phases (ranks x time)"))
    print(f"verdict: {verdict.state.value}  spread={verdict.final_spread:.4f} "
          f"|gap|={verdict.mean_abs_gap:.4f}  r={verdict.r_final:.4f}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    kernel = kernel_from_name(args.kernel)
    distances = _parse_distances(args.distances)
    spec = paper_program(kernel, n_ranks=args.ranks, n_iterations=args.iters,
                         distances=distances)
    injections = ()
    if args.delay_rank is not None:
        extra = args.delay_multiple * kernel.single_core_time(spec.machine)
        injections = (Injection(rank=args.delay_rank,
                                iteration=args.delay_iter, extra_time=extra),)
    trace = run_program(spec, injections=injections, seed=args.seed)
    print(timeline(trace.wait_matrix(),
                   title=f"{kernel.name}: waits (ranks x iterations)"))
    print(f"makespan={trace.makespan:.4f}s  total wait={trace.total_wait():.4f}s")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .viz.report import generate_report

    path = generate_report(args.path, quick=not args.full)
    print(f"report written to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "queue":
        return _cmd_queue(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "fetch":
        return _cmd_fetch(args)
    if args.command == "model":
        return _cmd_model(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "report":
        return _cmd_report(args)
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
