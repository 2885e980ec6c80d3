"""HTTP face on the campaign machinery: queue-backed, cache-first.

The service turns the PR-4/PR-6 campaign layers into a network API —
"what-if" queries against the oscillator model become a ``POST`` instead
of a checkout-and-run:

``POST /v1/campaigns``
    Body: ``{"spec": {...}}`` (a :class:`~repro.runs.ScenarioSpec`
    dict) or ``{"scenario": "<registry name>", "quick": true,
    "kwargs": {...}}``, optionally with ``"shard_members": N``.  The
    spec is validated, content-hashed (the hash *is* the campaign id),
    compiled, and its shards probed against the shared result cache:
    a **fully cached campaign completes at submit time without touching
    the queue**; anything else is enqueued into the durable
    :class:`~repro.runs.WorkQueue` (idempotent per shard key, so
    concurrent duplicate submits collapse onto one set of rows).
``GET /v1/campaigns/{id}``
    The queue ledger (:meth:`~repro.runs.WorkQueue.describe`) scoped to
    the campaign's shard keys: pending/leased/done/quarantined counts,
    retry attempts, quarantine tracebacks, and an overall ``status`` of
    ``running`` / ``done`` / ``failed``.  The service adds one rule:
    a shard with no queue row counts as done when it is cached (the
    submit-time short-circuit), else as pending.
``GET /v1/campaigns/{id}/result?format=npz|csv``
    The assembled campaign artefact.  Built once, from one load pass
    over the cached shard solves (bit-identical to ``pom run`` of the
    same spec, by the same assembly path; shards that do not load are
    requeued), then persisted in the content-addressed artifact store
    — repeat fetches stream the stored bytes without compiling the
    plan or touching the cache or the queue.
``GET /v1/healthz`` / ``GET /v1/registry``
    Liveness + queue/cache/worker stats; the experiment registry.

Errors are always JSON bodies (``{"error": ...}``) with proper status
codes: 400 for malformed specs/bodies, 404 for unknown campaigns, 409
for results requested before the campaign finished.

State is three on-disk siblings of the queue file — the queue database
itself, the shard result cache, and the campaign artifact store — so
any number of service instances (and external ``pom worker`` drainers,
on any host sharing the filesystem) serve one coherent campaign tier,
and a restarted server still answers for campaigns submitted before it
died.

Execution comes from :class:`~repro.runs.executor.WorkerPool`, the
queue supervisor ``pom run --queue`` also runs: a monitor thread ticks
it every :data:`~repro.runs.executor.POLL_S` seconds, keeping up to
``workers`` drainer processes alive while the queue has work (dead
workers are respawned, expired leases reaped); the drainers exit on
their own when the queue drains.

Every request is recorded as one JSON line (latency ms, hit/miss,
queue depth) through :class:`MetricsLog` for scraping.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from ..experiments.registry import REGISTRY, get_experiment
from ..runs import ResultCache, ScenarioSpec, WorkQueue, compile_plan
from ..runs.executor import WorkerPool, assemble, load_done
from ..runs.faults import ensure_shared_state_dir
from ..runs.plan import Plan
from ..runs.queue import default_queue_sibling, ledger_status
from ..runs.store import ArtifactStore
from ..viz.export import csv_text

__all__ = ["ApiError", "CampaignServer", "CampaignService", "MetricsLog"]

#: result artefact formats served by ``GET .../result``
RESULT_FORMATS = ("npz", "csv")

_CONTENT_TYPES = {"npz": "application/octet-stream", "csv": "text/csv"}


class ApiError(Exception):
    """A request-level failure carrying its HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)


class MetricsLog:
    """Append-only JSON-lines request log (one object per request).

    Lines carry ``t`` (epoch seconds), ``method``, ``path``, ``status``,
    ``ms`` (handler latency), ``hit`` (cache hit/miss where meaningful,
    else ``null``), and ``queue_depth`` — the scrape-friendly shape the
    CI service-smoke leg uploads for post-mortems.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def record(self, **fields) -> None:
        line = json.dumps(fields, sort_keys=True)
        with self._lock:
            with self.path.open("a") as fh:
                fh.write(line + "\n")


class CampaignService:
    """Application logic behind the HTTP endpoints (transport-free).

    Owns the durable queue, the shard result cache, and the campaign
    artifact store (manifests + assembled results).  All methods raise
    :class:`ApiError` for request-level failures; the HTTP handler and
    the tests call them directly.
    """

    def __init__(self, queue_path: str | Path,
                 cache: ResultCache | str | Path | None = None, *,
                 shard_members: int | None = None,
                 max_attempts: int = 3,
                 worker_opts: dict | None = None) -> None:
        self.queue_path = Path(queue_path)
        worker_opts = dict(worker_opts or {})
        # Chaos runs (POM_FAULTS) need one shared fire budget across the
        # server and every spawned/external worker.
        ensure_shared_state_dir(default_queue_sibling(self.queue_path,
                                                      "faults"))
        self.queue = WorkQueue(self.queue_path,
                               backoff=worker_opts.get("backoff", 0.5))
        if cache is None:
            cache = default_queue_sibling(self.queue_path, "cache")
        self.cache = (cache if isinstance(cache, ResultCache)
                      else ResultCache(cache))
        self.artifacts = ArtifactStore(
            default_queue_sibling(self.queue_path, "artifacts"))
        self.default_shard_members = shard_members
        self.max_attempts = int(max_attempts)
        self.worker_opts = worker_opts
        self.pool: WorkerPool | None = None  # attached by CampaignServer
        self.started = time.time()
        self.requests = 0
        self._count_lock = threading.Lock()

    # ------------------------------------------------------------------
    # request bodies -> campaigns
    # ------------------------------------------------------------------
    def _spec_from_body(self, body) -> tuple[ScenarioSpec, int | None]:
        if not isinstance(body, dict):
            raise ApiError(400, "request body must be a JSON object")
        known = {"spec", "scenario", "quick", "kwargs", "shard_members"}
        extra = set(body) - known
        if extra:
            raise ApiError(400, f"unknown field(s) {sorted(extra)}; "
                                f"accepted: {sorted(known)}")
        if ("spec" in body) == ("scenario" in body):
            raise ApiError(400, "provide exactly one of 'spec' (a scenario "
                                "dict) or 'scenario' (a registry name)")
        try:
            if "spec" in body:
                spec = ScenarioSpec.from_dict(body["spec"])
            else:
                try:
                    exp = get_experiment(str(body["scenario"]))
                except KeyError as exc:
                    raise ApiError(400, str(exc.args[0])) from exc
                if exp.spec_factory is None:
                    raise ApiError(
                        400, f"scenario {body['scenario']!r} has no "
                             "declarative spec; submit a spec dict instead")
                kwargs = dict(exp.quick_kwargs) if body.get("quick") else {}
                kwargs.update(body.get("kwargs") or {})
                spec = exp.spec_factory(**kwargs)
            spec.validate()
        except ApiError:
            raise
        except Exception as exc:
            raise ApiError(400, f"invalid scenario spec: {exc}") from exc
        shard_members = body.get("shard_members", self.default_shard_members)
        if shard_members is not None:
            shard_members = int(shard_members)
            if shard_members < 1:
                raise ApiError(400, "shard_members must be positive")
        return spec, shard_members

    def _put_manifest(self, cid: str, spec: ScenarioSpec,
                      shard_members: int | None) -> None:
        # Deterministic bytes for a given (spec, shard_members), so
        # concurrent duplicate submits racing the sidecar+blob write
        # converge on identical content instead of a checksum mismatch.
        manifest = {"spec": spec.to_dict(), "shard_members": shard_members}
        data = (json.dumps(manifest, sort_keys=True, indent=2)
                + "\n").encode()
        if self.artifacts.get_bytes(cid, ext=".spec.json") != data:
            self.artifacts.put_bytes(cid, data, ext=".spec.json")

    def _load_campaign(self, cid: str) -> tuple[ScenarioSpec, Plan]:
        try:
            blob = self.artifacts.get_bytes(cid, ext=".spec.json")
        except ValueError as exc:  # malformed id (not a hex hash)
            raise ApiError(404, f"unknown campaign {cid!r}") from exc
        if blob is None:
            raise ApiError(404, f"unknown campaign {cid!r}")
        manifest = json.loads(blob)
        spec = ScenarioSpec.from_dict(manifest["spec"])
        plan = compile_plan(spec,
                            shard_members=manifest.get("shard_members"))
        return spec, plan

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def submit(self, body) -> dict:
        """``POST /v1/campaigns`` — validate, hash, short-circuit or enqueue.

        A campaign whose every shard is already in the result cache is
        answered entirely from the store: no queue rows are created (the
        acceptance property the CI service-smoke leg asserts on
        re-submit).  Otherwise the plan is enqueued — idempotently, so
        duplicate submits of one spec collapse onto one campaign.
        """
        spec, shard_members = self._spec_from_body(body)
        plan = compile_plan(spec, shard_members=shard_members)
        cid = spec.content_hash()
        self._put_manifest(cid, spec, shard_members)
        hit = all(self.cache.has(s.key) for s in plan.shards)
        new = 0
        if not hit:
            new = self.queue.enqueue_plan(plan,
                                          max_attempts=self.max_attempts)
        out = self._status_dict(cid, spec, plan)
        out["cached"] = hit
        out["new_shards"] = new
        return out

    def status(self, cid: str) -> dict:
        """``GET /v1/campaigns/{id}`` — the campaign's queue ledger."""
        spec, plan = self._load_campaign(cid)
        return self._status_dict(cid, spec, plan)

    def _ledger(self, plan: Plan) -> dict:
        """The queue ledger of ``plan``'s shards, plus the service's rule.

        A shard with no queue row was never enqueued: a cache
        short-circuit (done) or a queue file deleted under a live
        campaign (pending).  Only those shards are probed in the cache.
        """
        ledger = self.queue.describe([s.key for s in plan.shards])
        if ledger["missing"]:
            counts = ledger["counts"]
            hits = sum(1 for k in ledger["missing"] if self.cache.has(k))
            counts["done"] += hits
            counts["pending"] += len(ledger["missing"]) - hits
            ledger["status"] = ledger_status(counts, plan.n_shards)
        return ledger

    def _status_dict(self, cid: str, spec: ScenarioSpec,
                     plan: Plan) -> dict:
        ledger = self._ledger(plan)
        return {
            "id": cid,
            "name": spec.name,
            "members": plan.n_members,
            "shards": plan.n_shards,
            "metrics": list(spec.metrics),
            "trajectories": spec.trajectories,
            "status": ledger["status"],
            "counts": ledger["counts"],
            "retried": ledger["retried"],
            "quarantined": ledger["quarantined"],
            "queue": {"path": str(self.queue_path)},
        }

    def result(self, cid: str, fmt: str = "npz") -> tuple[bytes, bool]:
        """``GET /v1/campaigns/{id}/result`` — assembled campaign artefact.

        Returns ``(bytes, from_store)``.  A stored artefact is streamed
        without compiling the plan or touching the cache or the queue.
        Otherwise, once the campaign's status (:meth:`status`'s rule)
        is ``done``, the artefact is assembled from one load
        pass over the cached shard solves (the same member-ordered
        assembly ``pom run`` uses, so the bytes decode to bit-identical
        arrays) and stored content-addressed.  Shards whose cached
        result does not load are requeued (409) instead of served wrong.
        """
        if fmt not in RESULT_FORMATS:
            raise ApiError(400, f"unknown result format {fmt!r}; "
                                f"available: {', '.join(RESULT_FORMATS)}")
        try:
            blob = self.artifacts.get_bytes(cid, ext="." + fmt)
        except ValueError as exc:  # malformed id (not a hex hash)
            raise ApiError(404, f"unknown campaign {cid!r}") from exc
        if blob is not None:
            return blob, True
        t0 = time.perf_counter()
        spec, plan = self._load_campaign(cid)
        ledger = self._ledger(plan)
        if ledger["status"] != "done":
            outstanding = plan.n_shards - ledger["counts"]["done"]
            raise ApiError(409, f"campaign {cid[:16]} is not complete "
                                f"({outstanding} shard(s) outstanding)")
        outcomes, bad = load_done(plan.shards, self.cache, self.queue)
        if bad:
            # load_done requeued the bad shards that have a row; the
            # ones without (a cache short-circuit) get one.
            self.queue.enqueue_plan(Plan(plan.spec, bad),
                                    max_attempts=self.max_attempts)
            raise ApiError(409, f"{len(bad)} cached shard(s) failed "
                                "verification; requeued for recompute")
        run = assemble(plan, outcomes, t0)
        if fmt == "npz":
            data = run.npz_bytes()
        else:
            data = csv_text(run.summary_table(),
                            meta={"spec": cid, "name": spec.name}).encode()
        self.artifacts.put_bytes(cid, data, ext="." + fmt)
        return data, False

    def healthz(self) -> dict:
        """``GET /v1/healthz`` — liveness plus queue/cache/worker stats."""
        counts = self.queue.counts()
        out = {
            "ok": True,
            "uptime_s": time.time() - self.started,
            "requests": self.requests,
            "queue": {"path": str(self.queue_path), "counts": counts,
                      "depth": counts["pending"] + counts["leased"]},
            "cache": self.cache.describe(),
        }
        if self.pool is not None:
            out["workers"] = {"jobs": self.pool.jobs,
                             "alive": self.pool.alive,
                             "spawned": self.pool.spawned}
        return out

    def registry_info(self) -> dict:
        """``GET /v1/registry`` — submittable scenarios + topology kinds."""
        from ..core.topology import topology_kinds

        return {"scenarios": [
            {"name": name, "id": exp.id, "description": exp.description,
             "has_spec": exp.spec_factory is not None}
            for name, exp in sorted(REGISTRY.items())
        ], "topologies": topology_kinds()}

    def count_request(self) -> None:
        with self._count_lock:
            self.requests += 1


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto a :class:`CampaignService`."""

    service: CampaignService  # injected per-server subclass
    metrics: MetricsLog | None = None
    server_version = "pom-serve"

    def log_message(self, fmt, *args):  # noqa: D102 - silence stderr
        pass

    # ------------------------------------------------------------------
    def _send(self, status: int, data: bytes, ctype: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_json(self):
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if length <= 0:
            raise ApiError(400, "missing JSON request body")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ApiError(400, f"request body is not valid JSON: "
                                f"{exc}") from exc

    def _route(self, method: str) -> tuple[int, bytes, str, bool | None]:
        service = self.service
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if method == "GET" and parts == ["v1", "healthz"]:
            return 200, _json_bytes(service.healthz()), \
                "application/json", None
        if method == "GET" and parts == ["v1", "registry"]:
            return 200, _json_bytes(service.registry_info()), \
                "application/json", None
        if method == "POST" and parts == ["v1", "campaigns"]:
            out = service.submit(self._read_json())
            return 200, _json_bytes(out), "application/json", out["cached"]
        if method == "GET" and len(parts) == 3 \
                and parts[:2] == ["v1", "campaigns"]:
            return 200, _json_bytes(service.status(parts[2])), \
                "application/json", None
        if method == "GET" and len(parts) == 4 \
                and parts[:2] == ["v1", "campaigns"] \
                and parts[3] == "result":
            query = parse_qs(url.query)
            fmt = (query.get("format") or ["npz"])[0]
            data, from_store = service.result(parts[2], fmt)
            return 200, data, _CONTENT_TYPES[fmt], from_store
        raise ApiError(404, f"no such endpoint: {method} {url.path}")

    def _handle(self, method: str) -> None:
        t0 = time.perf_counter()
        status, hit = 500, None
        try:
            status, data, ctype, hit = self._route(method)
        except ApiError as exc:
            status = exc.status
            data, ctype = _json_bytes({"error": str(exc)}), \
                "application/json"
        except Exception as exc:  # pragma: no cover - defensive
            status = 500
            data, ctype = _json_bytes({"error": f"internal error: {exc}"}), \
                "application/json"
        try:
            self._send(status, data, ctype)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass
        self.service.count_request()
        if self.metrics is not None:
            self.metrics.record(
                t=time.time(), method=method, path=self.path, status=status,
                ms=round((time.perf_counter() - t0) * 1e3, 3), hit=hit,
                queue_depth=self.service.queue.unfinished())

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._handle("POST")


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


class CampaignServer:
    """A :class:`ThreadingHTTPServer` bound to one campaign tier.

    Composes the service logic, the request-metrics log, and the worker
    respawn pool.  ``port=0`` binds an ephemeral port (tests); ``.url``
    reports the resolved address.  Use :meth:`serve_forever` for the
    CLI foreground mode or :meth:`start` to serve from a daemon thread
    (tests, benchmarks), and :meth:`close` to stop everything.
    """

    def __init__(self, queue: str | Path,
                 cache: ResultCache | str | Path | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 workers: int = 0,
                 metrics: str | Path | None = None,
                 shard_members: int | None = None,
                 max_attempts: int = 3,
                 worker_opts: dict | None = None) -> None:
        self.service = CampaignService(queue, cache,
                                       shard_members=shard_members,
                                       max_attempts=max_attempts,
                                       worker_opts=worker_opts)
        if metrics is None:
            metrics = default_queue_sibling(self.service.queue_path,
                                            "metrics.jsonl")
        self.metrics = MetricsLog(metrics)
        self.pool = WorkerPool(self.service.queue, self.service.cache.root,
                               workers, worker_opts=worker_opts)
        self.service.pool = self.pool
        handler = type("_BoundHandler", (_Handler,),
                       {"service": self.service, "metrics": self.metrics})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._serving = False

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Serve in the calling thread (the ``pom serve`` foreground)."""
        self.pool.start()
        self._serving = True
        self.httpd.serve_forever(poll_interval=0.2)

    def start(self) -> "CampaignServer":
        """Serve from a background daemon thread (tests/benchmarks)."""
        self.pool.start()
        self._serving = True
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        kwargs={"poll_interval": 0.05},
                                        daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving, stop the worker pool, release the socket."""
        self.pool.stop()
        if self._serving:
            self._serving = False
            self.httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.httpd.server_close()

    def __enter__(self) -> "CampaignServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
