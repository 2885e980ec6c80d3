"""Durable SQLite-backed work queue with leases, heartbeats, and retry.

The campaign layer treats every shard as a pure, content-addressed
solve; this module makes the *execution* of those shards crash-safe.  A
:class:`WorkQueue` is a single SQLite file (WAL mode — shareable over a
filesystem between processes or hosts) holding one row per shard:

``pending``
    Available for a worker to claim (possibly with a ``not_before``
    backoff timestamp after a failed attempt).
``leased``
    Claimed by a worker under a **lease**: the claim stamps a unique
    ``lease_id`` and a ``lease_expires`` deadline, and the worker
    **heartbeats** ``last_seen`` to keep extending the lease while the
    solve runs.  Every state transition is *fenced* on the lease id —
    a worker that lost its lease (expired and reaped, shard re-claimed
    elsewhere) cannot complete or fail the shard out from under the
    new owner.
``done``
    Completed; the solve result lives in the shared content-addressed
    :class:`~repro.runs.cache.ResultCache` (the queue stores
    coordination state, never trajectories).
``quarantined``
    Failed ``max_attempts`` times (or kept losing its lease that many
    times).  The captured traceback is stored on the row so a poisoned
    shard is *inspectable* (``pom queue``) instead of poisoning the
    whole campaign with endless retries.

A **reaper** (:meth:`WorkQueue.reap`) returns expired leases to
``pending`` with an exponential backoff (``backoff * 2**(attempts-1)``),
so shards lost to a killed, hung, or partitioned worker are retried —
that, plus the cache as the shared result tier, is what lets a campaign
survive worker SIGKILLs and host loss with bit-identical results.

All timestamps are ``time.time()`` seconds; every mutating method takes
an optional ``now=`` for deterministic tests.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Lease", "QueueRow", "WorkQueue", "ledger_status", "summarise"]

#: shard lifecycle states
STATES = ("pending", "leased", "done", "quarantined")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS shards (
    key          TEXT PRIMARY KEY,
    idx          INTEGER NOT NULL,
    payload      TEXT NOT NULL,
    state        TEXT NOT NULL DEFAULT 'pending',
    attempts     INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 3,
    lease_id     TEXT,
    worker       TEXT,
    lease_expires REAL,
    last_seen    REAL,
    not_before   REAL NOT NULL DEFAULT 0,
    cached       INTEGER NOT NULL DEFAULT 0,
    seconds      REAL,
    error        TEXT,
    enqueued_at  REAL NOT NULL,
    updated_at   REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS shards_state ON shards (state, not_before, idx);
CREATE TABLE IF NOT EXISTS meta (k TEXT PRIMARY KEY, v TEXT);
"""


@dataclass(frozen=True)
class Lease:
    """A claimed shard: what a worker needs to solve and report back."""

    key: str
    index: int
    payload: dict
    lease_id: str
    attempts: int
    expires: float


@dataclass(frozen=True)
class QueueRow:
    """One shard's coordination state (for status displays/reports)."""

    key: str
    index: int
    state: str
    attempts: int
    max_attempts: int
    worker: str | None
    cached: bool
    seconds: float | None
    error: str | None


class WorkQueue:
    """Durable shard queue over one SQLite file (see module docstring).

    Parameters
    ----------
    path:
        The queue database file.  Its parent directory is created; the
        file itself is created on first use and is safe to share
        between any number of worker processes (or hosts over a shared
        filesystem — WAL keeps readers and the single writer happy).
    backoff:
        Base retry delay in seconds; attempt ``k`` of a shard becomes
        claimable again ``backoff * 2**(k-1)`` seconds after it failed
        or lost its lease (exponential backoff between attempts).
    """

    def __init__(self, path: str | Path, *, backoff: float = 0.5) -> None:
        self.path = Path(path)
        self.backoff = float(backoff)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._db() as con:
            con.executescript(_SCHEMA)

    @contextmanager
    def _db(self):
        """A fresh connection per operation: thread- and process-safe.

        Commits on success, closes always — per-operation connections
        keep the queue usable from heartbeat threads and forked workers
        without any shared connection state.
        """
        con = sqlite3.connect(self.path, timeout=30.0)
        try:
            con.execute("PRAGMA journal_mode=WAL")
            con.execute("PRAGMA synchronous=NORMAL")
            con.row_factory = sqlite3.Row
            yield con
            con.commit()
        finally:
            con.close()

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def enqueue_plan(self, plan, *, max_attempts: int = 3,
                     now: float | None = None) -> int:
        """Enqueue every shard of a compiled plan; idempotent on key.

        Re-enqueueing an already-known shard (a resumed campaign) never
        resets its state — ``done`` shards stay done, quarantined ones
        stay quarantined.  Returns the number of *newly* added shards.

        Concurrent producers of the same plan (racing service submits)
        are serialised by ``BEGIN IMMEDIATE``, so exactly one of them
        reports the rows as new and their counts sum to the shard
        count.
        """
        now = time.time() if now is None else now
        rows = [(s.key, s.index,
                 json.dumps(s.payload, sort_keys=True,
                            separators=(",", ":")),
                 int(max_attempts), now, now)
                for s in plan.shards]
        with self._db() as con:
            con.execute("BEGIN IMMEDIATE")
            before = con.execute(
                "SELECT COUNT(*) FROM shards").fetchone()[0]
            con.executemany(
                "INSERT OR IGNORE INTO shards "
                "(key, idx, payload, max_attempts, enqueued_at, updated_at) "
                "VALUES (?, ?, ?, ?, ?, ?)", rows)
            spec_hash = plan.spec.content_hash()
            con.execute("INSERT OR IGNORE INTO meta (k, v) VALUES (?, ?)",
                        ("spec_hash:" + spec_hash, spec_hash))
            after = con.execute("SELECT COUNT(*) FROM shards").fetchone()[0]
            con.execute("COMMIT")
        return after - before

    def requeue(self, keys, *, now: float | None = None) -> int:
        """Force the given shards back to ``pending`` (keep attempts).

        The executor uses this when a shard is marked ``done`` but its
        cached result turns out to be missing or corrupt — the queue's
        view must never outlive the result tier's.
        """
        now = time.time() if now is None else now
        with self._db() as con:
            cur = con.executemany(
                "UPDATE shards SET state='pending', lease_id=NULL, "
                "worker=NULL, lease_expires=NULL, not_before=0, cached=0, "
                "updated_at=? WHERE key=?",
                [(now, k) for k in keys])
            return cur.rowcount

    def requeue_quarantined(self, *, now: float | None = None) -> int:
        """Give every quarantined shard a fresh set of attempts."""
        now = time.time() if now is None else now
        with self._db() as con:
            cur = con.execute(
                "UPDATE shards SET state='pending', attempts=0, "
                "lease_id=NULL, worker=NULL, lease_expires=NULL, "
                "not_before=0, error=NULL, updated_at=? "
                "WHERE state='quarantined'", (now,))
            return cur.rowcount

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def claim(self, worker: str, *, lease_ttl: float = 60.0,
              now: float | None = None) -> Lease | None:
        """Atomically claim the lowest-index claimable shard.

        ``BEGIN IMMEDIATE`` serialises competing claimers, so two
        workers can never hold the same shard.  Returns ``None`` when
        nothing is claimable right now (drained, all leased out, or
        every pending shard is inside its retry backoff window).
        """
        now = time.time() if now is None else now
        lease_id = uuid.uuid4().hex
        with self._db() as con:
            con.execute("BEGIN IMMEDIATE")
            row = con.execute(
                "SELECT key, idx, payload, attempts FROM shards "
                "WHERE state='pending' AND not_before<=? "
                "ORDER BY idx LIMIT 1", (now,)).fetchone()
            if row is None:
                con.execute("COMMIT")
                return None
            con.execute(
                "UPDATE shards SET state='leased', attempts=attempts+1, "
                "lease_id=?, worker=?, lease_expires=?, last_seen=?, "
                "updated_at=? WHERE key=?",
                (lease_id, worker, now + lease_ttl, now, now, row["key"]))
            con.execute("COMMIT")
        return Lease(key=row["key"], index=row["idx"],
                     payload=json.loads(row["payload"]),
                     lease_id=lease_id, attempts=row["attempts"] + 1,
                     expires=now + lease_ttl)

    def heartbeat(self, key: str, lease_id: str, *,
                  lease_ttl: float = 60.0,
                  now: float | None = None) -> bool:
        """Refresh a held lease; ``False`` means the lease was lost.

        A ``False`` return is the fencing signal: the shard expired and
        was reaped (and possibly re-claimed), so this worker's result
        will be ignored by :meth:`complete` — it should stop spending
        effort if it can.
        """
        now = time.time() if now is None else now
        with self._db() as con:
            cur = con.execute(
                "UPDATE shards SET last_seen=?, lease_expires=?, "
                "updated_at=? WHERE key=? AND lease_id=? AND state='leased'",
                (now, now + lease_ttl, now, key, lease_id))
            return cur.rowcount == 1

    def complete(self, key: str, lease_id: str, *, cached: bool = False,
                 seconds: float | None = None,
                 now: float | None = None) -> bool:
        """Mark a leased shard done (fenced on ``lease_id``)."""
        now = time.time() if now is None else now
        with self._db() as con:
            cur = con.execute(
                "UPDATE shards SET state='done', cached=?, seconds=?, "
                "error=NULL, updated_at=? "
                "WHERE key=? AND lease_id=? AND state='leased'",
                (int(cached), seconds, now, key, lease_id))
            return cur.rowcount == 1

    def fail(self, key: str, lease_id: str, error: str, *,
             now: float | None = None) -> str:
        """Record a failed attempt (fenced): retry or quarantine.

        Returns ``"retry"`` (back to ``pending`` with exponential
        backoff), ``"quarantined"`` (attempts exhausted; ``error`` —
        typically a traceback — is stored on the row), or ``"fenced"``
        (this worker no longer owned the shard; no state was changed).
        """
        now = time.time() if now is None else now
        with self._db() as con:
            con.execute("BEGIN IMMEDIATE")
            row = con.execute(
                "SELECT key, attempts, max_attempts FROM shards "
                "WHERE key=? AND lease_id=? AND state='leased'",
                (key, lease_id)).fetchone()
            verdict = ("fenced" if row is None
                       else self._release(con, row, error, now))
            con.execute("COMMIT")
        return verdict

    def _release(self, con, row, error: str, now: float) -> str:
        """Retry a failed or lost lease with backoff, or quarantine it.

        The one transition behind :meth:`fail` and :meth:`reap`, run
        inside the caller's transaction on a ``(key, attempts,
        max_attempts)`` row.  Returns ``"retry"`` or ``"quarantined"``.
        """
        if row["attempts"] >= row["max_attempts"]:
            con.execute(
                "UPDATE shards SET state='quarantined', lease_id=NULL, "
                "lease_expires=NULL, error=?, updated_at=? WHERE key=?",
                (error, now, row["key"]))
            return "quarantined"
        delay = self.backoff * 2.0 ** (row["attempts"] - 1)
        con.execute(
            "UPDATE shards SET state='pending', lease_id=NULL, "
            "lease_expires=NULL, not_before=?, error=?, "
            "updated_at=? WHERE key=?",
            (now + delay, error, now, row["key"]))
        return "retry"

    # ------------------------------------------------------------------
    # reaper / orchestrator side
    # ------------------------------------------------------------------
    def reap(self, *, now: float | None = None) -> list[str]:
        """Return expired leases to ``pending`` (or quarantine them).

        The reaper is what turns a worker death into a retry: any shard
        whose lease deadline passed without a heartbeat goes back to
        the pool with backoff, or to ``quarantined`` once its attempts
        are exhausted.  Safe to call from any process, any number of
        times.  Returns the keys it transitioned.
        """
        now = time.time() if now is None else now
        with self._db() as con:
            con.execute("BEGIN IMMEDIATE")
            rows = con.execute(
                "SELECT key, attempts, max_attempts FROM shards "
                "WHERE state='leased' AND lease_expires<?", (now,)).fetchall()
            for row in rows:
                self._release(con, row,
                              f"lease expired after attempt "
                              f"{row['attempts']} (worker killed, hung, "
                              "or partitioned)", now)
            con.execute("COMMIT")
        return [row["key"] for row in rows]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """``{state: row count}`` over all lifecycle states."""
        with self._db() as con:
            rows = con.execute(
                "SELECT state, COUNT(*) AS n FROM shards "
                "GROUP BY state").fetchall()
        out = {state: 0 for state in STATES}
        out.update({r["state"]: r["n"] for r in rows})
        return out

    def unfinished(self) -> int:
        """Shards not yet ``done`` or ``quarantined``."""
        counts = self.counts()
        return counts["pending"] + counts["leased"]

    def rows(self) -> list[QueueRow]:
        """Every shard's coordination state, in shard order."""
        with self._db() as con:
            rows = con.execute(
                "SELECT key, idx, state, attempts, max_attempts, worker, "
                "cached, seconds, error FROM shards ORDER BY idx").fetchall()
        return [QueueRow(key=r["key"], index=r["idx"], state=r["state"],
                         attempts=r["attempts"],
                         max_attempts=r["max_attempts"], worker=r["worker"],
                         cached=bool(r["cached"]), seconds=r["seconds"],
                         error=r["error"]) for r in rows]

    def spec_hashes(self) -> list[str]:
        """Content hashes of every campaign enqueued here, first-enqueued
        first (a queue file written before one row per campaign holds
        its last campaign's hash under the key ``spec_hash``)."""
        with self._db() as con:
            rows = con.execute("SELECT v FROM meta WHERE k LIKE 'spec_hash%' "
                               "ORDER BY rowid").fetchall()
        return list(dict.fromkeys(r["v"] for r in rows))

    def describe(self, keys=None) -> dict:
        """The campaign ledger (:func:`summarise`) from one :meth:`rows` read.

        ``keys`` (a plan's shard keys) scopes it to one campaign; the
        default covers the whole queue.
        """
        return summarise(self.rows(), keys)


def summarise(rows, keys=None) -> dict:
    """Summarise queue rows: what is done, retried, or quarantined.

    Returns ``counts`` (rows per state), ``retried`` (shard index ->
    attempts of each shard done after more than one attempt),
    ``quarantined`` (shard, attempts, and captured error of each
    quarantined shard), ``missing`` (the ``keys`` that have no row) and
    ``status`` (:func:`ledger_status`).  With ``keys`` only those
    shards are covered; two campaigns sharing one queue file each see
    their own shards.
    """
    if keys is not None:
        wanted = set(keys)
        rows = [r for r in rows if r.key in wanted]
    counts = dict.fromkeys(STATES, 0)
    retried: dict[int, int] = {}
    quarantined: list[dict] = []
    for r in rows:
        counts[r.state] += 1
        if r.state == "done" and r.attempts > 1:
            retried[r.index] = r.attempts
        elif r.state == "quarantined":
            quarantined.append({"shard": r.index, "attempts": r.attempts,
                                "error": r.error})
    have = {r.key for r in rows}
    missing = [k for k in keys if k not in have] if keys is not None else []
    return {"counts": counts, "retried": retried,
            "quarantined": quarantined, "missing": missing,
            "status": ledger_status(counts, len(have) + len(missing))}


def ledger_status(counts: dict[str, int], total: int) -> str:
    """Overall state of ``total`` shards from their per-state ``counts``.

    ``failed`` if any shard is quarantined, ``done`` when all are done,
    otherwise ``running``.
    """
    if counts["quarantined"]:
        return "failed"
    return "done" if counts["done"] == total else "running"


def default_queue_sibling(path: str | Path, suffix: str) -> Path:
    """A per-queue companion path (``<queue>.<suffix>``) for cache/state."""
    p = Path(path)
    return p.with_name(p.name + "." + suffix)


def writable_queue_path(path: str | Path) -> bool:
    """Whether a queue database can be created/opened at ``path``.

    The executor's graceful-degradation check: an unwritable location
    (read-only filesystem, missing mount) demotes a queued run to plain
    in-process execution instead of crashing the campaign.
    """
    p = Path(path)
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        if p.exists() and not os.access(p, os.W_OK):
            return False
        con = sqlite3.connect(p, timeout=5.0)
        try:
            con.execute("PRAGMA journal_mode=WAL")
        finally:
            con.close()
        return True
    except (OSError, sqlite3.Error):
        return False
