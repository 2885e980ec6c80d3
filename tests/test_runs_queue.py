"""Tests for the durable work queue and the queue executor (repro.runs)."""

import multiprocessing as mp
import os
import signal

import numpy as np
import pytest

from repro import kernels
from repro.cli import main
from repro.runs import (
    Plan,
    ResultCache,
    ScenarioSpec,
    Shard,
    WorkQueue,
    compile_plan,
    drain_queue,
    run_plan,
    run_plan_queue,
    run_spec,
    shard_key,
)
from repro.runs.executor import _queue_worker_entry
from repro.runs.queue import default_queue_sibling, writable_queue_path


def grid_spec(t_end=6.0):
    return ScenarioSpec(
        name="queue-test",
        model={
            "topology": {"kind": "ring", "n": 10, "distances": [1, -1]},
            "potential": {"kind": "bottleneck", "sigma": 1.0},
            "t_comp": 0.9,
            "t_comm": 0.1,
        },
        t_end=t_end,
        solver={"method": "rk4"},
        initial={"kind": "normal", "std": 1e-3, "seed": 0},
        axes=[("potential.sigma", [0.5, 1.0, 1.5, 2.0]), ("seed", [0, 1])],
    )


@pytest.fixture
def plan():
    return compile_plan(grid_spec(), shard_members=2)


@pytest.fixture
def queue(tmp_path, plan):
    q = WorkQueue(tmp_path / "campaign.db", backoff=0.5)
    q.enqueue_plan(plan)
    return q


class TestWorkQueue:
    def test_enqueue_is_idempotent(self, queue, plan):
        assert queue.counts()["pending"] == 4
        assert queue.enqueue_plan(plan) == 0
        assert queue.counts()["pending"] == 4
        assert queue.spec_hashes() == [plan.spec.content_hash()]

    def test_claim_is_atomic_and_ordered(self, queue):
        a = queue.claim("w1", lease_ttl=60, now=100.0)
        b = queue.claim("w2", lease_ttl=60, now=100.0)
        assert a.index == 0 and b.index == 1
        assert a.lease_id != b.lease_id
        queue.claim("w1", now=100.0)
        queue.claim("w2", now=100.0)
        assert queue.claim("w3", now=100.0) is None  # all leased out
        assert queue.counts()["leased"] == 4

    def test_complete_and_heartbeat_are_fenced(self, queue):
        lease = queue.claim("w1", lease_ttl=10, now=0.0)
        assert queue.heartbeat(lease.key, lease.lease_id,
                               lease_ttl=10, now=5.0)
        assert not queue.heartbeat(lease.key, "not-the-lease", now=6.0)
        # lease expires at 15 (refreshed by the heartbeat); the reaper
        # takes it back and the original holder is fenced out.
        assert queue.reap(now=16.0) == [lease.key]
        assert not queue.heartbeat(lease.key, lease.lease_id, now=16.5)
        assert not queue.complete(lease.key, lease.lease_id, now=16.5)
        assert queue.counts()["pending"] == 4

    def test_reap_applies_exponential_backoff(self, queue):
        lease = queue.claim("w1", lease_ttl=10, now=0.0)
        assert queue.reap(now=5.0) == []          # still within the lease
        assert queue.reap(now=11.0) == [lease.key]
        # attempt 1 lost -> not claimable until 11 + backoff*2**0 = 11.5
        held = [queue.claim("w", now=11.0) for _ in range(3)]
        assert all(lease_.index != lease.index for lease_ in held
                   if lease_ is not None)
        retried = queue.claim("w2", now=20.0)
        # the other three shards were claimed above; the backed-off one
        # is the only shard left, now claimable with attempts=2
        assert retried.index == lease.index
        assert retried.attempts == 2

    def test_fail_retries_then_quarantines(self, queue):
        key = None
        for attempt in (1, 2, 3):
            lease = queue.claim("w1", lease_ttl=60, now=1000.0 * attempt)
            key = lease.key
            verdict = queue.fail(key, lease.lease_id, f"boom {attempt}",
                                 now=1000.0 * attempt + 1)
            assert verdict == ("quarantined" if attempt == 3 else "retry")
        counts = queue.counts()
        assert counts["quarantined"] == 1 and counts["pending"] == 3
        (row,) = queue.describe()["quarantined"]
        assert row["shard"] == lease.index and "boom 3" in row["error"]
        assert row["attempts"] == 3

        assert queue.requeue_quarantined() == 1
        fresh = queue.claim("w1", now=10000.0)
        assert fresh.key == key and fresh.attempts == 1

    def test_reap_quarantines_like_fail(self, queue):
        # One transition behind fail and reap: a lease lost on the last
        # attempt quarantines, with the reaper's note as the error.
        for attempt in (1, 2, 3):
            lease = queue.claim("w1", lease_ttl=10, now=1000.0 * attempt)
            assert queue.reap(now=1000.0 * attempt + 11) == [lease.key]
        ledger = queue.describe()
        (row,) = ledger["quarantined"]
        assert row["shard"] == lease.index and row["attempts"] == 3
        assert "lease expired after attempt 3" in row["error"]
        assert ledger["status"] == "failed"

    def test_describe_scopes_to_keys(self, queue, plan, tmp_path):
        other = compile_plan(grid_spec(t_end=7.0), shard_members=2)
        queue.enqueue_plan(other)
        lease = queue.claim("w1", now=0.0)            # plan's shard 0
        queue.complete(lease.key, lease.lease_id, now=1.0)
        keys = [s.key for s in plan.shards]
        mine = queue.describe(keys)
        assert mine["counts"] == {"pending": 3, "leased": 0, "done": 1,
                                  "quarantined": 0}
        assert mine["missing"] == [] and mine["status"] == "running"
        assert queue.describe()["counts"]["pending"] == 7
        assert queue.describe([s.key for s in other.shards])["counts"] \
            == {"pending": 4, "leased": 0, "done": 0, "quarantined": 0}
        # keys with no row are listed, not counted
        fresh = compile_plan(grid_spec(t_end=8.0), shard_members=2)
        unseen = queue.describe([s.key for s in fresh.shards])
        assert unseen["missing"] == [s.key for s in fresh.shards]
        assert sum(unseen["counts"].values()) == 0
        assert unseen["status"] == "running"

    def test_describe_is_one_connection(self, queue, monkeypatch):
        from repro.runs import queue as queue_mod

        opened = []
        real = queue_mod.sqlite3.connect

        def counting(*args, **kwargs):
            opened.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(queue_mod.sqlite3, "connect", counting)
        queue.describe()
        assert len(opened) == 1

    def test_fail_is_fenced(self, queue):
        lease = queue.claim("w1", lease_ttl=10, now=0.0)
        queue.reap(now=11.0)
        assert queue.fail(lease.key, lease.lease_id, "late", now=12.0) \
            == "fenced"

    def test_requeue_resets_done(self, queue):
        lease = queue.claim("w1", now=0.0)
        assert queue.complete(lease.key, lease.lease_id, seconds=1.0,
                              now=1.0)
        assert queue.counts()["done"] == 1
        assert queue.requeue([lease.key], now=2.0) == 1
        assert queue.counts()["done"] == 0
        assert queue.unfinished() == 4

    def test_writable_probe(self, tmp_path):
        assert writable_queue_path(tmp_path / "sub" / "q.db")
        blocker = tmp_path / "a-file"
        blocker.write_text("x")
        # parent is a regular file: mkdir/connect must fail cleanly
        assert not writable_queue_path(blocker / "q.db")

    def test_default_queue_sibling(self, tmp_path):
        assert default_queue_sibling(tmp_path / "q.db", "cache") \
            == tmp_path / "q.db.cache"


class TestDrainQueue:
    def test_drain_solves_everything(self, queue, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        events = []
        stats = drain_queue(queue, cache, worker="w0",
                            progress=events.append)
        assert stats["solved"] == 4
        assert queue.counts()["done"] == 4
        assert {e["outcome"] for e in events} == {"solved"}
        # a second drain has nothing to do
        assert drain_queue(queue, cache)["solved"] == 0

    def test_drain_serves_requeues_from_cache(self, queue, plan, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        drain_queue(queue, cache)
        queue.requeue([s.key for s in plan.shards])
        stats = drain_queue(queue, cache, worker="w1")
        assert stats["cache_hits"] == 4 and stats["solved"] == 0


    def test_foreign_cc_build_quarantines(self, tmp_path, monkeypatch):
        # A worker whose cc build differs from the planner's refuses the
        # shard; with one attempt allowed the refusal quarantines it and
        # nothing is cached under the planner's key.
        monkeypatch.setattr(kernels, "cc_available", lambda: True)
        spec = grid_spec()
        spec.model["kernel"] = "cc"
        shard = compile_plan(spec).shards[0]
        forged = dict(shard.payload, cc_build="0" * 16)
        key = shard_key(forged)
        plan = Plan(spec=spec, shards=[Shard(index=0, payload=forged,
                                             key=key)])
        queue = WorkQueue(tmp_path / "q.db", backoff=0.05)
        queue.enqueue_plan(plan, max_attempts=1)
        cache = ResultCache(tmp_path / "cache")
        stats = drain_queue(queue, cache, worker="w0")
        assert stats["quarantined"] == 1 and stats["solved"] == 0
        (row,) = queue.describe()["quarantined"]
        assert "cc build 0000000000000000" in row["error"]
        assert cache.load(key) is None


class TestQueueExecutor:
    def test_queue_run_bits_match_inline(self, tmp_path):
        spec = grid_spec()
        ref = run_spec(spec, jobs=1, shard_members=2)
        queued = run_spec(spec, jobs=2, shard_members=2,
                          queue=tmp_path / "q.db", lease_ttl=10.0)
        assert queued.queue is not None
        assert queued.queue["counts"]["done"] == 4
        assert queued.n_executed == 4
        for a, b in zip(ref.members, queued.members):
            assert a.index == b.index
            np.testing.assert_array_equal(a.ts, b.ts)
            np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_two_campaigns_share_one_queue(self, tmp_path, capsys):
        # Each run reports its own shards, not the whole queue file.
        first = run_spec(grid_spec(), jobs=2, shard_members=2,
                         queue=tmp_path / "q.db")
        second = run_spec(grid_spec(t_end=7.0), jobs=2, shard_members=2,
                          queue=tmp_path / "q.db")
        for res in (first, second):
            assert res.queue["counts"] == {"pending": 0, "leased": 0,
                                           "done": 4, "quarantined": 0}
            assert res.queue["status"] == "done"
            assert res.n_executed == 4
        shared = WorkQueue(tmp_path / "q.db")
        assert shared.describe()["counts"]["done"] == 8
        hashes = [res.spec.content_hash() for res in (first, second)]
        assert shared.spec_hashes() == hashes
        capsys.readouterr()
        assert main(["queue", str(tmp_path / "q.db")]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert f"(spec {hashes[0][:16]}, {hashes[1][:16]}):" in header

    def test_queue_replay_is_pure_cache_hit(self, tmp_path):
        spec = grid_spec()
        first = run_spec(spec, jobs=2, shard_members=2,
                         queue=tmp_path / "q.db")
        replay = run_spec(spec, jobs=2, shard_members=2,
                          queue=tmp_path / "q.db")
        assert replay.n_executed == 0
        assert replay.n_cached == 4
        for a, b in zip(first.members, replay.members):
            np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_parent_loads_each_shard_once(self, tmp_path, monkeypatch):
        # The final verify pass keeps its arrays for assembly.  Loads in
        # forked workers land in their own memory and are not counted.
        counts: dict[str, int] = {}
        real_load = ResultCache.load

        def counting_load(self, key):
            counts[key] = counts.get(key, 0) + 1
            return real_load(self, key)

        monkeypatch.setattr(ResultCache, "load", counting_load)
        plan = compile_plan(grid_spec(), shard_members=2)
        res = run_plan_queue(plan, tmp_path / "q.db", jobs=2)
        assert plan.n_shards == 4
        assert res.n_executed == 4
        assert counts == {s.key: 1 for s in plan.shards}

        # A resumed campaign keeps the arrays its start-of-run check
        # loads: still one read per shard.
        counts.clear()
        events = []
        resumed = run_plan_queue(plan, tmp_path / "q.db", jobs=2,
                                 progress=events.append)
        assert resumed.n_cached == 4 and resumed.n_executed == 0
        assert counts == {s.key: 1 for s in plan.shards}
        assert [e["done"] for e in events] == [1, 2, 3, 4]
        assert all(e["cached"] for e in events)
        for a, b in zip(res.members, resumed.members):
            np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_spent_respawn_budget_drains_inline(self, tmp_path,
                                                monkeypatch):
        # Workers that die before claiming anything use up the respawn
        # budget; the orchestrator then drains the queue itself.
        from repro.runs import executor

        monkeypatch.setattr(executor, "POLL_S", 0.01)
        monkeypatch.setattr(executor, "_queue_worker_entry",
                            lambda *args: os._exit(1))
        plan = compile_plan(grid_spec(), shard_members=2)
        res = run_plan_queue(plan, tmp_path / "q.db", jobs=2)
        assert res.queue["spawned"] == 2 * plan.n_shards + 4
        assert res.n_executed == plan.n_shards
        ref = run_plan(plan)
        for a, b in zip(ref.members, res.members):
            np.testing.assert_array_equal(a.ts, b.ts)
            np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_unwritable_queue_degrades_to_inline(self, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("x")
        with pytest.warns(RuntimeWarning, match="degrading"):
            res = run_spec(grid_spec(), jobs=2, shard_members=2,
                           queue=blocker / "q.db")
        assert res.queue is None           # plain run_plan result
        assert res.n_executed == 4

    def test_queue_kwargs_require_queue(self):
        with pytest.raises(TypeError, match="queue"):
            run_spec(grid_spec(), jobs=1, lease_ttl=5.0)

    def test_poisoned_shard_quarantines_with_traceback(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("POM_FAULTS", "raise:shard=0,times=3")
        monkeypatch.setenv("POM_FAULTS_STATE", str(tmp_path / "faults"))
        with pytest.raises(RuntimeError, match="quarantined"):
            run_spec(grid_spec(), jobs=2, shard_members=2,
                     queue=tmp_path / "q.db",
                     lease_ttl=5.0, backoff=0.05, max_attempts=3)
        queue = WorkQueue(tmp_path / "q.db")
        (row,) = queue.describe()["quarantined"]
        assert row["shard"] == 0 and row["attempts"] == 3
        assert "InjectedFault" in row["error"]

        # operator workflow: requeue and rerun clean
        monkeypatch.delenv("POM_FAULTS")
        monkeypatch.delenv("POM_FAULTS_STATE")
        queue.requeue_quarantined()
        res = run_spec(grid_spec(), jobs=2, shard_members=2,
                       queue=tmp_path / "q.db", backoff=0.05)
        ref = run_spec(grid_spec(), jobs=1, shard_members=2)
        for a, b in zip(ref.members, res.members):
            np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_torn_writes_on_several_shards_recover(self, tmp_path,
                                                   monkeypatch):
        # Four torn cache writes land on different shards, found on
        # different ticks; each shard is recomputed once, not counted
        # against one campaign-wide budget.
        from repro.runs import executor

        monkeypatch.setattr(executor, "POLL_S", 0.01)
        monkeypatch.setenv("POM_FAULTS", "corrupt-cache:times=4")
        monkeypatch.setenv("POM_FAULTS_STATE", str(tmp_path / "faults"))
        plan = compile_plan(grid_spec(), shard_members=1)
        assert plan.n_shards == 8
        res = run_plan_queue(plan, tmp_path / "q.db", jobs=2,
                             backoff=0.05)
        monkeypatch.delenv("POM_FAULTS")
        monkeypatch.delenv("POM_FAULTS_STATE")
        ref = run_plan(plan)
        for a, b in zip(ref.members, res.members):
            np.testing.assert_array_equal(a.ts, b.ts)
            np.testing.assert_array_equal(a.thetas, b.thetas)
        assert res.queue["status"] == "done"

    def test_persistently_torn_shard_raises(self, tmp_path, monkeypatch):
        from repro.runs import executor

        monkeypatch.setattr(executor, "POLL_S", 0.01)
        monkeypatch.setenv("POM_FAULTS", "corrupt-cache:shard=0,times=99")
        monkeypatch.setenv("POM_FAULTS_STATE", str(tmp_path / "faults"))
        plan = compile_plan(grid_spec(), shard_members=2)
        with pytest.raises(RuntimeError, match="shard 0's result remained"):
            run_plan_queue(plan, tmp_path / "q.db", jobs=2, backoff=0.05)


class TestKilledWorkerResume:
    def test_sigkilled_worker_campaign_resumes_bit_identical(
            self, tmp_path, plan, monkeypatch):
        """Satellite: SIGKILL a worker mid-shard, restart the campaign,
        and the result is bit-identical to an uninterrupted jobs=1 run."""
        queue = WorkQueue(tmp_path / "q.db", backoff=0.05)
        queue.enqueue_plan(plan)
        cache_root = tmp_path / "q.db.cache"

        monkeypatch.setenv("POM_FAULTS", "kill:shard=0")
        monkeypatch.setenv("POM_FAULTS_STATE", str(tmp_path / "faults"))
        victim = mp.Process(
            target=_queue_worker_entry,
            args=(str(queue.path), str(cache_root),
                  {"worker": "victim", "lease_ttl": 1.0}))
        victim.start()
        victim.join(timeout=60)
        assert victim.exitcode == -signal.SIGKILL
        # the shard died leased; its lease must still be visible
        counts = queue.counts()
        assert counts["leased"] == 1 and counts["done"] == 0

        monkeypatch.delenv("POM_FAULTS")
        monkeypatch.delenv("POM_FAULTS_STATE")
        result = run_plan_queue(plan, queue.path, jobs=2,
                                cache=ResultCache(cache_root),
                                lease_ttl=1.0, backoff=0.05)
        ref = run_plan(plan)
        assert len(result.members) == len(ref.members) == 8
        for a, b in zip(ref.members, result.members):
            np.testing.assert_array_equal(a.ts, b.ts)
            np.testing.assert_array_equal(a.thetas, b.thetas)
        # the recovered death is visible in the report, not hidden
        assert result.queue["retried"].get(0, 0) >= 2

    def test_orchestrator_respawns_killed_workers(self, tmp_path,
                                                  monkeypatch):
        """End-to-end chaos through run_plan_queue itself: the injected
        kill takes a spawned worker down and the orchestrator recovers
        without outside help."""
        # A replacement is spawned only while unfinished shards outnumber
        # the live workers at the orchestrator's next tick (every POLL_S =
        # 0.2 s).  Shards are claimed in index order, so when shard 1's
        # kill fires, shards 2 and 3 are still unclaimed, and each stalls
        # its worker for 0.3 s at its start (inside the 1 s lease): the
        # survivor cannot drain them before that tick, however fast the
        # solves are.
        monkeypatch.setenv("POM_FAULTS", "kill:shard=1;stall:shard=2,secs=0.3;"
                           "stall:shard=3,secs=0.3")
        monkeypatch.setenv("POM_FAULTS_STATE", str(tmp_path / "faults"))
        spec = grid_spec()
        res = run_spec(spec, jobs=2, shard_members=2,
                       queue=tmp_path / "q.db",
                       lease_ttl=1.0, backoff=0.05)
        monkeypatch.delenv("POM_FAULTS")
        monkeypatch.delenv("POM_FAULTS_STATE")
        ref = run_spec(spec, jobs=1, shard_members=2)
        for a, b in zip(ref.members, res.members):
            np.testing.assert_array_equal(a.thetas, b.thetas)
        assert res.queue["spawned"] >= 3   # at least one respawn
        assert res.queue["retried"].get(1, 0) >= 2
