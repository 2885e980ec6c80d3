"""Tests for the sharded executor and result cache (repro.runs)."""

import numpy as np
import pytest

from repro.core import (
    BottleneckPotential,
    OneOffDelay,
    PhysicalOscillatorModel,
    ring,
    simulate_grid,
)
from repro import kernels
from repro.runs import (
    ResultCache,
    ScenarioSpec,
    collect_cached,
    compile_plan,
    execute_shard,
    run_plan,
    run_spec,
)
from repro.runs.plan import _cc_build_tag


def grid_spec(method="rk4", t_end=6.0, axes=None, **model_extra):
    model = {
        "topology": {"kind": "ring", "n": 10, "distances": [1, -1]},
        "potential": {"kind": "bottleneck", "sigma": 1.0},
        "t_comp": 0.9,
        "t_comm": 0.1,
    }
    model.update(model_extra)
    return ScenarioSpec(
        name="exec-test",
        model=model,
        t_end=t_end,
        solver={"method": method},
        initial={"kind": "normal", "std": 1e-3, "seed": 0},
        axes=axes or [("potential.sigma", [0.5, 1.0, 1.5, 2.0]),
                      ("seed", [0, 1])],
    )


class TestJobsEquivalence:
    def test_jobs_do_not_change_bits(self):
        spec = grid_spec()
        r1 = run_spec(spec, jobs=1, shard_members=2)
        r2 = run_spec(spec, jobs=2, shard_members=2)
        assert len(r1.members) == len(r2.members) == 8
        for a, b in zip(r1.members, r2.members):
            assert a.index == b.index
            np.testing.assert_array_equal(a.ts, b.ts)
            np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_fixed_step_chunking_is_split_invariant(self):
        spec = grid_spec()
        whole = run_spec(spec)
        chunked = run_spec(spec, shard_members=3, jobs=2)
        for a, b in zip(whole.members, chunked.members):
            np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_matches_preexisting_batched_grid_path(self):
        # dopri, whole-grid fusion: the routed result must be bit-for-bit
        # the PR-2 simulate_grid(batched) output.
        spec = grid_spec(method="dopri", t_end=8.0,
                         delays=[{"rank": 3, "t_start": 2.0,
                                  "delay": 1.0}])
        res = run_spec(spec, jobs=1)

        sigmas = [0.5, 1.0, 1.5, 2.0]
        topo = ring(10, (1, -1))
        theta0 = np.random.default_rng(0).normal(0.0, 1e-3, size=10)
        models = [PhysicalOscillatorModel(
            topology=topo, potential=BottleneckPotential(sigma=s),
            t_comp=0.9, t_comm=0.1,
            delays=(OneOffDelay(rank=3, t_start=2.0, delay=1.0),))
            for s in sigmas for _ in (0, 1)]
        ref = simulate_grid(models, 8.0,
                            seeds=[0, 1] * 4, theta0=theta0)
        for r, m in zip(ref, res.members):
            np.testing.assert_array_equal(r.ts, m.ts)
            np.testing.assert_array_equal(r.thetas, m.thetas)


class TestBuildCheck:
    def test_foreign_cc_build_refused(self, monkeypatch):
        # A cc shard runs only on the build it was planned for.
        monkeypatch.setattr(kernels, "cc_available", lambda: True)
        payload = compile_plan(grid_spec(kernel="cc")).shards[0].payload
        assert payload["cc_build"] == _cc_build_tag()
        with pytest.raises(RuntimeError, match="cc build 0000000000000000"):
            execute_shard(dict(payload, cc_build="0" * 16))


class TestCache:
    def test_replay_is_pure_cache_hit(self, tmp_path):
        spec = grid_spec()
        cache = ResultCache(tmp_path / "cache")
        first = run_spec(spec, shard_members=2, cache=cache)
        assert first.n_executed == first.n_shards == 4
        assert first.n_cached == 0

        replay = run_spec(spec, shard_members=2, cache=cache)
        assert replay.n_executed == 0          # zero solves
        assert replay.n_cached == 4
        for a, b in zip(first.members, replay.members):
            np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_killed_campaign_resumes_from_completed_shards(self, tmp_path):
        from repro.runs.executor import execute_shard

        spec = grid_spec()
        plan = compile_plan(spec, shard_members=2)
        cache = ResultCache(tmp_path / "cache")
        # Simulate a campaign killed after two of four shards finished.
        for shard in plan.shards[:2]:
            cache.save(shard.key, execute_shard(shard.payload))

        events = []
        result = run_plan(plan, cache=cache, progress=events.append)
        assert result.n_cached == 2
        assert result.n_executed == 2
        cached_flags = {e["shard"]: e["cached"] for e in events}
        assert cached_flags == {0: True, 1: True, 2: False, 3: False}

        # and the resumed result equals a from-scratch run
        fresh = run_plan(compile_plan(spec, shard_members=2))
        for a, b in zip(result.members, fresh.members):
            np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_no_resume_recomputes(self, tmp_path):
        spec = grid_spec()
        cache = ResultCache(tmp_path / "cache")
        run_spec(spec, shard_members=2, cache=cache)
        again = run_spec(spec, shard_members=2, cache=cache, resume=False)
        assert again.n_executed == 4

    def test_cache_shared_across_jobs_settings(self, tmp_path):
        spec = grid_spec()
        cache = ResultCache(tmp_path / "cache")
        run_spec(spec, shard_members=2, jobs=2, cache=cache)
        replay = run_spec(spec, shard_members=2, jobs=1, cache=cache)
        assert replay.n_executed == 0

    def test_corrupt_blob_is_a_miss(self, tmp_path):
        spec = grid_spec()
        cache = ResultCache(tmp_path / "cache")
        plan = compile_plan(spec, shard_members=2)
        run_plan(plan, cache=cache)
        # truncate one artifact
        path = cache.store.path_for(plan.shards[0].key)
        path.write_bytes(path.read_bytes()[:40])
        result = run_plan(plan, cache=cache)
        assert result.n_executed == 1
        assert result.n_cached == 3

    def test_numerics_version_partitions_keys(self):
        from repro.runs import cache as cache_mod

        payload = compile_plan(grid_spec()).shards[0].payload
        k1 = cache_mod.shard_key(payload)
        old = cache_mod.NUMERICS_VERSION
        try:
            cache_mod.NUMERICS_VERSION = "test-bump"
            k2 = cache_mod.shard_key(payload)
        finally:
            cache_mod.NUMERICS_VERSION = old
        assert k1 != k2


class TestRunResult:
    def test_trajectories_carry_model_metadata(self):
        res = run_spec(grid_spec())
        trajs = res.trajectories()
        assert [t.model.potential.sigma for t in trajs[::2]] == \
            [0.5, 1.0, 1.5, 2.0]
        assert trajs[1].seed == 1
        assert trajs[0].n == 10

    def test_summary_table_columns(self):
        res = run_spec(grid_spec())
        table = res.summary_table()
        assert len(table["potential.sigma"]) == 8
        assert table["seed"][:2] == [0, 1]
        assert all(len(v) == 8 for v in table.values())

    def test_save_npz_roundtrip(self, tmp_path):
        res = run_spec(grid_spec())
        path = res.save_npz(tmp_path / "out.npz")
        with np.load(path) as npz:
            assert bytes(npz["spec_hash"]).decode() == \
                grid_spec().content_hash()
            np.testing.assert_array_equal(npz["thetas_3"],
                                          res.members[3].thetas)

    def test_progress_events(self):
        events = []
        run_spec(grid_spec(), shard_members=2, progress=events.append)
        assert len(events) == 4
        assert events[-1]["done"] == 4
        assert all(not e["cached"] for e in events)

    def test_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_spec(grid_spec(), jobs=0)


class TestTransportAndPinning:
    """Pool results through the result pipe, and worker thread pinning."""

    def test_shm_bits_match_inline(self):
        # Named for the shared-memory transport the result pipe
        # replaced: pooled shards must still match the inline solve.
        spec = grid_spec()
        inline = run_spec(spec, jobs=1, shard_members=2)
        pooled = run_spec(spec, jobs=2, shard_members=2)
        assert pooled.transport == "pickle"
        for a, b in zip(inline.members, pooled.members):
            np.testing.assert_array_equal(a.ts, b.ts)
            np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_pickle_bits_match_shm(self, tmp_path):
        # Arrays pickled through the result pipe must match the stored
        # shard blobs bit for bit, dtype included.
        spec = grid_spec()
        cache = ResultCache(tmp_path / "cache")
        pickled = run_spec(spec, jobs=2, shard_members=2, cache=cache)
        assert pickled.transport == "pickle"
        stored = collect_cached(compile_plan(spec, shard_members=2), cache)
        assert stored is not None
        for a, b in zip(pickled.members, stored.members):
            assert a.thetas.dtype == b.thetas.dtype
            np.testing.assert_array_equal(a.ts, b.ts)
            np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_workers_pinned_to_one_thread_by_default(self):
        res = run_spec(grid_spec(), jobs=2, shard_members=2)
        assert res.worker_omp == "1"

    def test_explicit_threads_reaches_workers(self):
        res = run_spec(grid_spec(), jobs=2, shard_members=2, threads=2)
        assert res.worker_omp == "2"

    def test_free_heap_released_once_before_the_pool_forks(self,
                                                           monkeypatch):
        from repro.runs import executor

        calls = []
        monkeypatch.setattr(executor, "_release_free_heap",
                            lambda: calls.append(1))
        run_spec(grid_spec(), jobs=1, shard_members=2)
        assert calls == []
        run_spec(grid_spec(), jobs=2, shard_members=2)
        assert calls == [1]
        monkeypatch.undo()
        executor._release_free_heap()  # the real call must not raise

    def test_inline_run_has_no_pool_metadata(self):
        res = run_spec(grid_spec(), jobs=1, shard_members=2)
        assert res.transport is None
        assert res.worker_omp is None

    def test_threads_do_not_enter_cache_keys(self, tmp_path):
        spec = grid_spec()
        cache = ResultCache(tmp_path / "cache")
        first = run_spec(spec, jobs=2, shard_members=2, cache=cache)
        assert first.n_executed == 4
        # A different jobs/threads configuration must replay the same
        # campaign as a pure cache hit.
        replay = run_spec(spec, jobs=1, shard_members=2, cache=cache,
                          threads=2)
        assert replay.n_executed == 0
        assert replay.n_cached == 4
        for a, b in zip(first.members, replay.members):
            np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_pool_resume_from_partial_cache(self, tmp_path):
        spec = grid_spec()
        cache = ResultCache(tmp_path / "cache")
        full = run_spec(spec, jobs=2, shard_members=2, cache=cache)
        # Drop stored shards; the rerun must solve exactly those.  A
        # single pending shard runs inline, so drop two to keep the
        # pool.
        plan = compile_plan(spec, shard_members=2)
        for shard in plan.shards[:2]:
            cache.store.delete(shard.key)
        resumed = run_spec(spec, jobs=2, shard_members=2, cache=cache)
        assert resumed.transport == "pickle"
        assert resumed.n_executed == 2
        assert resumed.n_cached == 2
        for a, b in zip(full.members, resumed.members):
            np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_no_leftover_segments(self):
        from multiprocessing import shared_memory
        import os

        run_spec(grid_spec(), jobs=2, shard_members=2)
        shm_dir = "/dev/shm"
        if os.path.isdir(shm_dir):
            leftovers = [f for f in os.listdir(shm_dir)
                         if f.startswith(f"pom-{os.getpid()}-")]
            assert leftovers == []
        else:  # pragma: no cover - non-Linux
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=f"pom-{os.getpid()}-0-x")


def _pom_segments():
    import os

    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        pytest.skip("no /dev/shm")
    return [f for f in os.listdir("/dev/shm") if f.startswith("pom-")]


class TestPoolChaos:
    """The ``run_plan(jobs=N)`` process pool survives injected faults."""

    def test_sigkilled_pool_worker_falls_back_inline(self, monkeypatch,
                                                     tmp_path):
        """SIGKILL inside the pool breaks the whole executor
        (BrokenProcessPool); unfinished shards re-solve inline and the
        result stays bit-identical."""
        before = set(_pom_segments())
        monkeypatch.setenv("POM_FAULTS", "kill:shard=1")
        monkeypatch.setenv("POM_FAULTS_STATE", str(tmp_path / "faults"))
        with pytest.warns(RuntimeWarning, match="worker process died"):
            chaos = run_spec(grid_spec(), jobs=2, shard_members=2)
        monkeypatch.delenv("POM_FAULTS")
        monkeypatch.delenv("POM_FAULTS_STATE")
        ref = run_spec(grid_spec(), jobs=1, shard_members=2)
        assert len(chaos.members) == 8
        for a, b in zip(ref.members, chaos.members):
            np.testing.assert_array_equal(a.ts, b.ts)
            np.testing.assert_array_equal(a.thetas, b.thetas)
        # no orphaned segments survive the chaos run
        assert set(_pom_segments()) <= before
