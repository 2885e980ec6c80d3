"""End-to-end tests for the HTTP campaign service (`pom serve`).

Every test runs a real :class:`~repro.service.CampaignServer` on an
ephemeral port and talks to it over actual HTTP — the same stack CI's
service-smoke leg exercises against the installed CLI.
"""

import io
import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.runs import ScenarioSpec, WorkQueue, compile_plan, run_spec
from repro.runs.queue import default_queue_sibling
from repro.service import (
    ApiError,
    CampaignServer,
    ServiceClient,
    ServiceError,
)
from repro.viz.export import csv_text, read_csv, write_csv

SPEC_DICT = {
    "name": "svc-grid",
    "model": {
        "topology": {"kind": "ring", "n": 8, "distances": [1, -1]},
        "potential": {"kind": "bottleneck", "sigma": 1.0},
        "t_comp": 0.9,
        "t_comm": 0.1,
    },
    "t_end": 5.0,
    "solver": {"method": "rk4"},
    "initial": {"kind": "normal", "std": 0.001, "seed": 0},
    "axes": [["potential.sigma", [0.5, 1.5]], ["seed", [0, 1]]],
}


@pytest.fixture
def spec():
    return ScenarioSpec.from_dict(SPEC_DICT)


@pytest.fixture
def server(tmp_path, fast_poll):
    """A serving instance with 2 drainer workers on an ephemeral port."""
    srv = CampaignServer(tmp_path / "q.db", workers=2,
                        worker_opts={"lease_ttl": 10.0})
    with srv:
        yield srv


@pytest.fixture
def idle_server(tmp_path):
    """A serving instance with NO workers: submissions stay enqueued."""
    srv = CampaignServer(tmp_path / "q.db", workers=0)
    with srv:
        yield srv


def test_worker_pool_is_the_queue_supervisor():
    from repro import service
    from repro.runs import executor

    assert service.WorkerPool is executor.WorkerPool


class TestEndpoints:
    def test_healthz(self, server):
        client = ServiceClient(server.url)
        health = client.healthz()
        assert health["ok"] is True
        assert health["queue"]["depth"] == 0
        assert health["workers"]["jobs"] == 2

    def test_registry_lists_spec_scenarios(self, server):
        scenarios = {s["name"]: s for s in
                     ServiceClient(server.url).registry()["scenarios"]}
        assert scenarios["sigma"]["has_spec"] is True
        assert scenarios["fig1a"]["has_spec"] is False

    def test_submit_status_result_roundtrip(self, server, spec):
        client = ServiceClient(server.url)
        out = client.submit(spec, shard_members=2)
        assert out["id"] == spec.content_hash()
        assert out["cached"] is False
        assert out["new_shards"] == out["shards"] == 2
        assert out["members"] == 4

        status = client.wait(out["id"], timeout=120)
        assert status["counts"]["done"] == 2
        assert status["quarantined"] == []

        # Served NPZ decodes to exactly the direct-execution arrays.
        direct = run_spec(spec, shard_members=2)
        with np.load(io.BytesIO(client.result_bytes(out["id"]))) as npz:
            for m in direct.members:
                np.testing.assert_array_equal(npz[f"ts_{m.index}"], m.ts)
                np.testing.assert_array_equal(
                    npz[f"thetas_{m.index}"], m.thetas)

    def test_resubmit_is_pure_cache_hit(self, server, spec):
        client = ServiceClient(server.url)
        first = client.submit(spec, shard_members=2)
        client.wait(first["id"], timeout=120)
        queue = WorkQueue(server.service.queue_path)
        rows_before = len(queue.rows())

        again = client.submit(spec, shard_members=2)
        assert again["cached"] is True
        assert again["status"] == "done"
        assert again["new_shards"] == 0
        assert len(queue.rows()) == rows_before

    def test_prewarmed_submit_never_touches_queue(self, server, spec):
        # Warm the shared cache out-of-band (a direct `pom run` against
        # the same cache dir), then submit: the campaign must complete
        # at submit time with zero queue rows ever created.
        run_spec(spec, shard_members=2, cache=server.service.cache)
        out = ServiceClient(server.url).submit(spec, shard_members=2)
        assert out["cached"] is True
        assert out["status"] == "done"
        assert out["new_shards"] == 0
        assert WorkQueue(server.service.queue_path).rows() == []

    def test_csv_result_matches_direct_summary(self, server, spec,
                                               tmp_path):
        client = ServiceClient(server.url)
        out = client.submit(spec, shard_members=2)
        client.wait(out["id"], timeout=120)
        served = client.result_bytes(out["id"], fmt="csv")

        direct = run_spec(spec, shard_members=2)
        path = tmp_path / "direct.csv"
        write_csv(path, direct.summary_table(),
                  meta={"spec": spec.content_hash(), "name": spec.name})
        (tmp_path / "served.csv").write_bytes(served)
        a, b = read_csv(tmp_path / "served.csv"), read_csv(path)
        assert set(a) == set(b)
        for col in a:
            if isinstance(a[col], list):
                assert a[col] == b[col]
            else:
                np.testing.assert_array_equal(a[col], b[col])

    def test_scenario_name_submit(self, idle_server):
        out = ServiceClient(idle_server.url).submit(
            scenario="sigma", quick=True)
        assert out["status"] == "running"
        assert out["members"] == 2
        assert out["new_shards"] >= 1


class TestErrors:
    def test_malformed_spec_400_with_json_body(self, server):
        req = urllib.request.Request(
            server.url + "/v1/campaigns",
            data=json.dumps({"spec": {"nope": 1}}).encode(),
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "invalid scenario spec" in body["error"]

    def test_invalid_json_body_400(self, server):
        req = urllib.request.Request(
            server.url + "/v1/campaigns", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req)
        assert excinfo.value.code == 400
        assert "not valid JSON" in json.loads(excinfo.value.read())["error"]

    def test_non_positive_refresh_400(self, server):
        bad = json.loads(json.dumps(SPEC_DICT))
        bad["model"]["interaction_noise"] = {"kind": "random", "hi": 0.1,
                                             "refresh": 0.0}
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url).submit(spec=bad)
        assert excinfo.value.status == 400
        assert "refresh must be positive" in str(excinfo.value)

    def test_spec_and_scenario_together_400(self, server):
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url)._json(
                "POST", "/v1/campaigns",
                {"spec": SPEC_DICT, "scenario": "sigma"})
        assert excinfo.value.status == 400

    def test_unknown_scenario_name_400(self, server):
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url).submit(scenario="fig77")
        assert excinfo.value.status == 400
        assert "unknown experiment" in str(excinfo.value)

    def test_unknown_campaign_404(self, server):
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url).status("deadbeef" * 8)
        assert excinfo.value.status == 404

    def test_malformed_campaign_id_404(self, server):
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url).status("not-a-hash")
        assert excinfo.value.status == 404

    def test_unknown_endpoint_404(self, server):
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url)._json("GET", "/v2/nope")
        assert excinfo.value.status == 404

    def test_result_before_done_409(self, idle_server, spec):
        client = ServiceClient(idle_server.url)
        out = client.submit(spec, shard_members=2)
        with pytest.raises(ServiceError) as excinfo:
            client.result_bytes(out["id"])
        assert excinfo.value.status == 409
        assert "outstanding" in str(excinfo.value)

    @pytest.mark.parametrize("path,values", [
        ("local_noise", [{"kind": "none"},
                         {"kind": "gaussian", "stdev": 0.1}]),
        ("potential", [{"kind": "tanh"}, {"kind": "tanh", "sigma": 1}]),
    ])
    def test_bad_later_axis_value_400(self, idle_server, path, values):
        bad = json.loads(json.dumps(SPEC_DICT))
        bad["solver"] = {"method": "rk4", "dt": 0.01}
        bad["axes"] = [["seed", [0, 1]], [path, values]]
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(idle_server.url).submit(spec=bad)
        assert excinfo.value.status == 400
        assert "invalid scenario spec" in str(excinfo.value)
        assert WorkQueue(idle_server.service.queue_path).rows() == []

    def test_unknown_campaign_result_404(self, server):
        client = ServiceClient(server.url)
        for cid in ("deadbeef" * 8, "not-a-hash"):
            with pytest.raises(ServiceError) as excinfo:
                client.result_bytes(cid)
            assert excinfo.value.status == 404

    def test_unknown_result_format_400(self, server, spec):
        client = ServiceClient(server.url)
        out = client.submit(spec, shard_members=2)
        client.wait(out["id"], timeout=120)
        with pytest.raises(ServiceError) as excinfo:
            client.result_bytes(out["id"], fmt="parquet")
        assert excinfo.value.status == 400


class TestLedger:
    """The service reads campaign state from the queue ledger and loads
    each cached shard once per assembled artefact."""

    @pytest.fixture
    def service(self, tmp_path):
        from repro.service import CampaignService

        return CampaignService(tmp_path / "q.db")

    def test_cached_submit_opens_one_connection(self, service, spec,
                                                monkeypatch):
        from repro.runs import queue as queue_mod

        run_spec(spec, shard_members=2, cache=service.cache)
        opened = []
        real = queue_mod.sqlite3.connect

        def counting(*args, **kwargs):
            opened.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(queue_mod.sqlite3, "connect", counting)
        out = service.submit({"spec": SPEC_DICT, "shard_members": 2})
        assert out["cached"] is True and out["status"] == "done"
        assert out["counts"]["done"] == 2
        assert len(opened) == 1

    def test_cached_submit_probes_each_shard_once(self, service, spec,
                                                  monkeypatch):
        from repro.runs import ResultCache

        run_spec(spec, shard_members=2, cache=service.cache)
        probes = []
        real_has = ResultCache.has

        def counting_has(self, key):
            probes.append(key)
            return real_has(self, key)

        monkeypatch.setattr(ResultCache, "has", counting_has)
        out = service.submit({"spec": SPEC_DICT, "shard_members": 2})
        assert out["cached"] is True and out["status"] == "done"
        assert out["counts"]["done"] == 2
        keys = sorted(s.key for s in compile_plan(spec,
                                                  shard_members=2).shards)
        assert sorted(probes) == keys

    def test_first_fetch_is_one_load_pass(self, service, spec,
                                          monkeypatch):
        from repro.runs import ResultCache
        from repro.service import server as server_mod

        run_spec(spec, shard_members=2, cache=service.cache)
        cid = service.submit({"spec": SPEC_DICT, "shard_members": 2})["id"]
        loads, probes = [], []
        real_load, real_has = ResultCache.load, ResultCache.has

        def counting_load(self, key):
            loads.append(key)
            return real_load(self, key)

        def counting_has(self, key):
            probes.append(key)
            return real_has(self, key)

        monkeypatch.setattr(ResultCache, "load", counting_load)
        monkeypatch.setattr(ResultCache, "has", counting_has)
        data, from_store = service.result(cid)
        assert not from_store
        # The status rule probes only the shards with no queue row (all
        # of them, for a cache short-circuit); then one load pass.
        keys = sorted(s.key for s in compile_plan(spec,
                                                  shard_members=2).shards)
        assert sorted(loads) == keys
        assert sorted(probes) == keys

        # A stored artefact is served without compiling the plan.
        def no_compile(*args, **kwargs):
            raise AssertionError("compiled the plan for a stored artefact")

        monkeypatch.setattr(server_mod, "compile_plan", no_compile)
        assert service.result(cid) == (data, True)

    def test_corrupt_shard_is_requeued_not_served(self, service, spec):
        plan = compile_plan(spec, shard_members=2)
        run_spec(spec, shard_members=2, cache=service.cache)
        cid = service.submit({"spec": SPEC_DICT, "shard_members": 2})["id"]
        bad = plan.shards[1].key
        path = service.cache.store.path_for(bad)
        path.write_bytes(path.read_bytes()[:64])
        with pytest.raises(ApiError) as excinfo:
            service.result(cid)
        assert excinfo.value.status == 409
        assert "requeued" in str(excinfo.value)
        # Only the bad shard gets a row; the loadable one stays a
        # cache hit.
        rows = {r.key: r.state for r in service.queue.rows()}
        assert rows == {bad: "pending"}
        assert service.status(cid)["status"] == "running"

    def test_rowless_uncached_shards_are_outstanding(self, service, spec,
                                                     monkeypatch):
        # A queue emptied under a live campaign: its shards have no row
        # and no cache entry, so the result is not complete (409) and no
        # shard is loaded.
        import sqlite3

        from repro.runs import ResultCache

        cid = service.submit({"spec": SPEC_DICT, "shard_members": 2})["id"]
        with sqlite3.connect(service.queue_path) as con:
            con.execute("DELETE FROM shards")
        con.close()

        def no_load(self, key):
            raise AssertionError("loaded a shard of an incomplete campaign")

        monkeypatch.setattr(ResultCache, "load", no_load)
        with pytest.raises(ApiError) as excinfo:
            service.result(cid)
        assert excinfo.value.status == 409
        assert "2 shard(s) outstanding" in str(excinfo.value)
        assert service.status(cid)["status"] == "running"


class TestConcurrency:
    def test_concurrent_duplicate_submits_collapse(self, idle_server,
                                                   spec):
        client = ServiceClient(idle_server.url)
        results, errors = [], []

        def _submit():
            try:
                results.append(client.submit(spec, shard_members=2))
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [threading.Thread(target=_submit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 8
        # One campaign id, and the queue rows were created exactly once
        # across all racing submits.
        assert {r["id"] for r in results} == {spec.content_hash()}
        assert sum(r["new_shards"] for r in results) == 2
        assert len(WorkQueue(idle_server.service.queue_path).rows()) == 2


class TestFaultTolerance:
    def test_worker_kill_during_served_campaign_converges(
            self, tmp_path, spec, monkeypatch, fast_poll):
        # A drainer worker SIGKILLs at shard start; the reaper expires
        # its lease and the pool respawns — the served result must
        # still be bit-identical to a clean direct run.
        monkeypatch.setenv("POM_FAULTS", "kill:shard=0,times=1")
        monkeypatch.delenv("POM_FAULTS_STATE", raising=False)
        srv = CampaignServer(tmp_path / "q.db", workers=2,
                             worker_opts={"lease_ttl": 1.0,
                                          "backoff": 0.1})
        with srv:
            client = ServiceClient(srv.url)
            out = client.submit(spec, shard_members=2)
            status = client.wait(out["id"], timeout=120)
            assert status["counts"]["done"] == 2
            blob = client.result_bytes(out["id"])

        monkeypatch.delenv("POM_FAULTS")
        monkeypatch.delenv("POM_FAULTS_STATE", raising=False)
        direct = run_spec(spec, shard_members=2)
        with np.load(io.BytesIO(blob)) as npz:
            for m in direct.members:
                np.testing.assert_array_equal(
                    npz[f"thetas_{m.index}"], m.thetas)


class TestMetrics:
    def test_requests_logged_as_json_lines(self, server, spec):
        client = ServiceClient(server.url)
        client.healthz()
        out = client.submit(spec, shard_members=2)
        client.wait(out["id"], timeout=120)
        lines = [json.loads(ln) for ln in
                 server.metrics.path.read_text().splitlines()]
        assert len(lines) >= 3
        for entry in lines:
            assert {"t", "method", "path", "status", "ms",
                    "queue_depth"} <= set(entry)
        submits = [e for e in lines
                   if e["method"] == "POST" and e["status"] == 200]
        assert submits and submits[0]["hit"] is False

    def test_metrics_default_path_is_queue_sibling(self, server):
        expected = default_queue_sibling(server.service.queue_path,
                                         "metrics.jsonl")
        assert server.metrics.path == expected


class TestServiceRestart:
    def test_campaign_survives_server_restart(self, tmp_path, spec,
                                              fast_poll):
        # Manifests and results are on disk next to the queue, so a new
        # server instance answers for campaigns submitted before it.
        queue_path = tmp_path / "q.db"
        with CampaignServer(queue_path, workers=2,
                            worker_opts={"lease_ttl": 10.0}) as srv:
            client = ServiceClient(srv.url)
            out = client.submit(spec, shard_members=2)
            client.wait(out["id"], timeout=120)

        with CampaignServer(queue_path, workers=0) as srv2:
            client2 = ServiceClient(srv2.url)
            status = client2.status(out["id"])
            assert status["status"] == "done"
            blob = client2.result_bytes(out["id"])
        with np.load(io.BytesIO(blob)) as npz:
            assert any(name.startswith("thetas_") for name in npz.files)


class TestCliVerbs:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(SPEC_DICT))
        return str(path)

    def test_submit_wait_status_fetch(self, capsys, tmp_path, spec_file,
                                      server, spec):
        assert main(["submit", spec_file, "--url", server.url,
                     "--shard-members", "2", "--wait"]) == 0
        out = capsys.readouterr().out
        assert f"campaign {spec.content_hash()}" in out
        assert "done" in out

        assert main(["status", spec.content_hash(), "--url",
                     server.url]) == 0
        assert "done=2" in capsys.readouterr().out

        # status accepts the spec file too (hashes it client-side)
        assert main(["status", spec_file, "--url", server.url]) == 0
        assert "done=2" in capsys.readouterr().out

        out_dir = tmp_path / "fetched"
        assert main(["fetch", spec_file, "--url", server.url,
                     "--out", str(out_dir) + "/"]) == 0
        fetched = list(out_dir.glob("*.npz"))
        assert len(fetched) == 1
        direct = run_spec(spec, shard_members=2)
        with np.load(fetched[0]) as npz:
            for m in direct.members:
                np.testing.assert_array_equal(
                    npz[f"thetas_{m.index}"], m.thetas)

    def test_submit_unreachable_url_fails_cleanly(self, spec_file):
        with pytest.raises(SystemExit, match="submit failed"):
            main(["submit", spec_file, "--url",
                  "http://127.0.0.1:1/"])

    def test_fetch_csv_format(self, capsys, tmp_path, spec_file, server):
        assert main(["submit", spec_file, "--url", server.url,
                     "--shard-members", "2", "--wait"]) == 0
        capsys.readouterr()
        out_file = tmp_path / "result.csv"
        assert main(["fetch", spec_file, "--url", server.url,
                     "--out", str(out_file), "--format", "csv"]) == 0
        cols = read_csv(out_file)
        assert "r_final" in cols


class TestReuseHooks:
    def test_npz_bytes_equals_save_npz_arrays(self, spec, tmp_path):
        result = run_spec(spec, shard_members=2)
        path = result.save_npz(tmp_path / "direct.npz")
        with np.load(path) as on_disk, \
                np.load(io.BytesIO(result.npz_bytes())) as in_mem:
            assert sorted(on_disk.files) == sorted(in_mem.files)
            for name in on_disk.files:
                np.testing.assert_array_equal(on_disk[name], in_mem[name])

    def test_csv_text_equals_write_csv_bytes(self, tmp_path):
        columns = {"a": [1.0, 2.5], "b": ["x", "y"]}
        meta = {"name": "t"}
        path = write_csv(tmp_path / "t.csv", columns, meta=meta)
        assert path.read_bytes() == csv_text(columns, meta=meta).encode()

    def test_collect_cached_none_until_all_shards_present(self, spec,
                                                          tmp_path):
        from repro.runs import ResultCache, collect_cached

        cache = ResultCache(tmp_path / "cache")
        plan = compile_plan(spec, shard_members=2)
        assert collect_cached(plan, cache) is None

        direct = run_spec(spec, shard_members=2, cache=cache)
        assembled = collect_cached(plan, cache)
        assert assembled is not None
        assert assembled.n_cached == plan.n_shards
        assert assembled.n_executed == 0
        for got, want in zip(assembled.members, direct.members):
            assert got.index == want.index
            np.testing.assert_array_equal(got.thetas, want.thetas)
