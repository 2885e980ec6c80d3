"""Tests for the campaign planner (repro.runs.plan)."""

import pytest

from repro import kernels
from repro.core.simulation import default_dt
from repro.kernels import cc as cc_kernels
from repro.runs import ScenarioSpec, compile_plan


def spec_with(**overrides) -> ScenarioSpec:
    kwargs = dict(
        name="plan-test",
        model={
            "topology": {"kind": "ring", "n": 8, "distances": [1, -1]},
            "potential": {"kind": "tanh"},
            "t_comp": 0.9,
            "t_comm": 0.1,
        },
        t_end=5.0,
        solver={"method": "rk4"},
        axes=[("v_p_override", [0.5, 1.0, 2.0, 4.0])],
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestFusion:
    def test_single_group_fuses_whole_grid(self):
        plan = compile_plan(spec_with())
        assert plan.n_shards == 1
        assert plan.shards[0].n_members == 4
        assert plan.shards[0].member_indices == [0, 1, 2, 3]

    def test_topology_axis_splits_groups(self):
        plan = compile_plan(spec_with(axes=[
            ("topology.n", [8, 12]),
            ("v_p_override", [0.5, 1.0]),
        ]))
        # two topologies -> two shards, each batching its two members
        assert plan.n_shards == 2
        assert sorted(s.n_members for s in plan.shards) == [2, 2]
        assert plan.n_members == 4

    def test_t_end_axis_splits_groups(self):
        plan = compile_plan(spec_with(axes=[("t_end", [5.0, 10.0])]))
        assert plan.n_shards == 2

    def test_chunking_bounds_shard_size(self):
        plan = compile_plan(spec_with(), shard_members=3)
        assert [s.n_members for s in plan.shards] == [3, 1]
        # chunking never reorders members
        assert plan.shards[0].member_indices == [0, 1, 2]
        assert plan.shards[1].member_indices == [3]

    def test_bad_shard_members(self):
        with pytest.raises(ValueError, match="positive"):
            compile_plan(spec_with(), shard_members=0)


class TestDtResolution:
    def test_dt_is_group_minimum(self):
        spec = spec_with()
        plan = compile_plan(spec, shard_members=1)
        models = [m.build_model() for m in spec.members()]
        expected = min(default_dt(m) for m in models)
        # every chunk carries the *group* dt, not its own chunk minimum
        for shard in plan.shards:
            assert shard.payload["solver"]["dt"] == expected

    def test_explicit_dt_wins(self):
        plan = compile_plan(spec_with(solver={"method": "rk4",
                                              "dt": 0.004}))
        assert plan.shards[0].payload["solver"]["dt"] == 0.004


class TestDeterminism:
    def test_same_spec_same_keys(self):
        a = compile_plan(spec_with(), shard_members=2)
        b = compile_plan(spec_with(), shard_members=2)
        assert [s.key for s in a.shards] == [s.key for s in b.shards]

    def test_keys_differ_across_chunkings(self):
        whole = compile_plan(spec_with())
        chunked = compile_plan(spec_with(), shard_members=2)
        assert whole.shards[0].key not in {s.key for s in chunked.shards}

    def test_chunked_adaptive_gets_distinct_keys(self):
        spec = spec_with(solver={})          # dopri default
        whole = compile_plan(spec)
        chunked = compile_plan(spec, shard_members=2)
        assert all(s.payload["solver"].get("chunked_adaptive")
                   for s in chunked.shards)
        assert whole.shards[0].key not in {s.key for s in chunked.shards}
        # unsplit plans carry no marker — a shard_members bound that
        # never splits is identical to the unbounded plan
        assert "chunked_adaptive" not in whole.shards[0].payload["solver"]
        loose = compile_plan(spec, shard_members=10)
        assert loose.shards[0].key == whole.shards[0].key

    def test_key_ignores_name(self):
        a = compile_plan(spec_with(name="alpha"))
        b = compile_plan(spec_with(name="beta"))
        assert a.shards[0].key == b.shards[0].key
        assert a.spec.content_hash() != b.spec.content_hash()


class TestKernelResolution:
    """The kernel that runs a shard is part of its cache key."""

    @staticmethod
    def plan_with(monkeypatch, cc, kernel=None):
        monkeypatch.setattr(kernels, "cc_available", lambda: cc)
        spec = spec_with()
        if kernel is not None:
            spec.model["kernel"] = kernel
        return compile_plan(spec)

    def test_auto_resolves_per_host_into_the_key(self, monkeypatch):
        with_cc = self.plan_with(monkeypatch, True).shards[0]
        without = self.plan_with(monkeypatch, False).shards[0]
        assert with_cc.key != without.key
        assert {m["model"]["kernel"] for m in with_cc.payload["members"]} \
            == {"cc"}
        assert {m["model"]["kernel"] for m in without.payload["members"]} \
            == {"numpy"}
        assert with_cc.payload["cc_build"] == cc_kernels.build_tag()
        assert "cc_build" not in without.payload

    def test_explicit_numpy_key_is_host_independent(self, monkeypatch):
        a = self.plan_with(monkeypatch, True, kernel="numpy").shards[0]
        b = self.plan_with(monkeypatch, False, kernel="numpy").shards[0]
        assert a.key == b.key
        assert "cc_build" not in a.payload

    def test_kernel_axis_splits_shards(self, monkeypatch):
        # One solve runs one kernel: a numpy member fused with cc ones
        # would run cc under a key that says numpy.
        monkeypatch.setattr(kernels, "cc_available", lambda: True)
        plan = compile_plan(spec_with(axes=[("kernel", ["numpy", "auto"]),
                                            ("v_p_override", [0.5, 1.0])]))
        assert [[m["model"]["kernel"] for m in s.payload["members"]]
                for s in plan.shards] == [["numpy", "numpy"], ["cc", "cc"]]

    def test_spec_dicts_keep_the_request(self, monkeypatch):
        plan = self.plan_with(monkeypatch, True)
        assert "kernel" not in plan.spec.model
        assert all("kernel" not in m.model for m in plan.spec.members())

    def test_describe_reports_the_kernel(self, monkeypatch):
        info = self.plan_with(monkeypatch, False).describe()
        assert info["shards"][0]["kernel"] == "numpy"


class TestDescribe:
    def test_describe_shape(self):
        plan = compile_plan(spec_with(), shard_members=2)
        info = plan.describe()
        assert info["members"] == 4
        assert len(info["shards"]) == 2
        assert info["shards"][0]["method"] == "rk4"
        assert "cache" not in info
