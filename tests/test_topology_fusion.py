"""Topology-axis batching: planner fusion + mixed-topology bit-identity.

PR 10's tentpole claim: a machine-design sweep (one axis ranging over
same-N candidate interconnects) fuses into one stacked solve that is
**bit-for-bit identical** to the per-topology-group shards — across
kernels, worker counts, and the fault-injected queue path.
"""

import numpy as np
import pytest

from repro import kernels
from repro.backends.hetero import HeteroBatchedBackend
from repro.runs import ScenarioSpec, compile_plan, run_plan, run_spec

needs_cc = pytest.mark.skipif(not kernels.cc_available(),
                              reason="no C compiler")

#: four same-N machine candidates (N = 16), incl. two real interconnects
TOPOLOGIES_N16 = [
    {"kind": "ring", "n": 16, "distances": [1, -1]},
    {"kind": "torus2d", "nx": 4, "ny": 4},
    {"kind": "hypercube", "dim": 4},
    {"kind": "dragonfly", "groups": 4, "routers": 4},
]

#: an N=16 ring whose five-term row sums depend on the accumulation
#: order (two-term sums commute, so the ring above cannot catch it)
WIDE_RING_N16 = {"kind": "ring", "n": 16, "distances": [1, -1, 2, -2, 5]}


def topo_axis_spec(*, method="rk4", dt=0.05, t_end=12.0, seeds=(0, 1),
                   topologies=None, name="machine-design",
                   trajectories="none",
                   metrics=("order_parameter", "phase_spread")):
    return ScenarioSpec(
        name=name,
        model={
            "topology": dict(TOPOLOGIES_N16[0]),
            "potential": {"kind": "bottleneck", "sigma": 1.5},
            "t_comp": 0.9,
            "t_comm": 0.1,
        },
        t_end=t_end,
        solver=({"method": method, "dt": dt} if dt is not None
                else {"method": method}),
        initial={"kind": "normal", "std": 1e-3, "seed": 7},
        axes=[
            ("topology", [dict(t) for t in
                          (topologies or TOPOLOGIES_N16)]),
            ("seed", list(seeds)),
        ],
        metrics=list(metrics),
        trajectories=trajectories,
    )


class TestPlannerFusion:
    def test_same_n_fixed_step_fuses_into_one_shard(self):
        plan = compile_plan(topo_axis_spec())
        assert plan.n_shards == 1
        assert plan.shards[0].n_members == 8
        assert plan.shards[0].member_indices == list(range(8))
        row = plan.describe()["shards"][0]
        assert row["topologies"] == 4

    def test_opt_out_restores_per_group_shards(self):
        plan = compile_plan(topo_axis_spec(), fuse_topologies=False)
        assert plan.n_shards == 4
        for row in plan.describe()["shards"]:
            assert row["topologies"] == 1

    def test_adaptive_defaults_to_per_group(self):
        plan = compile_plan(topo_axis_spec(method="dopri", dt=None))
        assert plan.n_shards == 4

    def test_adaptive_fuse_opt_in_raises(self):
        with pytest.raises(ValueError, match="fixed-step"):
            compile_plan(topo_axis_spec(method="dopri", dt=None),
                         fuse_topologies=True)

    def test_no_explicit_dt_stays_per_group(self):
        # Without solver["dt"] each topology group resolves its own
        # kappa-dependent default dt; dt sits inside the merge key, so
        # the groups (correctly) refuse to fuse.
        plan = compile_plan(topo_axis_spec(dt=None))
        assert plan.n_shards > 1
        dts = {s.payload["solver"]["dt"] for s in plan.shards}
        assert len(dts) > 1

    def test_mixed_n_never_merges(self):
        spec = topo_axis_spec(topologies=[
            {"kind": "ring", "n": 8, "distances": [1, -1]},
            {"kind": "hypercube", "dim": 3},   # N = 8 — merges with ring
            {"kind": "ring", "n": 12, "distances": [1, -1]},
        ])
        plan = compile_plan(spec)
        assert plan.n_shards == 2
        sizes = sorted(s.n_members for s in plan.shards)
        assert sizes == [2, 4]

    def test_single_topology_plan_is_unchanged(self):
        # No topology axis -> stage 3 is a no-op: payloads and cache
        # keys must be identical with fusion on, off, or auto (no cache
        # churn for every pre-existing campaign).
        spec = topo_axis_spec(topologies=[TOPOLOGIES_N16[0]])
        keys = [tuple(s.key for s in compile_plan(spec, fuse_topologies=f)
                      .shards) for f in (None, False, True)]
        assert keys[0] == keys[1] == keys[2]


def _members_equal(a, b):
    for ma, mb in zip(a.members, b.members):
        assert ma.member.index == mb.member.index
        for name in ma.metrics:
            np.testing.assert_array_equal(ma.metrics[name],
                                          mb.metrics[name])
        np.testing.assert_array_equal(ma.metrics_ts, mb.metrics_ts)


class TestFusedBitIdentity:
    def test_fused_equals_per_group(self):
        # energy evaluates each member on its own edge list
        spec = topo_axis_spec(
            metrics=("order_parameter", "phase_spread", "energy"))
        fused = run_spec(spec)
        grouped = run_spec(spec, fuse_topologies=False)
        _members_equal(fused, grouped)
        assert fused.npz_bytes() == grouped.npz_bytes()

    def test_jobs_do_not_change_bits(self):
        spec = topo_axis_spec()
        fused = run_spec(spec, jobs=1)
        multi = run_spec(spec, jobs=2, shard_members=4)
        grouped = run_spec(spec, jobs=2, fuse_topologies=False)
        assert fused.npz_bytes() == multi.npz_bytes()
        assert fused.npz_bytes() == grouped.npz_bytes()

    def test_queue_with_faults_matches_inline(self, tmp_path, monkeypatch):
        spec = topo_axis_spec(name="machine-design-chaos")
        monkeypatch.setenv("POM_FAULTS", "kill:shard=1,times=1")
        monkeypatch.setenv("POM_FAULTS_STATE", str(tmp_path / "faults"))
        res = run_spec(spec, jobs=2, shard_members=2,
                       queue=tmp_path / "q.db",
                       lease_ttl=1.0, backoff=0.05)
        monkeypatch.delenv("POM_FAULTS")
        monkeypatch.delenv("POM_FAULTS_STATE")
        ref = run_spec(spec, jobs=1, fuse_topologies=False)
        assert res.queue["retried"].get(1, 0) >= 1
        _members_equal(ref, res)

    def test_full_trajectories_identical(self):
        spec = topo_axis_spec(trajectories="full", metrics=(),
                              t_end=6.0, seeds=(0,))
        fused = run_plan(compile_plan(spec))
        grouped = run_plan(compile_plan(spec, fuse_topologies=False))
        for a, b in zip(fused.members, grouped.members):
            np.testing.assert_array_equal(a.ts, b.ts)
            np.testing.assert_array_equal(a.thetas, b.thetas)


def _mixed_members(topologies=TOPOLOGIES_N16, potentials=None):
    """Realized members over an N=16 candidate set, one per topology."""
    from repro.runs.spec import MemberSpec

    members = []
    for i, topo in enumerate(topologies):
        pot = (potentials[i % len(potentials)] if potentials
               else {"kind": "bottleneck", "sigma": 1.5})
        m = MemberSpec(index=i, model={
            "topology": dict(topo), "potential": dict(pot),
            "t_comp": 0.9, "t_comm": 0.1,
        }, seed=i, t_end=10.0, initial=None, params={})
        members.append(m.build_model().realize(10.0, rng=i))
    return members


class TestMixedBackendKernels:
    @pytest.mark.parametrize(
        "kernel", ["numpy", pytest.param("cc", marks=needs_cc)])
    def test_stacked_matches_per_member(self, kernel):
        rng = np.random.default_rng(3)
        for topologies in (TOPOLOGIES_N16, TOPOLOGIES_N16 + [WIDE_RING_N16]):
            members = _mixed_members(topologies)
            theta = rng.normal(0.0, 0.5, size=(len(members), 16))
            for threads in (1, 2):
                backend = HeteroBatchedBackend(members, kernel=kernel,
                                               threads=threads)
                assert backend.describe()["mixed_topologies"]
                out = backend.coupling(0.0, theta, None)
                for r, m in enumerate(members):
                    single = HeteroBatchedBackend([m], kernel=kernel,
                                                  threads=threads)
                    ref = single.coupling(0.0, theta[r][None, :], None)[0]
                    np.testing.assert_array_equal(
                        out[r], ref,
                        err_msg=f"{kernel} threads={threads} row {r}")

    @needs_cc
    def test_compiled_interleaved_groups_match_per_group(self):
        import warnings

        members = _mixed_members() + _mixed_members()  # repeated groups
        rng = np.random.default_rng(5)
        theta = rng.normal(0.0, 0.5, size=(len(members), 16))
        for threads in (1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                backend = HeteroBatchedBackend(members, kernel="cc",
                                               threads=threads)
                out = backend.coupling(0.0, theta, None)
            # Bit-identical to one compiled backend per topology group
            # (the groups interleave: rows g and g + 4 share a topology).
            for g in range(len(TOPOLOGIES_N16)):
                idx = [g, g + len(TOPOLOGIES_N16)]
                group = HeteroBatchedBackend([members[i] for i in idx],
                                             kernel="cc", threads=threads)
                ref = group.coupling(0.0, theta[idx], None)
                np.testing.assert_array_equal(out[idx], ref)

    def test_subset_of_mixed_batch(self):
        members = _mixed_members()
        backend = HeteroBatchedBackend(members, kernel="numpy")
        sub = backend.subset([1, 3])
        rng = np.random.default_rng(6)
        theta = rng.normal(0.0, 0.5, size=(4, 16))
        full = backend.coupling(0.0, theta, None)
        part = sub.coupling(0.0, theta[[1, 3]], None)
        np.testing.assert_array_equal(full[[1, 3]], part)
