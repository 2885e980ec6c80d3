"""Tests for the declarative scenario specs (repro.runs.spec)."""

import numpy as np
import pytest

from repro.core import (
    BottleneckPotential,
    GaussianJitter,
    NoNoise,
    ring,
    torus2d,
)
from repro.runs import ScenarioSpec, model_from_spec, topology_from_spec
from repro.runs.spec import (
    initial_from_spec,
    interaction_noise_from_spec,
    local_noise_from_spec,
)


def base_spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        name="test",
        model={
            "topology": {"kind": "ring", "n": 8, "distances": [1, -1]},
            "potential": {"kind": "bottleneck", "sigma": 1.0},
            "t_comp": 0.9,
            "t_comm": 0.1,
        },
        t_end=10.0,
        axes=[("potential.sigma", [0.5, 1.0]), ("seed", [0, 1, 2])],
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestBuilders:
    def test_ring_matches_core_builder(self):
        topo = topology_from_spec({"kind": "ring", "n": 10,
                                   "distances": [1, -1, -2]})
        ref = ring(10, (1, -1, -2))
        np.testing.assert_array_equal(topo.matrix, ref.matrix)
        assert topo.name == ref.name

    def test_torus_and_edge_backed(self):
        t1 = topology_from_spec({"kind": "torus2d", "nx": 4, "ny": 3})
        np.testing.assert_array_equal(t1.matrix, torus2d(4, 3).matrix)
        t2 = topology_from_spec({"kind": "ring_edges", "n": 30})
        np.testing.assert_array_equal(t2.matrix, ring(30).matrix)

    def test_unknown_topology_kind(self):
        with pytest.raises(ValueError, match="unknown topology kind") as err:
            topology_from_spec({"kind": "moebius", "n": 8})
        # the redesigned error enumerates the registry with params
        assert "ring(n, distances=(1, -1), symmetrize=True)" in str(err.value)
        assert "dragonfly(" in str(err.value)

    def test_registered_kind_with_wrong_params_names_them(self):
        with pytest.raises(ValueError, match="missing required key"):
            topology_from_spec({"kind": "hypercube"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            topology_from_spec({"kind": "ring", "n": 8, "distnaces": [1]})

    def test_noise_builders(self):
        assert isinstance(local_noise_from_spec(None), NoNoise)
        g = local_noise_from_spec({"kind": "gaussian", "std": 0.02})
        assert isinstance(g, GaussianJitter) and g.std == 0.02
        tau = interaction_noise_from_spec({"kind": "constant", "tau": 0.01})
        assert tau.tau == 0.01

    def test_model_from_spec_full(self):
        model = model_from_spec({
            "topology": {"kind": "ring", "n": 6},
            "potential": {"kind": "bottleneck", "sigma": 2.0},
            "t_comp": 0.8,
            "t_comm": 0.2,
            "coupling": {"protocol": "rendezvous", "wait_mode": "waitall"},
            "local_noise": {"kind": "gaussian", "std": 0.01},
            "delays": [{"rank": 2, "t_start": 5.0, "delay": 1.0}],
            "v_p_override": 3.0,
            "kernel": "numpy",
        })
        assert isinstance(model.potential, BottleneckPotential)
        assert model.potential.sigma == 2.0
        assert model.v_p == 3.0
        assert model.coupling.beta == 2.0
        assert model.delays[0].rank == 2
        assert model.kernel == "numpy"

    def test_model_unknown_key(self):
        with pytest.raises(ValueError, match="unknown model key"):
            model_from_spec({"topology": {"kind": "ring", "n": 6},
                             "t_comp": 1.0, "t_comm": 0.1,
                             "potental": {"kind": "tanh"}})

    def test_model_backend_key_rejected(self):
        # Every solve runs the edge-list coupling; the backend knob and
        # its spec key are gone.
        with pytest.raises(ValueError, match=r"unknown model key.*backend"):
            model_from_spec({"topology": {"kind": "ring", "n": 6},
                             "t_comp": 1.0, "t_comm": 0.1,
                             "backend": "dense"})

    def test_initial_kinds(self):
        assert np.all(initial_from_spec(None, 5) == 0.0)
        p = initial_from_spec({"kind": "perturbed", "rank": 2,
                               "offset": -0.5}, 5)
        assert p[2] == -0.5 and p[0] == 0.0
        s = initial_from_spec({"kind": "splayed", "gap": 0.4}, 4)
        np.testing.assert_allclose(s, [0.0, 0.4, 0.8, 1.2])
        # the normal kind reproduces the sweep_sigma convention exactly
        n = initial_from_spec({"kind": "normal", "std": 1e-3, "seed": 7}, 16)
        ref = np.random.default_rng(7).normal(0.0, 1e-3, size=16)
        np.testing.assert_array_equal(n, ref)

    def test_initial_is_deterministic(self):
        a = initial_from_spec({"kind": "random", "seed": 3}, 10)
        b = initial_from_spec({"kind": "random", "seed": 3}, 10)
        np.testing.assert_array_equal(a, b)


class TestExpansion:
    def test_member_count_and_order(self):
        spec = base_spec()
        members = spec.members()
        assert len(members) == spec.n_members == 6
        # row-major: last axis (seed) fastest
        assert [m.seed for m in members] == [0, 1, 2, 0, 1, 2]
        sigmas = [m.model["potential"]["sigma"] for m in members]
        assert sigmas == [0.5, 0.5, 0.5, 1.0, 1.0, 1.0]

    def test_axis_does_not_leak_into_base(self):
        spec = base_spec()
        spec.members()
        assert spec.model["potential"]["sigma"] == 1.0

    def test_no_axes_single_member(self):
        spec = base_spec(axes=[])
        members = spec.members()
        assert len(members) == 1
        assert members[0].seed == 0

    def test_t_end_axis(self):
        spec = base_spec(axes=[("t_end", [5.0, 10.0])])
        assert [m.t_end for m in spec.members()] == [5.0, 10.0]

    def test_dotted_path_creates_nested(self):
        spec = base_spec(axes=[("local_noise.std", [0.01, 0.02])])
        members = spec.members()
        assert members[1].model["local_noise"]["std"] == 0.02

    def test_member_builds_model(self):
        spec = base_spec()
        m = spec.members()[0]
        model = m.build_model()
        assert model.potential.sigma == 0.5
        assert m.build_theta0(model.n).shape == (model.n,)

    def test_member_roundtrip(self):
        from repro.runs import MemberSpec

        m = base_spec().members()[3]
        again = MemberSpec.from_dict(m.to_dict())
        assert again == m

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            base_spec(axes=[("potential.sigma", [])])

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError, match="unknown solver method"):
            base_spec(solver={"method": "leapfrog"})

    def test_solver_key_typo_rejected(self):
        with pytest.raises(ValueError, match="unknown solver key"):
            base_spec(solver={"method": "rk4", "rtol_": 1e-3})

    def test_numpy_axis_values_are_coerced(self):
        # sweeps hand in ndarrays; the spec must stay JSON-serialisable
        spec = base_spec(axes=[("potential.sigma", np.linspace(0.5, 2, 4)),
                               ("seed", np.arange(3))],
                         seed=np.int64(0), t_end=np.float64(10.0))
        assert len(spec.content_hash()) == 64
        assert all(type(v) is float for v in spec.axes[0][1])
        assert all(type(v) is int for v in spec.axes[1][1])

    def test_validate_catches_model_typos(self):
        spec = base_spec()
        spec.model["potential"] = {"kind": "bottelneck", "sigma": 1.0}
        with pytest.raises(ValueError):
            spec.validate()

    @pytest.mark.parametrize("channel,noise", [
        ("local_noise", {"kind": "gaussian", "std": 0.01, "refresh": 0.0}),
        ("interaction_noise", {"kind": "random", "hi": 0.1, "refresh": 0.0}),
        ("interaction_noise", {"kind": "random", "hi": 0.1, "refresh": -1.0}),
    ])
    def test_validate_rejects_non_positive_refresh(self, channel, noise):
        spec = base_spec()
        spec.model[channel] = noise
        with pytest.raises(ValueError, match="refresh"):
            spec.validate()

    @pytest.mark.parametrize("axis,error", [
        (("local_noise", [{"kind": "none"},
                          {"kind": "gaussian", "stdev": 0.1}]), ValueError),
        (("potential", [{"kind": "tanh"}, {"kind": "tanh", "sigma": 1}]),
         TypeError),
    ])
    def test_validate_builds_every_axis_value(self, axis, error):
        # Member 0 builds; the bad value sits later on the axis.
        spec = base_spec(solver={"method": "rk4", "dt": 0.01},
                         axes=[("seed", [0, 1]), axis])
        next(spec.iter_members()).build_model()
        with pytest.raises(error):
            spec.validate()

    def test_validate_builds_once_per_axis_value(self, monkeypatch):
        from repro.runs import spec as spec_mod

        calls = []
        real = spec_mod.model_from_spec

        def counting(d):
            calls.append(d)
            return real(d)

        monkeypatch.setattr(spec_mod, "model_from_spec", counting)
        spec = base_spec(axes=[("potential.sigma", [0.5, 1.0, 1.5]),
                               ("t_comp", [0.8, 0.9]),
                               ("seed", list(range(50)))])
        spec.validate()
        # member 0, then one build per further value of each model axis
        assert len(calls) == 1 + 2 + 1
        assert [c["potential"]["sigma"] for c in calls] == [0.5, 1.0, 1.5,
                                                           0.5]
        assert [c["t_comp"] for c in calls] == [0.8, 0.8, 0.8, 0.9]


class TestSerialisation:
    def test_json_roundtrip(self, tmp_path):
        spec = base_spec(initial={"kind": "normal", "std": 1e-3, "seed": 0},
                         solver={"method": "rk4", "dt": 0.002})
        path = tmp_path / "spec.json"
        spec.to_json(path)
        again = ScenarioSpec.from_json(path)
        assert again == spec
        assert again.content_hash() == spec.content_hash()

    def test_from_json_string(self):
        spec = base_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_hash_changes_with_content(self):
        assert base_spec().content_hash() != \
            base_spec(t_end=11.0).content_hash()
        assert base_spec().content_hash() != \
            base_spec(seed=1).content_hash()

    def test_hash_stable_across_processes(self):
        # sha256 of canonical JSON: no dict-order or repr dependence
        a = base_spec().content_hash()
        b = ScenarioSpec.from_dict(base_spec().to_dict()).content_hash()
        assert a == b and len(a) == 64

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown spec key"):
            ScenarioSpec.from_dict({"name": "x", "model": {}, "t_end": 1.0,
                                    "axis": []})


class TestTopologyMemo:
    def test_run_plan_builds_the_ring_once(self, monkeypatch):
        """Members, planner and result views share one memoised build."""
        import dataclasses
        import functools

        from repro.core import topology as topology_module
        from repro.runs import compile_plan, run_plan
        from repro.runs.spec import _topology_from_json

        entry = topology_module.TOPOLOGY_REGISTRY["ring"]
        calls = []

        @functools.wraps(entry.build)
        def counting_ring(*args, **kwargs):
            calls.append(kwargs)
            return entry.build(*args, **kwargs)

        monkeypatch.setitem(topology_module.TOPOLOGY_REGISTRY, "ring",
                            dataclasses.replace(entry, build=counting_ring))
        _topology_from_json.cache_clear()
        try:
            spec = base_spec(axes=[("seed", list(range(8)))], t_end=2.0,
                             solver={"method": "rk4"})
            result = run_plan(compile_plan(spec))
            result.summary_table()
            for m in result.members:
                m.trajectory()
        finally:
            _topology_from_json.cache_clear()
        assert len(result.members) == 8
        assert len(calls) == 1
