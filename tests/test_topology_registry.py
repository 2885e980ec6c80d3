"""Tests for the topology-builder registry and the interconnect builders.

Every topology construction — from code or from a spec dict — routes
through one registry (:func:`repro.core.topology.make_topology`), one
builder per kind.  These tests pin:

* structural invariants of the new interconnect builders (fat-tree /
  dragonfly / hypercube);
* registry-wide properties for *every* registered kind (symmetry where
  promised, zero diagonal, degree bounds, kappa rules, and the
  edge-order == dense ``np.nonzero`` contract the batched backends
  rely on);
* the redesign's compatibility promise: spec dicts and content hashes
  for the pre-existing kinds are byte-identical to the pre-registry
  layout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    dragonfly,
    fat_tree,
    hypercube,
    make_topology,
    ring,
    topology_kinds,
    torus2d,
)
from repro.core.topology import TOPOLOGY_REGISTRY, topology_n_from_spec
from repro.runs import ScenarioSpec
from repro.runs.spec import topology_from_spec


class TestHypercube:
    def test_structure(self):
        topo = hypercube(4)
        assert topo.n == 16
        assert topo.name == "hypercube[4]"
        # Rank 0's neighbours are the powers of two.
        assert set(topo.neighbors(0)) == {1, 2, 4, 8}
        assert np.all(topo.degree() == 4)
        assert topo.is_symmetric

    def test_kappa_rules(self):
        # distances (1, 2, ..., 2^(dim-1)): sum = N - 1, max = N / 2.
        topo = hypercube(5)
        assert topo.kappa() == 31.0
        assert topo.kappa(waitall_grouped=True) == 16.0

    def test_connected(self):
        assert hypercube(3).is_connected()

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="dim"):
            hypercube(0)


class TestFatTree:
    def test_structure(self):
        # k = 4: 4 pods x (2 edge + 2 agg) + 4 cores = 20 switches.
        topo = fat_tree(4)
        assert topo.n == 20
        assert topo.name == "fattree[k=4]"
        assert topo.is_symmetric
        deg = topo.degree()
        # Edge switches see h=2 aggs; aggs see h edges + h cores; cores
        # see one agg per pod.
        assert deg.min() == 2.0 and deg.max() == 4.0

    def test_connected(self):
        assert fat_tree(4).is_connected()
        assert fat_tree(6).is_connected()

    def test_rejects_odd_or_tiny_k(self):
        with pytest.raises(ValueError, match="even"):
            fat_tree(3)
        with pytest.raises(ValueError):
            fat_tree(0)


class TestDragonfly:
    def test_structure(self):
        topo = dragonfly(groups=4, routers=4)
        assert topo.n == 16
        assert topo.name == "dragonfly[4x4]"
        assert topo.is_symmetric
        assert topo.is_connected()

    def test_terminals(self):
        topo = dragonfly(groups=4, routers=4, terminals=2)
        assert topo.n == 4 * 4 * 3
        assert topo.name == "dragonfly[4x4+2t]"
        # Terminals are degree-1 leaves on their router.
        assert topo.degree().min() == 1.0
        assert topo.is_connected()

    def test_global_link_count(self):
        # One global link per unordered group pair (h=1): g*(g-1)
        # directed global edges on top of the local cliques.
        g, a = 5, 4
        topo = dragonfly(groups=g, routers=a)
        local = g * a * (a - 1)
        assert topo.n_edges == local + g * (g - 1)

    def test_rejects_undersized_groups(self):
        # g-1 global links per group must fit a*h router slots.
        with pytest.raises(ValueError, match="global"):
            dragonfly(groups=10, routers=2, global_links=1)


#: one valid parameter set per registered kind, used by the
#: registry-wide property tests below
SAMPLE_PARAMS = {
    "ring": {"n": 9, "distances": (1, -1, -2)},
    "chain": {"n": 7, "distances": (1, -1)},
    "all_to_all": {"n": 6},
    "grid2d": {"nx": 3, "ny": 4},
    "torus2d": {"nx": 4, "ny": 3},
    "dependency": {"n": 8, "distances": (1, -1)},
    "hypercube": {"dim": 4},
    "fattree": {"k": 4},
    "dragonfly": {"groups": 4, "routers": 4, "terminals": 1},
}


class TestRegistryWideProperties:
    def test_samples_cover_registry(self):
        assert set(SAMPLE_PARAMS) == set(TOPOLOGY_REGISTRY)

    @pytest.mark.parametrize("kind", sorted(SAMPLE_PARAMS))
    def test_invariants(self, kind):
        topo = make_topology(kind, **SAMPLE_PARAMS[kind])
        m = topo.matrix
        assert np.all(np.diag(m) == 0)
        deg = topo.degree()
        assert deg.max() < topo.n
        assert deg.min() >= 1  # every sample is connected-ish: no orphans
        # Everything registered is symmetric for a symmetric distance
        # set (dependency included: eager with d = +-1 is symmetric).
        assert topo.is_symmetric

    @pytest.mark.parametrize("kind", sorted(SAMPLE_PARAMS))
    def test_edge_order_matches_dense_nonzero(self, kind):
        """The batched backends assume edge_list() enumerates edges in
        dense row-major ``np.nonzero`` order for every builder."""
        topo = make_topology(kind, **SAMPLE_PARAMS[kind])
        rows, cols = topo.edge_list()
        exp_r, exp_c = np.nonzero(topo.matrix)
        np.testing.assert_array_equal(rows, exp_r)
        np.testing.assert_array_equal(cols, exp_c)

    @pytest.mark.parametrize("kind", sorted(SAMPLE_PARAMS))
    def test_kappa_rules(self, kind):
        topo = make_topology(kind, **SAMPLE_PARAMS[kind])
        if not topo.distances:
            pytest.skip(f"{kind} carries no declared distance set")
        mags = [abs(d) for d in topo.distances]
        assert topo.kappa() == pytest.approx(sum(mags))
        assert topo.kappa(waitall_grouped=True) == pytest.approx(max(mags))

    @pytest.mark.parametrize("kind", sorted(SAMPLE_PARAMS))
    def test_topology_n_from_spec(self, kind):
        spec = {"kind": kind, **SAMPLE_PARAMS[kind]}
        built = make_topology(kind, **SAMPLE_PARAMS[kind])
        assert topology_n_from_spec(spec) == built.n

    def test_topology_kinds_introspection(self):
        info = topology_kinds()
        assert set(info) == set(TOPOLOGY_REGISTRY)
        for kind, row in info.items():
            # params is a list of names (not the signature string — that
            # lives under "signature"); consumers ', '.join() it.
            assert isinstance(row["params"], list) and row["params"], kind
            assert all(p.isidentifier() for p in row["params"]), kind
            assert row["signature"].startswith(f"{kind}("), kind
            assert row["n"] and row["kappa"], kind


class TestMakeTopologyAPI:
    def test_auto_backing_threshold(self):
        """No size switch: even a small topology holds only its edge
        list until ``.matrix`` is read, which densifies once and caches."""
        topo = make_topology("ring", n=12, distances=(1, -1))
        assert topo._matrix is None
        m = topo.matrix
        assert topo._matrix is m
        assert topo.matrix is m

    def test_alias_forces_edges(self):
        """The retired ``ring_edges`` spec kind is a plain alias of ``ring``."""
        alias = make_topology("ring_edges", n=16)
        ref = ring(16)
        for got, want in zip(alias.edge_list(), ref.edge_list()):
            np.testing.assert_array_equal(got, want)
        assert (alias.name, alias.distances, alias.periodic) == (
            ref.name, ref.distances, ref.periodic)
        torus = make_topology("torus2d_edges", nx=3, ny=4)
        np.testing.assert_array_equal(torus.matrix, torus2d(3, 4).matrix)

    def test_unknown_kind_lists_registry(self):
        with pytest.raises(ValueError) as err:
            make_topology("moebius", n=8)
        msg = str(err.value)
        assert "unknown topology kind 'moebius'" in msg
        for kind in TOPOLOGY_REGISTRY:
            assert kind in msg
        # Introspected signatures ride along.
        assert "ring(n, distances=(1, -1), symmetrize=True)" in msg

    def test_unknown_param_named(self):
        with pytest.raises(ValueError, match="unknown key"):
            make_topology("ring", n=8, distnaces=(1, -1))

    def test_missing_param_named(self):
        with pytest.raises(ValueError, match="missing required key"):
            make_topology("fattree")

    def test_bad_backing_rejected(self):
        """``backing`` is no longer a knob: it is an unknown builder key."""
        with pytest.raises(ValueError, match="unknown key"):
            make_topology("ring", n=8, backing="dense")

    def test_unknown_n_from_spec_raises(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            topology_n_from_spec({"kind": "moebius", "n": 8})


class TestSpecDispatch:
    @pytest.mark.parametrize("spec, n", [
        ({"kind": "ring", "n": 10, "distances": [1, -1]}, 10),
        ({"kind": "torus2d", "nx": 4, "ny": 4}, 16),
        ({"kind": "hypercube", "dim": 3}, 8),
        ({"kind": "fattree", "k": 4}, 20),
        ({"kind": "dragonfly", "groups": 4, "routers": 4}, 16),
    ])
    def test_round_trip(self, spec, n):
        topo = topology_from_spec(spec)
        assert topo.n == n
        assert topo.n == topology_n_from_spec(spec)


#: content hashes recorded before the registry redesign — the API
#: collapse must never move a pre-existing spec's identity (cache keys,
#: queue manifests, and service campaign ids all hang off these)
_PINNED_HASHES = {
    "torus": "55007cf89524083701212d6cbe609d0c"
             "c003bebcf16ecb65092b3f5425904a75",
    "ring_edges": "afe6b3781dd025f1a9eec4577c18ae85"
                  "b9fa782ea729f2e3c989598ca79d0280",
    "dependency": "ca29efe643105fab7f66700f081658b9"
                  "0d316fd28949409770275c8a6f5f9d66",
}


def _pin_spec(topology: dict, name: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        model={"topology": topology, "potential": {"kind": "tanh"},
               "t_comp": 0.9, "t_comm": 0.1},
        t_end=50.0,
        solver={"method": "rk4", "dt": 0.05},
        axes=[("seed", [0, 1])],
    )


class TestSpecHashStability:
    def test_registry_campaign_hashes_unchanged(self):
        from repro.experiments.sweeps import beta_kappa_spec, sigma_spec

        assert beta_kappa_spec().content_hash() == (
            "13bbad698c9fb5fcb668fb8cd52afc91"
            "09ca7dce4613f02ee5770e540f57a3a2")
        assert sigma_spec().content_hash() == (
            "ffa913d21fac7d5dc3c4d61cc46cc0ff"
            "52198f1c6929ccd298cd6557caad52ff")

    def test_legacy_topology_kinds_unchanged(self):
        specs = {
            "torus": _pin_spec({"kind": "torus2d", "nx": 4, "ny": 3},
                               "pin-torus"),
            "ring_edges": _pin_spec({"kind": "ring_edges", "n": 64,
                                     "distances": [1, -1]},
                                    "pin-ring-edges"),
            "dependency": _pin_spec({"kind": "dependency", "n": 10,
                                     "distances": [1, -1, -2]},
                                    "pin-dependency"),
        }
        for key, spec in specs.items():
            assert spec.content_hash() == _PINNED_HASHES[key], key
            spec.validate()  # the dicts still build through the registry


class TestNewSpecFactories:
    @pytest.mark.parametrize("name, members", [("fig2", 6), ("supermuc", 4)])
    def test_registered_and_planable(self, name, members):
        from repro.experiments.registry import REGISTRY
        from repro.runs import compile_plan

        exp = REGISTRY[name]
        assert exp.spec_factory is not None
        spec = exp.spec_factory(**exp.quick_kwargs)
        spec.validate()
        assert len(spec.members()) == members
        assert compile_plan(spec).n_members == members


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(min_value=1, max_value=7))
def test_property_hypercube(dim):
    topo = hypercube(dim)
    n = 2 ** dim
    assert topo.n == n
    assert topo.n_edges == n * dim
    assert topo.kappa() == float(n - 1)
    assert topo.kappa(waitall_grouped=True) == float(n // 2) or dim == 0


@settings(max_examples=15, deadline=None)
@given(k=st.sampled_from([2, 4, 6, 8]))
def test_property_fat_tree(k):
    topo = fat_tree(k)
    h = k // 2
    assert topo.n == k * k + h * h
    # Directed edge count: k pods x h*h edge-agg pairs plus h*h
    # agg-core pairs per pod, both directions: 4*k*h^2.
    assert topo.n_edges == 4 * k * h * h
    assert topo.is_symmetric


@settings(max_examples=15, deadline=None)
@given(g=st.integers(min_value=2, max_value=6),
       a=st.integers(min_value=2, max_value=6),
       t=st.integers(min_value=0, max_value=2))
def test_property_dragonfly(g, a, t):
    if g - 1 > a:  # single global link per router in these samples
        return
    topo = dragonfly(groups=g, routers=a, terminals=t)
    assert topo.n == g * a * (1 + t)
    assert topo.is_symmetric
    assert topo.is_connected()
