"""Tests for communication topologies and the kappa rules."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import (
    Topology,
    all_to_all,
    chain,
    from_edges,
    from_networkx,
    grid2d,
    random_topology,
    ring,
    torus2d,
)
from repro.core.topology import dependency_topology


class TestTopologyValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Topology(matrix=np.zeros((2, 3)))

    def test_rejects_non_binary(self):
        m = np.zeros((3, 3))
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="0 or 1"):
            Topology(matrix=m)

    def test_rejects_self_coupling(self):
        m = np.eye(3)
        with pytest.raises(ValueError, match="diagonal"):
            Topology(matrix=m)


class TestFromEdgeArrays:
    @pytest.mark.parametrize("seed", range(5))
    def test_dedupe_matches_np_unique(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        rows = rng.integers(0, n, 4 * n)
        cols = (rows + rng.integers(1, n, rows.size)) % n   # no self-loops
        rows, cols = np.concatenate([rows, rows[::3]]), np.concatenate(
            [cols, cols[::3]])                              # duplicates
        flat = np.unique(rows * n + cols)
        got_rows, got_cols = Topology.from_edge_arrays(n, rows, cols).edge_list()
        np.testing.assert_array_equal(got_rows, flat // n)
        np.testing.assert_array_equal(got_cols, flat % n)
        assert got_rows.dtype == got_cols.dtype == np.intp

    def test_empty_edge_list(self):
        rows, cols = Topology.from_edge_arrays(3, [], []).edge_list()
        assert rows.size == cols.size == 0


class TestRing:
    def test_next_neighbor_structure(self):
        topo = ring(6, (1, -1))
        assert topo.n == 6
        for i in range(6):
            partners = set(topo.neighbors(i))
            assert partners == {(i + 1) % 6, (i - 1) % 6}

    def test_symmetric_by_default(self):
        assert ring(8, (1, -1, -2)).is_symmetric

    def test_asymmetric_when_requested(self):
        topo = ring(8, (1,), symmetrize=False)
        assert not topo.is_symmetric

    def test_paper_distance_set(self):
        topo = ring(10, (1, -1, -2))
        # Symmetrised: partners at +-1 and +-2.
        assert set(topo.neighbors(5)) == {4, 6, 3, 7}

    def test_wraparound(self):
        topo = ring(5, (2, -2))
        assert set(topo.neighbors(4)) == {1, 2}

    def test_rejects_zero_distance(self):
        with pytest.raises(ValueError, match="distance 0"):
            ring(5, (0, 1))

    def test_rejects_tiny_ring(self):
        with pytest.raises(ValueError, match="two processes"):
            ring(1, (1,))

    def test_connected(self):
        assert ring(12, (1, -1)).is_connected()


class TestChain:
    def test_open_ends_have_fewer_partners(self):
        topo = chain(6, (1, -1))
        assert set(topo.neighbors(0)) == {1}
        assert set(topo.neighbors(5)) == {4}
        assert set(topo.neighbors(3)) == {2, 4}

    def test_not_periodic(self):
        assert chain(6, (1, -1)).periodic is False

    def test_no_wraparound_edges(self):
        topo = chain(6, (2, -2))
        assert 4 not in topo.neighbors(0) or topo.matrix[0, 4] == 0.0
        assert topo.matrix[0, 5] == 0.0


class TestOtherBuilders:
    def test_all_to_all_degree(self):
        topo = all_to_all(7)
        np.testing.assert_array_equal(topo.degree(), np.full(7, 6.0))

    def test_grid2d_interior_degree(self):
        topo = grid2d(4, 4)
        # rank 5 = (1, 1) is interior: 4 neighbours.
        assert len(topo.neighbors(5)) == 4
        # corner 0 has 2.
        assert len(topo.neighbors(0)) == 2

    def test_torus2d_uniform_degree(self):
        topo = torus2d(4, 3)
        assert np.all(topo.degree() == 4)

    def test_torus_2xN_degenerate_wrap(self):
        # On a 2-wide torus +1 and -1 wrap to the same neighbour; the
        # builder must not produce self-loops or double edges.
        topo = torus2d(2, 3)
        assert np.all(np.diag(topo.matrix) == 0)

    def test_random_topology_connected(self, rng):
        topo = random_topology(12, 0.3, rng=rng)
        assert topo.is_connected()

    def test_random_topology_rejects_bad_p(self, rng):
        with pytest.raises(ValueError):
            random_topology(5, 1.5, rng=rng)

    def test_from_edges(self):
        topo = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert topo.is_symmetric
        assert topo.n_edges == 6

    def test_from_edges_rejects_self_edge(self):
        with pytest.raises(ValueError, match="self-edges"):
            from_edges(4, [(1, 1)])

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edges(3, [(0, 7)])

    def test_from_networkx_roundtrip(self):
        nx = pytest.importorskip("networkx")
        g = nx.cycle_graph(6)
        topo = from_networkx(g)
        expected = ring(6, (1, -1))
        np.testing.assert_array_equal(topo.matrix, expected.matrix)


def _same_edges(topo: Topology, other: Topology) -> None:
    assert topo.n == other.n
    for got, want in zip(topo.edge_list(), other.edge_list()):
        np.testing.assert_array_equal(got, want)


class TestNetworkxOracle:
    """The vectorised builders against networkx's own generators."""

    @pytest.fixture(autouse=True)
    def _nx(self):
        self.nx = pytest.importorskip("networkx")

    @pytest.mark.parametrize("n", range(3, 20))
    def test_ring_is_circulant(self, n):
        _same_edges(ring(n, (1, -1, -2)),
                    from_networkx(self.nx.circulant_graph(n, [1, 2])))

    @pytest.mark.parametrize("n", range(2, 20))
    def test_chain_is_path(self, n):
        _same_edges(chain(n), from_networkx(self.nx.path_graph(n)))

    @pytest.mark.parametrize("a, b", [(1, 2), (2, 1), (2, 2), (3, 5),
                                      (5, 3), (1, 7), (8, 8)])
    def test_grid2d_is_grid_graph(self, a, b):
        # networkx nodes (iy, ix) sort to rank iy*a + ix: row-major order.
        _same_edges(grid2d(a, b), from_networkx(self.nx.grid_2d_graph(b, a)))

    @pytest.mark.parametrize("a, b", [(3, 3), (3, 5), (5, 3), (4, 7),
                                      (8, 8)])
    def test_torus2d_is_periodic_grid_graph(self, a, b):
        _same_edges(torus2d(a, b), from_networkx(
            self.nx.grid_2d_graph(b, a, periodic=True)))


class TestConnectivity:
    def test_large_graphs_without_networkx(self, monkeypatch):
        # a None entry makes any ``import networkx`` raise ImportError
        monkeypatch.setitem(sys.modules, "networkx", None)
        half = 50_000
        r = np.arange(half - 1)
        two_chains = Topology.from_edge_arrays(
            2 * half, np.concatenate([r, r + half]),
            np.concatenate([r + 1, r + half + 1]))
        assert not two_chains.is_connected()
        assert ring(100_000).is_connected()
        assert Topology.from_edge_arrays(1, [], []).is_connected()

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_networkx_weak_connectivity(self, seed):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(seed)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            e = int(rng.integers(0, 2 * n))
            rows, cols = rng.integers(0, n, e), rng.integers(0, n, e)
            keep = rows != cols
            rows, cols = rows[keep], cols[keep]
            g = nx.DiGraph()
            g.add_nodes_from(range(n))
            g.add_edges_from(zip(rows.tolist(), cols.tolist()))
            topo = Topology.from_edge_arrays(n, rows, cols)
            assert topo.is_connected() == nx.is_weakly_connected(g)


def test_runtime_imports_without_networkx():
    """numpy is the only runtime dependency: the campaign layer (and the
    core it pulls in) never imports networkx."""
    code = ("import sys, repro.runs; "
            "sys.exit('networkx imported' if 'networkx' in sys.modules else 0)")
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestKappaRules:
    def test_kappa_sum_next_neighbor(self):
        # d = +-1: kappa = |1| + |-1| = 2 (paper Sec. 3.1).
        assert ring(10, (1, -1)).kappa() == 2.0

    def test_kappa_sum_paper_set(self):
        # d = +-1, -2: kappa = 1 + 1 + 2 = 4.
        assert ring(10, (1, -1, -2)).kappa() == 4.0

    def test_kappa_waitall_is_max(self):
        # Grouped MPI_Waitall: kappa = longest distance only.
        assert ring(10, (1, -1, -2)).kappa(waitall_grouped=True) == 2.0
        assert ring(10, (1, -1)).kappa(waitall_grouped=True) == 1.0

    def test_kappa_extracted_from_matrix(self):
        # Topology built without a distance set still yields kappa.
        explicit = ring(10, (1, -1))
        anonymous = Topology(matrix=explicit.matrix)
        assert anonymous.kappa() == explicit.kappa()

    def test_distance_multiset_known(self):
        assert sorted(ring(10, (1, -1, -2)).distance_multiset()) == [-2, -1, 1]


class TestSpectralProperties:
    def test_laplacian_rows_sum_to_zero(self):
        lap = ring(8, (1, -1)).laplacian()
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)

    def test_ring_spectral_gap_formula(self):
        # Ring Laplacian eigenvalues: 2 - 2cos(2*pi*k/n).
        n = 10
        gap = ring(n, (1, -1)).spectral_gap()
        assert gap == pytest.approx(2 - 2 * np.cos(2 * np.pi / n), abs=1e-9)

    def test_all_to_all_gap_is_n(self):
        assert all_to_all(6).spectral_gap() == pytest.approx(6.0)

    def test_more_edges_larger_gap(self):
        assert (ring(12, (1, -1, 2, -2)).spectral_gap()
                > ring(12, (1, -1)).spectral_gap())


class TestDependencyTopology:
    def test_eager_is_directed_for_asymmetric_set(self):
        # Sends d = +1,-1,-2: rank i receives from i-1, i+1, i+2.
        topo = dependency_topology(10, (1, -1, -2))
        assert set(np.flatnonzero(topo.matrix[5])) == {4, 6, 7}
        assert not topo.is_symmetric

    def test_rendezvous_adds_reverse_edges(self):
        topo = dependency_topology(10, (1, -1, -2), rendezvous=True)
        # Senders also block: i depends on i+1, i-1, i-2 as well.
        assert set(np.flatnonzero(topo.matrix[5])) == {3, 4, 6, 7}

    def test_symmetric_set_eager_is_symmetric(self):
        topo = dependency_topology(8, (1, -1))
        assert topo.is_symmetric

    def test_open_chain_variant(self):
        topo = dependency_topology(6, (1,), periodic=False)
        # rank 0 receives from -1: nothing.
        assert len(topo.neighbors(0)) == 0
        assert len(topo.neighbors(3)) == 1


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=4, max_value=24),
       dists=st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]),
                      min_size=1, max_size=4, unique=True))
def test_property_ring_symmetrized_matrix(n, dists):
    """Symmetrised ring matrices are symmetric with zero diagonal and
    their kappa follows the sum/max rules exactly."""
    topo = ring(n, dists)
    assert topo.is_symmetric
    assert np.all(np.diag(topo.matrix) == 0)
    mags = [abs(d) for d in dists]
    assert topo.kappa() == pytest.approx(sum(mags))
    assert topo.kappa(waitall_grouped=True) == pytest.approx(max(mags))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=3, max_value=30))
def test_property_all_to_all_edge_count(n):
    assert all_to_all(n).n_edges == n * (n - 1)
