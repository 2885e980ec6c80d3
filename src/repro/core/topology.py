"""Communication-topology matrices for the oscillator model.

The topology matrix ``T`` of Eq. (2) encodes which processes exchange
messages: ``T[i, j] = 1`` iff process *i* has a communication dependency
on process *j*.  For the bulk-synchronous point-to-point codes of the
paper, the topology derives from a *distance set* ``d``: process *i*
communicates with ``i + d_k`` for each ``d_k`` in the set (e.g. the
paper's ``d = ±1`` nearest-neighbour halo exchange and ``d = ±1, -2``).

Because an ``MPI_Send``/``MPI_Irecv`` pair makes *both* endpoints wait on
each other (the sender cannot complete a rendezvous send before the
receive is posted, the receiver cannot proceed before the data arrived),
the induced oscillator coupling is symmetrised by default: if *i* talks
to *j* then ``T[i,j] = T[j,i] = 1``.  Directed topologies remain
available for asymmetric-dependency studies.

The module also computes the paper's coupling parameter kappa: the sum
over communication distances, or the *longest* distance only when all
outstanding requests are grouped in a single ``MPI_Waitall`` (Sec. 3.1,
after ref. [4]).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Topology",
    "ring",
    "chain",
    "all_to_all",
    "grid2d",
    "torus2d",
    "fat_tree",
    "dragonfly",
    "hypercube",
    "random_topology",
    "from_edges",
    "from_networkx",
    "dependency_topology",
    "TopologyKind",
    "register_topology",
    "topology_kinds",
    "make_topology",
    "topology_n_from_spec",
]

#: dense materialisations above this many matrix entries raise instead of
#: silently allocating tens of gigabytes (N = 1e5 would need 80 GB)
_DENSE_LIMIT_ENTRIES = 100_000_000


class Topology:
    """A named 0/1 coupling structure plus the metadata the model needs.

    Every topology is its directed edge list: row-major ``(rows, cols)``
    index arrays, the order a dense ``np.nonzero`` would produce.  The
    builders emit those arrays directly (:meth:`from_edge_arrays`), so
    N >= 1e5 topologies cost O(E) memory; the constructor still accepts
    a dense 0/1 matrix for callers that hold one.  The ``matrix``
    property densifies on demand (cached) and refuses above ``~1e8``
    entries rather than allocating tens of gigabytes.

    Attributes
    ----------
    matrix:
        ``(N, N)`` array of 0/1 floats with zero diagonal (densified on
        first access).
    distances:
        The distance multiset the topology was generated from (empty for
        generic graphs); used for the kappa rules.
    name:
        Identifier for reports.
    periodic:
        Whether rank indices wrap around (ring vs. open chain).
    """

    def __init__(self, matrix: np.ndarray, distances: Iterable[int] = (),
                 name: str = "custom", periodic: bool = True) -> None:
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"topology matrix must be square, got {m.shape}")
        if not np.isin(m, (0.0, 1.0)).all():
            raise ValueError("topology matrix entries must be 0 or 1")
        if np.any(np.diag(m) != 0):
            raise ValueError("topology matrix must have a zero diagonal "
                             "(no self-coupling)")
        rows, cols = np.nonzero(m)
        self._init(m.shape[0], rows, cols, distances, name, periodic)

    def _init(self, n: int, rows: np.ndarray, cols: np.ndarray,
              distances: Iterable[int], name: str, periodic: bool) -> None:
        rows.setflags(write=False)
        cols.setflags(write=False)
        self._n = int(n)
        self._edges = (rows, cols)
        self._matrix: np.ndarray | None = None
        self._csr_cache: tuple[np.ndarray, np.ndarray] | None = None
        self.distances = tuple(int(d) for d in distances)
        self.name = str(name)
        self.periodic = bool(periodic)

    @classmethod
    def from_edge_arrays(cls, n: int, rows: np.ndarray, cols: np.ndarray, *,
                         distances: Iterable[int] = (), name: str = "custom",
                         periodic: bool = True) -> "Topology":
        """Build a topology from directed-edge endpoint arrays.

        ``rows``/``cols`` are validated, deduplicated, and sorted
        row-major so the kernels see the exact edge order a dense
        ``np.nonzero`` would produce.
        """
        n = int(n)
        if n < 1:
            raise ValueError("need at least one process")
        rows = np.asarray(rows, dtype=np.intp).ravel()
        cols = np.asarray(cols, dtype=np.intp).ravel()
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= n
                          or cols.min() < 0 or cols.max() >= n):
            raise ValueError(f"edge endpoints out of range for n={n}")
        if np.any(rows == cols):
            raise ValueError("topology matrix must have a zero diagonal "
                             "(no self-coupling)")
        # Row-major sort, then keep the first of each run of equal keys:
        # np.unique's result, without its (slower) hash path.
        flat = np.sort(rows * n + cols)
        keep = np.ones(flat.size, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=keep[1:])
        flat = flat[keep]
        topo = cls.__new__(cls)
        topo._init(n, flat // n, flat % n, distances, name, periodic)
        return topo

    def __repr__(self) -> str:
        return (f"Topology(name={self.name!r}, n={self.n}, "
                f"n_edges={self.n_edges})")

    # ------------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """The dense ``(N, N)`` coupling matrix (densified once, cached)."""
        if self._matrix is None:
            n = self._n
            if n * n > _DENSE_LIMIT_ENTRIES:
                raise MemoryError(
                    f"refusing to densify {self.name!r} (N={n}: the matrix "
                    f"would hold {n * n:.2e} entries); use the edge-native "
                    "consumers (edge_list/csr) at this scale"
                )
            m = np.zeros((n, n))
            m[self._edges] = 1.0
            self._matrix = m
        return self._matrix

    @property
    def n(self) -> int:
        """Number of oscillators/processes."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of directed couplings (nonzero entries)."""
        return int(self.edge_list()[0].size)

    @property
    def is_symmetric(self) -> bool:
        """True if coupling is bidirectional everywhere."""
        rows, cols = self.edge_list()
        fwd = rows * self.n + cols
        rev = np.sort(cols * self.n + rows)
        return bool(np.array_equal(fwd, rev))

    @property
    def density(self) -> float:
        """Edge fraction ``E / N^2``."""
        n = self.n
        return float(self.n_edges) / float(n * n) if n else 0.0

    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """Directed edges as ``(rows, cols)`` index arrays.

        Row-major order (sorted by row, then column), which makes the
        edge-list backend's segment sums accumulate contributions in the
        same order as the dense row sum.  The arrays are read-only views
        shared by every compiled backend — do not mutate them.
        """
        return self._edges

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR view ``(indptr, indices)`` of the coupling matrix (cached).

        ``indices[indptr[i]:indptr[i+1]]`` are the partners of oscillator
        ``i`` — the compressed form of :meth:`neighbors` for kernels that
        iterate rows.
        """
        if self._csr_cache is None:
            rows, cols = self.edge_list()
            counts = np.bincount(rows, minlength=self.n)
            indptr = np.concatenate(([0], np.cumsum(counts)))
            indptr.setflags(write=False)
            self._csr_cache = (indptr, cols)
        return self._csr_cache

    def degree(self) -> np.ndarray:
        """Out-degree (number of partners) of each oscillator."""
        rows, _ = self.edge_list()
        return np.bincount(rows, minlength=self.n).astype(float)

    def neighbors(self, i: int) -> np.ndarray:
        """Indices of the partners of oscillator ``i``."""
        indptr, indices = self.csr()
        return indices[indptr[i]:indptr[i + 1]]

    # ------------------------------------------------------------------
    # kappa rules (paper Sec. 3.1)
    # ------------------------------------------------------------------
    def kappa(self, waitall_grouped: bool = False) -> float:
        """Coupling distance parameter kappa.

        ``kappa`` is the sum over all communication distances; if the
        outstanding non-blocking requests of all partners are grouped in
        the same ``MPI_Waitall``, kappa collapses to the longest distance
        only (paper Sec. 3.1, after [4]).

        For topologies not built from a distance set, the per-rank
        neighbour index offsets are used as distances (ring metric when
        ``periodic``).
        """
        dists = self.distance_multiset()
        if len(dists) == 0:
            return 0.0
        mags = np.abs(np.asarray(dists, dtype=float))
        if waitall_grouped:
            return float(mags.max())
        return float(mags.sum())

    def distance_multiset(self) -> tuple[int, ...]:
        """Distances underlying this topology.

        Returns the generating distance set when known, otherwise
        extracts per-row index offsets from the matrix (using the ring
        metric when periodic) and returns the multiset of the first
        row's offsets — valid for translationally invariant topologies;
        for irregular graphs the mean row is used.
        """
        if self.distances:
            return self.distances
        n = self.n
        if n == 0:
            return ()
        offsets: list[int] = []
        row = self.neighbors(0)
        for j in row:
            off = int(j)
            if self.periodic and off > n // 2:
                off -= n
            offsets.append(off)
        return tuple(sorted(offsets))

    # ------------------------------------------------------------------
    def laplacian(self) -> np.ndarray:
        """Graph Laplacian ``L = D - T`` (symmetrised first).

        The spectral gap of ``L`` controls the linearised
        resynchronisation rate of attractive potentials; tests use it
        against the :class:`~repro.core.potentials.LinearPotential`.
        """
        m = 0.5 * (self.matrix + self.matrix.T)
        return np.diag(m.sum(axis=1)) - m

    def spectral_gap(self) -> float:
        """Second-smallest Laplacian eigenvalue (algebraic connectivity)."""
        eig = np.linalg.eigvalsh(self.laplacian())
        return float(eig[1]) if len(eig) > 1 else 0.0

    def to_networkx(self):
        """Export as a directed ``networkx.DiGraph`` (needs networkx)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.n))
        rows, cols = self.edge_list()
        g.add_edges_from(zip(rows.tolist(), cols.tolist()))
        return g

    def is_connected(self) -> bool:
        """Weak connectivity of the coupling graph.

        Min-label hooking with pointer jumping: every rank starts as its
        own label, each edge hooks both endpoints (and their labels) onto
        the smaller of the two labels, and labels are then compressed to
        their roots.  At the fixed point the endpoints of every edge share
        a label, so the graph is connected iff every label is rank 0's.
        """
        if self.n <= 1:
            return True
        rows, cols = self.edge_list()
        label = np.arange(self.n, dtype=np.intp)
        while True:
            lr, lc = label[rows], label[cols]
            lo = np.minimum(lr, lc)
            new = label.copy()
            for idx in (rows, cols, lr, lc):
                np.minimum.at(new, idx, lo)
            if np.array_equal(new, label):
                return not label.any()
            while True:                     # pointer jumping to the roots
                jumped = new[new]
                if np.array_equal(jumped, new):
                    break
                new = jumped
            label = new

    def describe(self) -> dict:
        """Metadata dictionary used by exporters."""
        return {
            "name": self.name,
            "n": self.n,
            "distances": list(self.distances),
            "periodic": self.periodic,
            "n_edges": self.n_edges,
            "density": self.density,
            "kappa_sum": self.kappa(waitall_grouped=False),
            "kappa_max": self.kappa(waitall_grouped=True),
        }


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def _normalise_distances(distances: Iterable[int]) -> tuple[int, ...]:
    dists = tuple(int(d) for d in distances)
    if len(dists) == 0:
        raise ValueError("distance set must not be empty")
    if any(d == 0 for d in dists):
        raise ValueError("distance 0 (self-communication) is not allowed")
    return dists


def _offset_edges(n: int, offsets: Iterable[int], *,
                  periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """Edges ``i -> i + o`` for every rank ``i`` and every offset ``o``.

    Periodic partners wrap ``mod n`` (an offset that is a multiple of
    ``n`` would wrap onto the rank itself and adds nothing); open ones
    keep only the in-range partners.  Offset-major order: each offset
    contributes one sorted run, which ``from_edge_arrays`` merges.
    """
    i = np.arange(n, dtype=np.intp)
    offs = np.asarray(tuple(offsets), dtype=np.intp)
    if periodic:
        offs = np.unique(offs % n)
        offs = offs[offs != 0]
        j = i + offs[:, None]
        j[j >= n] -= n
        return np.tile(i, offs.size), j.ravel()
    j = i + np.unique(offs)[:, None]
    keep = (j >= 0) & (j < n)
    return np.tile(i, j.shape[0])[keep.ravel()], j[keep]


def _symmetric(dists: tuple[int, ...], symmetrize: bool) -> tuple[int, ...]:
    """The offsets a distance set couples: with the reverses if symmetric."""
    return dists + tuple(-d for d in dists) if symmetrize else dists


def ring(n: int, distances: Iterable[int] = (1, -1), *,
         symmetrize: bool = True) -> Topology:
    """Periodic 1-D process chain with the given distance set.

    ``ring(N, (1, -1))`` is the paper's ``d = ±1`` halo exchange;
    ``ring(N, (1, -1, -2))`` its ``d = ±1, -2`` variant.  With
    ``symmetrize=True`` (default) every send implies the reverse
    dependency, mirroring two-sided MPI semantics.
    """
    if n < 2:
        raise ValueError("need at least two processes")
    dists = _normalise_distances(distances)
    rows, cols = _offset_edges(n, _symmetric(dists, symmetrize),
                               periodic=True)
    return Topology.from_edge_arrays(
        n, rows, cols, distances=dists,
        name=f"ring{sorted(set(dists))}", periodic=True)


def chain(n: int, distances: Iterable[int] = (1, -1), *,
          symmetrize: bool = True) -> Topology:
    """Open (non-periodic) 1-D chain: ranks at the ends have fewer partners.

    Matches an MPI program without periodic boundary conditions.
    """
    if n < 2:
        raise ValueError("need at least two processes")
    dists = _normalise_distances(distances)
    rows, cols = _offset_edges(n, _symmetric(dists, symmetrize),
                               periodic=False)
    return Topology.from_edge_arrays(
        n, rows, cols, distances=dists,
        name=f"chain{sorted(set(dists))}", periodic=False)


def all_to_all(n: int) -> Topology:
    """Fully connected topology — the plain Kuramoto pattern.

    The paper rejects this for parallel programs (it acts like a global
    barrier per cycle); kept as the baseline comparator.
    """
    if n < 2:
        raise ValueError("need at least two processes")
    rows, cols = _offset_edges(n, range(1, n), periodic=True)
    return Topology.from_edge_arrays(n, rows, cols, distances=(),
                                     name="all-to-all", periodic=True)


def grid2d(nx: int, ny: int, *, periodic: bool = False) -> Topology:
    """2-D Cartesian 5-point halo topology (row-major rank order).

    Models ``MPI_Cart_create``-style domain decompositions: rank
    ``iy*nx + ix`` couples to its four Cartesian neighbours, wrapped when
    ``periodic`` (1-wide axes wrap onto the rank itself and add nothing).
    """
    nx, ny, periodic = int(nx), int(ny), bool(periodic)
    if nx < 1 or ny < 1 or nx * ny < 2:
        raise ValueError("grid must contain at least two processes")
    n = nx * ny
    r = np.arange(n, dtype=np.intp)
    jx = r % nx + np.array([[1], [-1], [0], [0]], dtype=np.intp)
    jy = r // nx + np.array([[0], [0], [1], [-1]], dtype=np.intp)
    if periodic:
        jx %= nx
        jy %= ny
    j = jy * nx + jx                        # one row per direction
    keep = j != r
    if not periodic:
        keep &= (jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny)
    name = f"torus2d[{nx}x{ny}]" if periodic else f"grid2d[{nx}x{ny}]"
    return Topology.from_edge_arrays(
        n, np.tile(r, 4)[keep.ravel()], j[keep], distances=(),
        name=name, periodic=periodic)


def torus2d(nx: int, ny: int) -> Topology:
    """Periodic 2-D grid: ``grid2d(nx, ny, periodic=True)``."""
    return grid2d(nx, ny, periodic=True)


def _check_interconnect(topo: Topology, *, degree_min: int,
                        degree_max: int) -> Topology:
    """Builder self-check: symmetry + degree bounds for interconnects.

    The real-interconnect builders are pure index arithmetic; this guards
    against construction bugs (a missing reverse edge, a rank wired to
    the wrong tier) rather than bad user input, hence ``RuntimeError``.
    """
    deg = np.bincount(topo.edge_list()[0], minlength=topo.n)
    lo, hi = int(deg.min()), int(deg.max())
    if lo < degree_min or hi > degree_max:
        raise RuntimeError(
            f"internal: {topo.name} degrees in [{lo}, {hi}], expected "
            f"[{degree_min}, {degree_max}]")
    if not topo.is_symmetric:
        raise RuntimeError(f"internal: {topo.name} is not symmetric")
    return topo


def hypercube(dim: int) -> Topology:
    """Binary hypercube interconnect: ``2**dim`` ranks, degree ``dim``.

    Rank ``i`` couples to ``i XOR 2**b`` for each dimension ``b`` — the
    classic log-diameter network (and the communication pattern of
    recursive-doubling collectives).  The dimension-``b`` link spans an
    index distance of exactly ``2**b``, so the generating distance set
    is ``(1, 2, 4, ..., 2**(dim-1))``: ``kappa_sum = N - 1`` and
    ``kappa_max = N / 2`` under a grouped ``MPI_Waitall`` (Sec. 3.1
    rules applied verbatim to the hypercube distances).
    """
    dim = int(dim)
    if dim < 1:
        raise ValueError("hypercube needs dim >= 1")
    n = 1 << dim
    i = np.arange(n, dtype=np.intp)
    bits = (np.intp(1) << np.arange(dim, dtype=np.intp))
    rows = np.repeat(i, dim)
    cols = (i[:, None] ^ bits[None, :]).ravel()
    topo = Topology.from_edge_arrays(
        n, rows, cols, distances=tuple(int(b) for b in bits),
        name=f"hypercube[{dim}]", periodic=False)
    return _check_interconnect(topo, degree_min=dim, degree_max=dim)


def fat_tree(k: int) -> Topology:
    """k-ary fat-tree interconnect with switches as oscillator ranks.

    The standard 3-tier Clos fabric: ``k`` pods of ``k/2`` edge and
    ``k/2`` aggregation switches plus ``(k/2)^2`` core switches —
    ``N = k^2 + (k/2)^2`` ranks.  Rank order is pod-major (pod ``p``
    holds edge switches ``p*k .. p*k+k/2-1`` then aggregation switches
    ``p*k+k/2 .. p*k+k-1``), cores last.  Links: full bipartite
    edge<->aggregation inside each pod, and aggregation switch ``j`` of
    every pod to core switches ``j*k/2 .. (j+1)*k/2-1``.

    Degrees: edge ``k/2``, aggregation and core ``k``.  Index offsets
    are not translation invariant here, so the kappa story is the
    unit-hop one: every link is one switch hop, and the busiest rank
    (aggregation/core) drives ``k`` of them per cycle — distances are
    ``(1,) * k``, giving ``kappa_sum = k`` and ``kappa_max = 1``.
    """
    k = int(k)
    if k < 2 or k % 2:
        raise ValueError("fat-tree arity k must be an even integer >= 2")
    h = k // 2
    n = k * k + h * h
    pods = np.arange(k, dtype=np.intp)
    slot = np.arange(h, dtype=np.intp)
    edge = pods[:, None] * k + slot[None, :]          # (k, h)
    agg = edge + h                                    # (k, h)
    # full bipartite edge<->agg per pod: (k, h_edge, h_agg)
    e_rows = np.repeat(edge[:, :, None], h, axis=2)
    e_cols = np.repeat(agg[:, None, :], h, axis=1)
    # agg slot j of every pod <-> cores j*h .. (j+1)*h-1: (k, h_agg, h_core)
    core = k * k + (slot[:, None] * h + slot[None, :])  # (h_agg, h_core)
    a_rows = np.repeat(agg[:, :, None], h, axis=2)
    a_cols = np.broadcast_to(core[None, :, :], (k, h, h))
    fwd_rows = np.concatenate([e_rows.ravel(), a_rows.ravel()])
    fwd_cols = np.concatenate([e_cols.ravel(), a_cols.ravel()])
    topo = Topology.from_edge_arrays(
        n, np.concatenate([fwd_rows, fwd_cols]),
        np.concatenate([fwd_cols, fwd_rows]),
        distances=(1,) * k, name=f"fattree[k={k}]", periodic=False)
    return _check_interconnect(topo, degree_min=h, degree_max=k)


def dragonfly(groups: int, routers: int, terminals: int = 0,
              global_links: int = 1) -> Topology:
    """Dragonfly interconnect: router groups, local cliques, global links.

    ``groups`` groups of ``routers`` fully connected routers; every
    ordered pair of groups is joined by one global link, with the
    ``groups - 1`` global link slots of a group dealt round-robin over
    its routers (``global_links`` slots per router, so
    ``routers * global_links >= groups - 1`` must hold — the standard
    balanced dragonfly has ``a = 2h``).  Optionally ``terminals`` leaf
    ranks hang off each router (star edges), modelling compute nodes
    behind the fabric: ``N = groups * routers * (1 + terminals)``.
    Rank order: routers group-major first, then terminals router-major.

    Like the fat-tree, index offsets carry no structure, so kappa uses
    the unit-hop rule: distances are ``(1,) * max_degree`` — the
    busiest router waits on ``routers - 1`` local peers, its global
    links, and its terminals — giving ``kappa_sum = max_degree`` and
    ``kappa_max = 1``.
    """
    g, a = int(groups), int(routers)
    t, h = int(terminals), int(global_links)
    if g < 2:
        raise ValueError("dragonfly needs at least two groups")
    if a < 1 or h < 1 or t < 0:
        raise ValueError("dragonfly needs routers >= 1, global_links >= 1 "
                         "and terminals >= 0")
    if g - 1 > a * h:
        raise ValueError(
            f"dragonfly with {g} groups needs {g - 1} global link slots "
            f"per group, but routers * global_links = {a * h}")
    n_r = g * a
    n = n_r * (1 + t)
    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    # local all-to-all clique inside each group
    if a > 1:
        lr, lc = np.nonzero(1 - np.eye(a))
        base = (np.arange(g, dtype=np.intp) * a)[:, None]
        rows_parts.append((base + lr[None, :].astype(np.intp)).ravel())
        cols_parts.append((base + lc[None, :].astype(np.intp)).ravel())
    # one global link per ordered group pair: the slot for peer group gj
    # inside group gi is q = gj - (gj > gi) in [0, g-2], owned by router
    # q // h.  The rule is its own mirror, so iterating ordered pairs
    # emits both directions of every physical link.
    gi, gj = np.nonzero(1 - np.eye(g))
    gi = gi.astype(np.intp)
    gj = gj.astype(np.intp)
    q = gj - (gj > gi)
    qr = gi - (gi > gj)
    rows_parts.append(gi * a + q // h)
    cols_parts.append(gj * a + qr // h)
    # terminal stars
    if t:
        r = np.arange(n_r, dtype=np.intp)
        term = n_r + (r[:, None] * t + np.arange(t, dtype=np.intp)[None, :])
        rr, tt = np.repeat(r, t), term.ravel()
        rows_parts += [rr, tt]
        cols_parts += [tt, rr]
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    max_deg = int(np.bincount(rows, minlength=n).max())
    topo = Topology.from_edge_arrays(
        n, rows, cols, distances=(1,) * max_deg,
        name=f"dragonfly[{g}x{a}" + (f"+{t}t]" if t else "]"),
        periodic=False)
    return _check_interconnect(topo, degree_min=1, degree_max=max_deg)


def random_topology(n: int, p: float, *, rng: np.random.Generator | None = None,
                    symmetrize: bool = True, ensure_connected: bool = True,
                    max_tries: int = 100) -> Topology:
    """Erdős–Rényi coupling graph with edge probability ``p``.

    Used for noise/topology robustness studies (paper Sec. 6 outlook).
    ``ensure_connected`` redraws until weakly connected (raises after
    ``max_tries`` failures).
    """
    if n < 2:
        raise ValueError("need at least two processes")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be in [0, 1]")
    if rng is None:
        rng = np.random.default_rng()
    for _ in range(max_tries):
        m = (rng.random((n, n)) < p).astype(float)
        np.fill_diagonal(m, 0.0)
        if symmetrize:
            m = np.maximum(m, m.T)
        topo = Topology(matrix=m, distances=(), name=f"er[p={p}]", periodic=False)
        if not ensure_connected or topo.is_connected():
            return topo
    raise RuntimeError(
        f"could not draw a connected topology in {max_tries} tries (n={n}, p={p})"
    )


def from_edges(n: int, edges: Sequence[tuple[int, int]], *,
               symmetrize: bool = True, name: str = "edges") -> Topology:
    """Build a topology from an explicit edge list."""
    pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    bad = (pairs < 0) | (pairs >= n)
    if bad.any():
        i, j = pairs[np.flatnonzero(bad.any(axis=1))[0]]
        raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
    rows, cols = pairs[:, 0], pairs[:, 1]
    if np.any(rows == cols):
        raise ValueError("self-edges are not allowed")
    if symmetrize:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    return Topology.from_edge_arrays(n, rows, cols, distances=(), name=name,
                                     periodic=False)


def from_networkx(graph, *, name: str | None = None) -> Topology:
    """Build a topology from a networkx graph (nodes relabelled 0..N-1)."""
    nodes = sorted(graph.nodes())
    index = {v: k for k, v in enumerate(nodes)}
    pairs = np.array([(index[u], index[v]) for u, v in graph.edges()],
                     dtype=np.intp).reshape(-1, 2)
    rows, cols = pairs[:, 0], pairs[:, 1]
    if not graph.is_directed():
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    return Topology.from_edge_arrays(
        len(nodes), rows, cols, distances=(),
        name=name or f"nx[{graph.__class__.__name__}]", periodic=False)


def dependency_topology(n: int, distances: Iterable[int], *,
                        rendezvous: bool = False,
                        periodic: bool = True) -> Topology:
    """Directed dependency matrix induced by an MPI send-distance set.

    With *eager* sends only the **receiver** waits: rank ``i`` receives
    from ``i - d`` for each send distance ``d``, so ``T[i, i-d] = 1``
    (its phase rate depends on those partners) and nothing more.  With
    *rendezvous* sends the sender also waits for the receiver to post,
    adding the reverse edges ``T[i, i+d] = 1`` — which symmetrises the
    matrix for symmetric distance sets and strictly enlarges it for
    asymmetric ones (e.g. the paper's ``d = ±1, -2``).

    This is the faithful fine-grained alternative to the symmetric
    :func:`ring` builder (the paper's "connection between oscillators i
    and j"); experiments use :func:`ring`, ablations compare both.
    """
    n = int(n)
    if n < 2:
        raise ValueError("need at least two processes")
    dists = _normalise_distances(distances)
    offsets = tuple(-d for d in dists) + (dists if rendezvous else ())
    rows, cols = _offset_edges(n, offsets, periodic=periodic)
    proto = "rdv" if rendezvous else "eager"
    return Topology.from_edge_arrays(
        n, rows, cols, distances=dists,
        name=f"dep[{proto}]{sorted(set(dists))}", periodic=periodic)


# ----------------------------------------------------------------------
# Builder registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TopologyKind:
    """One registered topology kind: its builder plus self-description.

    Parameter names and defaults are introspected from ``build``'s
    signature, so registration is the single source of truth for spec
    vocabulary, error messages, and docs.
    """

    kind: str
    build: Callable[..., Topology]
    n_formula: Callable[[dict], int]
    n_doc: str
    kappa_doc: str
    description: str

    def param_names(self) -> tuple[str, ...]:
        return tuple(inspect.signature(self.build).parameters)

    def signature_doc(self) -> str:
        """``kind(param, opt=default, ...)`` for error messages/docs."""
        parts = []
        for p in inspect.signature(self.build).parameters.values():
            if p.default is inspect.Parameter.empty:
                parts.append(p.name)
            else:
                parts.append(f"{p.name}={p.default!r}")
        return f"{self.kind}({', '.join(parts)})"


TOPOLOGY_REGISTRY: dict[str, TopologyKind] = {}

#: spec-compat aliases: stored specs name the retired edge builders
_TOPOLOGY_ALIASES: dict[str, str] = {
    "ring_edges": "ring",
    "torus2d_edges": "torus2d",
}


def register_topology(entry: TopologyKind) -> TopologyKind:
    """Add a kind to the registry (new kinds need exactly this one call)."""
    TOPOLOGY_REGISTRY[entry.kind] = entry
    return entry


def topology_kinds() -> dict[str, dict]:
    """Self-describing registry table: kind -> params/N-formula/kappa.

    Consumed by the service ``/v1/registry`` endpoint, the README table,
    and the unknown-kind error message.
    """
    out = {}
    for name in sorted(TOPOLOGY_REGISTRY):
        e = TOPOLOGY_REGISTRY[name]
        out[name] = {
            "params": list(e.param_names()),
            "signature": e.signature_doc(),
            "n": e.n_doc,
            "kappa": e.kappa_doc,
            "description": e.description,
        }
    return out


def _unknown_kind_message(kind: str) -> str:
    lines = [f"unknown topology kind {kind!r}; registered kinds:"]
    for name, info in topology_kinds().items():
        lines.append(f"  {info['signature']} — {info['description']}")
    aliases = ", ".join(f"{a} = {b}"
                        for a, b in sorted(_TOPOLOGY_ALIASES.items()))
    lines.append(f"aliases: {aliases}")
    return "\n".join(lines)


def _resolve_kind(kind: str) -> TopologyKind:
    """Registry entry for ``kind`` (aliases resolve to their base kind)."""
    entry = TOPOLOGY_REGISTRY.get(_TOPOLOGY_ALIASES.get(kind, kind))
    if entry is None:
        raise ValueError(_unknown_kind_message(kind))
    return entry


def _bind_params(entry: TopologyKind, params: dict) -> dict:
    """Validate spec params against the builder signature, fill defaults."""
    sig = inspect.signature(entry.build)
    accepted = set(sig.parameters)
    extra = set(params) - accepted
    if extra:
        raise ValueError(
            f"unknown key(s) {sorted(extra)} for kind {entry.kind!r}; "
            f"accepted: {sorted(accepted)}")
    missing = sorted(
        p.name for p in sig.parameters.values()
        if p.default is inspect.Parameter.empty and p.name not in params)
    if missing:
        raise ValueError(
            f"missing required key(s) {missing} for kind {entry.kind!r}; "
            f"expected {entry.signature_doc()}")
    bound = sig.bind(**params)
    bound.apply_defaults()
    return dict(bound.arguments)


def make_topology(kind: str, **params) -> Topology:
    """Build any registered topology kind by name.

    ``params`` are the builder's own keywords, validated against its
    signature first.  The retired ``ring_edges``/``torus2d_edges`` names
    resolve as aliases of ``ring``/``torus2d``.
    """
    entry = _resolve_kind(str(kind))
    _bind_params(entry, params)
    return entry.build(**params)


def topology_n_from_spec(d: dict) -> int:
    """Rank count of a topology spec dict, from structural params only.

    Used by the planner to estimate shard footprints and to decide
    topology-axis fusion without building the topology.  Raises (rather
    than misestimating) on unknown kinds or missing params.
    """
    spec = dict(d)
    kind = str(spec.pop("kind", "ring"))
    entry = _resolve_kind(kind)
    filled = _bind_params(entry, spec)
    n = int(entry.n_formula(filled))
    if n < 1:
        raise ValueError(f"kind {kind!r} with params {spec} gives N={n}")
    return n


register_topology(TopologyKind(
    kind="ring", build=ring,
    n_formula=lambda p: int(p["n"]), n_doc="n",
    kappa_doc="sum|d| / max|d| over the distance set",
    description="periodic 1-D halo exchange over a distance set"))
register_topology(TopologyKind(
    kind="chain", build=chain,
    n_formula=lambda p: int(p["n"]), n_doc="n",
    kappa_doc="sum|d| / max|d| over the distance set",
    description="open 1-D chain (no periodic wrap)"))
register_topology(TopologyKind(
    kind="all_to_all", build=all_to_all,
    n_formula=lambda p: int(p["n"]), n_doc="n",
    kappa_doc="0 (no distance structure)",
    description="fully connected baseline (global-barrier-like)"))
register_topology(TopologyKind(
    kind="grid2d", build=grid2d,
    n_formula=lambda p: int(p["nx"]) * int(p["ny"]), n_doc="nx*ny",
    kappa_doc="row-0 neighbour offsets (5-point stencil)",
    description="open 2-D Cartesian 5-point halo"))
register_topology(TopologyKind(
    kind="torus2d", build=torus2d,
    n_formula=lambda p: int(p["nx"]) * int(p["ny"]), n_doc="nx*ny",
    kappa_doc="row-0 neighbour offsets (wrapped 5-point stencil)",
    description="periodic 2-D Cartesian 5-point halo"))
register_topology(TopologyKind(
    kind="dependency", build=dependency_topology,
    n_formula=lambda p: int(p["n"]), n_doc="n",
    kappa_doc="sum|d| / max|d| over the send-distance set",
    description="directed eager/rendezvous MPI dependency matrix"))
register_topology(TopologyKind(
    kind="hypercube", build=hypercube,
    n_formula=lambda p: 1 << int(p["dim"]), n_doc="2**dim",
    kappa_doc="distances (1, 2, ..., 2**(dim-1)): sum = N-1, max = N/2",
    description="binary hypercube, rank i <-> i XOR 2**b"))
register_topology(TopologyKind(
    kind="fattree", build=fat_tree,
    n_formula=lambda p: int(p["k"]) ** 2 + (int(p["k"]) // 2) ** 2,
    n_doc="k**2 + (k//2)**2",
    kappa_doc="unit-hop distances (1,)*k: sum = k, max = 1",
    description="k-ary 3-tier fat-tree (edge/agg/core switches as ranks)"))
register_topology(TopologyKind(
    kind="dragonfly", build=dragonfly,
    n_formula=lambda p: (int(p["groups"]) * int(p["routers"])
                         * (1 + int(p.get("terminals") or 0))),
    n_doc="groups*routers*(1+terminals)",
    kappa_doc="unit-hop distances (1,)*max_degree: sum = max_degree, "
              "max = 1",
    description="dragonfly (local cliques + round-robin global links "
                "+ optional terminals)"))
