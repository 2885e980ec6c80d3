"""Batched RHS backend: R stacked realisations in one call.

Stacking R member states into one ``(R, N)`` super-state lets a whole
seed ensemble or **parameter grid** integrate as one solve.  The members
may be realisations of one declarative model (a seed ensemble) or
disagree on

* the coupling strength ``v_p`` (broadcast as an ``(R, 1)`` column),
* the cycle period ``T = t_comp + t_comm`` (idem),
* the interaction potential (each member's ``(kind, p0, p1)``
  coefficient row, evaluated once per distinct potential kind),
* the one-off delay schedule (evaluated per member, or broadcast when
  all members share one),
* the noise realisation (stacked into one ``(n_intervals, R, N)``
  array when the refresh grids agree, as they always do for members
  realised from one model).

Only the oscillator count ``N`` must be shared.  Members may even
disagree on the **topology** (a machine-design sweep over same-N
candidate networks).  Each row of the batched result accumulates its
edges in the same order as a one-member evaluation, so it matches that
evaluation bit for bit; this is what lets
:func:`repro.core.simulation.simulate_grid` integrate all grid points as
one super-state and fan exact per-point trajectories back out, and what
makes topology-axis fusion bit-identical to per-group shards.  A single
solve (``simulate()``, ``RealizedModel.rhs``) is this backend at ``R = 1``.

The inner coupling loop is delegated to a selectable *kernel*
(:mod:`repro.kernels`, ``kernel=`` knob):

* ``"numpy"`` — one gather from the flattened ``(R*N,)`` super-state
  through per-member edge indices offset by ``r*N`` (padded to the
  widest member only when the members' edge lists differ), one pass of
  the coefficient formulas (:func:`repro.kernels.eval_coefficients`,
  the ones the compiled kernel inlines) over ``(R, Emax)``, and one
  ``np.bincount`` whose overflow bin ``R*N`` swallows the pads.  A
  batch with a ``CustomPotential`` calls each member's potential on its
  row instead.  Delayed (DDE) couplings take this path under either
  kernel, each delay level patching its edges from one history call
  before the potential pass.  Memory-bound at N ≳ a few thousand (every
  evaluation streams several ``(R, E)`` arrays).
* ``"cc"`` — the fused compiled kernel that evaluates the potential
  family inline per edge block (per-member ``(kind, p0, p1)``
  coefficients, so members may even mix families), eliminating the
  ``(R, E)`` round-trips entirely.  Every batch is one compiled call:
  a shared distance ring runs the ring kernel, and every other batch (a
  2-D torus or a topology-axis batch included) the edge-list kernel
  with one edge range per member (see :func:`repro.kernels.cc.bind`).

``"auto"`` picks ``"cc"`` whenever every member's potential exposes
kernel coefficients and a compiler works; ``CustomPotential`` members
fall back to the NumPy path.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .. import kernels
from ..kernels import cc as cc_kernels
from .base import frequency_from_period

if TYPE_CHECKING:  # pragma: no cover
    from ..core.model import RealizedModel
    from ..integrate.history import HistoryBuffer

__all__ = ["HeteroBatchedBackend", "same_topology"]


def same_topology(a, b) -> bool:
    """Whether two topologies carry the identical directed edge set.

    Compared on the edge lists, never on the dense matrices — large-N
    topologies (``ring(100_000)``) must validate without densifying, and
    O(E) beats O(N^2) for every sparse case.
    """
    if a is b:
        return True
    if a.n != b.n:
        return False
    ra, ca = a.edge_list()
    rb, cb = b.edge_list()
    return np.array_equal(ra, rb) and np.array_equal(ca, cb)


class HeteroBatchedBackend:
    """Vectorised RHS over a stack of realisations of *different* models.

    Parameters
    ----------
    members:
        Frozen realisations sharing the oscillator count; everything
        else (topology, coupling strength, period, potential, noise,
        delay schedule) may vary per member.  States are ``(R, N)``
        arrays with one row per member.
    """

    name = "hetero"

    def __init__(self, members: Sequence["RealizedModel"],
                 kernel: str | None = "auto",
                 threads: int | None = None) -> None:
        if len(members) == 0:
            raise ValueError("need at least one batch member")
        first = members[0].model
        mixed = False
        for m in members[1:]:
            mm = m.model
            if mm.n != first.n:
                raise ValueError("batch members disagree on N")
            if not same_topology(mm.topology, first.topology):
                mixed = True
        self.members = tuple(members)
        self.model = first
        self._n = first.n
        self._r = len(members)
        self._mixed = mixed
        # Per-member parameter columns, broadcast against (R, N) states.
        self._periods = np.array(
            [m.model.period for m in members], dtype=float)[:, None]
        self._vps = np.array(
            [m.model.v_p / self._n for m in members], dtype=float)[:, None]
        # Per-member edge lists: identical (shared) arrays for a
        # homogeneous batch, one list per member for a topology-axis
        # batch.
        if mixed:
            per = [m.model.topology.edge_list() for m in self.members]
        else:
            per = [first.topology.edge_list()] * self._r
        self._per_rows = [rc[0] for rc in per]
        self._per_cols = [rc[1] for rc in per]
        self._edge_sizes = [int(r.size) for r in self._per_rows]
        self._zero_coupling = (sum(self._edge_sizes) == 0
                               or not np.any(self._vps))
        self._zeta_stack = self._stack_zeta()
        self._delayed = [r for r, m in enumerate(members) if m.has_delays]
        # Delay schedules: broadcast one evaluation when all members
        # share the same schedule, else evaluate per member.
        scheds = [m.delay_schedule for m in self.members]
        self._scheds = scheds
        self._sched_empty = all(len(s.delays) == 0 for s in scheds)
        self._sched_shared = all(
            s.delays == scheds[0].delays and s.period == scheds[0].period
            for s in scheds[1:])
        self._pots = [m.model.potential for m in self.members]
        # Kernel selection (see repro.kernels): both kernels evaluate
        # the per-member (kind, p0, p1) coefficient rows; only a
        # CustomPotential (no coefficients) calls back into Python.
        self._kernel_request = kernels.normalize_kernel_name(kernel)
        self._coeffs = kernels.family_coefficients(self._pots)
        self.kernel = kernels.resolve_kernel(
            kernel, has_coefficients=self._coeffs is not None)
        # The numpy kernel's potential pass as (member rows, evaluator)
        # pairs: one per distinct coefficient kind, with the parameters
        # as (k, 1) columns, or one per member for a CustomPotential.
        if self._coeffs is None:
            self._row_evals = list(enumerate(self._pots))
        else:
            kinds, p0, p1 = self._coeffs
            self._row_evals = []
            for kind in np.unique(kinds):
                ix = np.flatnonzero(kinds == kind)
                self._row_evals.append((ix, partial(
                    kernels.eval_coefficients, int(kind),
                    p0[ix, None], p1[ix, None])))
        self._threads_request = threads
        self.threads = kernels.resolve_threads(threads)
        self._cc_call = None
        if not self._zero_coupling:
            if self.kernel == "cc":
                # Static kernel arguments bound once (a shared distance
                # ring gets the ring kernel, everything else per-member
                # edge ranges; cc.bind).
                self._cc_call = cc_kernels.bind(
                    self._per_rows, self._per_cols, self._n,
                    self._coeffs, self._vps.ravel(), threads=self.threads)
            if self.kernel == "numpy" or self._delayed:
                # Delayed (DDE) couplings always take the numpy gather.
                self._setup_gather()
        # One-slot ``(key, value)`` memos of the intrinsic frequency and
        # the delay groups, each in a single attribute so a concurrent
        # reader never pairs one entry's key with another entry's value.
        self._freq_memo = self._delay_memo = None

    def _setup_gather(self) -> None:
        """Flat gather/scatter indices for the numpy kernel.

        Member ``r``'s edges index the flattened ``(R*N,)`` super-state
        at offset ``r*N``.  When the members' edge lists differ in
        length (a topology-axis batch) each row is padded to the widest
        member ``Emax``: pad slots gather the member's own element 0
        twice (a guaranteed-finite ``d = 0``) and scatter into the
        discarded overflow bin ``R*N``, so padding never touches a real
        accumulator and every row accumulates in its own edge order.
        """
        r_count, n = self._r, self._n
        emax = max(self._edge_sizes)
        grows = np.empty((r_count, emax), dtype=np.intp)
        gcols = np.empty((r_count, emax), dtype=np.intp)
        scatter = np.full((r_count, emax), r_count * n, dtype=np.intp)
        for r in range(r_count):
            e, off = self._edge_sizes[r], r * n
            grows[r, :e] = off + self._per_rows[r]
            gcols[r, :e] = off + self._per_cols[r]
            grows[r, e:] = gcols[r, e:] = off
            scatter[r, :e] = grows[r, :e]
        self._grows, self._gcols = grows, gcols
        self._scatter = scatter.ravel()

    def _stack_zeta(self) -> np.ndarray | None:
        """Stack member zeta realisations when they share a refresh grid."""
        procs = [m.zeta for m in self.members]
        z0 = procs[0]
        if len(procs) == 1:
            return z0.values[:, None, :]  # a view: no copy of the noise
        if all(z.dt == z0.dt and z.t0 == z0.t0
               and z.values.shape == z0.values.shape for z in procs):
            return np.stack([z.values for z in procs], axis=1)  # (m, R, N)
        return None

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of oscillators per member."""
        return self._n

    @property
    def n_members(self) -> int:
        """Batch size R."""
        return self._r

    @property
    def has_delays(self) -> bool:
        """True if any member carries interaction delays (cached)."""
        return bool(self._delayed)

    def subset(self, idx: Sequence[int]) -> "HeteroBatchedBackend":
        """A backend over the member rows ``idx`` (for per-member re-steps).

        Used by the adaptive per-member step control: when a few stiff
        members reject a step the whole batch accepted, only those rows
        are re-integrated through a small subset backend.
        """
        return HeteroBatchedBackend([self.members[int(i)] for i in idx],
                                    kernel=self._kernel_request,
                                    threads=self._threads_request)

    # ------------------------------------------------------------------
    def _delay_zeta(self, t: float) -> np.ndarray:
        """One-off-delay zeta contribution, shape ``(R, N)`` or ``(1, N)``."""
        if self._sched_shared:
            return self._scheds[0](t, self._n)[None, :]
        return np.stack([s(t, self._n) for s in self._scheds])

    def _active_delays(self, t: float) -> tuple:
        """The one-off delays active at ``t`` (the schedule half of the
        frequency memo key)."""
        if self._sched_empty:
            return ()
        if self._sched_shared:
            return self._scheds[0].active(t)
        return tuple(s.active(t) for s in self._scheds)

    def __getstate__(self) -> dict:
        # A copied memo array would come back writable; rebuild it lazily.
        state = self.__dict__.copy()
        state["_freq_memo"] = state["_delay_memo"] = None
        return state

    def intrinsic_frequency(self, t: float) -> np.ndarray:
        """Stacked per-process frequencies, shape ``(R, N)``.

        Memoised on (noise interval, active one-off delays), the only
        inputs that vary with ``t``; a memo hit returns the same bits as
        a fresh evaluation.  The returned array is read-only.
        """
        if self._zeta_stack is not None:
            k = self.members[0].zeta.interval(t)
        else:
            k = tuple(m.zeta.interval(t) for m in self.members)
        key = (k, self._active_delays(t))
        memo = self._freq_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        if self._zeta_stack is not None:
            zeta = self._zeta_stack[k]                       # (R, N)
        else:
            zeta = np.stack([m.zeta(t) for m in self.members])
        denom = self._periods + zeta
        if not self._sched_empty:
            denom = denom + self._delay_zeta(t)
        freq = frequency_from_period(denom)
        freq.setflags(write=False)
        self._freq_memo = (key, freq)
        return freq

    def _delay_groups(self, t: float) -> list:
        """``(v, slots, partners, owners)`` per delay level ``v > 0`` at
        ``t``: flat ``(R, Emax)`` edge slots and ``(R*N,)`` partner/own
        indices, memoised on the members' tau intervals."""
        key = tuple(self.members[r].tau.interval(t) for r in self._delayed)
        memo = self._delay_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        tau = np.zeros(self._grows.shape)          # padded (R, Emax)
        for r, k in zip(self._delayed, key):
            tau[r, :self._edge_sizes[r]] = self.members[r].tau.values[k]
        partners, owners = self._gcols.reshape(-1), self._grows.reshape(-1)
        groups = []
        for v in np.unique(tau[tau != 0.0]):
            sel = np.flatnonzero(tau == v)
            groups.append((float(v), sel, partners[sel], owners[sel]))
        self._delay_memo = (key, groups)
        return groups

    def _edge_potential(self, d_edge: np.ndarray) -> np.ndarray:
        """Evaluate each member's potential on its row of ``d_edge``.

        The coefficient formulas of :func:`repro.kernels.eval_coefficients`
        run once per distinct kind (a one-kind batch in one call, with
        no row copy); the elementwise arithmetic is that of
        ``Potential.__call__``, so each row carries the same bits as a
        one-member evaluation.
        """
        evals = self._row_evals
        if len(evals) == 1 and self._coeffs is not None:
            return evals[0][1](d_edge)
        out = np.empty_like(d_edge)
        for ix, fn in evals:
            out[ix] = fn(d_edge[ix])
        return out

    def coupling(self, t: float, theta: np.ndarray,
                 history: "HistoryBuffer | None" = None,
                 base: np.ndarray | None = None) -> np.ndarray:
        """Stacked interaction terms for the super-state ``theta (R, N)``.

        With an ``(R, N)`` ``base``, returns ``base + coupling`` in the
        bits of that NumPy sum (IEEE addition is commutative): the cc
        kernel adds it in its final write, while the block is
        cache-hot, and the NumPy path adds it in place.
        """
        if self._zero_coupling:
            out = np.zeros((self._r, self._n))
            if base is not None:
                out += base
            return out
        delayed = bool(self._delayed) and history is not None
        call = self._cc_call
        if call is not None and not delayed:
            # Looked up on the module at call time, by the entry the
            # call was bound for (ring_batched or fused_batched).
            return getattr(cc_kernels, call.entry)(
                call, np.ascontiguousarray(theta, dtype=float),
                np.empty((self._r, self._n)), base)
        # One gather from the flattened (R*N,) super-state (delayed
        # edges patched in), one coefficient-row potential pass over
        # (R, Emax), one bincount whose overflow bin swallows every pad
        # slot.
        flat = theta.reshape(-1)
        d_edge = flat[self._gcols] - flat[self._grows]
        if delayed:
            # Edges with tau > 0 read theta_j(t - tau) from the (R, N)
            # history: one evaluation per delay level of the batch.
            d_flat = d_edge.reshape(-1)
            for v, slots, partners, owners in self._delay_groups(t):
                d_flat[slots] = (history(t - v).reshape(-1)[partners]
                                 - flat[owners])
        v_edge = self._edge_potential(d_edge)
        rn = self._r * self._n
        acc = np.bincount(self._scatter, weights=v_edge.ravel(),
                          minlength=rn + 1)
        out = acc[:rn].reshape(self._r, self._n)
        out *= self._vps
        if base is not None:
            out += base
        return out

    def rhs(self, t: float, theta: np.ndarray,
            history: "HistoryBuffer | None" = None) -> np.ndarray:
        """Full stacked right-hand side, shape ``(R, N)``.

        ``intrinsic_frequency(t) + coupling(t, theta)``, with the memoised
        frequency passed to :meth:`coupling` as its ``base``: the cc
        kernel writes the sum in its coupling pass, so the add costs no
        pass of its own over the state.
        """
        return self.coupling(t, theta, history,
                             base=self.intrinsic_frequency(t))

    def make_ode_rhs(self):
        """Closure ``f(t, theta)`` for ODE solvers (requires no delays)."""
        if self.has_delays:
            raise ValueError(
                "batch has interaction delays; use make_dde_rhs with a history"
            )
        return lambda t, y: self.rhs(t, y, None)

    def make_dde_rhs(self, history: "HistoryBuffer"):
        """Closure ``f(t, theta)`` that reads delayed states from ``history``."""
        return lambda t, y: self.rhs(t, y, history)

    def make_em_drift(self):
        """Euler-Maruyama drift closure: noise-free intrinsic + coupling.

        Mirrors the sequential EM path: the frozen zeta realisation is
        *excluded* from the drift (the Gaussian channel enters as true
        white noise through the diffusion term instead); one-off delay
        schedules stay in, per member.
        """
        if self.has_delays:
            raise ValueError("batch has interaction delays; EM is ODE-only")

        if self._sched_empty:
            # Constant without a delay schedule: evaluate it once.
            freq = frequency_from_period(self._periods)

            def drift(t: float, theta: np.ndarray) -> np.ndarray:
                return freq + self.coupling(t, theta, None)

            return drift

        def drift(t: float, theta: np.ndarray) -> np.ndarray:
            denom = self._periods + self._delay_zeta(t)
            return frequency_from_period(denom) + self.coupling(t, theta, None)

        return drift

    def describe(self) -> dict:
        """Metadata dictionary used by exporters."""
        return {"backend": self.name, "n": self._n, "members": self._r,
                "mixed_topologies": self._mixed,
                "kernel": self.kernel, "threads": self.threads}
