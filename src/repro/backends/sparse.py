"""Sparse edge-list RHS backend — O(E) instead of O(N^2).

The paper's topologies are extremely sparse (the nearest-neighbour ring
has 2 edges per row), so materialising the full phase-difference matrix
wastes almost all the work.  This backend walks the cached edge list of
the topology: it evaluates ``V(theta_j - theta_i)`` only on actual edges
and accumulates the per-row sums with a segment sum (``np.bincount`` over
the row indices, which adds contributions in the same row-major order as
the dense row sum, so results agree to machine precision).

The inner coupling loop is delegated to a selectable *kernel*
(:mod:`repro.kernels`): the plain NumPy segment sum (``"numpy"``) or a
fused gather-potential-scatter kernel compiled with the system C
compiler (``"cc"``).  ``"auto"`` picks ``"cc"`` when it can run.

The delayed (DDE) path is edge-native and always uses the NumPy kernel:
the per-edge delay vector ``tau_e`` is gathered once, and each distinct
delay level patches only its own edge subset — no dense masks, no
duplicated index computation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .. import kernels
from ..kernels import cc as cc_kernels
from .base import RHSBackend

if TYPE_CHECKING:  # pragma: no cover
    from ..core.model import RealizedModel
    from ..integrate.history import HistoryBuffer

__all__ = ["SparseBackend"]


class SparseBackend(RHSBackend):
    """Edge-list coupling kernel: O(E) time and memory per evaluation."""

    name = "sparse"
    supports_kernels = True

    def __init__(self, realized: "RealizedModel",
                 kernel: str | None = "auto",
                 threads: int | None = None) -> None:
        super().__init__(realized)
        self._rows, self._cols = self.model.topology.edge_list()
        coeffs = self.model.potential.kernel_coefficients()
        self.kernel = kernels.resolve_kernel(
            kernel, has_coefficients=coeffs is not None)
        self.threads = kernels.resolve_threads(threads)
        self._cc_call = None
        if self.kernel == "cc" and self._vp_over_n != 0.0 and self._rows.size:
            # Static kernel arguments bound once (distance rings and 2-D
            # tori get their specialised kernels, see cc.bind).
            self._cc_call = cc_kernels.bind(
                self._rows, self._cols, self._n, coeffs, self._vp_over_n,
                threads=self.threads)

    def coupling(self, t: float, theta: np.ndarray,
                 history: "HistoryBuffer | None" = None) -> np.ndarray:
        rows, cols = self._rows, self._cols
        if self._vp_over_n == 0.0 or rows.size == 0:
            return np.zeros(self._n)

        delayed_path = self.realized.has_delays and history is not None
        call = self._cc_call
        if not delayed_path and call is not None:
            # Looked up on the module at call time, by the entry the
            # call was bound for (ring_single, torus_single, ...).
            return getattr(cc_kernels, call.entry)(
                call, np.ascontiguousarray(theta, dtype=float),
                np.empty(self._n))

        d_edge = theta[cols] - theta[rows]             # (E,)
        if delayed_path:
            tau_edge = self.realized.tau(t)[rows, cols]
            for v in np.unique(tau_edge):
                if v == 0.0:
                    continue
                delayed = history(t - float(v))
                sel = tau_edge == v
                d_edge[sel] = delayed[cols[sel]] - theta[rows[sel]]

        v_edge = np.asarray(self.model.potential(d_edge), dtype=float)
        acc = np.bincount(rows, weights=v_edge, minlength=self._n)
        return self._vp_over_n * acc

    def describe(self) -> dict:
        d = super().describe()
        d["kernel"] = self.kernel
        d["threads"] = self.threads
        return d
