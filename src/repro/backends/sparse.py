"""Sparse edge-list RHS backend — O(E) instead of O(N^2).

The paper's topologies are extremely sparse (the nearest-neighbour ring
has 2 edges per row), so materialising the full phase-difference matrix
wastes almost all the work.  The edge-list coupling evaluates
``V(theta_j - theta_i)`` only on actual edges and accumulates the
per-row sums with a segment sum in the same row-major order as the
dense row sum, so results agree to machine precision.

This backend is the single-state view of that coupling: it owns no
edge-list code of its own, but evaluates a one-member
:class:`~repro.backends.hetero.HeteroBatchedBackend` on the ``(1, N)``
reshape of its state.  A single solve therefore runs the same kernel
(``kernel=`` knob: ``"numpy"`` or the compiled ``"cc"``), the same
threads split and the same edge-native delayed (DDE) path as one row of
a campaign shard.  Only the intrinsic frequency stays the base class's
1-D evaluation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .base import RHSBackend
from .hetero import HeteroBatchedBackend

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
        self._stack = HeteroBatchedBackend([realized], kernel=kernel,
                                           threads=threads)
        self.kernel = self._stack.kernel
        self.threads = self._stack.threads
        self._cc_call = self._stack._cc_call

    def coupling(self, t: float, theta: np.ndarray,
                 history: "HistoryBuffer | None" = None) -> np.ndarray:
        if history is not None:
            single = history

            def history(s: float) -> np.ndarray:
                return single(s)[None, :]

        return self._stack.coupling(t, theta.reshape(1, -1), history)[0]

    def describe(self) -> dict:
        d = super().describe()
        d["kernel"] = self.kernel
        d["threads"] = self.threads
        return d
