"""RHS compute backends for the oscillator model.

A backend compiles frozen :class:`~repro.core.model.RealizedModel`
realisations into an evaluator of the Eq. 2 right-hand side.  Two
coupling implementations:

* :class:`HeteroBatchedBackend` — the O(E) edge-list coupling over R
  stacked realisations ``(R, N)`` in one vectorised call; evaluates the
  potential only on actual edges and accumulates with a segment sum.
  Members may differ in ``v_p``, period, potential, delay schedule and
  topology (only ``N`` is shared), so a whole seed ensemble or
  *parameter grid* integrates as one super-state.  It is the backend of
  every solve: :func:`repro.core.simulation.simulate_grid` compiles its
  members with :func:`make_batched_backend`, and ``simulate()`` is a
  one-member ``simulate_grid``.  ``RealizedModel.rhs`` is the ``(1, N)``
  view of a one-member stack.
* :class:`DenseBackend` — the O(N^2) dense-matrix reference (the
  behaviour of the original implementation and of the paper's MATLAB
  artifact).  No solve selects it; tests build it directly as
  ``DenseBackend(realized)`` to check the edge-list coupling against.

The ``kernel=`` knob selects the implementation of the edge-list
coupling loop (``"auto"`` | ``"numpy"`` | ``"cc"``, see
:mod:`repro.kernels`); it threads through ``make_batched_backend``, the
``simulate*`` drivers, and the CLI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .base import frequency_from_period
from .dense import DenseBackend
from .hetero import HeteroBatchedBackend

if TYPE_CHECKING:  # pragma: no cover
    from ..core.model import RealizedModel

__all__ = [
    "DenseBackend",
    "HeteroBatchedBackend",
    "frequency_from_period",
    "make_batched_backend",
]


def make_batched_backend(members: Sequence["RealizedModel"],
                         kernel: str | None = "auto",
                         threads: int | None = None) -> HeteroBatchedBackend:
    """Compile a stack of realisations into one multi-member backend.

    ``kernel`` selects the coupling-loop implementation and ``threads``
    the in-kernel thread count.
    """
    return HeteroBatchedBackend(members, kernel=kernel, threads=threads)
