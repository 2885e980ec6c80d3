"""Pluggable RHS compute backends for the oscillator model.

A backend compiles a frozen :class:`~repro.core.model.RealizedModel`
into an evaluator of the Eq. 2 right-hand side.  Two coupling
implementations:

* :class:`DenseBackend` — the O(N^2) dense-matrix reference (the
  behaviour of the original implementation and of the paper's MATLAB
  artifact); optimal for genuinely dense topologies.
* :class:`HeteroBatchedBackend` — the O(E) edge-list coupling over R
  stacked realisations ``(R, N)`` in one vectorised call; evaluates the
  potential only on actual edges and accumulates with a segment sum.
  Members may differ in ``v_p``, period, potential, delay schedule and
  topology (only ``N`` is shared), so a whole seed ensemble or
  *parameter grid* integrates as one super-state (the backend of
  :func:`repro.core.simulation.simulate_grid`, the one solve behind
  ``run_ensemble``, ``grid_sweep`` and every campaign shard).

:class:`SparseBackend` is the single-state view of the edge-list
coupling: a one-member :class:`HeteroBatchedBackend` evaluated on the
``(1, N)`` reshape of the state, with the 1-D intrinsic frequency.
Orders of magnitude faster than dense for the paper's nearest-neighbour
topologies at scale.

Selection
---------
``make_backend(realized, "auto")`` picks by topology density: the
edge-list kernel wins whenever fewer than ``SPARSE_DENSITY_THRESHOLD``
of the matrix entries are edges.  ``"dense"`` / ``"sparse"`` force a
choice (the declarative knob is ``PhysicalOscillatorModel.backend``, and
``simulate(..., backend=...)`` / ``pom model --backend`` override it per
run).

Multi-member stacks always compile to :class:`HeteroBatchedBackend`
(``make_batched_backend(members)``).

Orthogonal to the backend choice, the ``kernel=`` knob selects the
implementation of the inner coupling loop for the edge-list backends
(``"auto"`` | ``"numpy"`` | ``"cc"``, see
:mod:`repro.kernels`); it threads through ``make_backend`` /
``make_batched_backend``, the ``simulate*`` drivers, and the CLI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..kernels import available_kernels, normalize_kernel_name
from .base import RHSBackend, frequency_from_period
from .dense import DenseBackend
from .hetero import HeteroBatchedBackend
from .sparse import SparseBackend

if TYPE_CHECKING:  # pragma: no cover
    from ..core.model import RealizedModel

__all__ = [
    "RHSBackend",
    "DenseBackend",
    "SparseBackend",
    "HeteroBatchedBackend",
    "frequency_from_period",
    "BACKENDS",
    "SPARSE_DENSITY_THRESHOLD",
    "available_backends",
    "available_kernels",
    "auto_backend_name",
    "normalize_backend_name",
    "normalize_kernel_name",
    "make_backend",
    "make_batched_backend",
]

#: registry of single-state backends selectable by name
BACKENDS: dict[str, type[RHSBackend]] = {
    DenseBackend.name: DenseBackend,
    SparseBackend.name: SparseBackend,
}

#: edge fraction below which "auto" prefers the edge-list kernel
SPARSE_DENSITY_THRESHOLD = 0.25


def available_backends() -> tuple[str, ...]:
    """Names accepted by the ``backend=`` knobs (plus ``"auto"``)."""
    return ("auto",) + tuple(sorted(BACKENDS))


def normalize_backend_name(name: str | None) -> str:
    """Validate a ``backend=`` knob value; returns the canonical key.

    The single source of the "unknown backend" error — used by the
    declarative model field, the realisation-time override, and the
    compile step, so they can never drift apart.
    """
    key = (name or "auto").strip().lower()
    if key != "auto" and key not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        )
    return key


def auto_backend_name(topology) -> str:
    """Density-based choice: sparse topologies get the edge-list kernel."""
    return (SparseBackend.name
            if topology.density <= SPARSE_DENSITY_THRESHOLD
            else DenseBackend.name)


def make_backend(realized: "RealizedModel", name: str = "auto",
                 kernel: str | None = "auto",
                 threads: int | None = None) -> RHSBackend:
    """Compile ``realized`` with the named (or auto-selected) backend.

    ``kernel`` selects the coupling-loop implementation for backends
    that support it (see :mod:`repro.kernels`).  An explicit non-auto
    kernel is itself a request for the edge-list path, so backend
    ``"auto"`` then resolves to sparse regardless of density; only an
    *explicit* kernel-less backend (dense) combined with an explicit
    kernel is an error.  ``threads`` (default: the ``POM_NUM_THREADS``
    environment variable, else 1) sets the in-kernel thread count for
    the compiled kernels; like ``kernel``, an explicit count steers
    backend ``"auto"`` onto the edge-list path.
    """
    key = normalize_backend_name(name)
    if key == "auto":
        if normalize_kernel_name(kernel) != "auto" or threads is not None:
            key = SparseBackend.name
        else:
            key = auto_backend_name(realized.model.topology)
    cls = BACKENDS[key]
    if cls.supports_kernels:
        return cls(realized, kernel=kernel, threads=threads)
    if normalize_kernel_name(kernel) != "auto":
        raise ValueError(
            f"backend {key!r} does not support the kernel= knob "
            f"(got kernel={kernel!r}); use the sparse backend"
        )
    if threads is not None:
        raise ValueError(
            f"backend {key!r} does not support the threads= knob "
            f"(got threads={threads!r}); use the sparse backend"
        )
    return cls(realized)


def make_batched_backend(members: Sequence["RealizedModel"],
                         kernel: str | None = "auto",
                         threads: int | None = None) -> HeteroBatchedBackend:
    """Compile a stack of realisations into one multi-member backend.

    ``kernel`` selects the coupling-loop implementation and ``threads``
    the in-kernel thread count.
    """
    return HeteroBatchedBackend(members, kernel=kernel, threads=threads)
