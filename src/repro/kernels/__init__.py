"""Coupling kernels for large-N topologies.

The edge-list backend (:mod:`repro.backends`) delegates the hot coupling
loop — gather partner phases over the edge list, evaluate the interaction
potential, scatter-accumulate per row — to one of two interchangeable
*kernels*, selected by the ``kernel=`` knob threaded through
``make_batched_backend``, ``simulate*``, and the CLI:

``"numpy"``
    The vectorised edge-list path: one ``(R, E)`` round-trip through
    the coefficient formulas ``cc`` inlines (:func:`eval_coefficients`).
    Always available, any potential (``CustomPotential`` included); the
    reference implementation.
``"cc"``
    Fused kernel compiled on first use with the system C compiler into a
    CPython extension (:mod:`repro.kernels.cc`).  Needs a working ``cc``,
    the Python headers and a potential family with kernel coefficients.

``"auto"`` resolves to ``cc`` when every potential in the batch exposes
:meth:`~repro.core.potentials.Potential.kernel_coefficients` and a
compiler works, else to ``numpy``.  Delayed (DDE) evaluations always
run the NumPy gather with the delayed edge differences patched in,
regardless of the knob; ``cc`` covers the non-delayed fast path that
dominates every paper workload.

Orthogonal to the kernel choice, :func:`resolve_threads` resolves the
in-kernel thread count (the ``threads=`` knob on the backend /
``simulate*`` / CLI, defaulting to the ``POM_NUM_THREADS`` environment
variable): the ``cc`` kernel splits its work over disjoint output rows,
bit-identical to the serial pass for any count.

The fixed-step march's elementwise passes, :func:`rk4_stage` and
:func:`rk4_update`, are not a kernel choice: where ``cc`` loads they run
its uncontracted C loops, one memory pass each, and otherwise the NumPy
formula, with the same bits either way.
"""

from __future__ import annotations

import importlib.util
import os
import warnings

import numpy as np

from . import cc
from .cc import cc_available, openmp_available
from .coeffs import (
    KIND_BOTTLENECK,
    KIND_KURAMOTO,
    KIND_LINEAR,
    KIND_TANH,
    eval_coefficients,
    family_coefficients,
)

__all__ = [
    "KERNELS",
    "THREADS_ENV_VAR",
    "available_kernels",
    "normalize_kernel_name",
    "resolve_kernel",
    "resolve_threads",
    "cc_available",
    "openmp_available",
    "numba_available",
    "rk4_stage",
    "rk4_update",
    "family_coefficients",
    "eval_coefficients",
    "KIND_TANH",
    "KIND_BOTTLENECK",
    "KIND_KURAMOTO",
    "KIND_LINEAR",
]

#: names accepted by the ``kernel=`` knobs
KERNELS = ("auto", "numpy", "cc")

#: environment default for the in-kernel thread count; an explicit
#: ``threads=`` knob always wins.  The sharded executor pins this to 1
#: inside worker processes so jobs x threads never oversubscribes.
THREADS_ENV_VAR = "POM_NUM_THREADS"


def resolve_threads(threads: int | None = None) -> int:
    """Effective in-kernel thread count.

    Resolution order: the explicit ``threads=`` knob, then the
    ``POM_NUM_THREADS`` environment variable, then 1 (serial).  Read at
    *call* time, never cached at import, so the executor's worker
    initializer can pin it after fork.  The count only steers wall
    clock: the ``cc`` kernel is bit-identical for any value, and
    silently runs serial when its binary lacks OpenMP.
    """
    if threads is not None:
        t = int(threads)
        if t < 1:
            raise ValueError("threads must be positive")
        return t
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            t = int(env)
        except ValueError:
            t = 0
        if t < 1:
            raise ValueError(
                f"invalid {THREADS_ENV_VAR}={env!r}: expected a positive integer"
            )
        return t
    return 1


def available_kernels() -> tuple[str, ...]:
    """Names accepted by the ``kernel=`` knobs (availability not implied)."""
    return KERNELS


def normalize_kernel_name(name: str | None) -> str:
    """Validate a ``kernel=`` knob value; returns the canonical key.

    The single source of the "unknown kernel" error, shared by the
    declarative model field, the realisation-time override, the backend
    constructor, and the CLI.
    """
    key = (name or "auto").strip().lower()
    if key not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; available: {', '.join(KERNELS)}")
    return key


def numba_available() -> bool:
    """Whether numba is importable on this host.

    A host fact for benchmark records only: no kernel uses numba.
    """
    return importlib.util.find_spec("numba") is not None


_warned_coefficient_fallback = False


def _warn_coefficient_fallback() -> None:
    """One-time note that the compiled kernel was skipped for a potential
    without kernel coefficients (``CustomPotential``)."""
    global _warned_coefficient_fallback
    if _warned_coefficient_fallback:
        return
    _warned_coefficient_fallback = True
    warnings.warn(
        "a potential without kernel coefficients (e.g. CustomPotential) "
        'forced kernel "auto" onto the Python-potential "numpy" path '
        'although the compiled kernel ("cc") is available; expect a '
        "serial slowdown — use a shipped potential family "
        "(tanh/bottleneck/kuramoto/linear) for the fused kernel",
        RuntimeWarning,
        stacklevel=3,
    )


def resolve_kernel(
    name: str | None, *, has_coefficients: bool, n_edges: int | None = None
) -> str:
    """Resolve a ``kernel=`` request to a concrete, runnable kernel.

    Parameters
    ----------
    name:
        The knob value (``None`` means ``"auto"``).
    has_coefficients:
        Whether every potential involved exposes kernel coefficients
        (the compiled kernel evaluates the potential inline and cannot
        call back into Python).
    n_edges:
        Edge count of the topology.  Accepted from callers that pass it;
        it does not affect the result.

    ``"auto"`` falls back; an explicit ``"cc"`` fails loudly when it
    cannot run, so a benchmark or test never quietly measures the wrong
    code path.  The coefficient-less fallback (``CustomPotential``)
    warns once per process: a campaign silently running the Python-loop
    potential instead of the compiled kernel is a large, otherwise
    invisible slowdown.
    """
    key = normalize_kernel_name(name)
    if key == "auto":
        if not cc_available():
            return "numpy"
        if has_coefficients:
            return "cc"
        _warn_coefficient_fallback()
        return "numpy"
    if key == "cc":
        if not cc_available():
            raise RuntimeError(
                'kernel "cc" requested but it does not build here (it needs '
                'a C compiler and Python.h); use kernel="numpy" or "auto"'
            )
        if not has_coefficients:
            raise ValueError(
                'kernel "cc" requires potentials with kernel '
                "coefficients (the shipped tanh/bottleneck/kuramoto/"
                "linear families); custom potentials need "
                'kernel="numpy"'
            )
    return key


def _compiled(y) -> bool:
    """Whether cc's elementwise loops may take the march state ``y``: the
    extension loads and ``y`` is an ``(R, N)`` ndarray.  The loop checks
    the rest (every array C-contiguous float64 of one shape) and raises
    ``ValueError`` otherwise, which sends the call to the NumPy formula."""
    return (type(y) is np.ndarray and y.ndim == 2
            and cc.load_library() is not None)


def rk4_stage(y, k, c: float) -> np.ndarray:
    """A fixed-step stage argument ``y + c*k`` as a new array.

    One pass of cc's uncontracted loop where it applies
    (:func:`_compiled`), else the NumPy expression: the same bits.
    """
    if _compiled(y):
        try:
            return cc.rk4_stage(y, k, c, np.empty(y.shape))
        except ValueError:
            pass
    return y + c * k


def rk4_update(y, k1, k2, k3, k4, h: float) -> np.ndarray:
    """The classic RK4 update ``y + (h/6)*(k1 + 2k2 + 2k3 + k4)`` as a
    new array, summed left to right, as :func:`rk4_stage`."""
    h6 = h / 6.0
    if _compiled(y):
        try:
            return cc.rk4_update(y, k1, k2, k3, k4, h6, np.empty(y.shape))
        except ValueError:
            pass
    return y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
