"""Potential coefficient rows shared by both coupling kernels.

The compiled kernel (:mod:`repro.kernels.cc`) evaluates the interaction
potential *inline* per edge block, so it cannot call back into an
arbitrary Python :class:`~repro.core.potentials.Potential`.
Instead, every shipped potential family exposes its behaviour as a
``(kind, p0, p1)`` coefficient triple via
:meth:`~repro.core.potentials.Potential.kernel_coefficients`:

========== =============================== ======================== =====
kind        family                          p0                       p1
========== =============================== ======================== =====
0           tanh (Eq. 3)                    gain                     --
1           bottleneck (Eq. 4)              sigma                    3*pi/(2*sigma)
2           kuramoto (Eq. 1)                --                       --
3           linear                          k                        --
========== =============================== ======================== =====

``CustomPotential`` (and any third-party subclass that does not override
``kernel_coefficients``) returns ``None``: the batch then runs the NumPy
kernel, which calls each member's potential on its own edge row.

:func:`eval_coefficients` is the NumPy kernel's potential evaluation and
the reference semantics of the inline one; the kernel-equivalence tests
pin it bitwise to ``Potential.__call__`` and the compiled kernel to it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "KIND_TANH",
    "KIND_BOTTLENECK",
    "KIND_KURAMOTO",
    "KIND_LINEAR",
    "family_coefficients",
    "eval_coefficients",
]

KIND_TANH = 0
KIND_BOTTLENECK = 1
KIND_KURAMOTO = 2
KIND_LINEAR = 3


def family_coefficients(
    potentials: Sequence,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Stack per-member coefficient triples for a batched fused kernel.

    Returns ``(kinds, p0, p1)`` arrays of length R, or ``None`` as soon
    as any member's potential has no coefficient representation (the
    batched backend then calls each member's potential itself).  The
    members need not belong to one family: both kernels dispatch on
    ``kinds[r]`` per member.
    """
    kinds = np.empty(len(potentials), dtype=np.int64)
    p0 = np.zeros(len(potentials))
    p1 = np.zeros(len(potentials))
    for r, pot in enumerate(potentials):
        coeffs = pot.kernel_coefficients()
        if coeffs is None:
            return None
        kinds[r], p0[r], p1[r] = coeffs
    return kinds, p0, p1


def eval_coefficients(kind: int, p0, p1, d: np.ndarray) -> np.ndarray:
    """Evaluate one potential kind on phase differences ``d``.

    ``p0``/``p1`` are scalars, or ``(k, 1)`` columns broadcast against
    ``(k, E)`` rows (one member per row).  Bit-compatible with the
    corresponding ``Potential.__call__`` (same formulas, same operation
    order); the compiled kernels match it to within the ulp-level
    differences of the libm/SIMD transcendentals.
    """
    d = np.asarray(d, dtype=float)
    if kind == KIND_TANH:
        return np.tanh(p0 * d)
    if kind == KIND_BOTTLENECK:
        out = np.sign(d)
        inside = np.abs(d) < p0
        out[inside] = -np.sin((p1 * d)[inside])
        return out
    if kind == KIND_KURAMOTO:
        return np.sin(d)
    if kind == KIND_LINEAR:
        return p0 * d
    raise ValueError(f"unknown potential kind {kind!r}")
