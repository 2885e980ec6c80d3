"""Shared arithmetic of the RHS compute backends.

Both backends split Eq. 2,

    dtheta_i/dt = 2*pi/(T + zeta_i(t) + ...)                (intrinsic)
                + (v_p/N) * sum_j T_ij V(theta_j^(del) - theta_i),

into the *intrinsic frequency* (noise channels) and the *coupling term*
(topology-dependent — dense matrix algebra vs. edge-list kernels).  The
period-to-frequency map below is the one piece of arithmetic they share.
"""

from __future__ import annotations

import numpy as np

__all__ = ["frequency_from_period"]


def frequency_from_period(denom: np.ndarray) -> np.ndarray:
    """``2*pi / denom`` with stalled processes mapped to frequency 0.

    A non-positive or infinite effective period means the process does
    not advance (the exact semantics of a full-stall injection).  Works
    on arrays of any shape — the batched backend feeds ``(R, N)``.
    """
    freq = np.zeros_like(denom, dtype=float)
    good = np.isfinite(denom) & (denom > 0.0)
    freq[good] = 2.0 * np.pi / denom[good]
    return freq
