"""Common machinery for the RHS compute backends.

A *backend* compiles a :class:`~repro.core.model.RealizedModel` into an
evaluator for the right-hand side of Eq. 2,

    dtheta_i/dt = 2*pi/(T + zeta_i(t) + ...)                (intrinsic)
                + (v_p/N) * sum_j T_ij V(theta_j^(del) - theta_i),

splitting the work into the *intrinsic frequency* (noise channels, shared
by every backend) and the *coupling term* (topology-dependent — this is
where the backends differ: dense matrix algebra vs. edge-list kernels vs.
batched super-states).

Backends are stateless with respect to the trajectory: they only read the
frozen noise realisation, so an adaptive solver may evaluate them at any
time, repeatedly, in any order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..core.model import RealizedModel
    from ..integrate.history import HistoryBuffer

__all__ = ["RHSBackend", "frequency_from_period"]


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


class RHSBackend(ABC):
    """Compiled RHS evaluator for one frozen model realisation.

    Subclasses implement :meth:`coupling`; the intrinsic-frequency part
    is identical for every single-state backend and lives here.

    Parameters
    ----------
    realized:
        The frozen model whose RHS this backend evaluates.
    """

    #: identifier used by the ``backend=`` knobs and reports
    name: str = "abstract"

    #: whether the constructor accepts the ``kernel=`` selection knob
    #: (see :mod:`repro.kernels`); backends without edge kernels reject
    #: explicit non-auto requests in :func:`repro.backends.make_backend`
    supports_kernels: bool = False

    def __init__(self, realized: "RealizedModel") -> None:
        model = realized.model
        self.realized = realized
        self.model = model
        self._n = model.n
        self._period = model.period
        self._vp_over_n = model.v_p / model.n
        # One-slot intrinsic-frequency memo, ``(key, freq)`` in a single
        # attribute so a concurrent reader never pairs one entry's key
        # with another entry's array.
        self._freq_memo: tuple | None = None

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of oscillators."""
        return self._n

    def __getstate__(self) -> dict:
        # A copied memo array would come back writable; rebuild it lazily.
        state = self.__dict__.copy()
        state["_freq_memo"] = None
        return state

    def intrinsic_frequency(self, t: float) -> np.ndarray:
        """Per-process frequency ``2*pi/(T + zeta_i(t) + delay terms)``.

        zeta and the one-off delay schedule are piecewise constant, so
        the result is memoised on (noise interval, active delays); the
        expression is unchanged, so a memo hit returns the same bits as
        a fresh evaluation.  The returned array is read-only.
        """
        realized = self.realized
        key = (realized.zeta.interval(t), realized.delay_schedule.active(t))
        memo = self._freq_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        denom = (self._period + realized.zeta(t)
                 + realized.delay_schedule(t, self._n))
        freq = frequency_from_period(denom)
        freq.setflags(write=False)
        self._freq_memo = (key, freq)
        return freq

    @abstractmethod
    def coupling(self, t: float, theta: np.ndarray,
                 history: "HistoryBuffer | None" = None) -> np.ndarray:
        """Interaction term ``(v_p/N) sum_j T_ij V(theta_j^(del) - theta_i)``."""

    def rhs(self, t: float, theta: np.ndarray,
            history: "HistoryBuffer | None" = None) -> np.ndarray:
        """Full right-hand side of Eq. 2."""
        return self.intrinsic_frequency(t) + self.coupling(t, theta, history)

    def describe(self) -> dict:
        """Metadata dictionary used by exporters."""
        return {"backend": self.name, "n": self._n}
