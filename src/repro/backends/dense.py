"""Dense-matrix RHS backend — the O(N^2) reference implementation.

Materialises the full ``(N, N)`` phase-difference matrix on every call,
exactly like the paper's MATLAB artifact: O(N^2) time and memory per
evaluation regardless of how sparse the topology is.  No solve uses it:
it is the independent ground truth the edge-list coupling of
:class:`~repro.backends.hetero.HeteroBatchedBackend` is verified
against, built directly as ``DenseBackend(realized)``.

Backends are stateless with respect to the trajectory: they only read
the frozen noise realisation, so an adaptive solver may evaluate them at
any time, repeatedly, in any order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .base import frequency_from_period

if TYPE_CHECKING:  # pragma: no cover
    from ..core.model import RealizedModel
    from ..integrate.history import HistoryBuffer

__all__ = ["DenseBackend"]


class DenseBackend:
    """Reference O(N^2) RHS evaluator for one frozen model realisation.

    Parameters
    ----------
    realized:
        The frozen model whose RHS this backend evaluates.
    """

    def __init__(self, realized: "RealizedModel") -> None:
        model = realized.model
        self.realized = realized
        self.model = model
        self._n = model.n
        self._period = model.period
        self._vp_over_n = model.v_p / model.n
        self._T = model.topology.matrix               # (n, n)
        self._coupled = self._T != 0.0                # bool mask
        self._any_coupled = bool(self._coupled.any())
        # One-slot intrinsic-frequency memo, ``(key, freq)`` in a single
        # attribute so a concurrent reader never pairs one entry's key
        # with another entry's array.
        self._freq_memo: tuple | None = None

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

    def coupling(self, t: float, theta: np.ndarray,
                 history: "HistoryBuffer | None" = None) -> np.ndarray:
        """Interaction term ``(v_p/N) sum_j T_ij V(theta_j^(del) - theta_i)``."""
        if self._vp_over_n == 0.0:
            return np.zeros(self._n)

        if not self.realized.has_delays or history is None:
            dmat = theta[None, :] - theta[:, None]     # d[i, j] = th_j - th_i
            vmat = np.asarray(self.model.potential(dmat), dtype=float)
            return self._vp_over_n * (self._T * vmat).sum(axis=1)

        # Delayed partner phases: evaluate the history once per distinct
        # delay value (tau fields are piecewise constant with few levels).
        tau_now = np.zeros((self._n, self._n))
        tau_now[self.model.topology.edge_list()] = self.realized.tau(t)
        dmat = np.empty((self._n, self._n))
        uniq = np.unique(tau_now[self._coupled]) if self._any_coupled else []
        dmat[:] = theta[None, :] - theta[:, None]
        for v in uniq:
            if v == 0.0:
                continue
            delayed = history(t - float(v))            # theta vector at t - v
            mask = self._coupled & (tau_now == v)
            rows, cols = np.nonzero(mask)
            dmat[mask] = delayed[cols] - theta[rows]
        vmat = np.asarray(self.model.potential(dmat), dtype=float)
        return self._vp_over_n * (self._T * vmat).sum(axis=1)

    def rhs(self, t: float, theta: np.ndarray,
            history: "HistoryBuffer | None" = None) -> np.ndarray:
        """Full right-hand side of Eq. 2."""
        return self.intrinsic_frequency(t) + self.coupling(t, theta, history)
