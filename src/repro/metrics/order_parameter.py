"""Kuramoto order parameter and related global synchrony measures.

The complex order parameter

    r(t) * exp(i*psi(t)) = (1/N) * sum_j exp(i*theta_j(t))

measures global phase coherence: ``r = 1`` for perfect synchrony,
``r ~ 1/sqrt(N)`` for uniformly scattered phases.  It is the classic
observable for the onset of synchronisation (Strogatz 2000, paper
ref. [22]) and serves here to classify the asymptotic state of the POM:
scalable potentials drive ``r -> 1``; bottlenecked potentials settle at
the ``r`` value of the splayed wavefront state.

Every helper takes ``kernel=`` (default ``"auto"``, resolved by
:func:`repro.kernels.resolve_kernel`) for the shared
:func:`~repro.metrics.streaming.mean_cos_sin` reduction, so with the
kernel a campaign's members ran on they reproduce its streamed
``order_parameter`` bits.
"""

from __future__ import annotations

import numpy as np

from .streaming import mean_cos_sin

__all__ = [
    "order_parameter",
    "order_parameter_series",
    "mean_phase",
    "splay_order_parameter",
]


def order_parameter(theta: np.ndarray, kernel: str = "auto") -> float:
    """Magnitude ``r`` of the complex order parameter for one sample.

    Parameters
    ----------
    theta:
        Phases, shape ``(n,)``.
    kernel:
        Kernel of the ``cos``/``sin`` means (see the module docstring).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.shape[0] == 0:
        raise ValueError("theta must be a non-empty 1-D array")
    return float(np.hypot(*mean_cos_sin(theta, kernel)))


def mean_phase(theta: np.ndarray, kernel: str = "auto") -> float:
    """Argument ``psi`` of the complex order parameter (circular mean)."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.shape[0] == 0:
        raise ValueError("theta must be a non-empty 1-D array")
    c, s = mean_cos_sin(theta, kernel)
    return float(np.arctan2(s, c))


def order_parameter_series(thetas: np.ndarray,
                           kernel: str = "auto") -> np.ndarray:
    """``r(t)`` for a whole trajectory.

    Parameters
    ----------
    thetas:
        Phases, shape ``(n_t, n)``.
    kernel:
        Kernel of the ``cos``/``sin`` means (see the module docstring).

    Returns
    -------
    Array of shape ``(n_t,)``.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2:
        raise ValueError("thetas must be 2-D (n_t, n)")
    return np.hypot(*mean_cos_sin(thetas, kernel))


def splay_order_parameter(n: int, gap: float) -> float:
    """Analytic ``r`` of the perfectly splayed state ``theta_i = i*gap``.

    Geometric sum: ``r = |sin(n*gap/2) / (n*sin(gap/2))|`` (``-> 1`` as
    ``gap -> 0``).  Used to validate the asymptotic wavefront state of
    the bottleneck potential against theory.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if gap == 0.0:
        return 1.0
    s = np.sin(gap / 2.0)
    if abs(s) < 1e-300:
        return 1.0
    return float(abs(np.sin(n * gap / 2.0) / (n * s)))
