"""Interaction potentials for the physical oscillator model.

The potential ``V`` maps a phase difference ``dtheta = theta_j - theta_i``
to the pull (positive: oscillator *i* is accelerated towards *j*) that a
connected partner exerts.  The paper (Sec. 5.2) introduces two
characteristic potentials:

* :class:`TanhPotential` (Eq. 3) for **resource-scalable** programs —
  attractive at every phase distance, so any disturbance relaxes back to
  the synchronised state (self-resynchronisation, firefly-like).
* :class:`BottleneckPotential` (Eq. 4) for **resource-bottlenecked**
  programs — repulsive at short range, attractive beyond the
  "interaction horizon" ``sigma``.  Its first zero at ``2*sigma/3``
  is the stable inter-process phase gap of the desynchronised
  (computational-wavefront) state.

:class:`KuramotoPotential` (the plain ``sin`` of Eq. 1) is kept as the
baseline the paper argues against: it is 2*pi-periodic (allows phase
slips) and has unstable/stable zeros at multiples of pi.

Sign convention
---------------
All potentials here are **odd** functions of the phase difference and are
used in the coupling sum ``sum_j T_ij * V(theta_j - theta_i)``.  A
positive value accelerates oscillator *i* (it lags and is pulled
forward); oddness makes the interaction action-reaction symmetric.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

__all__ = [
    "Potential",
    "TanhPotential",
    "BottleneckPotential",
    "KuramotoPotential",
    "LinearPotential",
    "CustomPotential",
    "potential_from_name",
]


class Potential(ABC):
    """Abstract interaction potential ``V(dtheta)``.

    Subclasses implement :meth:`__call__` vectorised over NumPy arrays.
    """

    #: human-readable identifier used by the CLI and experiment registry
    name: str = "abstract"

    @abstractmethod
    def __call__(self, dtheta: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the potential at phase difference(s) ``dtheta``."""

    def kernel_coefficients(self) -> tuple[int, float, float] | None:
        """Coefficient triple ``(kind, p0, p1)`` for the fused kernels.

        The compiled kernel (:mod:`repro.kernels.cc`) evaluates the
        potential inline per edge block and cannot call back into
        Python, so each shipped family exposes its behaviour as a kind
        id plus up to two parameters (see
        :mod:`repro.kernels.coeffs` for the table).  The base
        implementation returns ``None``: potentials without a
        coefficient representation (e.g. :class:`CustomPotential`) keep
        the NumPy paths, which go through ``__call__``.
        """
        return None

    # ------------------------------------------------------------------
    # Generic analysis helpers (shared by all concrete potentials)
    # ------------------------------------------------------------------
    def stable_gap(self) -> float:
        """Phase gap at which a pair of coupled oscillators equilibrates.

        For two oscillators coupled through an odd potential the gap
        ``g = theta_j - theta_i`` obeys ``dg/dt = -(2 v_p / N) V(g)``, so
        an equilibrium gap is a zero of ``V`` and it is *stable* iff
        ``V'(g) > 0`` there.  The base implementation returns 0.0 (full
        synchrony), correct for every potential that is attractive
        everywhere (``V(g) > 0`` for ``g > 0``).
        """
        return 0.0

    def derivative(self, dtheta: float, h: float = 1e-6) -> float:
        """Central finite-difference derivative (for stability analysis)."""
        return float((self(dtheta + h) - self(dtheta - h)) / (2.0 * h))

    def antiderivative(self, dtheta):
        """``U(d) = integral_0^d V(s) ds`` — the pair potential energy.

        For an odd ``V`` this is an even function with ``U(0) = 0``; on
        symmetric topologies the co-moving phase dynamics is the
        gradient flow of the total energy built from ``U`` (see
        :func:`repro.metrics.energy.system_energy`), so ``U`` turns the
        "interaction potential" language of the paper into an actual
        Lyapunov function.  The base implementation integrates
        numerically (Simpson); subclasses override with closed forms.
        """
        d = np.atleast_1d(np.asarray(dtheta, dtype=float))
        out = np.empty_like(d)
        for idx, val in np.ndenumerate(d):
            if val == 0.0:
                out[idx] = 0.0
                continue
            xs = np.linspace(0.0, val, 201)
            ys = np.asarray(self(xs), dtype=float)
            out[idx] = np.trapezoid(ys, xs)
        if np.isscalar(dtheta):
            return float(out[0])
        return out.reshape(np.shape(dtheta))

    def is_odd(self, probe: np.ndarray | None = None, tol: float = 1e-12) -> bool:
        """Numerically check oddness on a probe grid."""
        if probe is None:
            probe = np.linspace(0.01, 10.0, 97)
        a = np.asarray(self(probe), dtype=float)
        b = np.asarray(self(-probe), dtype=float)
        return bool(np.allclose(a, -b, atol=tol))

    def describe(self) -> dict:
        """Metadata dictionary used by exporters."""
        return {"name": self.name, "stable_gap": self.stable_gap()}


class TanhPotential(Potential):
    """Scalable-program potential ``V(d) = tanh(gain * d)`` (paper Eq. 3).

    Attractive for every phase difference and saturating at +-1, it
    forces oscillators with *any* phase difference into sync — the
    self-resynchronisation behaviour of bottleneck-free bulk-synchronous
    MPI programs (paper Sec. 5.2.1).

    Parameters
    ----------
    gain:
        Slope at the origin.  The paper uses 1; exposing it allows
        studying "stiffness" without changing the coupling strength.
    """

    name = "tanh"

    def __init__(self, gain: float = 1.0) -> None:
        if gain <= 0:
            raise ValueError("gain must be positive")
        self.gain = float(gain)

    def __call__(self, dtheta):
        return np.tanh(self.gain * np.asarray(dtheta, dtype=float)) \
            if isinstance(dtheta, np.ndarray) else float(np.tanh(self.gain * dtheta))

    def stable_gap(self) -> float:
        """The only zero is at 0: full synchrony."""
        return 0.0

    def kernel_coefficients(self) -> tuple[int, float, float]:
        from ..kernels.coeffs import KIND_TANH
        return (KIND_TANH, self.gain, 0.0)

    def antiderivative(self, dtheta):
        """Closed form: ``U(d) = log(cosh(gain*d)) / gain`` — a convex
        well with its single minimum at synchrony."""
        d = np.asarray(dtheta, dtype=float)
        # log(cosh(x)) = |x| + log1p(exp(-2|x|)) - log(2): overflow-safe.
        x = np.abs(self.gain * d)
        out = (x + np.log1p(np.exp(-2.0 * x)) - np.log(2.0)) / self.gain
        if np.isscalar(dtheta):
            return float(out)
        return out

    def describe(self) -> dict:
        d = super().describe()
        d["gain"] = self.gain
        return d


class BottleneckPotential(Potential):
    """Bottlenecked-program potential (paper Eq. 4).

    .. math::

        V(d) = \\begin{cases}
            -\\sin\\left(\\frac{3\\pi}{2\\sigma} d\\right) & |d| < \\sigma \\\\
            \\mathrm{sgn}(d) & \\text{otherwise}
        \\end{cases}

    Eq. 4 in the paper displays the argument as ``theta_i - theta_j``
    while the coupling sum of Eq. 2 uses ``theta_j - theta_i``.  We apply
    the formula verbatim to ``d = theta_j - theta_i``: this is the only
    reading consistent with Fig. 1(a) — the curve is continuous at
    ``|d| = sigma`` (``-sin(3*pi/2) = +1 = sgn(sigma)``), approaches +1
    at large positive ``d`` exactly like the scalable tanh ("always
    attractive for large angles"), and makes the first zero ``2*sigma/3``
    stable under the pair-gap dynamics ``dg/dt ∝ -V(g)`` (``V'(2σ/3) =
    +3π/(2σ) > 0``) while the origin is unstable (``V'(0) < 0``) —
    the spontaneous-desynchronisation onset.

    Short-range (``|d| < 2*sigma/3``) the interaction is *repulsive*
    (drives phases apart — bottleneck evasion), long-range it is
    attractive (an MPI process cannot run ahead of its dependencies).
    The first zero at ``2*sigma/3`` is the stable equilibrium gap of the
    desynchronised state; ``sigma`` is the "interaction horizon" that
    correlates with idle-wave speed and phase spread (Sec. 5.2.2).

    Parameters
    ----------
    sigma:
        Interaction horizon, > 0.  Small sigma: almost synchronised /
        stiff long-range communication.  Large sigma: strong
        desynchronisation with short-range dependencies.
    """

    name = "bottleneck"

    def __init__(self, sigma: float = 1.0) -> None:
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)

    def __call__(self, dtheta):
        d = np.asarray(dtheta, dtype=float)
        scalar = d.ndim == 0
        d = np.atleast_1d(d)
        out = np.sign(d)
        inside = np.abs(d) < self.sigma
        out[inside] = -np.sin((3.0 * np.pi / (2.0 * self.sigma)) * d[inside])
        if scalar:
            return float(out[0])
        return out

    def stable_gap(self) -> float:
        """First zero of the potential: the desynchronised equilibrium gap.

        Inside the horizon ``V(d) = -sin(3*pi/(2*sigma) * d)`` vanishes at
        ``d = 2*sigma/3`` (and at 0, which is *unstable* because V is
        repulsive around it).
        """
        return 2.0 * self.sigma / 3.0

    def kernel_coefficients(self) -> tuple[int, float, float]:
        # p1 pre-bakes the sine argument scale exactly as __call__
        # computes it, so every kernel shares one formula.
        from ..kernels.coeffs import KIND_BOTTLENECK
        return (KIND_BOTTLENECK, self.sigma, 3.0 * np.pi / (2.0 * self.sigma))

    @property
    def repulsive_range(self) -> float:
        """Width of the repulsive neighbourhood of the origin."""
        return self.stable_gap()

    def antiderivative(self, dtheta):
        """Closed form pair energy.

        Inside the horizon ``U(d) = (2*sigma/(3*pi)) *
        (cos(3*pi/(2*sigma)*d) - 1)`` — a double-well with minima at
        ``±2*sigma/3`` (the desynchronised equilibria) and a local
        *maximum* at the origin (the unstable lock-step state).
        Outside, ``U`` continues linearly with unit slope.
        """
        d = np.asarray(dtheta, dtype=float)
        a = 3.0 * np.pi / (2.0 * self.sigma)
        inside = (2.0 * self.sigma / (3.0 * np.pi)) * (np.cos(a * d) - 1.0)
        u_sigma = (2.0 * self.sigma / (3.0 * np.pi)) * (np.cos(a * self.sigma)
                                                        - 1.0)
        outside = u_sigma + (np.abs(d) - self.sigma)
        out = np.where(np.abs(d) < self.sigma, inside, outside)
        if np.isscalar(dtheta):
            return float(out)
        return out

    def describe(self) -> dict:
        d = super().describe()
        d["sigma"] = self.sigma
        return d


class KuramotoPotential(Potential):
    """Plain Kuramoto coupling ``V(d) = sin(d)`` (paper Eq. 1, baseline).

    Included to demonstrate why the paper rejects it: 2*pi periodicity
    permits phase slips (processes a full cycle apart look coupled as if
    in sync, impossible for message-dependent MPI processes), and the
    zeros at multiples of pi create spurious equilibria.
    """

    name = "kuramoto"

    def __call__(self, dtheta):
        return np.sin(np.asarray(dtheta, dtype=float)) \
            if isinstance(dtheta, np.ndarray) else float(np.sin(dtheta))

    def stable_gap(self) -> float:
        return 0.0

    def kernel_coefficients(self) -> tuple[int, float, float]:
        from ..kernels.coeffs import KIND_KURAMOTO
        return (KIND_KURAMOTO, 0.0, 0.0)

    @staticmethod
    def permits_phase_slips() -> bool:
        """Phase differences of 2*pi*k are dynamically indistinguishable."""
        return True


class LinearPotential(Potential):
    """Harmonic spring ``V(d) = k * d`` — the simplest attractive coupling.

    Useful as an analytically solvable reference: with a symmetric
    topology the dynamics are linear and the synchronisation rate equals
    the spectral gap of the graph Laplacian.  Tests use this to validate
    the model assembly against closed-form solutions.
    """

    name = "linear"

    def __init__(self, k: float = 1.0) -> None:
        self.k = float(k)

    def __call__(self, dtheta):
        d = np.asarray(dtheta, dtype=float)
        out = self.k * d
        if d.ndim == 0:
            return float(out)
        return out

    def kernel_coefficients(self) -> tuple[int, float, float]:
        from ..kernels.coeffs import KIND_LINEAR
        return (KIND_LINEAR, self.k, 0.0)

    def describe(self) -> dict:
        d = super().describe()
        d["k"] = self.k
        return d


class CustomPotential(Potential):
    """Wrap an arbitrary callable as a potential.

    Parameters
    ----------
    fn:
        Vectorised callable ``fn(dtheta) -> value``.
    name:
        Identifier for reports.
    stable_gap:
        Optional known equilibrium gap (defaults to 0).
    """

    def __init__(self, fn: Callable, name: str = "custom",
                 stable_gap: float = 0.0) -> None:
        self._fn = fn
        self.name = name
        self._gap = float(stable_gap)

    def __call__(self, dtheta):
        return self._fn(dtheta)

    def stable_gap(self) -> float:
        return self._gap


def potential_from_name(name: str, **kwargs) -> Potential:
    """Factory used by the CLI: build a potential from its string name.

    Accepts ``tanh`` / ``scalable``, ``bottleneck`` / ``bottlenecked`` /
    ``saturating``, ``kuramoto`` / ``sin``, ``linear``.
    """
    key = name.strip().lower()
    if key in ("tanh", "scalable"):
        return TanhPotential(**kwargs)
    if key in ("bottleneck", "bottlenecked", "saturating"):
        return BottleneckPotential(**kwargs)
    if key in ("kuramoto", "sin", "sine"):
        return KuramotoPotential()
    if key == "linear":
        return LinearPotential(**kwargs)
    raise ValueError(f"unknown potential {name!r}")
