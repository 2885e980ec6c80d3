"""Linear stability and dispersion analysis of the POM.

The paper observes the two regimes (resynchronisation vs. spontaneous
desynchronisation) numerically; here we derive them analytically by
linearising Eq. 2 around the uniform (lock-step) state and expose the
result as library functions.  This also gives the theory behind the
*zigzag* domain patterns the ring settles into.

Linearisation
-------------
Around ``theta_i = Omega*t + c`` write ``theta_i = Omega*t + x_i`` with
small ``x``.  Then

    dx_i/dt = (v_p/N) * V'(0) * sum_j T_ij (x_j - x_i)
            = -(v_p/N) * V'(0) * (L x)_i,        L = D - T.

* ``V'(0) > 0`` (tanh: V'(0) = gain): every non-uniform mode decays —
  the lock-step state is stable, the slowest mode decays at
  ``(v_p/N) * V'(0) * lambda_2(L)`` (spectral gap).
* ``V'(0) < 0`` (bottleneck: V'(0) = -3*pi/(2*sigma)): every connected
  mode *grows* — the translationally symmetric state is linearly
  unstable ("any slight disturbance blows up", Sec. 5.2.2), and the
  fastest-growing mode is the one maximising the Laplacian quadratic
  form: on a ``d = ±1`` ring that is ``k = pi`` — the zigzag — which
  then saturates nonlinearly at ``|gap| = 2*sigma/3``.

For translation-invariant topologies the modes are Fourier modes and
the growth rates have the closed form

    lambda(k) = (v_p/N) * V'(0) * sum_{o in O} (e^{i k o} - 1)

over the partner-offset set ``O``; a nonzero imaginary part (possible
only for *asymmetric* offset sets, e.g. the directed eager-dependency
topology of ``d = ±1,-2``) means perturbations drift across ranks with
phase velocity ``-Im lambda(k) / k`` — the linear precursor of idle-
wave motion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.model import PhysicalOscillatorModel

__all__ = [
    "StabilityReport",
    "potential_slope_at_origin",
    "jacobian",
    "growth_rates",
    "analyze_stability",
    "ring_dispersion",
    "fastest_growing_mode",
]


def potential_slope_at_origin(potential, h: float = 1e-7) -> float:
    """``V'(0)`` by central differences (exact formulas exist for the
    built-ins but the numeric slope works for any custom potential)."""
    return float((potential(h) - potential(-h)) / (2.0 * h))


def jacobian(model: PhysicalOscillatorModel) -> np.ndarray:
    """Jacobian of the linearised phase dynamics at the uniform state.

    ``J = (v_p/N) * V'(0) * (T - D)`` where ``D`` is the diagonal of
    row sums — i.e. ``-(v_p/N) V'(0) L`` with the (possibly asymmetric)
    Laplacian of the directed coupling graph.
    """
    t = model.topology.matrix
    deg = np.diag(t.sum(axis=1))
    slope = potential_slope_at_origin(model.potential)
    return (model.v_p / model.n) * slope * (t - deg)


def growth_rates(model: PhysicalOscillatorModel) -> np.ndarray:
    """Eigenvalues of the Jacobian, sorted by real part (descending).

    The uniform-translation mode (eigenvalue 0) is always present; the
    lock-step state is stable iff every other real part is negative.
    """
    eig = np.linalg.eigvals(jacobian(model))
    order = np.argsort(-eig.real)
    return eig[order]


@dataclass
class StabilityReport:
    """Linear-stability verdict for the lock-step state.

    Attributes
    ----------
    stable:
        True when all non-trivial modes decay (resynchronising system).
    slope:
        ``V'(0)`` of the potential.
    max_growth_rate:
        Largest non-trivial real part (negative = decay rate of the
        slowest mode; positive = growth rate of the desync instability).
    decay_time:
        ``1/|max_growth_rate|`` — resynchronisation (or blow-up) time
        scale in seconds.
    rates:
        All eigenvalues (complex), sorted by real part.
    """

    stable: bool
    slope: float
    max_growth_rate: float
    decay_time: float
    rates: np.ndarray


def analyze_stability(model: PhysicalOscillatorModel,
                      tol: float = 1e-12) -> StabilityReport:
    """Classify the lock-step state of a model analytically."""
    rates = growth_rates(model)
    # Drop the translation zero-mode (largest-real eigenvalue ~ 0 for
    # stable systems; for unstable ones the zero mode is not the max).
    real = np.sort(rates.real)[::-1]
    nontrivial = real[1] if abs(real[0]) <= tol else real[0]
    stable = bool(nontrivial < -tol)
    rate = float(nontrivial)
    decay = float(np.inf) if rate == 0.0 else 1.0 / abs(rate)
    return StabilityReport(stable=stable,
                           slope=potential_slope_at_origin(model.potential),
                           max_growth_rate=rate,
                           decay_time=decay,
                           rates=rates)


def ring_dispersion(
    offsets: tuple[int, ...] | list[int],
    n: int,
    v_p: float,
    slope: float,
    k_values: np.ndarray | None = None,
) -> dict:
    """Closed-form dispersion relation on a translation-invariant ring.

    Parameters
    ----------
    offsets:
        Partner offsets ``O`` (entries of the topology row), e.g.
        ``(-1, 1)`` for the symmetrised d=±1 ring or ``(-1, 1, 2)`` for
        the directed eager dependencies of ``d = ±1,-2``.
    n:
        Number of oscillators (sets the allowed Fourier wavenumbers).
    v_p:
        Coupling strength.
    slope:
        ``V'(0)``.
    k_values:
        Wavenumbers to evaluate; defaults to the ``n`` ring modes
        ``2*pi*m/n``.

    Returns
    -------
    dict with ``k``, complex ``lambda``, ``growth`` (real part) and
    ``velocity`` (ranks/s drift, ``-Im/k``, 0 at k=0).
    """
    if k_values is None:
        k_values = 2.0 * np.pi * np.arange(n) / n
    k = np.asarray(k_values, dtype=float)
    lam = np.zeros_like(k, dtype=complex)
    for o in offsets:
        lam += np.exp(1j * k * o) - 1.0
    lam *= (v_p / n) * slope
    velocity = np.zeros_like(k)
    nz = k != 0.0
    velocity[nz] = -lam.imag[nz] / k[nz]
    return {"k": k, "lambda": lam, "growth": lam.real, "velocity": velocity}


def fastest_growing_mode(model: PhysicalOscillatorModel) -> dict:
    """Wavenumber and rate of the dominant desync mode (ring models).

    For the ``d = ±1`` bottleneck ring the analytic answer is the
    zigzag ``k = pi`` with rate ``(v_p/N)*|V'(0)|*4`` — matching the
    alternating-sign gap patterns the simulations settle into.
    Requires a topology with a known offset set.
    """
    offsets = model.topology.distance_multiset()
    if not offsets:
        raise ValueError("topology has no offset structure")
    # Effective offsets = union of +-|d| for the symmetrised builders.
    row = model.topology.neighbors(0)
    n = model.n
    eff = []
    for j in row:
        o = int(j)
        if o > n // 2:
            o -= n
        eff.append(o)
    slope = potential_slope_at_origin(model.potential)
    disp = ring_dispersion(tuple(eff), n, model.v_p, slope)
    idx = int(np.argmax(disp["growth"]))
    return {
        "k": float(disp["k"][idx]),
        "rate": float(disp["growth"][idx]),
        "velocity": float(disp["velocity"][idx]),
        "mode_index": idx,
    }
