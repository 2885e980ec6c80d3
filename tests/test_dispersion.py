"""Tests for the linear-stability / dispersion analysis."""

import numpy as np
import pytest

from repro.analysis import (
    analyze_stability,
    fastest_growing_mode,
    growth_rates,
    jacobian,
    potential_slope_at_origin,
    ring_dispersion,
)
from repro.core import (
    BottleneckPotential,
    PhysicalOscillatorModel,
    TanhPotential,
    make_topology,
    ring,
    simulate,
)
from repro.core.topology import dependency_topology


def make(potential, n=12, v_p=6.0, dists=(1, -1), topo=None):
    return PhysicalOscillatorModel(
        topology=topo or ring(n, dists), potential=potential,
        t_comp=0.9, t_comm=0.1, v_p_override=v_p)


class TestSlopes:
    def test_tanh_slope_is_gain(self):
        assert potential_slope_at_origin(TanhPotential(gain=2.5)) == \
            pytest.approx(2.5, rel=1e-5)

    def test_bottleneck_slope(self):
        sigma = 1.5
        expected = -3 * np.pi / (2 * sigma)
        assert potential_slope_at_origin(BottleneckPotential(sigma=sigma)) \
            == pytest.approx(expected, rel=1e-5)


class TestJacobianStructure:
    def test_rows_sum_to_zero(self):
        j = jacobian(make(TanhPotential()))
        np.testing.assert_allclose(j.sum(axis=1), 0.0, atol=1e-12)

    def test_translation_zero_mode(self):
        rates = growth_rates(make(TanhPotential()))
        assert np.min(np.abs(rates)) < 1e-12

    def test_sign_flips_with_potential(self):
        j_sync = jacobian(make(TanhPotential()))
        j_desync = jacobian(make(BottleneckPotential(sigma=1.0)))
        # Identical structure, opposite sign scaling.
        ratio = j_desync[0, 1] / j_sync[0, 1]
        assert ratio == pytest.approx(-3 * np.pi / 2, rel=1e-4)


class TestStabilityVerdicts:
    def test_tanh_ring_is_stable(self):
        rep = analyze_stability(make(TanhPotential()))
        assert rep.stable
        assert rep.max_growth_rate < 0

    def test_bottleneck_ring_is_unstable(self):
        rep = analyze_stability(make(BottleneckPotential(sigma=1.0)))
        assert not rep.stable
        assert rep.max_growth_rate > 0

    def test_decay_rate_is_spectral_gap_product(self):
        n, v_p = 12, 6.0
        topo = ring(n, (1, -1))
        m = make(TanhPotential(), n=n, v_p=v_p)
        rep = analyze_stability(m)
        expected = -(v_p / n) * topo.spectral_gap()
        assert rep.max_growth_rate == pytest.approx(expected, rel=1e-6)

    def test_growth_rate_measured_in_simulation(self):
        """The predicted instability rate matches the measured
        exponential growth of a small zigzag perturbation."""
        n, v_p, sigma = 12, 6.0, 1.0
        m = make(BottleneckPotential(sigma=sigma), n=n, v_p=v_p)
        mode = fastest_growing_mode(m)
        amp0 = 1e-6
        theta0 = amp0 * np.cos(mode["k"] * np.arange(n))
        traj = simulate(m, 1.0, theta0=theta0, seed=0)
        x = traj.comoving_phases()
        amp1 = np.abs(x[-1] - x[-1].mean()).max()
        measured = np.log(amp1 / amp0) / traj.t_end
        assert measured == pytest.approx(mode["rate"], rel=0.05)

    def test_decay_rate_measured_in_simulation(self):
        n, v_p = 12, 6.0
        m = make(TanhPotential(), n=n, v_p=v_p)
        rep = analyze_stability(m)
        k1 = 2 * np.pi / n
        theta0 = 0.01 * np.cos(k1 * np.arange(n))
        traj = simulate(m, 3.0, theta0=theta0, seed=0)
        x = traj.comoving_phases()
        amp0 = np.abs(x[0] - x[0].mean()).max()
        amp1 = np.abs(x[-1] - x[-1].mean()).max()
        measured = -np.log(amp1 / amp0) / traj.t_end
        assert measured == pytest.approx(-rep.max_growth_rate, rel=0.05)


class TestRingDispersion:
    def test_matches_jacobian_eigenvalues(self):
        n, v_p = 10, 4.0
        m = make(TanhPotential(), n=n, v_p=v_p, dists=(1, -1))
        disp = ring_dispersion((-1, 1), n, v_p,
                               potential_slope_at_origin(m.potential))
        eig = np.sort(growth_rates(m).real)
        analytic = np.sort(disp["growth"])
        np.testing.assert_allclose(analytic, eig, atol=1e-9)

    def test_zigzag_is_fastest_growing_for_next_neighbor(self):
        """d = ±1 bottleneck: k = pi maximises the growth — the zigzag
        pattern observed in every desynchronised ring simulation."""
        m = make(BottleneckPotential(sigma=1.0), n=12)
        mode = fastest_growing_mode(m)
        assert mode["k"] == pytest.approx(np.pi)
        # rate = (v_p/N)*|V'(0)| * max_k sum(1-cos(k o)) = ... * 4.
        expected = (6.0 / 12) * (3 * np.pi / 2) * 4.0
        assert mode["rate"] == pytest.approx(expected, rel=1e-4)

    def test_large_ring_reads_row_zero_only(self):
        """Rank 0's partners come from the edge list: at N = 1e5 the
        (N, N) matrix (80 GB) is never built."""
        m = make(BottleneckPotential(sigma=1.0),
                 topo=make_topology("ring", n=100_000))
        mode = fastest_growing_mode(m)
        assert mode["k"] == pytest.approx(np.pi)

    def test_symmetric_offsets_have_no_drift(self):
        disp = ring_dispersion((-1, 1), 12, 4.0, 1.0)
        np.testing.assert_allclose(disp["velocity"], 0.0, atol=1e-12)

    def test_asymmetric_offsets_drift(self):
        """The directed eager-dependency topology of d = ±1,-2 has
        offsets (-1, +1, +2): perturbations drift — the linear picture
        of the leftward-faster idle wave seen in the DES."""
        disp = ring_dispersion((-1, 1, 2), 24, 4.0, 1.0)
        assert np.max(np.abs(disp["velocity"])) > 0.01

    def test_directed_topology_jacobian_complex_rates(self):
        topo = dependency_topology(12, (1, -1, -2))
        m = make(TanhPotential(), topo=topo, v_p=4.0)
        rates = growth_rates(m)
        assert np.max(np.abs(rates.imag)) > 1e-6

    def test_fastest_mode_requires_offsets(self):
        from repro.core import from_edges
        topo = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        m = make(TanhPotential(), topo=topo)
        # Works because the matrix has an extractable first row.
        mode = fastest_growing_mode(m)
        assert np.isfinite(mode["rate"])
