"""Tests for the energy (Lyapunov) diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BottleneckPotential,
    KuramotoPotential,
    PhysicalOscillatorModel,
    TanhPotential,
    ring,
    simulate,
    simulate_grid,
)
from repro.metrics import (
    StreamingObserver,
    energy_series,
    pair_energy_curve,
    sync_energy,
    system_energy,
    wavefront_energy,
)


def make(potential, n=12, v_p=6.0):
    return PhysicalOscillatorModel(topology=ring(n, (1, -1)),
                                   potential=potential,
                                   t_comp=0.9, t_comm=0.1,
                                   v_p_override=v_p)


class TestAntiderivatives:
    def test_tanh_closed_form(self):
        pot = TanhPotential(gain=2.0)
        d = np.linspace(-5, 5, 41)
        expected = np.log(np.cosh(2.0 * d)) / 2.0
        np.testing.assert_allclose(pot.antiderivative(d), expected,
                                   atol=1e-10)

    def test_tanh_overflow_safe(self):
        # log(cosh(500)) overflows naive evaluation.
        val = TanhPotential().antiderivative(500.0)
        assert val == pytest.approx(500.0 - np.log(2.0), rel=1e-9)

    def test_bottleneck_closed_form_vs_numeric(self):
        pot = BottleneckPotential(sigma=1.3)
        for d in (-3.0, -0.9, 0.0, 0.4, 1.2, 2.5):
            xs = np.linspace(0.0, d, 20001) if d != 0 else np.array([0.0])
            numeric = np.trapezoid(np.asarray(pot(xs)), xs) if d != 0 else 0.0
            assert pot.antiderivative(d) == pytest.approx(numeric,
                                                          abs=1e-6)

    def test_bottleneck_double_well(self):
        pot = BottleneckPotential(sigma=1.5)
        gap = pot.stable_gap()
        u_0 = pot.antiderivative(0.0)
        u_min = pot.antiderivative(gap)
        assert u_0 == 0.0
        assert u_min < u_0              # wavefront is energetically lower
        # The minimum is at the stable gap (check neighbours).
        assert pot.antiderivative(gap * 0.8) > u_min
        assert pot.antiderivative(gap * 1.2) > u_min

    def test_antiderivative_even_for_odd_potential(self):
        for pot in (TanhPotential(), BottleneckPotential(sigma=0.8)):
            d = np.linspace(0.1, 4.0, 17)
            np.testing.assert_allclose(pot.antiderivative(d),
                                       pot.antiderivative(-d), atol=1e-9)

    def test_numeric_fallback_for_kuramoto(self):
        pot = KuramotoPotential()
        # U(d) = 1 - cos(d).
        assert pot.antiderivative(np.pi / 2) == pytest.approx(1.0,
                                                              abs=1e-4)


class TestSystemEnergy:
    def test_sync_energy_is_zero(self):
        assert sync_energy(make(TanhPotential())) == 0.0
        assert sync_energy(make(BottleneckPotential(sigma=1.0))) == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            system_energy(make(TanhPotential()), np.zeros(5))

    def test_tanh_energy_positive_away_from_sync(self):
        m = make(TanhPotential())
        theta = np.random.default_rng(0).normal(0, 0.5, 12)
        assert system_energy(m, theta) > 0.0

    def test_bottleneck_wavefront_energy_negative(self):
        """Bottleneck evasion as energy minimisation: the zigzag
        wavefront lies below the lock-step state."""
        m = make(BottleneckPotential(sigma=1.0))
        assert wavefront_energy(m) < sync_energy(m)

    def test_wavefront_is_local_minimum(self):
        m = make(BottleneckPotential(sigma=1.0))
        e_star = wavefront_energy(m)
        for gap in (0.5, 0.6, 0.75, 0.8):
            assert wavefront_energy(m, gap=gap) >= e_star - 1e-12


class TestLyapunovProperty:
    def test_energy_decreases_bottleneck(self):
        m = make(BottleneckPotential(sigma=1.0))
        rng = np.random.default_rng(0)
        traj = simulate(m, 40.0, theta0=rng.normal(0, 1e-2, 12), seed=0)
        e = energy_series(traj)
        assert np.all(np.diff(e) <= 1e-6)   # solver-tolerance slack
        # And the trajectory lands on the wavefront energy level.
        assert e[-1] == pytest.approx(wavefront_energy(m), rel=0.05)

    def test_energy_decreases_tanh(self):
        m = make(TanhPotential())
        rng = np.random.default_rng(1)
        traj = simulate(m, 20.0, theta0=rng.normal(0, 0.5, 12), seed=0)
        e = energy_series(traj)
        assert np.all(np.diff(e) <= 1e-6)
        assert e[-1] == pytest.approx(0.0, abs=1e-3)

    def test_energy_series_length(self):
        m = make(TanhPotential())
        traj = simulate(m, 5.0, seed=0)
        assert energy_series(traj).shape == (traj.n_samples,)

    def test_energy_series_equals_streamed_metric(self):
        # One formula: the post-hoc series and the in-solve metric both
        # evaluate the potential on the edge list.
        m = make(BottleneckPotential(sigma=1.0), n=24)
        rng = np.random.default_rng(2)
        obs = StreamingObserver([m], ["energy"])
        (traj,) = simulate_grid([m], 20.0, theta0=rng.normal(0, 1e-2, 24),
                                method="rk4", dt=0.01, observer=obs)
        streamed = obs.finalize()
        np.testing.assert_array_equal(streamed["metrics_ts"], traj.ts)
        np.testing.assert_allclose(energy_series(traj),
                                   streamed["metric_energy"][0],
                                   rtol=0, atol=1e-12)


class TestPairEnergyCurve:
    def test_curve_fields(self):
        curve = pair_energy_curve(BottleneckPotential(sigma=1.0))
        assert set(curve) == {"d", "U", "V"}
        assert curve["U"].shape == curve["d"].shape

    def test_curve_derivative_consistency(self):
        """dU/dd must equal V (spot-check by finite differences)."""
        curve = pair_energy_curve(TanhPotential(), span=4.0, n_points=4001)
        dU = np.gradient(curve["U"], curve["d"])
        np.testing.assert_allclose(dU[100:-100], curve["V"][100:-100],
                                   atol=2e-3)


@settings(max_examples=25, deadline=None)
@given(sigma=st.floats(min_value=0.3, max_value=3.0),
       d=st.floats(min_value=-8.0, max_value=8.0))
def test_property_bottleneck_U_above_minimum(sigma, d):
    """The pair energy is bounded below by its wavefront minimum."""
    pot = BottleneckPotential(sigma=sigma)
    u_min = pot.antiderivative(pot.stable_gap())
    assert pot.antiderivative(d) >= u_min - 1e-12
