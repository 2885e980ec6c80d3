"""Tests for the model's noise channels (zeta, one-off delays, tau)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CompositeNoise,
    ConstantInteractionNoise,
    DelaySchedule,
    GaussianJitter,
    LognormalJitter,
    NoInteractionNoise,
    NoNoise,
    OneOffDelay,
    RandomInteractionNoise,
    StaticLoadImbalance,
    TauField,
    Topology,
    UniformJitter,
    ZetaProcess,
    ring,
    torus2d,
)


class TestZetaProcess:
    def test_piecewise_constant_lookup(self):
        vals = np.array([[1.0, 2.0], [3.0, 4.0]])
        z = ZetaProcess(vals, dt=1.0)
        np.testing.assert_allclose(z(0.5), [1.0, 2.0])
        np.testing.assert_allclose(z(1.5), [3.0, 4.0])

    def test_clamps_out_of_range(self):
        vals = np.array([[1.0], [2.0]])
        z = ZetaProcess(vals, dt=1.0)
        np.testing.assert_allclose(z(-5.0), [1.0])
        np.testing.assert_allclose(z(99.0), [2.0])

    def test_max_abs_ignores_inf(self):
        vals = np.array([[1.0, np.inf]])
        assert ZetaProcess(vals, dt=1.0).max_abs() == 1.0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ZetaProcess(np.zeros(3), dt=1.0)
        with pytest.raises(ValueError):
            ZetaProcess(np.zeros((2, 2)), dt=0.0)


class TestLocalNoiseChannels:
    def test_no_noise_is_zero(self, rng):
        z = NoNoise().realize(5, 10.0, rng)
        np.testing.assert_array_equal(z(3.0), np.zeros(5))

    def test_gaussian_statistics(self, rng):
        z = GaussianJitter(std=0.1, refresh=0.01).realize(4, 100.0, rng)
        assert z.values.std() == pytest.approx(0.1, rel=0.05)
        assert abs(z.values.mean()) < 0.01

    def test_gaussian_clipping(self, rng):
        z = GaussianJitter(std=0.1, refresh=0.01,
                           clip_sigmas=2.0).realize(4, 100.0, rng)
        assert np.abs(z.values).max() <= 0.2 + 1e-12

    def test_uniform_bounds(self, rng):
        z = UniformJitter(half_width=0.3, refresh=0.1).realize(3, 20.0, rng)
        assert np.all(np.abs(z.values) <= 0.3)

    def test_lognormal_one_sided(self, rng):
        z = LognormalJitter(median=0.05, refresh=0.1).realize(3, 20.0, rng)
        assert np.all(z.values >= 0.0)

    def test_lognormal_zero_median_silent(self, rng):
        z = LognormalJitter(median=0.0).realize(3, 5.0, rng)
        np.testing.assert_array_equal(z.values, 0.0)

    def test_static_imbalance_explicit_offsets(self, rng):
        z = StaticLoadImbalance(offsets=[0.1, -0.1, 0.0]).realize(3, 10.0, rng)
        np.testing.assert_allclose(z(0.0), [0.1, -0.1, 0.0])
        np.testing.assert_allclose(z(9.0), [0.1, -0.1, 0.0])  # static

    def test_static_imbalance_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="shape"):
            StaticLoadImbalance(offsets=[0.1]).realize(3, 10.0, rng)

    def test_static_imbalance_drawn(self, rng):
        z = StaticLoadImbalance(amplitude=0.2).realize(6, 10.0, rng)
        assert np.all(np.abs(z(0.0)) <= 0.2)

    def test_composite_sums_channels(self, rng):
        comp = CompositeNoise(parts=(
            StaticLoadImbalance(offsets=[0.1, 0.2]),
            StaticLoadImbalance(offsets=[0.01, 0.02]),
        ))
        z = comp.realize(2, 10.0, rng)
        np.testing.assert_allclose(z(1.0), [0.11, 0.22])

    def test_composite_empty_is_silent(self, rng):
        z = CompositeNoise(parts=()).realize(3, 5.0, rng)
        np.testing.assert_array_equal(z(0.0), np.zeros(3))

    def test_negative_params_rejected(self, rng):
        with pytest.raises(ValueError):
            GaussianJitter(std=-1.0).realize(2, 1.0, rng)
        with pytest.raises(ValueError):
            UniformJitter(half_width=-0.1).realize(2, 1.0, rng)


class TestOneOffDelay:
    def test_full_stall_is_infinite_zeta(self):
        d = OneOffDelay(rank=0, t_start=1.0, delay=2.0)
        assert d.effective_window == 2.0
        assert d.zeta_extra(period=1.0) == np.inf

    def test_spread_window_exact_deficit(self):
        # delay=1s spread over window=3s with T=1: zeta = 1*1/(3-1) = 0.5.
        d = OneOffDelay(rank=0, t_start=0.0, delay=1.0, window=3.0)
        assert d.zeta_extra(period=1.0) == pytest.approx(0.5)

    def test_deficit_integral_matches_omega_delay(self):
        # Integrate the slowed frequency over the window: the phase
        # deficit must equal omega * delay exactly.
        T, delay, window = 1.0, 0.7, 2.5
        d = OneOffDelay(rank=0, t_start=0.0, delay=delay, window=window)
        zeta = d.zeta_extra(period=T)
        omega = 2 * np.pi / T
        slowed = 2 * np.pi / (T + zeta)
        deficit = (omega - slowed) * window
        assert deficit == pytest.approx(omega * delay, rel=1e-12)

    def test_window_shorter_than_delay_rejected(self):
        with pytest.raises(ValueError, match="window"):
            OneOffDelay(rank=0, t_start=0.0, delay=2.0, window=1.0)

    def test_invalid_delay(self):
        with pytest.raises(ValueError):
            OneOffDelay(rank=0, t_start=0.0, delay=0.0)


class TestDelaySchedule:
    def test_active_only_inside_window(self):
        sched = DelaySchedule(
            [OneOffDelay(rank=1, t_start=5.0, delay=1.0, window=2.0)],
            period=1.0)
        assert sched(4.9, 3)[1] == 0.0
        assert sched(5.5, 3)[1] > 0.0
        assert sched(7.1, 3)[1] == 0.0

    def test_multiple_delays_accumulate(self):
        sched = DelaySchedule(
            [OneOffDelay(rank=0, t_start=0.0, delay=1.0, window=4.0),
             OneOffDelay(rank=0, t_start=0.0, delay=1.0, window=4.0)],
            period=1.0)
        single = OneOffDelay(rank=0, t_start=0.0, delay=1.0,
                             window=4.0).zeta_extra(1.0)
        assert sched(1.0, 2)[0] == pytest.approx(2 * single)

    def test_out_of_range_rank_ignored(self):
        sched = DelaySchedule([OneOffDelay(rank=9, t_start=0.0, delay=1.0)],
                              period=1.0)
        np.testing.assert_array_equal(sched(0.5, 3), np.zeros(3))

    def test_describe(self):
        sched = DelaySchedule([OneOffDelay(rank=2, t_start=1.0, delay=0.5)],
                              period=1.0)
        (d,) = sched.describe()
        assert d["rank"] == 2 and d["window"] == 0.5


class TestInteractionNoise:
    """Delays are realised per edge, in the topology's edge order."""

    def test_no_interaction_noise_zero_field(self, rng):
        topo = ring(4)
        tau = NoInteractionNoise().realize(topo, 10.0, rng)
        assert tau.values.shape == (1, topo.n_edges)
        assert tau.is_zero
        assert tau.max_delay() == 0.0

    def test_constant_field(self, rng):
        topo = ring(3)
        tau = ConstantInteractionNoise(tau=0.05).realize(topo, 10.0, rng)
        assert tau.values.shape == (1, topo.n_edges)
        np.testing.assert_allclose(tau(2.0), np.full(topo.n_edges, 0.05))
        assert not tau.is_zero

    def test_random_field_bounds(self, rng):
        topo = ring(4, (1, -1, 2))
        tau = RandomInteractionNoise(lo=0.01, hi=0.1,
                                     refresh=1.0).realize(topo, 10.0, rng)
        assert tau.values.shape[1] == topo.n_edges
        assert np.all(tau.values >= 0.01)
        assert np.all(tau.values <= 0.1)
        assert tau.max_delay() <= 0.1

    @pytest.mark.parametrize("topo", [ring(6), ring(5, (1, 2)), torus2d(3, 3)],
                             ids=["ring", "offsets", "torus"])
    def test_random_field_is_edge_projection_of_dense_stream(self, topo):
        noise = RandomInteractionNoise(lo=0.02, hi=0.3, refresh=0.5)
        tau = noise.realize(topo, 3.0, np.random.default_rng(11))
        m, n = tau.values.shape[0], topo.n
        rows, cols = topo.edge_list()
        dense = np.random.default_rng(11).uniform(0.02, 0.3, (m, n, n))
        assert tau.values.tobytes() == dense[:, rows, cols].tobytes()

    def test_field_lookup_by_interval(self):
        tau = TauField(np.array([[0.1, 0.2], [0.3, 0.4]]), dt=1.0)
        assert tau.interval(0.5) == 0 and tau.interval(1.5) == 1
        assert tau.interval(-3.0) == 0 and tau.interval(9.0) == 1
        np.testing.assert_array_equal(tau(1.5), [0.3, 0.4])

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            TauField(-np.ones((1, 2)), dt=1.0)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            TauField(np.zeros((2, 3, 3)), dt=1.0)
        with pytest.raises(ValueError, match="2-D"):
            TauField(np.zeros(3), dt=1.0)

    @pytest.mark.parametrize("dt", [0.0, -1.0])
    def test_non_positive_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt"):
            TauField(np.zeros((1, 2)), dt=dt)

    def test_edgeless_topology_field_is_zero(self, rng):
        topo = Topology.from_edge_arrays(4, [], [])
        tau = ConstantInteractionNoise(tau=0.5).realize(topo, 5.0, rng)
        assert tau.values.shape == (1, 0)
        assert tau.is_zero and tau.max_delay() == 0.0

    def test_random_field_invalid_range(self, rng):
        with pytest.raises(ValueError):
            RandomInteractionNoise(lo=0.5, hi=0.1).realize(ring(3), 5.0, rng)


@pytest.mark.parametrize("make", [
    lambda r: GaussianJitter(std=0.1, refresh=r),
    lambda r: UniformJitter(half_width=0.1, refresh=r),
    lambda r: LognormalJitter(median=0.1, refresh=r),
    lambda r: RandomInteractionNoise(lo=0.0, hi=0.1, refresh=r),
], ids=["gaussian", "uniform", "lognormal", "random-tau"])
@pytest.mark.parametrize("refresh", [0.0, -1.0, float("nan")])
def test_non_positive_refresh_rejected_at_construction(make, refresh):
    with pytest.raises(ValueError, match="refresh"):
        make(refresh)


@settings(max_examples=40, deadline=None)
@given(period=st.floats(min_value=0.1, max_value=10.0),
       delay=st.floats(min_value=0.01, max_value=5.0),
       window_factor=st.floats(min_value=1.05, max_value=10.0))
def test_property_one_off_delay_phase_exact(period, delay, window_factor):
    """The zeta construction yields the exact omega*delay deficit for
    any (period, delay, window) combination."""
    window = delay * window_factor
    d = OneOffDelay(rank=0, t_start=0.0, delay=delay, window=window)
    zeta = d.zeta_extra(period)
    omega = 2 * np.pi / period
    deficit = (omega - 2 * np.pi / (period + zeta)) * window
    assert deficit == pytest.approx(omega * delay, rel=1e-9)
