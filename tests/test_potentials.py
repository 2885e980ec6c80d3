"""Tests for the interaction potentials (paper Eqs. 1, 3, 4; Fig. 1a)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BottleneckPotential,
    CustomPotential,
    KuramotoPotential,
    LinearPotential,
    TanhPotential,
    potential_from_name,
)


class TestTanhPotential:
    def test_matches_eq3(self):
        pot = TanhPotential()
        d = np.linspace(-10, 10, 101)
        np.testing.assert_allclose(pot(d), np.tanh(d), atol=1e-15)

    def test_scalar_input_returns_float(self):
        assert isinstance(TanhPotential()(0.5), float)

    def test_odd(self):
        assert TanhPotential().is_odd()

    def test_attractive_everywhere(self):
        pot = TanhPotential()
        d = np.linspace(0.01, 20, 50)
        assert np.all(np.asarray(pot(d)) > 0)

    def test_saturates_at_one(self):
        assert TanhPotential()(50.0) == pytest.approx(1.0)
        assert TanhPotential()(-50.0) == pytest.approx(-1.0)

    def test_stable_gap_is_zero(self):
        assert TanhPotential().stable_gap() == 0.0

    def test_gain_changes_slope(self):
        steep = TanhPotential(gain=5.0)
        assert steep.derivative(0.0) == pytest.approx(5.0, rel=1e-4)

    def test_invalid_gain(self):
        with pytest.raises(ValueError):
            TanhPotential(gain=0.0)

    def test_describe(self):
        d = TanhPotential(gain=2.0).describe()
        assert d["name"] == "tanh"
        assert d["gain"] == 2.0


class TestBottleneckPotential:
    def test_matches_eq4_inside_horizon(self):
        s = 1.5
        pot = BottleneckPotential(sigma=s)
        d = np.linspace(-s + 1e-6, s - 1e-6, 101)
        expected = -np.sin(3 * np.pi / (2 * s) * d)
        np.testing.assert_allclose(pot(d), expected, atol=1e-12)

    def test_matches_eq4_outside_horizon(self):
        pot = BottleneckPotential(sigma=1.0)
        assert pot(3.0) == 1.0
        assert pot(-3.0) == -1.0

    def test_continuous_at_horizon(self):
        for s in (0.5, 1.0, 2.0, 4.0):
            pot = BottleneckPotential(sigma=s)
            inside = pot(s - 1e-10)
            outside = pot(s + 1e-10)
            assert inside == pytest.approx(outside, abs=1e-8)

    def test_first_zero_at_two_thirds_sigma(self):
        for s in (0.5, 1.0, 2.0, 4.0):
            pot = BottleneckPotential(sigma=s)
            gap = pot.stable_gap()
            assert gap == pytest.approx(2 * s / 3)
            assert pot(gap) == pytest.approx(0.0, abs=1e-12)

    def test_stable_zero_has_positive_slope(self):
        # dg/dt ~ -V(g): stability at g* needs V'(g*) > 0.
        pot = BottleneckPotential(sigma=1.0)
        assert pot.derivative(pot.stable_gap()) > 0

    def test_origin_is_unstable(self):
        # V'(0) < 0: the synchronised state repels (desync onset).
        pot = BottleneckPotential(sigma=1.0)
        assert pot.derivative(0.0) < 0

    def test_repulsive_short_range(self):
        pot = BottleneckPotential(sigma=1.0)
        d = np.linspace(0.01, pot.stable_gap() - 0.01, 25)
        assert np.all(np.asarray(pot(d)) < 0)

    def test_attractive_long_range(self):
        pot = BottleneckPotential(sigma=1.0)
        d = np.linspace(pot.stable_gap() + 0.01, 10, 25)
        assert np.all(np.asarray(pot(d)) > 0)

    def test_odd(self):
        assert BottleneckPotential(sigma=2.0).is_odd()

    def test_scalar_input_returns_float(self):
        assert isinstance(BottleneckPotential(sigma=1.0)(0.5), float)

    def test_matrix_input_preserves_shape(self):
        pot = BottleneckPotential(sigma=1.0)
        d = np.zeros((4, 4)) + 0.3
        assert np.asarray(pot(d)).shape == (4, 4)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            BottleneckPotential(sigma=0.0)
        with pytest.raises(ValueError):
            BottleneckPotential(sigma=-1.0)

    def test_repulsive_range_property(self):
        pot = BottleneckPotential(sigma=3.0)
        assert pot.repulsive_range == pytest.approx(2.0)


class TestKuramotoPotential:
    def test_is_sine(self):
        pot = KuramotoPotential()
        d = np.linspace(-7, 7, 41)
        np.testing.assert_allclose(pot(d), np.sin(d), atol=1e-15)

    def test_permits_phase_slips(self):
        # 2*pi-shifted arguments are indistinguishable.
        pot = KuramotoPotential()
        assert pot(0.3) == pytest.approx(pot(0.3 + 2 * np.pi))
        assert KuramotoPotential.permits_phase_slips()

    def test_pom_potentials_forbid_phase_slips(self):
        # The paper's criticism: tanh/bottleneck are NOT 2*pi periodic.
        assert TanhPotential()(0.3) != pytest.approx(
            TanhPotential()(0.3 + 2 * np.pi))
        b = BottleneckPotential(sigma=1.0)
        assert b(0.3) != pytest.approx(b(0.3 + 2 * np.pi))


class TestLinearAndCustom:
    def test_linear_slope(self):
        pot = LinearPotential(k=2.5)
        assert pot(2.0) == pytest.approx(5.0)
        assert pot.describe()["k"] == 2.5

    def test_custom_wraps_callable(self):
        pot = CustomPotential(lambda d: 0.5 * np.asarray(d), name="half",
                              stable_gap=0.7)
        assert pot(2.0) == pytest.approx(1.0)
        assert pot.stable_gap() == 0.7
        assert pot.name == "half"


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("tanh", TanhPotential),
        ("scalable", TanhPotential),
        ("bottleneck", BottleneckPotential),
        ("saturating", BottleneckPotential),
        ("kuramoto", KuramotoPotential),
        ("sin", KuramotoPotential),
        ("linear", LinearPotential),
    ])
    def test_known_names(self, name, cls):
        assert isinstance(potential_from_name(name), cls)

    def test_kwargs_forwarded(self):
        pot = potential_from_name("bottleneck", sigma=2.5)
        assert pot.sigma == 2.5

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown potential"):
            potential_from_name("spring-mass")

    @pytest.mark.parametrize("name", ["kuramoto", "sin"])
    def test_parameterless_kind_rejects_params(self, name):
        # An ignored key would still change the spec hash and shard key.
        with pytest.raises(ValueError, match="takes no parameters"):
            potential_from_name(name, gain=5)


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(sigma=st.floats(min_value=0.05, max_value=10.0),
       d=st.floats(min_value=-50.0, max_value=50.0))
def test_property_bottleneck_bounded_and_odd(sigma, d):
    pot = BottleneckPotential(sigma=sigma)
    v = pot(d)
    assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12
    assert pot(-d) == pytest.approx(-v, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(sigma=st.floats(min_value=0.05, max_value=10.0))
def test_property_bottleneck_sign_structure(sigma):
    """Repulsive strictly inside 2*sigma/3, attractive strictly outside."""
    pot = BottleneckPotential(sigma=sigma)
    gap = pot.stable_gap()
    inside = 0.5 * gap
    outside = gap + 0.5 * (sigma - gap)
    assert pot(inside) < 0
    assert pot(outside) > 0
    assert pot(2 * sigma) > 0


@settings(max_examples=50, deadline=None)
@given(gain=st.floats(min_value=0.1, max_value=10.0),
       d=st.floats(min_value=-20.0, max_value=20.0))
def test_property_tanh_monotone(gain, d):
    pot = TanhPotential(gain=gain)
    eps = 1e-3
    assert pot(d + eps) >= pot(d)
