"""Tests for the POM right-hand side (Eq. 2) and its Kuramoto member (Eq. 1)."""

import numpy as np
import pytest

from repro.core import (
    ConstantInteractionNoise,
    CouplingSpec,
    GaussianJitter,
    LinearPotential,
    OneOffDelay,
    PhysicalOscillatorModel,
    Protocol,
    TanhPotential,
    Topology,
    ring,
)
from repro.integrate import HistoryBuffer


def make_model(**kw):
    defaults = dict(topology=ring(6, (1, -1)), potential=TanhPotential(),
                    t_comp=0.9, t_comm=0.1)
    defaults.update(kw)
    return PhysicalOscillatorModel(**defaults)


class TestModelProperties:
    def test_period_and_omega(self):
        m = make_model()
        assert m.period == pytest.approx(1.0)
        assert m.omega == pytest.approx(2 * np.pi)

    def test_v_p_from_paper_formula(self):
        m = make_model()
        assert m.v_p == pytest.approx(2.0)      # beta=1, kappa=2, T=1

    def test_v_p_override(self):
        m = make_model(v_p_override=7.5)
        assert m.v_p == 7.5
        assert m.beta_kappa == pytest.approx(7.5 * m.period)

    def test_rendezvous_coupling(self):
        m = make_model(coupling=CouplingSpec(protocol=Protocol.RENDEZVOUS))
        assert m.v_p == pytest.approx(4.0)

    def test_invalid_cycle_times(self):
        with pytest.raises(ValueError):
            make_model(t_comp=-1.0)
        with pytest.raises(ValueError):
            make_model(t_comp=0.0, t_comm=0.0)

    def test_delay_rank_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            make_model(delays=(OneOffDelay(rank=99, t_start=0.0, delay=1.0),))

    def test_describe_is_complete(self):
        d = make_model().describe()
        for key in ("n", "period", "omega", "v_p", "beta_kappa",
                    "potential", "topology", "coupling"):
            assert key in d


class TestRHS:
    def test_synchronized_state_rhs_is_omega(self):
        m = make_model()
        realized = m.realize(10.0, rng=0)
        theta = np.zeros(m.n)
        np.testing.assert_allclose(realized.rhs(0.0, theta),
                                   np.full(m.n, m.omega), atol=1e-12)

    def test_rhs_matches_hand_computation(self):
        # 3 oscillators on a ring, explicit Eq. 2 evaluation.
        m = PhysicalOscillatorModel(topology=ring(3, (1, -1)),
                                    potential=TanhPotential(),
                                    t_comp=0.5, t_comm=0.5)
        realized = m.realize(10.0, rng=0)
        theta = np.array([0.0, 0.3, -0.2])
        got = realized.rhs(0.0, theta)
        omega = 2 * np.pi
        vp_n = m.v_p / 3.0
        expected = np.empty(3)
        for i in range(3):
            s = 0.0
            for j in range(3):
                if i != j:
                    s += np.tanh(theta[j] - theta[i])
            expected[i] = omega + vp_n * s
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_coupling_term_zero_without_edges(self):
        m = make_model(v_p_override=0.0)
        realized = m.realize(5.0, rng=0)
        theta = np.linspace(0, 1, m.n)
        np.testing.assert_allclose(realized.coupling_term(0.0, theta),
                                   np.zeros(m.n))

    def test_action_reaction_symmetry(self):
        # Odd potential + symmetric topology: coupling terms sum to zero.
        m = make_model()
        realized = m.realize(5.0, rng=0)
        theta = np.random.default_rng(0).normal(0, 1, m.n)
        total = realized.coupling_term(0.0, theta).sum()
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_stalled_process_has_zero_frequency(self):
        m = make_model(delays=(OneOffDelay(rank=2, t_start=1.0, delay=2.0),))
        realized = m.realize(10.0, rng=0)
        freq = realized.intrinsic_frequency(2.0)   # inside the stall window
        assert freq[2] == 0.0
        assert np.all(freq[np.arange(m.n) != 2] > 0)

    def test_jitter_perturbs_frequency(self):
        m = make_model(local_noise=GaussianJitter(std=0.05, refresh=0.5))
        realized = m.realize(10.0, rng=42)
        freq = realized.intrinsic_frequency(0.25)
        assert not np.allclose(freq, m.omega)

    def test_frozen_noise_is_deterministic(self):
        m = make_model(local_noise=GaussianJitter(std=0.05, refresh=0.5))
        realized = m.realize(10.0, rng=42)
        f1 = realized.intrinsic_frequency(3.3)
        f2 = realized.intrinsic_frequency(3.3)
        np.testing.assert_array_equal(f1, f2)

    def test_frequency_is_read_only_and_memoised(self):
        m = make_model(local_noise=GaussianJitter(std=0.05, refresh=0.5))
        realized = m.realize(10.0, rng=42)
        f1 = realized.intrinsic_frequency(3.3)
        assert not f1.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            f1 += 1.0
        # Same refresh interval: the memoised array itself.
        assert realized.intrinsic_frequency(3.4) is f1
        # Stepping back into an earlier interval and forward again
        # re-evaluates to the same bits.
        f0 = realized.intrinsic_frequency(0.2)
        assert not np.array_equal(f0, f1)
        np.testing.assert_array_equal(realized.intrinsic_frequency(3.3), f1)

    def test_same_seed_same_realization(self):
        m = make_model(local_noise=GaussianJitter(std=0.05, refresh=0.5))
        a = m.realize(10.0, rng=7).intrinsic_frequency(1.0)
        b = m.realize(10.0, rng=7).intrinsic_frequency(1.0)
        np.testing.assert_array_equal(a, b)

    def test_ode_rhs_closure_rejects_delays(self):
        m = make_model(interaction_noise=ConstantInteractionNoise(tau=0.1))
        realized = m.realize(10.0, rng=0)
        with pytest.raises(ValueError, match="delays"):
            realized.backend.make_ode_rhs()


class TestDelayedCoupling:
    def test_delayed_phase_is_used(self):
        m = make_model(interaction_noise=ConstantInteractionNoise(tau=0.5))
        realized = m.realize(10.0, rng=0)
        assert realized.has_delays
        assert realized.max_delay() == pytest.approx(0.5)

        # History: theta grew linearly from 0; at t=1 the delayed
        # partner phase is theta(0.5) = 0.5*omega_like slope 1.
        hist = HistoryBuffer(0.0, np.zeros(m.n))
        hist.append(1.0, np.full(m.n, 1.0), f=np.ones(m.n))
        theta_now = np.full(m.n, 1.0)
        term = realized.coupling_term(1.0, theta_now, hist)
        # Partner phases at t-0.5 are 0.5, own phase 1.0: every pair
        # difference is -0.5 => tanh(-0.5) * 2 partners * v_p/N.
        expected = (m.v_p / m.n) * 2.0 * np.tanh(-0.5)
        np.testing.assert_allclose(term, np.full(m.n, expected), atol=1e-12)

    def test_zero_tau_matches_undelayed(self):
        m = make_model(interaction_noise=ConstantInteractionNoise(tau=0.0))
        realized = m.realize(10.0, rng=0)
        theta = np.random.default_rng(1).normal(0, 0.5, m.n)
        hist = HistoryBuffer(0.0, theta)
        with_hist = realized.coupling_term(0.0, theta, hist)
        without = realized.coupling_term(0.0, theta, None)
        np.testing.assert_allclose(with_hist, without, atol=1e-14)

    def test_edgeless_topology_has_no_delays(self):
        # Delays live on edges: with no edge there is nothing to retard,
        # so the model is an ODE and the ODE solvers accept it.
        m = make_model(topology=Topology.from_edge_arrays(4, [], []),
                       interaction_noise=ConstantInteractionNoise(tau=0.5))
        realized = m.realize(10.0, rng=0)
        assert not realized.has_delays
        assert realized.max_delay() == 0.0
        rhs = realized.backend.make_ode_rhs()
        np.testing.assert_array_equal(rhs(0.0, np.zeros((1, 4))),
                                      np.full((1, 4), m.omega))


class TestLinearPotentialAnalytics:
    def test_relaxation_rate_is_spectral_gap(self):
        """With V(d) = d the dynamics are linear:
        dx/dt = -(v_p/N) L x; the slowest mode decays at
        (v_p/N) * lambda_2(L)."""
        from repro.core import simulate

        n = 8
        topo = ring(n, (1, -1))
        vp = 4.0
        m = PhysicalOscillatorModel(topology=topo,
                                    potential=LinearPotential(),
                                    t_comp=0.9, t_comm=0.1,
                                    v_p_override=vp)
        rate = (vp / n) * topo.spectral_gap()

        # Excite exactly the slowest Fourier mode.
        k = np.arange(n)
        x0 = 0.1 * np.cos(2 * np.pi * k / n)
        traj = simulate(m, 3.0, theta0=x0, seed=0)
        x = traj.comoving_phases()
        amp0 = np.abs(x[0] - x[0].mean()).max()
        amp1 = np.abs(x[-1] - x[-1].mean()).max()
        measured_rate = -np.log(amp1 / amp0) / traj.t_end
        assert measured_rate == pytest.approx(rate, rel=0.05)


class TestKuramotoModel:
    """Eq. 1 as the POM member ``sin`` on ``all_to_all`` with ``v_p = K``."""

    def test_rhs_matches_eq1(self, kuramoto_member):
        km = kuramoto_member(3, 1.5, [1.0, 2.0, 3.0]).realize(1.0, rng=0)
        theta = np.array([0.1, 0.5, -0.3])
        got = km.rhs(0.0, theta)
        expected = np.empty(3)
        for i in range(3):
            s = sum(np.sin(theta[j] - theta[i]) for j in range(3))
            expected[i] = [1.0, 2.0, 3.0][i] + 1.5 / 3 * s
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_phase_slip_invariance(self, kuramoto_member):
        """The paper's criticism: shifting one oscillator by 2*pi leaves
        the Kuramoto RHS unchanged — impossible for real MPI processes."""
        km = kuramoto_member(6, 2.0, 1.0).realize(1.0, rng=0)
        theta = np.random.default_rng(3).uniform(0, 2 * np.pi, 6)
        shifted = theta.copy()
        shifted[2] += 2 * np.pi
        np.testing.assert_allclose(km.rhs(0.0, theta), km.rhs(0.0, shifted),
                                   atol=1e-12)

    def test_pom_breaks_phase_slip_invariance(self):
        m = make_model()
        realized = m.realize(5.0, rng=0)
        theta = np.random.default_rng(3).uniform(0, 2 * np.pi, m.n)
        shifted = theta.copy()
        shifted[2] += 2 * np.pi
        assert not np.allclose(realized.rhs(0.0, theta),
                               realized.rhs(0.0, shifted))

    def test_describe(self, kuramoto_member):
        d = kuramoto_member(4, 2.0, 1.0).describe()
        assert d["potential"]["name"] == "kuramoto"
        assert d["topology"]["name"] == "all-to-all"
        assert d["v_p"] == 2.0
