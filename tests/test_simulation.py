"""Tests for the simulation driver and the trajectory container."""

import numpy as np
import pytest

from repro.backends import DenseBackend
from repro.core import (
    ConstantInteractionNoise,
    GaussianJitter,
    OneOffDelay,
    PhysicalOscillatorModel,
    RandomInteractionNoise,
    TanhPotential,
    all_to_all,
    default_dt,
    perturbed,
    random_topology,
    ring,
    simulate,
    simulate_grid,
    splayed,
    synchronized,
    torus2d,
)
from repro.integrate import HistoryBuffer, solve_dopri45, solve_rk4
from repro.metrics import classify, order_parameter


class TestInitialConditions:
    def test_synchronized(self):
        np.testing.assert_array_equal(synchronized(5), np.zeros(5))

    def test_synchronized_with_phase(self):
        np.testing.assert_array_equal(synchronized(3, phase=1.5),
                                      np.full(3, 1.5))

    def test_perturbed(self):
        theta = perturbed(5, rank=2, offset=-0.7)
        assert theta[2] == pytest.approx(-0.7)
        assert np.all(theta[[0, 1, 3, 4]] == 0.0)

    def test_perturbed_rank_validated(self):
        with pytest.raises(ValueError):
            perturbed(3, rank=5)

    def test_splayed_gap(self):
        theta = splayed(4, gap=0.5)
        np.testing.assert_allclose(np.diff(theta), 0.5)


class TestSimulateDriver:
    def test_free_oscillators_advance_at_omega(self):
        m = PhysicalOscillatorModel(topology=ring(4, (1, -1)),
                                    potential=TanhPotential(),
                                    t_comp=0.9, t_comm=0.1,
                                    v_p_override=0.0)
        traj = simulate(m, 3.0, seed=0)
        np.testing.assert_allclose(traj.final_phases,
                                   np.full(4, m.omega * 3.0), rtol=1e-6)

    def test_methods_agree_on_smooth_problem(self, small_scalable_model):
        theta0 = perturbed(8, rank=3, offset=-0.8)
        kw = dict(theta0=theta0, seed=0)
        dop = simulate(small_scalable_model, 5.0, method="dopri", **kw)
        rk4 = simulate(small_scalable_model, 5.0, method="rk4", dt=1e-3, **kw)
        eul = simulate(small_scalable_model, 5.0, method="euler", dt=1e-4, **kw)
        np.testing.assert_allclose(dop.final_phases, rk4.final_phases,
                                   atol=1e-5)
        np.testing.assert_allclose(dop.final_phases, eul.final_phases,
                                   atol=1e-3)

    def test_bad_method_rejected(self, small_scalable_model):
        with pytest.raises(ValueError, match="unknown method"):
            simulate(small_scalable_model, 1.0, method="leapfrog")

    def test_bad_theta0_shape(self, small_scalable_model):
        with pytest.raises(ValueError, match="theta0"):
            simulate(small_scalable_model, 1.0, theta0=np.zeros(3))

    def test_negative_t_end(self, small_scalable_model):
        with pytest.raises(ValueError, match="positive"):
            simulate(small_scalable_model, -1.0)

    def test_n_samples_resampling(self, small_scalable_model):
        traj = simulate(small_scalable_model, 2.0, n_samples=64)
        assert traj.n_samples == 64
        assert np.allclose(np.diff(traj.ts), traj.ts[1] - traj.ts[0])

    def test_seed_reproducibility_with_noise(self):
        m = PhysicalOscillatorModel(
            topology=ring(6, (1, -1)), potential=TanhPotential(),
            t_comp=0.9, t_comm=0.1,
            local_noise=GaussianJitter(std=0.02, refresh=0.2))
        a = simulate(m, 3.0, seed=11)
        b = simulate(m, 3.0, seed=11)
        np.testing.assert_array_equal(a.final_phases, b.final_phases)

    def test_different_seeds_differ(self):
        m = PhysicalOscillatorModel(
            topology=ring(6, (1, -1)), potential=TanhPotential(),
            t_comp=0.9, t_comm=0.1,
            local_noise=GaussianJitter(std=0.02, refresh=0.2))
        a = simulate(m, 3.0, seed=11)
        b = simulate(m, 3.0, seed=12)
        assert not np.allclose(a.final_phases, b.final_phases)

    def test_default_dt_resolves_both_scales(self, small_scalable_model):
        dt = default_dt(small_scalable_model)
        assert dt <= small_scalable_model.period / 10
        assert dt <= 1.0 / small_scalable_model.v_p


class TestOneOffDelayIntegration:
    def test_exact_phase_deficit(self):
        """After a full-stall delay, the free-running rank lags by
        exactly omega*delay (no coupling to pull it back)."""
        delay = 0.8
        m = PhysicalOscillatorModel(
            topology=ring(4, (1, -1)), potential=TanhPotential(),
            t_comp=0.9, t_comm=0.1, v_p_override=0.0,
            delays=(OneOffDelay(rank=1, t_start=2.0, delay=delay),))
        traj = simulate(m, 6.0, seed=0, method="rk4", dt=1e-3)
        deficit = traj.final_phases[0] - traj.final_phases[1]
        assert deficit == pytest.approx(m.omega * delay, rel=1e-3)

    def test_windowed_delay_same_deficit(self):
        delay = 0.5
        m = PhysicalOscillatorModel(
            topology=ring(4, (1, -1)), potential=TanhPotential(),
            t_comp=0.9, t_comm=0.1, v_p_override=0.0,
            delays=(OneOffDelay(rank=1, t_start=1.0, delay=delay,
                                window=2.0),))
        traj = simulate(m, 5.0, seed=0, method="rk4", dt=1e-3)
        deficit = traj.final_phases[0] - traj.final_phases[1]
        assert deficit == pytest.approx(m.omega * delay, rel=1e-3)


class TestDDEPath:
    def test_dde_converges_linearly_to_ode(self, small_scalable_model):
        """As tau -> 0 the DDE solution approaches the ODE one, with the
        leading difference being the *physical* delay-induced frequency
        shift ~ (v_p/N) * degree * omega * tau * t."""
        theta0 = perturbed(8, rank=2, offset=-0.5)
        ode = simulate(small_scalable_model, 4.0, theta0=theta0, seed=0)
        diffs = []
        for tau in (1e-5, 1e-4, 1e-3):
            m_dde = PhysicalOscillatorModel(
                topology=small_scalable_model.topology,
                potential=small_scalable_model.potential,
                t_comp=0.9, t_comm=0.1, v_p_override=8.0,
                interaction_noise=ConstantInteractionNoise(tau=tau))
            dde = simulate(m_dde, 4.0, theta0=theta0, seed=0)
            diffs.append(np.abs(dde.final_phases - ode.final_phases).max())
        # Linear in tau: each decade of tau shrinks the gap ~10x.
        assert diffs[0] < diffs[1] / 5.0 < diffs[2] / 25.0
        # And the predicted physical shift magnitude for tau=1e-3:
        # (v_p/N)*deg*omega*tau*t = 1*2*2pi*1e-3*4 ~ 5e-2.
        assert diffs[2] == pytest.approx(2 * 2 * np.pi * 1e-3 * 4.0,
                                         rel=0.3)

    def test_delay_slows_synchronization(self):
        """Interaction delays weaken the effective pull towards sync
        (the partner's past phase is further back)."""
        def final_spread(tau):
            noise = ConstantInteractionNoise(tau=tau)
            m = PhysicalOscillatorModel(
                topology=ring(8, (1, -1)), potential=TanhPotential(),
                t_comp=0.9, t_comm=0.1, v_p_override=8.0,
                interaction_noise=noise)
            traj = simulate(m, 6.0, theta0=perturbed(8, 2, -1.0), seed=0)
            x = traj.comoving_phases()
            return float(x[-1].max() - x[-1].min())

        assert final_spread(0.08) > final_spread(1e-4)


class TestEulerMaruyamaPath:
    def test_em_requires_gaussian_noise(self, small_scalable_model):
        with pytest.raises(ValueError, match="GaussianJitter"):
            simulate(small_scalable_model, 1.0, method="em")

    def test_em_runs_and_stays_coherent(self):
        m = PhysicalOscillatorModel(
            topology=ring(8, (1, -1)), potential=TanhPotential(),
            t_comp=0.9, t_comm=0.1, v_p_override=8.0,
            local_noise=GaussianJitter(std=0.01))
        traj = simulate(m, 5.0, method="em", dt=1e-3, seed=0)
        assert order_parameter(traj.final_phases) > 0.9


class TestOneSolvePath:
    """``simulate()`` is a one-member ``simulate_grid``: checked against
    an independent dense-reference integration, against the same member
    inside a campaign, and through the shared argument checks."""

    TOPOLOGIES = {
        "ring": lambda: ring(16, (1, -1)),
        "torus": lambda: torus2d(4, 4),
        "random": lambda: random_topology(
            16, 0.15, rng=np.random.default_rng(2)),
        "all-to-all": lambda: all_to_all(16),
    }

    @staticmethod
    def _model(topology, **kw):
        return PhysicalOscillatorModel(
            topology=topology, potential=TanhPotential(),
            t_comp=0.9, t_comm=0.1,
            local_noise=GaussianJitter(std=0.03, refresh=0.5), **kw)

    @pytest.mark.parametrize("method", ["rk4", "dopri", "dde"])
    @pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
    def test_matches_dense_reference(self, topo, method):
        """Integrate ``DenseBackend(realized).rhs`` with the solvers
        directly; no code of the simulate/simulate_grid dispatch runs.

        A smooth potential: under the bottleneck's sign jump at d = 0
        the adaptive mesh amplifies 1-ulp coupling differences."""
        kw = ({"interaction_noise": RandomInteractionNoise(
            lo=0.0, hi=0.15, refresh=1.0)} if method == "dde" else {})
        model = self._model(self.TOPOLOGIES[topo](), **kw)
        theta0 = np.random.default_rng(5).uniform(-1.0, 1.0, model.n)
        t_end, dt = 4.0, 0.01
        dense = DenseBackend(model.realize(t_end, rng=3))
        if method == "dopri":
            # max step: half the noise refresh interval
            ref = solve_dopri45(lambda t, y: dense.rhs(t, y), (0.0, t_end),
                                theta0, max_step=0.25)
            got = simulate(model, t_end, theta0=theta0, seed=3)
            # The adaptive mesh moves with 1-ulp RHS differences, so
            # compare the end state and the dense output on one grid.
            np.testing.assert_allclose(got.final_phases, ref.ys[-1],
                                       rtol=0.0, atol=1e-10)
            grid = np.linspace(0.0, t_end, 41)
            np.testing.assert_allclose(got.solution.dense(grid), ref(grid),
                                       rtol=0.0, atol=2e-10)
            return
        history = HistoryBuffer(0.0, theta0)

        def rhs(t, y):
            return dense.rhs(t, y, history)

        history._fs[0] = rhs(0.0, theta0)
        ref = solve_rk4(
            rhs, (0.0, t_end), theta0, dt=dt,
            step_callback=lambda t, y: history.append(t, y, rhs(t, y)))
        got = simulate(model, t_end, theta0=theta0, seed=3, method="rk4",
                       dt=dt)
        assert dense.realized.has_delays == (method == "dde")
        np.testing.assert_array_equal(got.ts, ref.ts)
        np.testing.assert_allclose(got.thetas, ref.ys, rtol=0.0, atol=1e-10)

    def test_member_alone_equals_campaign_member(self):
        """An all-to-all member with noise and a random theta0 has the
        same bits alone and inside a campaign."""
        from repro.runs import ScenarioSpec, run_spec

        spec = ScenarioSpec(
            name="alone-vs-campaign",
            model={"topology": {"kind": "all_to_all", "n": 12},
                   "potential": {"kind": "bottleneck", "sigma": 1.0},
                   "t_comp": 0.9, "t_comm": 0.1,
                   "local_noise": {"kind": "gaussian", "std": 0.03,
                                   "refresh": 0.5}},
            t_end=6.0,
            solver={"method": "dopri", "rtol": 1e-6, "atol": 1e-9},
            initial={"kind": "normal", "std": 0.5, "seed": 4},
            axes=[("seed", [0, 1])],
        )
        result = run_spec(spec, shard_members=1)
        for member, got in zip(spec.members(), result.members):
            model = member.build_model()
            alone = simulate(model, member.t_end,
                             theta0=member.build_theta0(model.n),
                             seed=member.seed)
            np.testing.assert_array_equal(got.ts, alone.ts)
            np.testing.assert_array_equal(got.thetas, alone.thetas)

    def test_em_with_interaction_delays_rejected(self):
        # The DDE path has no diffusion term: EM must not silently
        # return the deterministic delayed solve.
        model = self._model(ring(8, (1, -1)),
                            interaction_noise=ConstantInteractionNoise(0.1))
        with pytest.raises(ValueError, match="interaction delays"):
            simulate(model, 1.0, method="em", seed=0)

    def test_unknown_method_rejected_with_interaction_delays(self):
        model = self._model(ring(8, (1, -1)),
                            interaction_noise=ConstantInteractionNoise(0.1))
        with pytest.raises(ValueError, match="unknown method"):
            simulate(model, 1.0, method="bogus")
        with pytest.raises(ValueError, match="unknown method"):
            simulate_grid([model], 1.0, method="bogus")
        # The documented switch: fixed-step RK4 for delayed models.
        dopri = simulate(model, 1.0, seed=0, dt=0.01)
        rk4 = simulate(model, 1.0, seed=0, method="rk4", dt=0.01)
        np.testing.assert_array_equal(dopri.thetas, rk4.thetas)

    @pytest.mark.parametrize("method", ["rk4", "em"])
    def test_fresh_entropy_seed(self, method):
        model = self._model(ring(8, (1, -1)))
        trajs = simulate_grid([model, model], 1.0, seeds=None,
                              method=method, dt=0.01)
        assert [tr.seed for tr in trajs] == [None, None]
        # Fresh entropy per member: the two noise streams differ.
        assert not np.array_equal(trajs[0].thetas, trajs[1].thetas)
        alone = simulate(model, 1.0, seed=None, method=method, dt=0.01)
        assert alone.seed is None
        assert np.all(np.isfinite(alone.thetas))


class TestKuramotoDriver:
    """The Kuramoto member (Eq. 1) through the one solve path."""

    def test_all_to_all_synchronizes(self, kuramoto_member):
        km = kuramoto_member(10, 5.0, 2 * np.pi)
        theta0 = np.random.default_rng(0).uniform(-1.0, 1.0, 10)
        traj = simulate(km, 20.0, theta0=theta0)
        assert order_parameter(traj.final_phases) > 0.999

    def test_methods_match(self, kuramoto_member):
        km = kuramoto_member(6, 2.0, 1.0)
        theta0 = np.linspace(0, 1, 6)
        a = simulate(km, 5.0, theta0=theta0, method="dopri")
        b = simulate(km, 5.0, theta0=theta0, method="rk4", dt=1e-3)
        np.testing.assert_allclose(a.final_phases, b.final_phases,
                                   atol=1e-5)

    def test_invalid_args(self, kuramoto_member):
        km = kuramoto_member(4, 1.0)
        with pytest.raises(ValueError):
            simulate(km, -1.0)
        with pytest.raises(ValueError):
            simulate(km, 1.0, theta0=np.zeros(7))
        with pytest.raises(ValueError):
            simulate(km, 1.0, method="verlet")


class TestPaperDynamics:
    """The headline physics at test scale (boosted coupling)."""

    def test_scalable_resynchronizes_after_delay(self, small_scalable_model):
        m = PhysicalOscillatorModel(
            topology=small_scalable_model.topology,
            potential=small_scalable_model.potential,
            t_comp=0.9, t_comm=0.1, v_p_override=8.0,
            delays=(OneOffDelay(rank=3, t_start=2.0, delay=0.5),))
        traj = simulate(m, 40.0, seed=0)
        verdict = classify(traj.ts, traj.thetas, m.omega)
        assert verdict.is_synchronized

    def test_bottleneck_desynchronizes_from_noise(self,
                                                  small_bottleneck_model):
        rng = np.random.default_rng(5)
        theta0 = rng.normal(0.0, 1e-3, 8)
        traj = simulate(small_bottleneck_model, 60.0, theta0=theta0, seed=0)
        verdict = classify(traj.ts, traj.thetas,
                           small_bottleneck_model.omega)
        assert verdict.is_desynchronized
        # |gaps| settle at the first zero 2*sigma/3.
        assert verdict.mean_abs_gap == pytest.approx(2.0 / 3.0, rel=0.05)

    def test_bottleneck_splayed_state_is_stable(self,
                                                small_bottleneck_model):
        gap = small_bottleneck_model.potential.stable_gap()
        # Zigzag (alternating-sign) splay is ring-compatible.
        theta0 = np.array([0.0, gap] * 4)
        traj = simulate(small_bottleneck_model, 30.0, theta0=theta0, seed=0)
        x = traj.comoving_phases()
        final_gaps = np.abs(np.diff(x[-1]))
        np.testing.assert_allclose(final_gaps, gap, rtol=0.05)

    def test_tanh_sync_state_is_stable(self, small_scalable_model):
        traj = simulate(small_scalable_model, 10.0,
                        theta0=synchronized(8), seed=0)
        x = traj.comoving_phases()
        assert float(np.abs(x[-1] - x[-1, 0]).max()) < 1e-8
