"""End-to-end verification of the paper's quantified claims at test scale.

Each test cites the claim it checks; the full-scale numbers live in the
benchmarks and EXPERIMENTS.md.
"""

import numpy as np
import pytest

from repro.analysis import measure_trace_wave
from repro.core import (
    BottleneckPotential,
    CouplingSpec,
    OneOffDelay,
    PhysicalOscillatorModel,
    Protocol,
    TanhPotential,
    WaitMode,
    ring,
    simulate,
)
from repro.experiments.fig2 import run_panel
from repro.metrics import classify, measure_wave_speed, settle_time
from repro.simulator import (
    PiSolverKernel,
    paper_program,
    run_with_one_off_delay,
)


class TestSection51DelayPropagation:
    """Sec. 5.1: idle waves ripple through the program; speed is set by
    the coupling; scalable programs resynchronise afterwards."""

    def test_idle_wave_reaches_every_rank_model(self):
        m = PhysicalOscillatorModel(
            topology=ring(12, (1, -1)), potential=TanhPotential(),
            t_comp=0.9, t_comm=0.1, v_p_override=6.0,
            delays=(OneOffDelay(rank=3, t_start=5.0, delay=1.0),))
        traj = simulate(m, 80.0, seed=0)
        fit = measure_wave_speed(traj.ts, traj.thetas, m.omega, 3,
                                 t_injection=5.0)
        assert fit.n_reached == 11

    def test_trace_wave_speed_eager_next_neighbor_is_one(self):
        spec = paper_program(PiSolverKernel(1e6), n_ranks=20,
                             n_iterations=25, distances=(1, -1))
        base, dist = run_with_one_off_delay(spec, delay_rank=4,
                                            delay_iteration=4, seed=0)
        fit = measure_trace_wave(base, dist, 4)
        assert fit.speed_ranks_per_iteration == pytest.approx(1.0, rel=0.2)

    def test_faster_wave_with_longer_distances(self):
        speeds = {}
        for dist_set in ((1, -1), (1, -1, -2)):
            spec = paper_program(PiSolverKernel(1e6), n_ranks=20,
                                 n_iterations=25, distances=dist_set)
            base, dist = run_with_one_off_delay(spec, delay_rank=4,
                                                delay_iteration=4, seed=0)
            speeds[dist_set] = measure_trace_wave(
                base, dist, 4).speed_ranks_per_iteration
        assert speeds[(1, -1, -2)] > 1.4 * speeds[(1, -1)]

    def test_larger_beta_kappa_faster_model_wave(self):
        speeds = []
        for bk in (1.0, 4.0, 12.0):
            m = PhysicalOscillatorModel(
                topology=ring(16, (1, -1)), potential=TanhPotential(),
                t_comp=0.9, t_comm=0.1, v_p_override=bk,
                delays=(OneOffDelay(rank=3, t_start=5.0, delay=1.0),))
            traj = simulate(m, 120.0, seed=0)
            speeds.append(measure_wave_speed(traj.ts, traj.thetas, m.omega,
                                             3, t_injection=5.0).speed)
        assert speeds[0] < speeds[1] < speeds[2]

    def test_protocol_and_waitall_rules_affect_stiffness(self):
        """beta = 2 for rendezvous; kappa = max distance under waitall."""
        topo = ring(12, (1, -1, -2))
        base = CouplingSpec()
        assert CouplingSpec(protocol=Protocol.RENDEZVOUS).beta_kappa(topo) \
            == pytest.approx(2 * base.beta_kappa(topo))
        assert CouplingSpec(wait_mode=WaitMode.WAITALL).beta_kappa(topo) \
            == pytest.approx(2.0)


class TestSection52ScalabilityAndPotential:
    """Sec. 5.2: potentials encode the scaling class."""

    def test_scalable_snaps_back(self):
        """5.2.1: the system 'snaps back' into a synchronised state."""
        m = PhysicalOscillatorModel(
            topology=ring(10, (1, -1)), potential=TanhPotential(),
            t_comp=0.9, t_comm=0.1, v_p_override=6.0,
            delays=(OneOffDelay(rank=2, t_start=3.0, delay=0.8),))
        traj = simulate(m, 60.0, seed=0)
        v = classify(traj.ts, traj.thetas, m.omega)
        assert v.is_synchronized
        # And all oscillators run at the natural frequency again.
        tail = traj.tail(0.2)
        np.testing.assert_allclose(tail.mean_frequency(), m.omega,
                                   rtol=1e-3)

    def test_bottleneck_gap_settles_at_first_zero(self):
        """5.2.2: phase differences settle at the first zero 2*sigma/3."""
        for sigma in (0.75, 1.5):
            m = PhysicalOscillatorModel(
                topology=ring(10, (1, -1)),
                potential=BottleneckPotential(sigma=sigma),
                t_comp=0.9, t_comm=0.1, v_p_override=6.0)
            rng = np.random.default_rng(1)
            traj = simulate(m, 80.0, theta0=rng.normal(0, 1e-3, 10), seed=0)
            v = classify(traj.ts, traj.thetas, m.omega)
            assert v.is_desynchronized
            assert v.mean_abs_gap == pytest.approx(2 * sigma / 3, rel=0.07)

    def test_smaller_sigma_means_smaller_spread(self):
        """5.2.2: stiffer code (smaller sigma) = smaller phase spread
        and proportionally smaller gaps (the gaps scale exactly as
        2*sigma/3; the spread also shrinks, though its ratio depends on
        the domain pattern the ring freezes into)."""
        spreads, gaps = [], []
        for sigma in (0.5, 1.5):
            m = PhysicalOscillatorModel(
                topology=ring(12, (1, -1)),
                potential=BottleneckPotential(sigma=sigma),
                t_comp=0.9, t_comm=0.1, v_p_override=6.0)
            rng = np.random.default_rng(2)
            traj = simulate(m, 120.0, theta0=rng.normal(0, 1e-3, 12),
                            seed=0)
            v = classify(traj.ts, traj.thetas, m.omega)
            spreads.append(v.final_spread)
            gaps.append(v.mean_abs_gap)
        assert spreads[1] > spreads[0]
        assert gaps[1] == pytest.approx(3.0 * gaps[0], rel=0.15)

    def test_desync_survives_a_delay(self):
        """5.1.2: after the idle wave runs out, the computational
        wavefront remains."""
        m = PhysicalOscillatorModel(
            topology=ring(10, (1, -1)),
            potential=BottleneckPotential(sigma=1.0),
            t_comp=0.9, t_comm=0.1, v_p_override=6.0,
            delays=(OneOffDelay(rank=3, t_start=20.0, delay=0.5),))
        rng = np.random.default_rng(3)
        traj = simulate(m, 120.0, theta0=rng.normal(0, 1e-3, 10), seed=0)
        v = classify(traj.ts, traj.thetas, m.omega)
        assert v.is_desynchronized
        assert v.mean_abs_gap == pytest.approx(2 / 3, rel=0.1)


class TestFig2CrossValidation:
    """The model and the DES agree on the sync/desync verdict for the
    paper's four scenarios (reduced scale), and both sides give the
    paper's verdict."""

    @pytest.mark.parametrize("name,scalable,sigma,distances", [
        ("a", True, None, (1, -1)),
        ("b", False, 1.5, (1, -1)),
        ("c", True, None, (1, -1, -2)),
        ("d", False, 0.5, (1, -1, -2)),
    ], ids=["a", "b", "c", "d"])
    def test_scenario_agreement(self, name, scalable, sigma, distances):
        panel = run_panel(
            f"fig2{name}", scalable=scalable, sigma=sigma,
            distances=distances, n_ranks=20, n_iterations=30,
            t_end=900.0, array_elements=2e6, seed=0)
        model_desync = panel.model_verdict.is_desynchronized
        trace_desync = panel.trace_desync.is_desynchronized
        assert model_desync == trace_desync, (
            f"panel {name}: model={panel.model_verdict.state}, "
            f"trace_desync={trace_desync}")
        assert panel.agrees_with_paper


class TestResyncTimescale:
    def test_resync_time_scales_with_spectral_gap(self):
        """Linearised resync rate = (v_p/N) * lambda_2(L): the 2-distance
        ring (larger gap) resynchronises faster at equal v_p."""
        times = {}
        for dists in ((1, -1), (1, -1, 2, -2)):
            topo = ring(12, dists)
            m = PhysicalOscillatorModel(
                topology=topo, potential=TanhPotential(),
                t_comp=0.9, t_comm=0.1, v_p_override=6.0,
                delays=(OneOffDelay(rank=3, t_start=5.0, delay=0.5),))
            traj = simulate(m, 150.0, seed=0)
            times[dists] = settle_time(traj.ts, traj.thetas, m.omega,
                                       tol=0.05)
        assert times[(1, -1, 2, -2)] < times[(1, -1)]
