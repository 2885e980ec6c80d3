"""Tests for the max-plus recurrence and the ensemble utilities."""

import numpy as np
import pytest

from repro.analysis import maxplus_iteration_ends, predicted_wave_cone
from repro.core import (
    GaussianJitter,
    PhysicalOscillatorModel,
    TanhPotential,
    grid_sweep,
    ring,
    run_ensemble,
)
from repro.core.coupling import Protocol
from repro.metrics import order_parameter, phase_spread
from repro.simulator import (
    ClusterSimulator,
    GaussianComputeNoise,
    Injection,
    MachineSpec,
    NetworkModel,
    PiSolverKernel,
    ProgramSpec,
    StreamTriadKernel,
)


def compute_spec(n_ranks=8, n_iters=10, distances=(1, -1), **kw):
    m = MachineSpec(nodes=2, sockets_per_node=2, cores_per_socket=4,
                    socket_bandwidth=40e9, core_bandwidth=10e9,
                    core_flops=30e9)
    return ProgramSpec(n_ranks=n_ranks, n_iterations=n_iters,
                       kernel=PiSolverKernel(1e5, machine=m), machine=m,
                       distances=distances, **kw)


class TestMaxPlusRecurrence:
    def test_exactly_matches_des_silent(self):
        spec = compute_spec()
        analytic = maxplus_iteration_ends(spec)
        des = ClusterSimulator(spec, seed=0).run().iteration_ends
        np.testing.assert_allclose(analytic, des, rtol=1e-12, atol=1e-15)

    def test_exactly_matches_des_with_injection(self):
        spec = compute_spec(n_ranks=10, n_iters=14)
        inj = [Injection(rank=3, iteration=4, extra_time=2e-3)]
        analytic = maxplus_iteration_ends(spec, injections=inj)
        des = ClusterSimulator(spec, injections=inj,
                               seed=0).run().iteration_ends
        np.testing.assert_allclose(analytic, des, rtol=1e-12, atol=1e-15)

    def test_exactly_matches_des_with_noise(self):
        spec = compute_spec(n_ranks=6, n_iters=12)
        noise = GaussianComputeNoise(std=0.3 * spec.kernel.core_time)
        analytic = maxplus_iteration_ends(spec, compute_noise=noise, seed=7)
        des = ClusterSimulator(spec, compute_noise=noise,
                               seed=7).run().iteration_ends
        np.testing.assert_allclose(analytic, des, rtol=1e-12, atol=1e-15)

    def test_exactly_matches_des_asymmetric_distances(self):
        spec = compute_spec(n_ranks=10, n_iters=12, distances=(1, -1, -2))
        inj = [Injection(rank=2, iteration=3, extra_time=1e-3)]
        analytic = maxplus_iteration_ends(spec, injections=inj)
        des = ClusterSimulator(spec, injections=inj,
                               seed=0).run().iteration_ends
        np.testing.assert_allclose(analytic, des, rtol=1e-12, atol=1e-15)

    def test_rejects_memory_bound(self):
        m = MachineSpec(nodes=1, sockets_per_node=1, cores_per_socket=4,
                        socket_bandwidth=40e9, core_bandwidth=10e9,
                        core_flops=30e9)
        spec = ProgramSpec(n_ranks=4, n_iterations=3,
                           kernel=StreamTriadKernel(1e6), machine=m,
                           distances=(1, -1))
        with pytest.raises(ValueError, match="compute-bound"):
            maxplus_iteration_ends(spec)

    def test_rejects_rendezvous(self):
        spec = compute_spec(
            network=NetworkModel(forced_protocol=Protocol.RENDEZVOUS))
        with pytest.raises(ValueError, match="eager"):
            maxplus_iteration_ends(spec)

    def test_rejects_barriers(self):
        spec = compute_spec(barrier_interval=2)
        with pytest.raises(ValueError, match="barrier"):
            maxplus_iteration_ends(spec)


class TestWaveCone:
    def test_next_neighbor_cone(self):
        spec = compute_spec(n_ranks=10, n_iters=20)
        cone = predicted_wave_cone(spec, source=4, iteration=3)
        assert cone[4] == 3
        # Direct receivers are late within the injection iteration.
        assert cone[5] == 3 and cone[3] == 3
        assert cone[6] == 4 and cone[2] == 4
        # Opposite side of the ring: 5 hops => 3 + 4.
        assert cone[9] == 7

    def test_asymmetric_cone_speeds(self):
        spec = compute_spec(n_ranks=12, n_iters=20, distances=(1, -1, -2))
        cone = predicted_wave_cone(spec, source=6, iteration=2)
        # Left via -2 (2 ranks/hop): rank 4 in the same iteration,
        # rank 2 one later.
        assert cone[4] == 2 and cone[2] == 3
        # Right via +1: rank 7 same iteration, rank 8 one later.
        assert cone[7] == 2 and cone[8] == 3

    def test_cone_matches_des_arrivals(self):
        """The dependency-cone bound is attained by the DES (a large
        delay reaches each rank exactly when the cone first allows)."""
        spec = compute_spec(n_ranks=10, n_iters=16)
        extra = 10.0 * spec.kernel.core_time
        inj = [Injection(rank=3, iteration=4, extra_time=extra)]
        base = maxplus_iteration_ends(spec)
        dist = maxplus_iteration_ends(spec, injections=inj)
        lag = dist - base
        cone = predicted_wave_cone(spec, source=3, iteration=4)
        for r in range(10):
            k = int(cone[r])
            assert lag[k, r] > 1e-9
            if k > 0:
                assert lag[k - 1, r] < 1e-12


class TestEnsemble:
    def make_model(self):
        return PhysicalOscillatorModel(
            topology=ring(8, (1, -1)), potential=TanhPotential(),
            t_comp=0.9, t_comm=0.1, v_p_override=8.0,
            local_noise=GaussianJitter(std=0.01, refresh=0.2))

    def test_metrics_aggregated_over_seeds(self):
        res = run_ensemble(
            self.make_model(), 10.0,
            metrics={"r": lambda t: order_parameter(t.final_phases),
                     "spread": lambda t: phase_spread(
                         t.comoving_phases()[-1])},
            seeds=range(5))
        assert res.values["r"].shape == (5,)
        assert 0.9 < res.mean("r") <= 1.0
        assert res.std("spread") >= 0.0
        assert "r" in res.summary()

    def test_seeds_recorded(self):
        res = run_ensemble(self.make_model(), 5.0,
                           metrics={"r": lambda t: 1.0}, seeds=[3, 5])
        assert res.seeds == (3, 5)

    def test_generator_seeds_read_once(self):
        res = run_ensemble(self.make_model(), 2.0,
                           metrics={"r": lambda t: 1.0},
                           seeds=(s for s in [3, 5]))
        assert res.seeds == (3, 5)
        assert res.values["r"].shape == (2,)

    def test_requires_metrics(self):
        with pytest.raises(ValueError, match="metric"):
            run_ensemble(self.make_model(), 5.0, metrics={})

    def test_theta0_factory_used(self):
        captured = []

        def factory(seed):
            captured.append(seed)
            return np.zeros(8)

        run_ensemble(self.make_model(), 2.0,
                     metrics={"r": lambda t: 1.0}, seeds=[1, 2],
                     theta0_factory=factory)
        assert captured == [1, 2]

    def test_quantile(self):
        res = run_ensemble(self.make_model(), 5.0,
                           metrics={"r": lambda t: order_parameter(
                               t.final_phases)}, seeds=range(4))
        q = res.quantile("r", 0.5)
        assert 0.0 <= q <= 1.0


class TestGridSweep:
    def test_cartesian_product(self):
        res = grid_sweep({"a": [1, 2], "b": [10, 20, 30]},
                         lambda a, b: a * b)
        assert len(res.points) == 6
        assert res.results[0] == 10
        assert res.results[-1] == 60

    def test_column_extraction(self):
        res = grid_sweep({"x": [1.0, 2.0, 3.0]}, lambda x: {"sq": x * x})
        col = res.column(lambda r: r["sq"])
        np.testing.assert_allclose(col, [1.0, 4.0, 9.0])

    def test_as_table(self):
        res = grid_sweep({"x": [1, 2]}, lambda x: x + 1)
        table = res.as_table({"y": lambda r: r})
        assert table["x"] == [1, 2]
        assert table["y"] == [2, 3]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_sweep({}, lambda: None)
