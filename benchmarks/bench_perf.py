"""Engineering benchmarks: solver and simulator throughput.

These document the paper's "simple and cheap experimentation" pitch
(Sec. 1 Motivation): solving the ODE system must be far cheaper than
running the parallel program it models.
"""

import numpy as np
import pytest

from repro.backends import DenseBackend, HeteroBatchedBackend
from repro.core import (
    BottleneckPotential,
    GaussianJitter,
    PhysicalOscillatorModel,
    TanhPotential,
    ring,
    run_ensemble,
    simulate,
)
from repro.integrate import solve_dopri45, solve_rk4
from repro.simulator import (
    ClusterSimulator,
    MachineSpec,
    PiSolverKernel,
    ProgramSpec,
    StreamTriadKernel,
)


@pytest.mark.benchmark(group="perf-rhs")
def test_rhs_evaluation_n40(benchmark):
    """One Eq. 2 RHS evaluation at the paper's N = 40."""
    model = PhysicalOscillatorModel(
        topology=ring(40, (1, -1)), potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1)
    realized = model.realize(10.0, rng=0)
    theta = np.random.default_rng(0).normal(0, 1, 40)
    out = benchmark(realized.rhs, 0.0, theta)
    assert out.shape == (40,)


@pytest.mark.benchmark(group="perf-rhs")
def test_rhs_evaluation_n400(benchmark):
    """RHS at 10x the paper scale (dense N^2 coupling)."""
    model = PhysicalOscillatorModel(
        topology=ring(400, (1, -1)), potential=BottleneckPotential(sigma=1.0),
        t_comp=0.9, t_comm=0.1)
    realized = model.realize(10.0, rng=0)
    theta = np.random.default_rng(0).normal(0, 1, 400)
    out = benchmark(realized.rhs, 0.0, theta)
    assert out.shape == (400,)


@pytest.mark.benchmark(group="perf-backends")
@pytest.mark.parametrize("backend", ["dense", "edge_list"])
def test_rhs_backend_ring_n4096(benchmark, backend):
    """Eq. 2 RHS on a ring at N = 4096: O(N^2) dense vs. O(E) edge-list.

    The ring has only 2 edges per row, so the edge-list coupling (the
    realisation's one-member stack) should win by orders of magnitude
    (the target is >= 10x)."""
    model = PhysicalOscillatorModel(
        topology=ring(4096, (1, -1)), potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1)
    realized = model.realize(10.0, rng=0)
    rhs = DenseBackend(realized).rhs if backend == "dense" else realized.rhs
    theta = np.random.default_rng(0).normal(0, 1, 4096)
    out = benchmark.pedantic(rhs, args=(0.0, theta),
                             rounds=5, iterations=1)
    assert out.shape == (4096,)


@pytest.mark.benchmark(group="perf-backends")
def test_rhs_batched_super_state(benchmark):
    """One batched (R=8, N=4096) super-state RHS evaluation."""
    model = PhysicalOscillatorModel(
        topology=ring(4096, (1, -1)), potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1)
    stacked = HeteroBatchedBackend(
        [model.realize(10.0, rng=s) for s in range(8)])
    thetas = np.random.default_rng(0).normal(0, 1, (8, 4096))
    out = benchmark.pedantic(stacked.rhs, args=(0.0, thetas),
                             rounds=5, iterations=1)
    assert out.shape == (8, 4096)


@pytest.mark.benchmark(group="perf-backends")
@pytest.mark.parametrize("batched", [False, True], ids=["sequential", "batched"])
def test_ensemble_wall_clock(benchmark, batched):
    """8-seed ensemble wall-clock: one-seed-at-a-time vs. super-state."""
    model = PhysicalOscillatorModel(
        topology=ring(64, (1, -1)), potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1,
        local_noise=GaussianJitter(std=0.02, refresh=0.5))
    metrics = {"spread": lambda tr: float(np.ptp(tr.final_phases))}
    seeds = tuple(range(8))

    def run():
        if batched:
            return run_ensemble(model, 10.0, metrics, seeds=seeds).values
        return {"spread": np.array([metrics["spread"](
            simulate(model, 10.0, seed=seed)) for seed in seeds])}

    values = benchmark.pedantic(run, rounds=3, iterations=1)
    assert values["spread"].shape == (8,)


@pytest.mark.benchmark(group="perf-solver")
def test_dopri_oscillator_solve(benchmark):
    """Full model solve: 24 oscillators for 100 s of model time."""
    model = PhysicalOscillatorModel(
        topology=ring(24, (1, -1)), potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1)

    traj = benchmark.pedantic(
        lambda: simulate(model, 100.0, seed=0), rounds=3, iterations=1)
    assert traj.t_end == pytest.approx(100.0)


@pytest.mark.benchmark(group="perf-solver")
def test_dopri_vs_scipy_reference(benchmark):
    """Raw DOPRI throughput on a smooth 64-dimensional problem."""
    a = np.linspace(0.5, 2.0, 64)

    def f(t, y):
        return -a * y + np.sin(t)

    sol = benchmark(lambda: solve_dopri45(f, (0.0, 20.0), np.ones(64),
                                          rtol=1e-7, atol=1e-10))
    assert sol.success


@pytest.mark.benchmark(group="perf-solver")
def test_rk4_fixed_step_throughput(benchmark):
    a = np.linspace(0.5, 2.0, 64)

    def f(t, y):
        return -a * y

    sol = benchmark(lambda: solve_rk4(f, (0.0, 5.0), np.ones(64), dt=1e-3))
    assert sol.stats.n_steps == 5000


@pytest.mark.benchmark(group="perf-des")
def test_des_event_throughput_compute_bound(benchmark):
    """DES rate on the paper's configuration (40 ranks, PISOLVER)."""
    spec = ProgramSpec(
        n_ranks=40, n_iterations=30, kernel=PiSolverKernel(1e6),
        machine=MachineSpec(nodes=2), distances=(1, -1))

    def run():
        sim = ClusterSimulator(spec, seed=0)
        sim.run()
        return sim.engine.n_dispatched

    n_events = benchmark.pedantic(run, rounds=3, iterations=1)
    assert n_events > 0


@pytest.mark.benchmark(group="perf-des")
def test_des_event_throughput_memory_bound(benchmark):
    """Memory-bound DES: the arbiter reschedules on every transition."""
    spec = ProgramSpec(
        n_ranks=40, n_iterations=20, kernel=StreamTriadKernel(2e6),
        machine=MachineSpec(nodes=2), distances=(1, -1))

    def run():
        sim = ClusterSimulator(spec, seed=0)
        sim.run()
        return sim.engine.n_dispatched

    n_events = benchmark.pedantic(run, rounds=3, iterations=1)
    assert n_events > 0


@pytest.mark.benchmark(group="perf-cheapness")
def test_model_cheaper_than_simulated_program(benchmark, reports):
    """The pitch quantified: modelling 40 ranks for 60 cycles with the
    POM costs milliseconds of CPU; the program it describes would burn
    40 cores for a minute."""
    import time

    model = PhysicalOscillatorModel(
        topology=ring(40, (1, -1)), potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1)

    t0 = time.perf_counter()
    simulate(model, 60.0, seed=0)
    wall = time.perf_counter() - t0
    simulated_cpu_seconds = 40 * 60.0
    ratio = simulated_cpu_seconds / wall
    reports.append(
        f"PERF   POM solve of 40 ranks x 60 s costs {wall * 1e3:.0f} ms "
        f"=> {ratio:,.0f}x cheaper than the modelled program")

    benchmark.pedantic(lambda: simulate(model, 60.0, seed=0),
                       rounds=3, iterations=1)
    assert ratio > 100.0
