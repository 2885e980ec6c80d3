"""Shared fixtures for the test suite.

Everything here is deliberately small (N <= 16, short horizons) so the
full suite stays fast; the paper-scale configurations are exercised by
the benchmarks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BottleneckPotential,
    PhysicalOscillatorModel,
    TanhPotential,
    ring,
)
from repro.simulator import (
    MachineSpec,
    NetworkModel,
    PiSolverKernel,
    ProgramSpec,
    StreamTriadKernel,
)


@pytest.fixture
def rng():
    """Deterministic generator for tests that draw randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_scalable_model():
    """8-oscillator tanh ring with boosted coupling (fast relaxation)."""
    return PhysicalOscillatorModel(
        topology=ring(8, (1, -1)),
        potential=TanhPotential(),
        t_comp=0.9,
        t_comm=0.1,
        v_p_override=8.0,   # strong coupling: sync within a few seconds
    )


@pytest.fixture
def small_bottleneck_model():
    """8-oscillator bottleneck ring with boosted coupling."""
    return PhysicalOscillatorModel(
        topology=ring(8, (1, -1)),
        potential=BottleneckPotential(sigma=1.0),
        t_comp=0.9,
        t_comm=0.1,
        v_p_override=8.0,
    )


@pytest.fixture
def tiny_machine():
    """4-core single-socket machine for fast DES tests."""
    return MachineSpec(nodes=1, sockets_per_node=1, cores_per_socket=4,
                       socket_bandwidth=40e9, core_bandwidth=14e9,
                       core_flops=30e9)


@pytest.fixture
def small_compute_spec(tiny_machine):
    """4-rank compute-bound program on the tiny machine."""
    return ProgramSpec(
        n_ranks=4,
        n_iterations=10,
        kernel=PiSolverKernel(1e5, machine=tiny_machine),
        machine=tiny_machine,
        distances=(1, -1),
        network=NetworkModel(),
    )


@pytest.fixture
def small_memory_spec(tiny_machine):
    """4-rank memory-bound program on the tiny machine."""
    return ProgramSpec(
        n_ranks=4,
        n_iterations=10,
        kernel=StreamTriadKernel(1e6),
        machine=tiny_machine,
        distances=(1, -1),
        network=NetworkModel(),
    )


@pytest.fixture
def fast_poll(monkeypatch):
    """Tick queue supervisors and idle drainers every 0.05 s.

    Drainer processes fork from the test process and inherit the
    patched interval.
    """
    from repro.runs import executor

    monkeypatch.setattr(executor, "POLL_S", 0.05)
