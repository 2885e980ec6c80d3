"""Core of the reproduction: the physical oscillator model (Eq. 2).

Public surface:

* potentials — :class:`TanhPotential` (scalable), :class:`BottleneckPotential`
  (bottlenecked, interaction horizon sigma), :class:`KuramotoPotential`
  (baseline), :class:`LinearPotential`, :class:`CustomPotential`;
* topologies — every one is its edge list (``.matrix`` densifies on
  demand): :func:`ring`, :func:`chain`, :func:`all_to_all`,
  :func:`grid2d`, :func:`torus2d`, :func:`hypercube`, :func:`fat_tree`,
  :func:`dragonfly`, :func:`random_topology`, :func:`from_edges`,
  :func:`from_networkx` (networkx imported on call), and
  :func:`make_topology` for any registered kind by name;
* coupling — :class:`CouplingSpec` with :class:`Protocol`
  (eager/rendezvous) and :class:`WaitMode` (separate/waitall);
* noise — local jitter channels, one-off delays, interaction delays;
* the model — :class:`PhysicalOscillatorModel`: every model is an Eq. 2
  member, and the plain Kuramoto model (Eq. 1) is
  :class:`KuramotoPotential` on :func:`all_to_all` with
  ``v_p_override = K``;
* the driver — :func:`simulate` returning :class:`OscillatorTrajectory`.
"""

from .coupling import CouplingSpec, Protocol, WaitMode
from .ensemble import EnsembleResult, GridResult, grid_sweep, run_ensemble
from .initial import (
    perturbed,
    random_phases,
    splayed,
    synchronized,
    wavefront,
)
from .model import PhysicalOscillatorModel, RealizedModel
from .noise import (
    CompositeNoise,
    ConstantInteractionNoise,
    DelaySchedule,
    GaussianJitter,
    InteractionNoise,
    LocalNoise,
    LognormalJitter,
    NoInteractionNoise,
    NoNoise,
    OneOffDelay,
    RandomInteractionNoise,
    StaticLoadImbalance,
    TauField,
    UniformJitter,
    ZetaProcess,
)
from .potentials import (
    BottleneckPotential,
    CustomPotential,
    KuramotoPotential,
    LinearPotential,
    Potential,
    TanhPotential,
    potential_from_name,
)
from .simulation import default_dt, simulate, simulate_grid
from .topology import (
    Topology,
    TopologyKind,
    all_to_all,
    chain,
    dragonfly,
    fat_tree,
    from_edges,
    from_networkx,
    grid2d,
    hypercube,
    make_topology,
    random_topology,
    register_topology,
    ring,
    topology_kinds,
    topology_n_from_spec,
    torus2d,
)
from .trajectory import OscillatorTrajectory

__all__ = [
    # coupling
    "CouplingSpec", "Protocol", "WaitMode",
    # ensembles
    "EnsembleResult", "GridResult", "grid_sweep", "run_ensemble",
    # initial conditions
    "perturbed", "random_phases", "splayed", "synchronized", "wavefront",
    # models
    "PhysicalOscillatorModel", "RealizedModel",
    # noise
    "CompositeNoise", "ConstantInteractionNoise", "DelaySchedule",
    "GaussianJitter", "InteractionNoise", "LocalNoise", "LognormalJitter",
    "NoInteractionNoise", "NoNoise", "OneOffDelay", "RandomInteractionNoise",
    "StaticLoadImbalance", "TauField", "UniformJitter", "ZetaProcess",
    # potentials
    "BottleneckPotential", "CustomPotential", "KuramotoPotential",
    "LinearPotential", "Potential", "TanhPotential", "potential_from_name",
    # simulation
    "default_dt", "simulate", "simulate_grid",
    # topology
    "Topology", "TopologyKind", "all_to_all", "chain", "dragonfly",
    "fat_tree", "from_edges", "from_networkx", "grid2d", "hypercube",
    "make_topology", "random_topology", "register_topology", "ring",
    "topology_kinds", "topology_n_from_spec", "torus2d",
    # trajectory
    "OscillatorTrajectory",
]
