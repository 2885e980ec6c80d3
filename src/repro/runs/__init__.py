"""Run orchestration: declarative campaigns, sharded execution, caching.

The paper's claims are all *campaigns* — grids of simulations — and
this package makes a campaign a first-class object with four layers:

:mod:`repro.runs.spec`
    :class:`ScenarioSpec` — a declarative, JSON-serialisable campaign
    (model + solver + initial condition + parameter/seed axes) with a
    stable content hash; pure expansion into :class:`MemberSpec` grid
    points.
:mod:`repro.runs.plan`
    :func:`compile_plan` — fuse hash-compatible members into stacked
    batched solves (:class:`Shard`), falling back to one shard per
    topology value; deterministic decomposition, independent of the
    worker count.
:mod:`repro.runs.executor`
    :func:`run_plan` / :func:`run_spec` — inline or
    ``ProcessPoolExecutor`` execution with progress callbacks;
    ``jobs=1`` and ``jobs=8`` are bit-for-bit identical.
:mod:`repro.runs.cache` / :mod:`repro.runs.store`
    Content-addressed result cache: finished campaigns replay as pure
    cache hits, killed campaigns resume from completed shards.

Quickstart
----------
>>> from repro.runs import ScenarioSpec, run_spec
>>> spec = ScenarioSpec(
...     name="demo",
...     model={"topology": {"kind": "ring", "n": 8},
...            "potential": {"kind": "tanh"},
...            "t_comp": 0.9, "t_comm": 0.1},
...     t_end=5.0,
...     solver={"method": "rk4"},
...     axes=[("v_p_override", [0.5, 1.0])],
... )
>>> result = run_spec(spec, jobs=1)
>>> len(result.trajectories())
2
"""

from .cache import (
    NUMERICS_VERSION,
    ResultCache,
    fingerprint_files,
    numerics_fingerprint,
    shard_key,
)
from .executor import (
    MemberResult,
    RunResult,
    collect_cached,
    drain_queue,
    execute_shard,
    run_plan,
    run_plan_queue,
    run_spec,
)
from .faults import FaultInjector, InjectedFault, injector_from_env, parse_faults
from .plan import Plan, Shard, compile_plan
from .queue import Lease, QueueRow, WorkQueue
from .spec import (
    MemberSpec,
    ScenarioSpec,
    initial_from_spec,
    model_from_spec,
    potential_from_spec,
    topology_from_spec,
)
from .store import ArtifactStore

__all__ = [
    "ArtifactStore",
    "FaultInjector",
    "InjectedFault",
    "Lease",
    "MemberResult",
    "MemberSpec",
    "NUMERICS_VERSION",
    "Plan",
    "QueueRow",
    "ResultCache",
    "RunResult",
    "ScenarioSpec",
    "Shard",
    "WorkQueue",
    "collect_cached",
    "compile_plan",
    "drain_queue",
    "execute_shard",
    "fingerprint_files",
    "initial_from_spec",
    "injector_from_env",
    "model_from_spec",
    "numerics_fingerprint",
    "parse_faults",
    "potential_from_spec",
    "run_plan",
    "run_plan_queue",
    "run_spec",
    "shard_key",
    "topology_from_spec",
]
