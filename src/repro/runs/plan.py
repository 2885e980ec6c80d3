"""Campaign planner: compile a :class:`ScenarioSpec` into solve shards.

The planner turns the flat member list of a spec into **shards** — the
units the executor runs and the cache stores.  Members are *fused* into
one shard (a single stacked :func:`~repro.core.simulate_grid` solve
through the heterogeneous batched backend) whenever they are
hash-compatible:

* identical topology dict, or — for the fixed-step methods — any mix of
  topologies that agree on the rank count ``N`` (the heterogeneous
  backend runs mixed edge lists through a padded stacked path that is
  bit-identical to solving each topology group separately), so a
  **topology axis over same-N machine designs fuses into one shard**;
  ``fuse_topologies=False`` restores one shard per topology value, and
  adaptive (``dopri``) campaigns always group per topology because
  shard members share one adaptive mesh;
* identical resolved kernel (one shard runs one kernel, below);
* identical horizon ``t_end`` (one shared time mesh per solve) and, for
  merged topology groups, identical resolved solver settings —
  including the plan-time ``dt``, so a topology sweep only fuses under
  an explicit ``solver["dt"]`` (the per-group default dt depends on
  kappa and therefore on the topology).

Everything else — coupling strength, period, potential parameters,
noise, seeds, one-off delays, initial conditions — batches freely.

The fixed step ``dt`` is resolved *at plan time* (the spec's value, or
the smallest :func:`~repro.core.simulation.default_dt` over the fused
group), so how a group is later chunked can never change the step.

So is the coupling kernel: each payload member names the kernel that
runs it (``"auto"`` becomes ``"cc"`` or ``"numpy"``), and a payload with
a ``cc`` member carries :func:`repro.kernels.cc.build_tag` and one with
a ``numpy`` member :func:`repro.kernels.numpy_build` (NumPy's version
and SIMD dispatch).  The kernels and their builds differ in the last
bits, so a shared cache never mixes them, and a worker that cannot
build cc fails a cc shard instead of running numpy.

Chunking (``shard_members=``) splits fused groups into bounded shards
so the multiprocess executor has units to spread: for the fixed-step
methods (``rk4``/``euler``/``em``) member rows are arithmetically
independent, so chunking is **bit-for-bit invariant** — any shard
layout produces the phases of the full-grid batched solve.  For the
adaptive ``dopri`` the members of a shard share one adaptive mesh, so
chunking changes meshes (results stay within solver tolerances); the
default ``shard_members=None`` keeps each fused group whole, which is
what reproduces ``grid_sweep`` over the same grid bit for bit.
"""

from __future__ import annotations

import functools
import json
import os
import warnings
from dataclasses import dataclass

from ..core.simulation import default_dt
from ..core.topology import topology_n_from_spec
from ..kernels import cc as cc_kernels
from ..kernels import numpy_build, resolve_kernel
from .cache import shard_key
from .spec import (FIXED_STEP_METHODS, MemberSpec, ScenarioSpec,
                   potential_from_spec)

__all__ = ["Shard", "Plan", "compile_plan", "TRAJ_WARN_ENV_VAR"]

#: env override (bytes) for the full-trajectory footprint warning;
#: <= 0 disables it
TRAJ_WARN_ENV_VAR = "POM_TRAJ_WARN_BYTES"

_TRAJ_WARN_DEFAULT = 128 * 1024 * 1024

#: spec hashes already warned about (the warning is one-time per spec
#: per process — a campaign is typically compiled more than once)
_footprint_warned: set[str] = set()

#: the cc build identity, hashed once per process: the extension a
#: process loaded never changes under it, and every plan (the service
#: compiles one per request) would otherwise re-read the CPU flags
_cc_build_tag = functools.cache(cc_kernels.build_tag)

#: kernel -> this process's build of it, recorded in a payload as
#: ``<kernel>_build``; NumPy's dispatch is read once per process too
BUILD_TAGS = {"cc": _cc_build_tag, "numpy": functools.cache(numpy_build)}


def _warn_footprint(spec: ScenarioSpec, est_bytes: float) -> None:
    """One-time warning for full-trajectory campaigns that would drown
    the cache; points at the streaming-metrics opt-out."""
    try:
        threshold = float(os.environ.get(TRAJ_WARN_ENV_VAR,
                                         _TRAJ_WARN_DEFAULT))
    except ValueError:
        threshold = _TRAJ_WARN_DEFAULT
    if threshold <= 0 or est_bytes <= threshold:
        return
    shash = spec.content_hash()
    if shash in _footprint_warned:
        return
    _footprint_warned.add(shash)
    warnings.warn(
        f"campaign {spec.name!r} requests full trajectories with an "
        f"estimated (R, n_t, N) footprint of ~{est_bytes / 1e6:.0f} MB; "
        "declare metrics=[...] with trajectories=\"none\" (or thin with "
        "trajectories=\"stride:K\") to cache kilobyte-scale reductions "
        f"instead (threshold: {TRAJ_WARN_ENV_VAR}={threshold:.0f})",
        RuntimeWarning, stacklevel=3)


@dataclass(frozen=True)
class Shard:
    """One executor unit: a batched solve over fused members.

    Attributes
    ----------
    index:
        Position in the plan (execution order is unconstrained; results
        are assembled by member index, not shard index).
    payload:
        JSON-able solve description handed to the worker process:
        ``{"members": [member dicts], "t_end": float, "solver": dict,
        "metrics": [names], "trajectories": mode}``, plus ``"cc_build"``
        or ``"numpy_build"`` naming the build of the kernel its members
        run.  The metric set and capture mode are part of the cache key
        — a metric-only shard and a full-trajectory shard of the same
        members are distinct cached artefacts.
    key:
        Content-addressed cache key of the solve
        (:func:`repro.runs.cache.shard_key`).
    """

    index: int
    payload: dict
    key: str

    @property
    def n_members(self) -> int:
        """Members fused into this shard."""
        return len(self.payload["members"])

    @property
    def member_indices(self) -> list[int]:
        """Global member indices covered by this shard."""
        return [m["index"] for m in self.payload["members"]]


@dataclass
class Plan:
    """A compiled campaign: the spec plus its shard decomposition."""

    spec: ScenarioSpec
    shards: list[Shard]

    @property
    def n_members(self) -> int:
        """Total members across all shards."""
        return sum(s.n_members for s in self.shards)

    @property
    def n_shards(self) -> int:
        """Number of solve units."""
        return len(self.shards)

    def describe(self, cache=None) -> dict:
        """Metadata for ``pom plan`` and reports.

        With a :class:`~repro.runs.cache.ResultCache` the per-shard
        cache state is included, so a partially finished campaign shows
        exactly which shards a resumed run would still execute.
        """
        shards = []
        for s in self.shards:
            row = {
                "shard": s.index,
                "members": s.n_members,
                "topologies": len({
                    json.dumps(m["model"]["topology"], sort_keys=True)
                    for m in s.payload["members"]}),
                "t_end": s.payload["t_end"],
                "method": s.payload["solver"]["method"],
                "kernel": s.payload["members"][0]["model"]["kernel"],
                "key": s.key[:16],
            }
            if cache is not None:
                row["cached"] = cache.has(s.key)
            shards.append(row)
        out = {
            "name": self.spec.name,
            "spec_hash": self.spec.content_hash()[:16],
            "members": self.n_members,
            "shards": shards,
            "builds": {kernel: s.payload[f"{kernel}_build"]
                       for s in self.shards for kernel in BUILD_TAGS
                       if f"{kernel}_build" in s.payload},
        }
        if cache is not None:
            out["cache"] = cache.describe()
        return out


def _resolved_member(m: MemberSpec) -> dict:
    """The member's payload dict, naming the kernel that runs it here."""
    pot = potential_from_spec(m.model.get("potential", {"kind": "tanh"}))
    kernel = resolve_kernel(m.model.get("kernel", "auto"), has_coefficients=(
        pot.kernel_coefficients() is not None))
    return {**m.to_dict(), "model": {**m.model, "kernel": kernel}}


def _chunks(seq: list, size: int | None) -> list[list]:
    if size is None or size >= len(seq):
        return [seq]
    return [seq[i:i + size] for i in range(0, len(seq), size)]


def compile_plan(spec: ScenarioSpec, *, shard_members: int | None = None,
                 fuse_topologies: bool | None = None) -> Plan:
    """Compile a scenario into its deterministic shard decomposition.

    Parameters
    ----------
    spec:
        The campaign.
    shard_members:
        Upper bound on members per shard (see the module docstring for
        the bit-for-bit implications); ``None`` keeps each fused group
        as one shard.
    fuse_topologies:
        Whether topology groups that agree on rank count, horizon, and
        resolved solver settings merge into one stacked shard.
        ``None`` (default) fuses exactly for the fixed-step methods,
        where member rows are arithmetically independent and the merge
        is bit-for-bit identical to per-group shards.  ``True`` with an
        adaptive method raises (shard members share one adaptive mesh,
        so merging would change results); ``False`` restores the
        one-shard-per-topology layout.

    The decomposition is a pure function of ``(spec, shard_members,
    fuse_topologies)`` — never of the worker count — which is what makes
    ``jobs=1`` and ``jobs=8`` executions of the same plan bit-for-bit
    identical.
    """
    if shard_members is not None and shard_members < 1:
        raise ValueError("shard_members must be positive")
    members = spec.members()
    solver = spec.solver
    method = solver.get("method", "dopri")
    if fuse_topologies is None:
        fuse_topologies = method in FIXED_STEP_METHODS
    elif fuse_topologies and method not in FIXED_STEP_METHODS:
        raise ValueError(
            "fuse_topologies=True requires a fixed-step method "
            f"({'/'.join(FIXED_STEP_METHODS)}); {method!r} members share "
            "one adaptive mesh per shard, so merging topology groups "
            "would change results")

    # Stage 1: fuse hash-compatible members (identical topology dict,
    # t_end and resolved kernel: a shard's solve runs one kernel),
    # preserving first-seen group order.
    payloads = {m.index: _resolved_member(m) for m in members}
    kernel_of = {i: p["model"]["kernel"] for i, p in payloads.items()}
    groups: dict[str, list[MemberSpec]] = {}
    for m in members:
        gkey = json.dumps([m.model["topology"], m.t_end, kernel_of[m.index]],
                          sort_keys=True, separators=(",", ":"))
        groups.setdefault(gkey, []).append(m)

    # Stage 2: resolve the solver per group (dt over the fused group).
    est_traj_bytes = 0.0
    resolved_groups: list[tuple[list[MemberSpec], dict]] = []
    for group in groups.values():
        dt = solver.get("dt")
        if dt is None:
            # Plan-time resolution over the *fused group* (the exact set
            # simulate_grid would see unchunked), so chunking and
            # grid_sweep over the same grid agree on dt.
            dt = min(default_dt(m.build_model()) for m in group)
        resolved = {
            "method": method,
            "dt": float(dt),
            "rtol": float(solver.get("rtol", 1e-6)),
            "atol": float(solver.get("atol", 1e-9)),
            "n_samples": solver.get("n_samples"),
        }
        if method not in FIXED_STEP_METHODS and shard_members is not None \
                and len(group) > shard_members:
            # Not an error — but the caller opted into adaptive meshes
            # that differ from this group's unchunked batched solve;
            # record it (only on the groups actually split) so `pom
            # plan` surfaces the fact and chunked solves never share a
            # cache key with unchunked ones.
            resolved["chunked_adaptive"] = True
        if spec.trajectories == "full":
            n_t = group[0].t_end / float(dt) + 1.0
            n_osc = topology_n_from_spec(group[0].model["topology"])
            est_traj_bytes += len(group) * n_t * n_osc * 8.0
        resolved_groups.append((group, resolved))

    # Stage 3: merge topology groups that agree on (N, t_end, resolved
    # solver) into one stacked shard.  Only reached for fixed-step
    # methods, where member rows are arithmetically independent: the
    # merged solve is bit-identical to the per-group solves, and the
    # members are re-sorted by global index so the merge order never
    # depends on axis order.  Note dt sits inside the merge key — a
    # topology axis without an explicit solver dt resolves per-group
    # dts from kappa and (correctly) stays unfused.
    if fuse_topologies:
        merged: dict[str, tuple[list[MemberSpec], dict]] = {}
        for group, resolved in resolved_groups:
            mkey = json.dumps(
                [topology_n_from_spec(group[0].model["topology"]), group[0].t_end,
                 kernel_of[group[0].index], resolved],
                sort_keys=True, separators=(",", ":"))
            if mkey in merged:
                merged[mkey][0].extend(group)
            else:
                merged[mkey] = (list(group), resolved)
        resolved_groups = [(sorted(g, key=lambda m: m.index), r)
                           for g, r in merged.values()]

    shards: list[Shard] = []
    for group, resolved in resolved_groups:
        for chunk in _chunks(group, shard_members):
            payload = {
                "members": [payloads[m.index] for m in chunk],
                "t_end": chunk[0].t_end,
                "solver": resolved,
                "metrics": list(spec.metrics),
                "trajectories": spec.trajectories,
            }
            for kernel, tag in BUILD_TAGS.items():
                if any(m["model"]["kernel"] == kernel
                       for m in payload["members"]):
                    payload[f"{kernel}_build"] = tag()
            shards.append(Shard(index=len(shards), payload=payload,
                                key=shard_key(payload)))

    _warn_footprint(spec, est_traj_bytes)
    return Plan(spec=spec, shards=shards)
