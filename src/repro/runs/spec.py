"""Declarative scenario specifications for simulation campaigns.

Every paper claim is a *campaign* — a grid of simulations over one or
more parameter axes — and the orchestration layer treats campaigns as
first-class, serialisable objects.  A :class:`ScenarioSpec` describes

* a base **model** as a plain dict (topology, potential, cycle times,
  coupling, noise channels, one-off delays, kernel knob),
* the **solver** configuration (method, dt, tolerances, resampling),
* the **initial condition** (by name, deterministic given the spec),
* the **axes**: ordered ``(dotted.path, values)`` pairs expanded as a
  Cartesian product over deep copies of the base model — any model
  parameter can be swept, and the special paths ``seed`` / ``t_end``
  sweep the noise realisation and the horizon.

Because every field is a JSON value, a spec serialises losslessly
(:meth:`ScenarioSpec.to_json`), round-trips through files, and carries a
stable :meth:`content_hash` — the identity the result cache is keyed on.
Expansion (:meth:`members`) is pure: the per-member seeds, models, and
initial states are fully determined by the spec, which is what makes
``jobs=1`` and ``jobs=8`` executions bit-for-bit identical.

The dict-to-object builders (:func:`topology_from_spec`,
:func:`potential_from_spec`, ...) are the single place where spec
vocabulary maps onto :mod:`repro.core` constructors; the CLI, the
experiment registry, and the executor workers all go through them.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ..core import (
    CompositeNoise,
    ConstantInteractionNoise,
    CouplingSpec,
    GaussianJitter,
    LognormalJitter,
    NoInteractionNoise,
    NoNoise,
    OneOffDelay,
    PhysicalOscillatorModel,
    RandomInteractionNoise,
    StaticLoadImbalance,
    UniformJitter,
    make_topology,
    perturbed,
    potential_from_name,
    random_phases,
    splayed,
    synchronized,
    wavefront,
)
from ..core.coupling import Protocol, WaitMode
from ..metrics.streaming import parse_trajectories, validate_metrics

__all__ = [
    "ScenarioSpec",
    "MemberSpec",
    "topology_from_spec",
    "potential_from_spec",
    "local_noise_from_spec",
    "interaction_noise_from_spec",
    "coupling_from_spec",
    "initial_from_spec",
    "model_from_spec",
]

#: the ``kind`` values :func:`initial_from_spec` builds
INITIAL_KINDS = ("sync", "perturbed", "random", "splayed", "wavefront",
                 "normal")

#: fixed-step integration methods — shard composition cannot change their
#: results, so the planner may split their member groups freely
FIXED_STEP_METHODS = ("rk4", "euler", "em")


# ======================================================================
# dict -> core-object builders
# ======================================================================
def _take(d: dict, *keys: str) -> dict:
    """Subset of ``d``; unknown keys raise so typos never pass silently."""
    extra = set(d) - {"kind", *keys}
    if extra:
        raise ValueError(
            f"unknown key(s) {sorted(extra)} for kind {d.get('kind')!r}; "
            f"accepted: {sorted(keys)}"
        )
    return {k: d[k] for k in keys if k in d}


def topology_from_spec(d: dict):
    """Build a :class:`~repro.core.Topology` from its spec dict.

    Dispatches through the builder registry in
    :mod:`repro.core.topology` — new kinds need exactly one
    :func:`~repro.core.topology.register_topology` call to become
    spec vocabulary.  Unknown kinds raise listing every registered kind
    with its introspected parameters; unknown/missing params raise the
    same way.  ``distances`` values are coerced to ints up front so
    JSON floats round-trip like the legacy dispatch did.

    Memoised on the dict's canonical JSON (a small LRU), so a shard's
    members, the planner and the result views share one build.  That
    is safe because every registered builder is a pure function of its
    params and a :class:`~repro.core.Topology` is read-only.
    """
    try:
        key = json.dumps(d, sort_keys=True)
    except TypeError:  # a non-JSON value (e.g. a numpy scalar)
        return _build_topology(d)
    return _topology_from_json(key)


@functools.lru_cache(maxsize=16)
def _topology_from_json(key: str):
    return _build_topology(json.loads(key))


def _build_topology(d: dict):
    params = dict(d)
    kind = str(params.pop("kind", "ring"))
    if "distances" in params and params["distances"] is not None:
        params["distances"] = tuple(int(x) for x in params["distances"])
    return make_topology(kind, **params)


def potential_from_spec(d: dict):
    """Build a potential from ``{"kind": name, **params}``."""
    params = dict(d)
    kind = params.pop("kind", "tanh")
    return potential_from_name(kind, **params)


def local_noise_from_spec(d: dict | None):
    """Build a local-noise channel; ``None``/``{"kind": "none"}`` = silent."""
    if d is None:
        return NoNoise()
    kind = d.get("kind", "none")
    if kind == "none":
        return NoNoise()
    if kind == "gaussian":
        return GaussianJitter(**_take(d, "std", "refresh", "clip_sigmas"))
    if kind == "uniform":
        return UniformJitter(**_take(d, "half_width", "refresh"))
    if kind == "lognormal":
        return LognormalJitter(**_take(d, "median", "sigma", "refresh"))
    if kind == "static":
        args = _take(d, "offsets", "amplitude")
        if "offsets" in args and args["offsets"] is not None:
            args["offsets"] = tuple(float(x) for x in args["offsets"])
        return StaticLoadImbalance(**args)
    if kind == "composite":
        parts = tuple(local_noise_from_spec(p) for p in d.get("parts", ()))
        return CompositeNoise(parts=parts)
    raise ValueError(f"unknown local-noise kind {kind!r}")


def interaction_noise_from_spec(d: dict | None):
    """Build the interaction-delay channel; default no delays."""
    if d is None:
        return NoInteractionNoise()
    kind = d.get("kind", "none")
    if kind == "none":
        return NoInteractionNoise()
    if kind == "constant":
        return ConstantInteractionNoise(**_take(d, "tau"))
    if kind == "random":
        return RandomInteractionNoise(**_take(d, "lo", "hi", "refresh"))
    raise ValueError(f"unknown interaction-noise kind {kind!r}")


def coupling_from_spec(d: dict | None) -> CouplingSpec:
    """Build a :class:`CouplingSpec` from its spec dict."""
    if d is None:
        return CouplingSpec()
    args = _take(d, "protocol", "wait_mode", "strength_scale")
    if "protocol" in args:
        args["protocol"] = Protocol(args["protocol"])
    if "wait_mode" in args:
        args["wait_mode"] = WaitMode(args["wait_mode"])
    return CouplingSpec(**args)


def initial_from_spec(d: dict | None, n: int) -> np.ndarray:
    """Build the initial phase vector — deterministic given the dict.

    Random kinds (``random``, ``wavefront`` with noise, ``normal``) seed
    their own generator from the dict's ``seed`` field, *not* from the
    member's noise seed, so the same spec always produces the same
    initial state (the sweep convention: identical start, varying
    noise realisation).
    """
    if d is None:
        return synchronized(n)
    kind = d.get("kind", "sync")
    if kind == "sync":
        return synchronized(n, **_take(d, "phase"))
    if kind == "perturbed":
        return perturbed(n, **_take(d, "rank", "offset"))
    if kind == "random":
        args = _take(d, "spread", "seed")
        seed = args.pop("seed", 0)
        return random_phases(n, rng=int(seed), **args)
    if kind == "splayed":
        return splayed(n, **_take(d, "gap"))
    if kind == "wavefront":
        args = _take(d, "gap", "noise", "seed")
        seed = args.pop("seed", 0)
        return wavefront(n, rng=int(seed), **args)
    if kind == "normal":
        args = _take(d, "std", "seed")
        rng = np.random.default_rng(int(args.get("seed", 0)))
        return rng.normal(0.0, float(args.get("std", 1e-3)), size=n)
    raise ValueError(f"unknown initial-condition kind {kind!r}; "
                     f"accepted: {', '.join(INITIAL_KINDS)}")


def model_from_spec(d: dict) -> PhysicalOscillatorModel:
    """Build a :class:`PhysicalOscillatorModel` from a model dict."""
    known = {"topology", "potential", "t_comp", "t_comm", "coupling",
             "local_noise", "interaction_noise", "delays", "v_p_override",
             "kernel"}
    extra = set(d) - known
    if extra:
        raise ValueError(f"unknown model key(s) {sorted(extra)}; "
                         f"accepted: {sorted(known)}")
    delays = tuple(
        OneOffDelay(rank=int(e["rank"]), t_start=float(e["t_start"]),
                    delay=float(e["delay"]),
                    window=(None if e.get("window") is None
                            else float(e["window"])))
        for e in d.get("delays", ())
    )
    return PhysicalOscillatorModel(
        topology=topology_from_spec(d["topology"]),
        potential=potential_from_spec(d.get("potential", {"kind": "tanh"})),
        t_comp=float(d["t_comp"]),
        t_comm=float(d["t_comm"]),
        coupling=coupling_from_spec(d.get("coupling")),
        local_noise=local_noise_from_spec(d.get("local_noise")),
        interaction_noise=interaction_noise_from_spec(
            d.get("interaction_noise")),
        delays=delays,
        v_p_override=(None if d.get("v_p_override") is None
                      else float(d["v_p_override"])),
        kernel=d.get("kernel", "auto"),
    )


# ======================================================================
# member expansion
# ======================================================================
def _jsonify(value: Any):
    """Coerce numpy scalars/arrays (and nested containers) to JSON types."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _set_path(target: dict, path: str, value: Any) -> None:
    """Set a dotted path inside a nested dict, creating intermediates."""
    parts = path.split(".")
    node = target
    for p in parts[:-1]:
        nxt = node.get(p)
        if not isinstance(nxt, dict):
            nxt = node[p] = {}
        node = nxt
    node[parts[-1]] = value


@dataclass(frozen=True)
class MemberSpec:
    """One fully resolved grid point of a scenario.

    Attributes
    ----------
    index:
        Position in the expansion order (row-major over the axes).
    model:
        The merged model dict (base with the member's axis values set).
    seed:
        Noise-realisation seed for this member.
    t_end:
        Integration horizon.
    initial:
        Initial-condition dict.
    params:
        ``{axis_path: value}`` — the member's coordinates on the grid.
    """

    index: int
    model: dict
    seed: int
    t_end: float
    initial: dict | None
    params: dict

    def build_model(self) -> PhysicalOscillatorModel:
        """Instantiate the declarative model for this member."""
        return model_from_spec(self.model)

    def build_theta0(self, n: int) -> np.ndarray:
        """Instantiate the initial phase vector."""
        return initial_from_spec(self.initial, n)

    def to_dict(self) -> dict:
        """JSON-able payload (used by workers and the cache key)."""
        return {"index": self.index, "model": self.model, "seed": self.seed,
                "t_end": self.t_end, "initial": self.initial,
                "params": self.params}

    @classmethod
    def from_dict(cls, d: dict) -> "MemberSpec":
        return cls(index=int(d["index"]), model=d["model"],
                   seed=int(d["seed"]), t_end=float(d["t_end"]),
                   initial=d.get("initial"), params=d.get("params", {}))


@dataclass
class ScenarioSpec:
    """A declarative, serialisable simulation campaign.

    Parameters
    ----------
    name:
        Campaign identifier, used for file names and reports.  The name
        is part of the spec hash (renaming = a new campaign) but *not*
        of the shard cache keys, so renamed campaigns still reuse
        cached solves.
    model:
        Base model dict (see :func:`model_from_spec` for the schema).
    t_end:
        Integration horizon (sweepable via the ``t_end`` axis path).
    solver:
        ``{"method": "dopri"|"rk4"|"euler"|"em", "dt": float|None,
        "rtol": float, "atol": float, "n_samples": int|None}`` — all
        optional, defaults mirror :func:`repro.core.simulate`.
    initial:
        Initial-condition dict (see :func:`initial_from_spec`).
    seed:
        Base noise seed, applied to every member unless the ``seed``
        axis overrides it.
    axes:
        Ordered ``(dotted.path, values)`` pairs; the Cartesian product
        (row-major, last axis fastest) defines the members.  Paths are
        relative to the model dict, except the special top-level paths
        ``seed`` and ``t_end``.
    metrics:
        Named in-solve reductions (see
        :data:`repro.metrics.streaming.METRIC_NAMES`) computed by a
        streaming observer per accepted step and cached as
        kilobyte-scale arrays.  Declaration order fixes artefact column
        order.
    trajectories:
        Trajectory capture mode: ``"full"`` (default — the historic
        behaviour), ``"none"`` (metric-only campaigns; shards carry no
        ``(R, n_t, N)`` stacks at all), or ``"stride:K"`` (every K-th
        accepted step plus the endpoints).  Streamed metrics observe
        every accepted step regardless of the capture mode, so a
        trajectory-mode and a metric-only campaign declaring the same
        ``metrics`` produce bit-identical metric arrays.
    """

    name: str
    model: dict
    t_end: float
    solver: dict = field(default_factory=dict)
    initial: dict | None = None
    seed: int = 0
    axes: Sequence[tuple[str, Sequence]] = ()
    metrics: Sequence[str] = ()
    trajectories: str = "full"

    def __post_init__(self) -> None:
        self.t_end = float(self.t_end)
        self.seed = int(self.seed)
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        # Coerce axis values to plain JSON scalars/containers up front —
        # sweeps hand in numpy arrays, and np.int64/np.float64 would
        # otherwise blow up json.dumps at hash/plan time.
        self.axes = tuple((str(p), tuple(_jsonify(v) for v in values))
                          for p, values in self.axes)
        for path, values in self.axes:
            if len(values) == 0:
                raise ValueError(f"axis {path!r} has no values")
        extra = set(self.solver) - {"method", "dt", "rtol", "atol",
                                    "n_samples"}
        if extra:
            raise ValueError(
                f"unknown solver key(s) {sorted(extra)}; accepted: "
                "['atol', 'dt', 'method', 'n_samples', 'rtol']"
            )
        method = self.solver.get("method", "dopri")
        if method not in ("dopri", *FIXED_STEP_METHODS):
            raise ValueError(f"unknown solver method {method!r}")
        self.metrics = validate_metrics(self.metrics)
        self.trajectories = str(self.trajectories)
        parse_trajectories(self.trajectories)  # raises on bad syntax
        if self.trajectories != "full" \
                and self.solver.get("n_samples") is not None:
            raise ValueError(
                'n_samples requires trajectories="full" (resampling '
                "needs the full solver mesh)")

    # ------------------------------------------------------------------
    @property
    def n_members(self) -> int:
        """Grid size (product of axis lengths; 1 for no axes)."""
        out = 1
        for _, values in self.axes:
            out *= len(values)
        return out

    def iter_members(self):
        """Lazily expand the Cartesian product into resolved members.

        Pure function of the spec: member order, models, seeds, and
        initial conditions never depend on how (or where) the campaign
        is executed.  A generator, so probing the first member of a
        huge grid costs one deep copy, not one per grid point.
        """
        paths = [p for p, _ in self.axes]
        grids = [v for _, v in self.axes]
        for index, combo in enumerate(itertools.product(*grids)):
            model = copy.deepcopy(self.model)
            seed = self.seed
            t_end = self.t_end
            params = {}
            for path, value in zip(paths, combo):
                params[path] = value
                if path == "seed":
                    seed = int(value)
                elif path == "t_end":
                    t_end = float(value)
                else:
                    _set_path(model, path, value)
            yield MemberSpec(
                index=index, model=model, seed=int(seed), t_end=float(t_end),
                initial=(copy.deepcopy(self.initial)
                         if self.initial is not None else None),
                params=params)

    def members(self) -> list[MemberSpec]:
        """The fully expanded member list (see :meth:`iter_members`)."""
        return list(self.iter_members())

    def validate(self) -> None:
        """Build the first member, then once more per further axis value.

        Raises on typos in the base model or in any value of any axis
        (``seed`` and ``t_end`` values cannot fail a build) at the cost
        of one build per axis value, not one per member.
        """
        first = next(self.iter_members())
        variants = [first.model]
        for path, values in self.axes:
            if path in ("seed", "t_end"):
                continue
            for value in values[1:]:
                model = copy.deepcopy(first.model)
                _set_path(model, path, value)
                variants.append(model)
        for d in variants:
            model = model_from_spec(d)
            theta0 = first.build_theta0(model.n)
            if theta0.shape != (model.n,):
                raise ValueError(
                    f"initial condition has shape {theta0.shape}, "
                    f"expected ({model.n},)")

    # ------------------------------------------------------------------
    # serialisation + identity
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation (round-trips via :meth:`from_dict`)."""
        return {
            "name": self.name,
            "model": self.model,
            "t_end": self.t_end,
            "solver": self.solver,
            "initial": self.initial,
            "seed": self.seed,
            "axes": [[p, list(v)] for p, v in self.axes],
            "metrics": list(self.metrics),
            "trajectories": self.trajectories,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        known = {"name", "model", "t_end", "solver", "initial", "seed",
                 "axes", "metrics", "trajectories"}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown spec key(s) {sorted(extra)}; "
                             f"accepted: {sorted(known)}")
        return cls(
            name=str(d.get("name", "scenario")),
            model=d["model"],
            t_end=float(d["t_end"]),
            solver=d.get("solver") or {},
            initial=d.get("initial"),
            seed=int(d.get("seed", 0)),
            axes=[(p, v) for p, v in d.get("axes", [])],
            metrics=d.get("metrics") or (),
            trajectories=d.get("trajectories", "full"),
        )

    def to_json(self, path: str | Path | None = None, *,
                indent: int = 2) -> str:
        """Serialise; optionally also write to ``path``."""
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "ScenarioSpec":
        """Load from a JSON string or a file path."""
        text = str(source)
        if not text.lstrip().startswith("{"):
            text = Path(source).read_text()
        return cls.from_dict(json.loads(text))

    def content_hash(self) -> str:
        """Stable sha256 over the canonical JSON form.

        The identity of the campaign: equal hashes mean equal members,
        solver configuration, and initial conditions — the property the
        result cache keys on.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()
