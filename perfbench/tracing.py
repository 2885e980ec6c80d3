"""Span recorder and layer wrappers for the traced benchmark run.

The benchmark never edits the program to trace it.  Instead,
:func:`install` replaces each layer's public functions with timing
wrappers, under the name its caller looks up at call time (a module
global such as ``repro.runs.executor.simulate_grid``, or a method on a
class).  Each call then records one span: name, start, end, parent span
and the root operation it belongs to.  Spans live in compact arrays in
memory and are written out once, at the end of the run.

Only spans opened on the main thread inside an operation are recorded;
calls from the campaign server's request threads and calls outside any
operation pass straight through.

A span's *self time* is its duration minus the part of that interval
its child spans cover (:func:`self_times`).  :func:`layer_metrics`
folds the spans and counters of a run into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

#: (module, attribute path, span name) of every wrapped layer function
TARGETS = (
    ("repro.runs.executor", "execute_shard", "executor.shard"),
    ("repro.runs.executor", "simulate_grid", "grid.simulate"),
    ("repro.runs.spec", "MemberSpec.build_model", "spec.build"),
    ("repro.runs.spec", "MemberSpec.build_theta0", "spec.build"),
    ("repro.core.model", "PhysicalOscillatorModel.realize", "model.realize"),
    ("repro.core.simulation", "make_batched_backend", "backend.build"),
    ("repro.backends.hetero", "HeteroBatchedBackend.subset", "backend.build"),
    ("repro.backends.hetero", "HeteroBatchedBackend.rhs", "backend.rhs"),
    ("repro.backends.hetero", "HeteroBatchedBackend.intrinsic_frequency",
     "backend.freq"),
    ("repro.backends.hetero", "HeteroBatchedBackend.coupling",
     "backend.coupling"),
    ("repro.core.simulation", "solve_rk4", "integrate.solve"),
    ("repro.core.simulation", "solve_dopri45", "integrate.solve"),
    ("repro.metrics.streaming", "StreamingObserver.__call__",
     "observer.call"),
    ("repro.metrics.streaming", "StreamingObserver.finalize",
     "observer.finalize"),
    ("repro.runs.cache", "ResultCache.save", "cache.save"),
    ("repro.runs.cache", "ResultCache.load", "cache.load"),
    # every workload is a distance ring; kernel "auto" picks numba when it
    # is installed, else cc
    ("repro.kernels.cc", "ring_batched", "kernel.call"),
    ("repro.kernels.numba_kernels", "ring_batched", "kernel.call"),
)


class SpanRecorder:
    """Spans and counters of one run, kept in memory.

    Root spans are the benchmark's operations (``op.<kind>``); every
    other span nests under the span open when it started.  Counters
    (steps, bytes, cache hits) are attributed to the open operation.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_kinds: list[str] = []
        self.counters: dict[tuple[str, int], float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._main = threading.get_ident()
        # Forked pool workers inherit the wrappers and this state; their
        # spans could never reach the parent, so they record nothing.
        os.register_at_fork(after_in_child=self._stop_recording)

    def _stop_recording(self) -> None:
        self._main = None

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def active(self) -> bool:
        """Whether a call made now would be recorded."""
        return self._op >= 0 and threading.get_ident() == self._main

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record ``name`` around a block (a no-op outside operations)."""
        if not self.active():
            yield
            return
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    @contextmanager
    def operation(self, kind: str):
        """Open a root span ``op.<kind>``; nested spans belong to it."""
        if self._op >= 0:
            raise RuntimeError("operations do not nest")
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)
        idx = self.begin(f"op.{kind}")
        try:
            yield self._op
        finally:
            self.finish(idx)
            self._op = -1

    def count(self, key: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``key`` of the open operation."""
        if self._op < 0:
            return
        k = (key, self._op)
        self.counters[k] = self.counters.get(k, 0.0) + float(value)

    def write(self, path: str | Path) -> Path:
        """Write every span and counter to one ``.npz`` file."""
        import numpy as np

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = sorted(self.counters)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            op_kinds=np.array(self.op_kinds, dtype=str),
            counter_keys=np.array([k for k, _ in keys], dtype=str),
            counter_ops=np.array([o for _, o in keys], dtype=np.int64),
            counter_values=np.array([self.counters[k] for k in keys]),
        )
        return path


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _after_solve(rec: SpanRecorder, sol) -> None:
    stats = getattr(sol, "stats", None)
    if stats is None:
        return
    rec.count("integrate.steps", stats.n_steps)
    rec.count("integrate.rhs_evals", stats.n_rhs)
    rec.count("integrate.rejections", getattr(stats, "n_rejected", 0))


def _after_save(rec: SpanRecorder, path) -> None:
    try:
        rec.count("cache.save_bytes", Path(path).stat().st_size)
    except (OSError, TypeError):
        pass


def _after_load(rec: SpanRecorder, data) -> None:
    if data is None:
        rec.count("cache.miss")
        return
    rec.count("cache.hit")
    rec.count("cache.load_bytes", sum(getattr(v, "nbytes", 0)
                                      for v in data.values()))


_AFTER = {"integrate.solve": _after_solve, "cache.save": _after_save,
          "cache.load": _after_load}


def _wrap(rec: SpanRecorder, name: str, fn):
    after = _AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active():
            return fn(*args, **kwargs)
        idx = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.finish(idx)
        if after is not None:
            after(rec, out)
        return out

    return wrapper


def install(rec: SpanRecorder, targets=TARGETS):
    """Wrap every target that exists; returns an ``uninstall`` callable.

    Targets missing from the program (renamed or removed by a later
    change) are skipped and listed in ``rec.missing``, so the traced run
    still completes and the affected layer reads zero.
    """
    undo = []
    for mod_name, attr_path, span_name in targets:
        try:
            owner = importlib.import_module(mod_name)
        except ImportError:
            rec.missing.append(f"{mod_name}.{attr_path}")
            continue
        *parents, attr = attr_path.split(".")
        try:
            for p in parents:
                owner = getattr(owner, p)
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        except (AttributeError, KeyError):
            rec.missing.append(f"{mod_name}.{attr_path}")
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(_wrap(rec, span_name, raw.__func__))
        else:
            new = _wrap(rec, span_name, raw)
        setattr(owner, attr, new)
        undo.append((owner, attr, raw))

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return uninstall


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def self_times(start, end, parent) -> list[float]:
    """Self time of every span: duration minus the union of its children.

    Children are clipped to their parent's interval and overlapping
    children (spans from concurrent threads) are merged before their
    covered length is subtracted, so self time is never negative.
    """
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = int(parent[i])
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [float(end[i]) - float(start[i]) for i in range(n)]
    for p, kids in children.items():
        lo, hi = float(start[p]), float(end[p])
        spans = sorted((max(float(start[k]), lo), min(float(end[k]), hi))
                       for k in kids)
        covered = 0.0
        cur_s = cur_e = None
        for s, e in spans:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


class _Fold:
    """Per-name, per-operation totals over a recorder's spans and counters.

    A layer's figure is a mean over the measured-loop operations that
    reach it.  Only a layer the loop never reaches in this process (the
    solver on campaign_cache, whose loop solves in pool workers; cache
    writes on the inline workloads) falls back to the set-up operations.
    """

    def __init__(self, rec: SpanRecorder) -> None:
        selfs = self_times(rec.start, rec.end, rec.parent)
        self.kinds = rec.op_kinds
        self.dur: dict[tuple[str, int], float] = {}
        self.self: dict[tuple[str, int], float] = {}
        self.calls: dict[tuple[str, int], float] = {}
        for i in range(len(rec.start)):
            key = (rec.names[rec.name_id[i]], rec.op[i])
            self.dur[key] = self.dur.get(key, 0.0) + rec.end[i] - rec.start[i]
            self.self[key] = self.self.get(key, 0.0) + selfs[i]
            self.calls[key] = self.calls.get(key, 0.0) + 1.0
        self.counter = dict(rec.counters)

    def ops(self, *names: str) -> set[int]:
        """Operations that reach ``names``: loop ones, else set-up ones."""
        reached = {op for table in (self.dur, self.counter)
                   for (name, op) in table if name in names}
        loop = {op for op in reached
                if not self.kinds[op].startswith("setup.")}
        return loop or reached

    def total(self, table: dict, *names: str) -> float:
        ops = self.ops(*names)
        return sum(v for (name, op), v in table.items()
                   if name in names and op in ops)

    def per_op(self, table: dict, *names: str) -> float:
        """Total of ``names`` in ``table`` per operation reaching them."""
        n = len(self.ops(*names))
        return self.total(table, *names) / n if n else 0.0


def layer_metrics(rec: SpanRecorder, *, overhead: float) -> dict:
    """The per-layer metrics of a traced run, as ``{name: (value, unit)}``.

    Every time and count is a mean per operation that reaches the layer
    (a layer no operation reaches reads 0).  ``overhead`` is the traced
    over the untraced median campaign time, measured by the caller.
    """
    f = _Fold(rec)
    steps = f.total(f.counter, "integrate.steps")
    rejections = f.total(f.counter, "integrate.rejections")
    kernel_calls = f.total(f.calls, "kernel.call")
    hits = f.total(f.counter, "cache.hit")
    loads = hits + f.total(f.counter, "cache.miss")
    campaign_wall = f.total(f.dur, "op.campaign")
    # inline shard solves are spans, pool ones the solve time workers report
    shard = ("executor.shard", "executor.pool_solve_s")
    return {
        "spec.build_s": (f.per_op(f.self, "spec.build"), "s"),
        "plan.compile_s": (f.per_op(f.self, "plan.compile"), "s"),
        "model.realize_s": (f.per_op(f.self, "model.realize"), "s"),
        "model.realize_calls": (f.per_op(f.calls, "model.realize"), "count"),
        "backend.build_s": (f.per_op(f.self, "backend.build"), "s"),
        "backend.rhs_self_s": (f.per_op(f.self, "backend.rhs"), "s"),
        "backend.freq_s": (f.per_op(f.dur, "backend.freq"), "s"),
        "backend.freq_calls": (f.per_op(f.calls, "backend.freq"), "count"),
        "backend.coupling_s": (f.per_op(f.dur, "backend.coupling"), "s"),
        "backend.coupling_calls": (f.per_op(f.calls, "backend.coupling"),
                                   "count"),
        "backend.dispatch_s": (f.per_op(f.self, "backend.coupling"), "s"),
        "kernel.call_s": (f.per_op(f.dur, "kernel.call"), "s"),
        "kernel.calls": (f.per_op(f.calls, "kernel.call"), "count"),
        "kernel.us_per_call": (
            1e6 * f.total(f.dur, "kernel.call") / kernel_calls
            if kernel_calls else 0.0, "us"),
        "integrate.solve_s": (f.per_op(f.dur, "integrate.solve"), "s"),
        "integrate.self_s": (f.per_op(f.self, "integrate.solve"), "s"),
        "integrate.steps": (f.per_op(f.counter, "integrate.steps"), "count"),
        "integrate.rhs_evals": (f.per_op(f.counter, "integrate.rhs_evals"),
                                "count"),
        "integrate.rejections": (f.per_op(f.counter, "integrate.rejections"),
                                 "count"),
        "integrate.accept_ratio": (
            steps / (steps + rejections) if steps else 0.0, "1"),
        "grid.self_s": (f.per_op(f.self, "grid.simulate"), "s"),
        "observer.s": (f.per_op(f.dur, "observer.call"), "s"),
        "observer.calls": (f.per_op(f.calls, "observer.call"), "count"),
        "observer.finalize_s": (f.per_op(f.dur, "observer.finalize"), "s"),
        "executor.shard_s": (
            (f.total(f.dur, *shard) + f.total(f.counter, *shard))
            / max(len(f.ops(*shard)), 1), "s"),
        "executor.transport_s": (f.per_op(f.counter, "executor.transport_s"),
                                 "s"),
        "executor.overhead_s": (f.per_op(f.self, "op.campaign"), "s"),
        "cache.save_s": (f.per_op(f.self, "cache.save"), "s"),
        "cache.save_mb": (f.per_op(f.counter, "cache.save_bytes") / 1e6,
                          "MB"),
        "cache.load_s": (f.per_op(f.self, "cache.load"), "s"),
        "cache.load_mb": (f.per_op(f.counter, "cache.load_bytes") / 1e6,
                          "MB"),
        "cache.hit_ratio": (hits / loads if loads else 0.0, "1"),
        "assembly.s": (f.per_op(f.self, "op.replay"), "s"),
        "service.submit_s": (f.per_op(f.self, "service.submit"), "s"),
        "service.fetch_s": (f.per_op(f.self, "service.fetch"), "s"),
        "service.fetch_mb": (f.per_op(f.counter, "service.fetch_bytes") / 1e6,
                             "MB"),
        "trace.coverage": (
            1.0 - f.total(f.self, "op.campaign") / campaign_wall
            if campaign_wall else 0.0, "1"),
        "trace.overhead": (overhead, "1"),
    }
