"""Deterministic fault injection for the campaign execution layers.

The robustness claims of the queue executor (lease expiry -> retry,
quarantine, cache-integrity recovery, pool fallback) are only testable if
the failures themselves are reproducible.  This module provides seeded,
countable fault injectors enabled through the ``POM_FAULTS`` environment
variable, so CI chaos legs can run them against the *real* binaries —
``pom run --queue`` / ``pom worker`` subprocesses and the in-process
pool of ``run_plan(jobs=N)`` — rather than mocked internals.

Syntax
------
``POM_FAULTS`` is a semicolon-separated list of injectors::

    POM_FAULTS="kill:shard=1;stall:shard=2,secs=3;corrupt-cache"

Each injector is ``kind[:key=value,...]`` with keys:

``shard=I``
    Only fire on shard index ``I`` (default: any shard).
``times=N``
    Fire at most ``N`` times (default 1).  Counts persist across
    process boundaries through the state directory (below), so a
    ``kill`` fires once per campaign, not once per respawned worker.
``p=F`` / ``seed=S``
    Fire with probability ``F`` per eligible event, decided by a
    deterministic RNG seeded on ``(S, injector, event count)`` —
    chaos runs are bit-reproducible.

Kinds and their firing sites:

``kill``
    ``SIGKILL`` the current process at shard start — the no-cleanup
    worker death the lease reaper must recover from.
``stall``
    Sleep ``secs`` at shard start with heartbeats suppressed — a hung
    or network-partitioned worker whose lease must expire under it.
``raise``
    Raise :class:`InjectedFault` at shard start — an ordinary solve
    failure, exercising the retry/backoff/quarantine ladder.
``corrupt-cache``
    Truncate a freshly written cache entry — a torn write the
    checksummed store must detect and recompute.

State directory
---------------
Fire counts are tiny append-only files under ``POM_FAULTS_STATE``
(one per injector; the file size is the count, appends are atomic).
Orchestrators default it next to the queue database (or a fresh
temporary directory for pool runs) *before* spawning workers, so all
processes of one campaign share one budget.  Without a directory the
counts are per-process.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = ["FaultSpec", "FaultInjector", "InjectedFault",
           "injector_from_env", "parse_faults",
           "ENV_VAR", "STATE_ENV_VAR"]

#: environment variable holding the injector list
ENV_VAR = "POM_FAULTS"
#: environment variable holding the shared fire-count directory
STATE_ENV_VAR = "POM_FAULTS_STATE"

#: where each injector kind fires
SITES = {
    "kill": "shard-start",
    "stall": "shard-start",
    "raise": "shard-start",
    "corrupt-cache": "cache-saved",
}


class InjectedFault(RuntimeError):
    """The deliberate failure raised by the ``raise`` injector."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed injector (see the module docstring for semantics)."""

    kind: str
    shard: int | None = None
    times: int = 1
    secs: float | None = None
    p: float = 1.0
    seed: int = 0

    @property
    def site(self) -> str:
        """The hook this injector fires at."""
        return SITES[self.kind]

    def ident(self, index: int) -> str:
        """Stable id for fire-count bookkeeping (``index`` = list pos)."""
        shard = "any" if self.shard is None else self.shard
        return f"{index}-{self.kind}-{shard}"


def parse_faults(text: str) -> list[FaultSpec]:
    """Parse a ``POM_FAULTS`` value; raises ``ValueError`` on bad input."""
    specs: list[FaultSpec] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        kind, _, argtext = part.partition(":")
        kind = kind.strip()
        if kind not in SITES:
            raise ValueError(
                f"unknown fault kind {kind!r}; available: "
                f"{', '.join(sorted(SITES))}")
        kwargs: dict = {}
        for item in filter(None, (a.strip() for a in argtext.split(","))):
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(
                    f"bad fault argument {item!r} (want key=value)")
            if key == "shard":
                kwargs["shard"] = int(value)
            elif key == "times":
                kwargs["times"] = int(value)
            elif key == "secs":
                kwargs["secs"] = float(value)
            elif key == "p":
                kwargs["p"] = float(value)
            elif key == "seed":
                kwargs["seed"] = int(value)
            else:
                raise ValueError(f"unknown fault argument {key!r}")
        specs.append(FaultSpec(kind=kind, **kwargs))
    return specs


def _hash_unit(*parts) -> float:
    """Deterministic uniform [0, 1) from the given parts."""
    digest = hashlib.sha256(
        "|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


class FaultInjector:
    """Evaluates fault specs at the executor's hook sites.

    Parameters
    ----------
    specs:
        Parsed injectors (usually from :func:`parse_faults`).
    state_dir:
        Shared fire-count directory (``None``: per-process counts).
    """

    def __init__(self, specs: list[FaultSpec],
                 state_dir: str | Path | None = None) -> None:
        self.specs = list(specs)
        self.state_dir = Path(state_dir) if state_dir else None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        self._counts: dict[str, int] = {}

    @classmethod
    def disabled(cls) -> FaultInjector:
        """An injector that never fires (the orchestrator's own path)."""
        return cls([])

    def __bool__(self) -> bool:
        return bool(self.specs)

    # -- fire-count bookkeeping ---------------------------------------
    def _count(self, ident: str) -> int:
        if self.state_dir is None:
            return self._counts.get(ident, 0)
        try:
            return (self.state_dir / ident).stat().st_size
        except FileNotFoundError:
            return 0

    def _increment(self, ident: str) -> None:
        if self.state_dir is None:
            self._counts[ident] = self._counts.get(ident, 0) + 1
            return
        # One byte per fire, O_APPEND: atomic enough that concurrent
        # workers can only over-count (fire *less* than budgeted) —
        # never loop forever.
        fd = os.open(self.state_dir / ident,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, b"x")
        finally:
            os.close(fd)

    # -- the hook -----------------------------------------------------
    def fire(self, site: str, *, shard: int | None = None) -> list[FaultSpec]:
        """Evaluate all injectors for ``site``/``shard``.

        Side-effect kinds act here: ``kill`` SIGKILLs the process (does
        not return), ``raise`` raises :class:`InjectedFault`.  Context
        kinds (``stall``, ``corrupt-cache``) are returned to the caller,
        which owns the cache path / sleep needed to apply them.
        """
        fired: list[FaultSpec] = []
        for i, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if spec.shard is not None and shard is not None \
                    and spec.shard != shard:
                continue
            ident = spec.ident(i)
            count = self._count(ident)
            if count >= spec.times:
                continue
            if spec.p < 1.0 and _hash_unit(spec.seed, ident, count) >= spec.p:
                continue
            self._increment(ident)
            if spec.kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
                time.sleep(60)  # pragma: no cover - SIGKILL is immediate
            if spec.kind == "raise":
                raise InjectedFault(
                    f"injected failure on shard {shard} "
                    f"(POM_FAULTS {spec.kind})")
            fired.append(spec)
        return fired


def injector_from_env(environ=None) -> FaultInjector:
    """The process-wide injector described by ``POM_FAULTS``.

    Returns a disabled injector when the variable is unset or empty —
    the zero-overhead production default.
    """
    environ = os.environ if environ is None else environ
    text = environ.get(ENV_VAR, "").strip()
    if not text:
        return FaultInjector.disabled()
    return FaultInjector(parse_faults(text),
                         state_dir=environ.get(STATE_ENV_VAR) or None)


def ensure_shared_state_dir(default: str | Path) -> None:
    """Pin ``POM_FAULTS_STATE`` before spawning workers.

    Orchestrators call this so every process of one campaign counts
    fires against the same budget; a no-op unless ``POM_FAULTS`` is set
    and no state directory was chosen yet.
    """
    if os.environ.get(ENV_VAR, "").strip() \
            and not os.environ.get(STATE_ENV_VAR):
        Path(default).mkdir(parents=True, exist_ok=True)
        os.environ[STATE_ENV_VAR] = str(default)
