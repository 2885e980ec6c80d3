"""Result cache: shard solves keyed by content + code-relevant versions.

The executor treats every shard as a pure function of its payload — the
member model dicts, seeds, initial conditions, horizon, resolved solver
configuration, and the declared metric set / trajectory capture mode.
This module turns that payload into a stable cache key and
(de)serialises solved shards through the
:class:`~repro.runs.store.ArtifactStore`:

* **key** = sha256 over the canonical JSON of the payload plus the
  *code-relevant versions*: :data:`NUMERICS_VERSION` — now a sha256
  **source fingerprint** of the kernel/integrator/observer code, so any
  change that could alter solver or metric arithmetic invalidates the
  cache automatically instead of relying on a manual bump — and the
  package version.  Environment details that do not change results
  (host name, process count, ``jobs=``) are deliberately excluded —
  that is what makes a cache shared between ``jobs=1`` and ``jobs=8``
  runs, and what makes a *re-run of a finished campaign a pure cache
  hit* and a killed campaign resume from its completed shards.
* **value** = one ``.npz`` blob per shard holding whatever arrays the
  shard produced: trajectory stacks (``ts`` + ``(R, n_t, N)``
  ``thetas``) for capture-mode shards, kilobyte-scale streamed metric
  arrays (``metrics_ts`` + ``metric_<name>``) for metric shards, or
  both — plus the member ``indices`` and the solve wall-clock.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
from pathlib import Path
from typing import Iterable

import numpy as np

from .store import ArtifactStore

__all__ = ["NUMERICS_VERSION", "ResultCache", "fingerprint_files",
           "numerics_fingerprint", "shard_key"]

#: package-relative directories whose sources define the numerics
_FINGERPRINT_DIRS = ("core", "backends", "integrate", "kernels")

#: extra package-relative files folded into the fingerprint (the
#: streaming observer computes cached metric values, so its source is
#: numerics too)
_FINGERPRINT_EXTRAS = ("metrics/streaming.py",)

#: source suffixes that carry arithmetic (python + embedded C kernels)
_FINGERPRINT_SUFFIXES = (".py", ".c", ".h")


def fingerprint_files(paths: Iterable[str | Path],
                      root: str | Path) -> str:
    """sha256 fingerprint of a set of source files.

    Hashes the sorted ``(relative path, file sha256)`` pairs, so the
    result is independent of filesystem iteration order and of where
    the tree is checked out, but changes whenever any file's *content*
    changes (or a file is added/removed/renamed).  Pure function of the
    file set — the unit tests drive it over temp trees.
    """
    entries = []
    for p in paths:
        p = Path(p)
        rel = os.path.relpath(p, root).replace(os.sep, "/")
        entries.append((rel, hashlib.sha256(p.read_bytes()).hexdigest()))
    entries.sort()
    h = hashlib.sha256()
    for rel, digest in entries:
        h.update(rel.encode())
        h.update(b"\0")
        h.update(digest.encode())
        h.update(b"\0")
    return h.hexdigest()


def _numerics_sources() -> tuple[Path, list[Path]]:
    """The package root and every source file the numerics depend on."""
    pkg = Path(__file__).resolve().parents[1]        # src/repro
    files: list[Path] = []
    for d in _FINGERPRINT_DIRS:
        base = pkg / d
        if not base.is_dir():
            continue
        for suffix in _FINGERPRINT_SUFFIXES:
            files.extend(base.rglob(f"*{suffix}"))
    for extra in _FINGERPRINT_EXTRAS:
        p = pkg / extra
        if p.is_file():
            files.append(p)
    return pkg, files


@functools.lru_cache(maxsize=1)
def numerics_fingerprint() -> str:
    """Source-hash numerics version of this checkout.

    Replaces the manually bumped ``NUMERICS_VERSION`` constant: editing
    any kernel, backend, integrator, or streaming-observer source file
    changes the fingerprint, so every cached shard keyed on the old
    numerics becomes a miss — streamed metrics and trajectories can
    never silently disagree after a numerics change.
    """
    pkg, files = _numerics_sources()
    return fingerprint_files(files, pkg)


#: the numerics version folded into every shard key — a source
#: fingerprint since PR 9 (previously a manual "2026.08-pr5"-style bump)
NUMERICS_VERSION = numerics_fingerprint()


def _package_version() -> str:
    from .. import __version__

    return __version__


def shard_key(payload: dict) -> str:
    """Content address of one shard solve.

    ``payload`` is the executor's shard dict (members + t_end + resolved
    solver + metrics/trajectories).  Keys are invariant under everything
    that cannot change the result — notably the process count and the
    campaign name.
    """
    keyed = {
        "payload": payload,
        "versions": {
            "numerics": NUMERICS_VERSION,
            "repro": _package_version(),
        },
    }
    canonical = json.dumps(keyed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """Shard-solve cache on top of a content-addressed artifact store.

    Parameters
    ----------
    root:
        Cache directory (an :class:`ArtifactStore` fan-out), or an
        existing store instance.
    """

    def __init__(self, root: str | Path | ArtifactStore) -> None:
        self.store = (root if isinstance(root, ArtifactStore)
                      else ArtifactStore(root))

    @property
    def root(self) -> Path:
        """The cache directory."""
        return self.store.root

    # ------------------------------------------------------------------
    def load(self, key: str) -> dict | None:
        """Fetch a solved shard; ``None`` on miss or unreadable blob.

        Returns every array the blob holds under its stored name plus
        the ``seconds`` scalar — trajectory shards carry
        ``ts``/``thetas``, metric-only shards carry ``metrics_ts`` /
        ``metric_<name>`` arrays instead; all shards carry ``indices``.
        """
        blob = self.store.get_bytes(key)
        if blob is None:
            return None
        try:
            out: dict = {}
            with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
                for name in npz.files:
                    if name == "seconds":
                        out["seconds"] = float(npz["seconds"][()])
                    else:
                        out[name] = npz[name]
            if "indices" not in out:
                return None
            return out
        except Exception:
            # A truncated or foreign blob (BadZipFile, EOFError, missing
            # arrays, ...) is equivalent to a miss; the shard recomputes
            # and the bad artifact is overwritten.
            return None

    def save(self, key: str, data: dict) -> Path:
        """Persist a solved shard (atomic; safe against kills).

        Stores every ndarray value of ``data`` under its key plus the
        ``seconds`` wall-clock; transient non-array entries (worker
        diagnostics such as ``worker_omp``) are dropped.
        """
        arrays = {k: v for k, v in data.items()
                  if isinstance(v, np.ndarray)}
        arrays["seconds"] = np.asarray(float(data.get("seconds", 0.0)))
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        return self.store.put_bytes(key, buf.getvalue())

    def has(self, key: str) -> bool:
        """Whether a shard solve is cached."""
        return self.store.has(key)

    def describe(self) -> dict:
        """Metadata for reports and ``pom plan``."""
        return {
            "root": str(self.root),
            "entries": sum(1 for _ in self.store.keys()),
            "size_bytes": self.store.size_bytes(),
            "numerics_version": NUMERICS_VERSION,
        }
