"""sha256 of each perfbench workload's member arrays, for bit checks.

Solves the ``ring_large`` and ``campaign_cache`` campaigns inline (the
specs come from ``perfbench/workloads.py``, read-only) and prints one
hash per workload over every member's ``ts``, ``thetas``,
``metrics_ts`` and metric arrays, in member order.  Two checkouts that
print the same hashes produce the same bits.  Usage::

    PYTHONPATH=src python benchmarks/member_hashes.py --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import cache_spec, ring_spec  # noqa: E402

from repro.runs import compile_plan, run_plan  # noqa: E402

WORKLOADS = {"ring_large": (ring_spec, None), "campaign_cache": (cache_spec, 2)}


def member_hash(run) -> str:
    """sha256 over the members' arrays; a missing array adds nothing."""
    h = hashlib.sha256()
    for m in run.members:
        arrays = [m.ts, m.thetas, m.metrics_ts]
        arrays += [m.metrics[k] for k in sorted(m.metrics)]
        for a in arrays:
            if a is not None:
                h.update(a.tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    for name, (spec, shard_members) in WORKLOADS.items():
        plan = compile_plan(spec(args.seed), shard_members=shard_members)
        print(f"{name} {member_hash(run_plan(plan, jobs=1))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
