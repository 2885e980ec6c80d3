#!/usr/bin/env python3
"""Campaign benchmark of the oscillator-model reproduction: one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ring_large --seed 1 \\
        --seconds 50 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``ring_large``, ``campaign_cache``.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  The last line of standard output is the result object.

The run happens in two child processes with the program's ``src/`` on
``PYTHONPATH``, in-kernel threads pinned to 1 and ``TMPDIR`` inside
``.perfbench_work/``:

1. a preparation step imports the program and loads the compiled
   coupling kernel, building it into the in-checkout ``TMPDIR`` cache
   if it is missing, so set-up is always measured warm;
2. a fresh process runs the workload (``workloads.py``), so set-up time
   and peak memory belong to that workload alone.

This process needs only the standard library.  It checks the result
against the output contract (``schema.py``) before printing it, and
exits non-zero without a result when the program's sources are absent.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from schema import check_result, expected_metrics, load_benchmark  # noqa: E402

PREPARE = (
    "import repro.experiments.sweeps, repro.runs, repro.service\n"
    "from repro.kernels import cc\n"
    "cc.load_library()\n"
)

#: environment knobs pinned to one thread in every process of a run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "POM_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    for var in THREAD_VARS:
        env[var] = "1"
    # The campaigns are sized on purpose; silence the footprint warning.
    env["POM_TRAJ_WARN_BYTES"] = "0"
    env.pop("POM_FAULTS", None)
    return env


def run_child(cmd: list[str], env: dict, timeout: float,
              capture: bool) -> subprocess.CompletedProcess:
    """Run ``cmd`` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark(ROOT)
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(names)}", file=sys.stderr)
        return 2

    env = child_env()
    prep = run_child([sys.executable, "-c", PREPARE], env, 850.0, False)
    if prep.returncode != 0:
        print("perfbench: preparing the program failed", file=sys.stderr)
        return 2

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        done = run_child(
            [sys.executable, str(HERE / "workloads.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", str(work)],
            env, args.seconds + 150.0, True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = (done.stdout or "").strip().splitlines()
    if not lines:
        print("perfbench: the workload printed no result", file=sys.stderr)
        return done.returncode or 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    problems = check_result(result, expected_metrics(benchmark,
                                                     bool(args.trace)))
    if problems:
        print("perfbench: result breaks the output contract: "
              + "; ".join(problems), file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
