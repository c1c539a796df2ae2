"""The repository benchmark: one command, every metric, output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the repository root against the package sources in ``src/``.
Each workload runs in a fresh ``worker.py`` process with BLAS/OpenMP
pinned to one thread.  With ``--trace 0`` the last line of standard output
reports the end-to-end metrics of an untraced run; with ``--trace 1`` the
same process then re-runs a fixed number of operations under the per-layer
tracer and reports the per-layer metrics.  The line before it is the full
record: timings, exact work counts, environment and any check failures.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("full_array_64", "paper_figures", "mc_map_store", "mc_map_replay")
#: Extra set-up-only processes; ``setup_s`` is the median over these and
#: the measured process, because one import time is noisy.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 30
#: Bound on the measured process beyond ``--seconds`` (set-up, checks, trace).
WORKER_SLACK_S = 90
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_FAULTS", None)  # the chaos harness must stay inert
    return env


def run_worker(args: argparse.Namespace, trace: int, timeout: float, setup_only: bool = False):
    """One fresh worker process; returns its record (the last stdout line)."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"), args.workload, str(args.seed),
               str(args.seconds), str(trace), str(time.monotonic())]
    if setup_only:
        command.append("--setup-only")
    completed = subprocess.run(command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                               timeout=timeout, check=True, text=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'repro'}; run from a checkout",
              file=sys.stderr)
        return 2

    try:
        record = run_worker(args, args.trace, args.seconds + WORKER_SLACK_S)
        setups = [record["setup_s"]]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(args, 0, PROBE_TIMEOUT_S, setup_only=True)["setup_s"])
    except (subprocess.SubprocessError, ValueError, KeyError, IndexError) as exc:
        print(f"error: benchmark worker failed: {exc}", file=sys.stderr)
        return 1

    record["setup_s"] = setups
    for error in record["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    if args.trace:
        metrics = {name: metric(value, unit) for name, (value, unit) in record["layers"].items()}
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "ops_per_s": metric(record["ops_per_s"], "1/s"),
            "peak_rss_mb": metric(record["peak_rss_mb"], "MB"),
        }
    print(json.dumps({
        "correct": not record["errors"] and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
