"""One benchmark process: set up a workload, time it, check it, trace it.

``run.py`` starts this script in a fresh interpreter for every measurement,
so import cost, set-up time and peak RSS mean the same thing on every run.
It prints one JSON object as its last line of standard output.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SPAWNED [--setup-only]

SPAWNED is ``time.monotonic()`` in the parent right before it started this
process; set-up time runs from there to the first timed op.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Op time between two host-speed probes [s].
PROBE_EVERY_S = 0.25
#: Host-speed probes right after set-up.
SETUP_HOST_PROBES = 3
#: Fewest timed ops of a run, however long each takes.
MIN_OPS = 4

#: Traced layers and the name of their call-count metric (None: self time
#: only, the layer's work is counted by a more telling metric below).
LAYERS = {
    "circuit.solver": "calls",
    "circuit.solver.sparse_lu": "calls",
    "circuit.solver.dense_lu": "calls",
    "circuit.crossbar": "snapshots",
    "circuit.build": "calls",
    "circuit.crosstalk_hub": "applies",
    "devices.kernel": "calls",
    "devices.scalar_op": "calls",
    "montecarlo.engine": None,
    "montecarlo.nominal": None,
    "montecarlo.sampling": None,
    "montecarlo.aggressor_op": None,
    "montecarlo.kinetics": "calls",
    "attack.neurohammer": "calls",
    "campaign.runner": None,
    "store.get": "calls",
    "store.put": "calls",
    "store.lease": "calls",
}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {name: os.environ.get(name) for name in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def timed_loop(workload, first_index: int, seconds: float, min_ops: int,
               scope=nullcontext, host=None):
    """Run ops until ``seconds`` of timed work and ``min_ops`` ops are done.

    Only the op runs inside ``scope``; its output checks run outside it.
    With ``host`` given, the host-speed probe runs between ops, once per
    :data:`PROBE_EVERY_S` of op time.
    """
    times, attempted, failed, errors = [], 0, 0, []
    index = first_index
    since_probe = PROBE_EVERY_S
    while sum(times) < seconds or len(times) < min_ops:
        if host is not None and since_probe >= PROBE_EVERY_S:
            host.sample()
            since_probe = 0.0
        start = time.perf_counter()
        try:
            with scope():
                output = workload.op(index)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            times.append(time.perf_counter() - start)
            attempted += workload.units_per_op
            failed += workload.units_per_op
            errors.append(f"op {index}: {type(exc).__name__}: {exc}")
        else:
            times.append(time.perf_counter() - start)
            done, bad, problems = workload.check(index, output)
            attempted += done
            failed += bad
            errors += problems
        since_probe += times[-1]
        index += 1
    if host is not None:
        host.sample()
    return times, attempted, failed, errors


def traced_phase(workload, tracer, first_index: int, untraced_op_s: float) -> tuple:
    """Re-run a fixed number of ops under the tracer and program telemetry."""
    from repro.obs import Telemetry, disable_telemetry, enable_telemetry
    from tracer import install_layers

    install_layers(tracer)
    telemetry = Telemetry()

    @contextmanager
    def tracing():
        enable_telemetry(telemetry)
        tracer.active = True
        try:
            yield
        finally:
            tracer.active = False
            disable_telemetry()

    times, _, failed, errors = timed_loop(workload, first_index, 0.0, workload.trace_ops, tracing)
    wall = sum(times)
    counters = telemetry.counters
    errors += cross_check(tracer, counters)
    metrics = layer_metrics(tracer, counters)
    metrics["trace.ops"] = (len(times), "count")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unattributed_frac"] = ((wall - tracer.total_self_s()) / wall, "ratio")
    metrics["trace.overhead_frac"] = (statistics.fmean(times) / untraced_op_s - 1.0, "ratio")
    return metrics, failed, errors


def cross_check(tracer, counters: dict) -> list:
    """Tracer call counts must equal the program's own telemetry counters."""

    def total(prefix: str) -> float:
        return sum(value for name, value in counters.items() if name.startswith(prefix))

    hits = tracer.count("campaign.runner", "cache_hits")
    pairs = {
        "solver.solves": (tracer.calls("circuit.solver"), total("solver.solves")),
        "crosstalk.apply.*": (tracer.calls("circuit.crosstalk_hub"), total("crosstalk.apply")),
        "mc.arrays": (tracer.count("montecarlo.engine", "arrays"), total("mc.arrays")),
        "campaign.cache.hits": (hits, total("campaign.cache.hits")),
        "campaign.cache.misses": (
            tracer.count("campaign.runner", "points") - hits, total("campaign.cache.misses")),
    }
    return [
        f"tracer saw {traced:g} where telemetry {name} counted {counted:g}"
        for name, (traced, counted) in pairs.items()
        if traced != counted
    ]


def layer_metrics(tracer, counters: dict) -> dict:
    metrics = {}
    for layer, calls in LAYERS.items():
        if calls:
            metrics[f"{layer}.{calls}"] = (tracer.calls(layer), "count")
        metrics[f"{layer}.self_s"] = (tracer.self_s(layer), "s")
    snapshots = tracer.calls("circuit.crossbar")
    solves = tracer.calls("circuit.solver")
    metrics["circuit.solver.newton_iterations"] = (counters.get("solver.iterations", 0.0), "count")
    metrics["circuit.crossbar.solves_per_snapshot"] = (solves / snapshots if snapshots else 0.0, "ratio")
    metrics["montecarlo.kinetics.lanes"] = (tracer.count("montecarlo.kinetics", "lanes"), "count")
    metrics["montecarlo.engine.arrays"] = (tracer.count("montecarlo.engine", "arrays"), "count")
    points = tracer.count("campaign.runner", "points")
    hits = tracer.count("campaign.runner", "cache_hits")
    metrics["campaign.runner.points"] = (points, "count")
    metrics["campaign.runner.cache_hits"] = (hits, "count")
    metrics["campaign.runner.cache_misses"] = (points - hits, "count")
    metrics["store.bytes_written"] = (tracer.count("store.put", "bytes_written"), "bytes")
    return metrics


def main(argv) -> int:
    workload_name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    spawned = float(argv[4])
    setup_only = "--setup-only" in argv

    sys.path.insert(0, str(BENCH_DIR))
    tracer = None
    if trace:
        import calibrate  # noqa: F401 - binds the untraced spsolve first
        from tracer import Tracer

        tracer = Tracer()
        tracer.patch_linear_algebra()  # before `import repro` binds spsolve

    import workloads  # imports repro

    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload_name}-", dir=scratch) as workdir:
        workload = workloads.WORKLOADS[workload_name](seed, Path(workdir))
        workload.setup()
        ready = time.monotonic()
        from calibrate import REFERENCE_S, HostSpeed

        # Probed right after set-up, the host speed the set-up ran at.
        host = HostSpeed()
        setup_probe_s = statistics.median(host.sample() for _ in range(SETUP_HOST_PROBES))
        setup_s = (ready - spawned) * REFERENCE_S / setup_probe_s
        if setup_only:
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": ready - spawned}))
            return 0

        times, attempted, failed, errors = timed_loop(workload, 0, seconds, MIN_OPS, host=host)
        finish_failed, finish_errors = workload.finish()
        failed += finish_failed
        errors += finish_errors
        # Mean op time over mean probe time: the time-weighted slowdown of
        # the host over the run scales the op time to the nominal host.
        op_s = statistics.fmean(times)
        slowdown = host.slowdown()
        record = {
            "setup_s": setup_s,
            "raw_setup_s": ready - spawned,
            "setup_probe_s": setup_probe_s,
            "ops": len(times),
            "timed_s": sum(times),
            "op_s": {"mean": op_s, "median": statistics.median(times),
                     "min": min(times), "max": max(times)},
            "raw_ops_per_s": workload.units_per_op / op_s,
            "ops_per_s": workload.units_per_op * slowdown / op_s,
            "unit": workload.unit,
            "host_slowdown": slowdown,
            "host_probe_s": {"median": statistics.median(host.samples),
                             "min": min(host.samples), "max": max(host.samples),
                             "count": len(host.samples)},
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
            "work": workload.work_counts(),
            "environment": environment(seed),
        }
        if trace:
            layer, trace_failed, trace_errors = traced_phase(workload, tracer, len(times), op_s)
            record["layers"] = layer
            record["failed"] += trace_failed
            record["errors"] += trace_errors
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
