"""SOLVER SCALING — sparse vectorized nodal solver vs. the seed dense loop.

For a ladder of square crossbars this benchmark solves one mixed-state write
operating point through the array-native sparse :class:`CrossbarSolver` (cold,
then warm-started against the held chain-band factor) and, up to
``REPRO_BENCH_SOLVER_REFERENCE_MAX``, through the seed dense per-device-loop
:class:`ReferenceCrossbarSolver`, checking element-for-element agreement and
reporting the speedup.  A large sparse-only solve
(``REPRO_BENCH_SOLVER_LARGE``, default 256x256) proves the practical
ceiling.  Every row records the chain-band factorizations and chord steps
(``triangular_solves``) its cold solve performed, read from telemetry, and
``build_s``: the median time to build the netlist and the solver from
scratch.

Acceptance bars enforced here:

* a warm re-solve must perform 0 factorizations (it steps against the
  factor the cold solve left),
* every fast solve must finish under ``REPRO_BENCH_SOLVER_CEILING_S``,
* wherever the reference is measured at >= 64x64 the speedup must be >= 10x
  (measured ~2000x warm on a laptop-class core).

Results are persisted as ``BENCH_solver_scaling.json`` via the shared JSON
reporter so the perf trajectory is tracked across PRs.

Environment knobs (all optional):
    REPRO_BENCH_SOLVER_SIZES          comma list of square sizes (default 8,16,32,64)
    REPRO_BENCH_SOLVER_REFERENCE_MAX  largest size timed through the seed solver (default 64)
    REPRO_BENCH_SOLVER_LARGE          sparse-only large size, 0 disables (default 256)
    REPRO_BENCH_SOLVER_CEILING_S      per-solve wall-clock ceiling [s] (default 120)
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import run_once, write_bench_json

from repro.circuit import CrossbarSolver, ReferenceCrossbarSolver, build_crossbar_netlist, write_bias
from repro.config import CrossbarGeometry
from repro.devices import DeviceStateArrays, JartVcmModel
from repro.obs import get_telemetry

SIZES = [int(s) for s in os.environ.get("REPRO_BENCH_SOLVER_SIZES", "8,16,32,64").split(",") if s]
REFERENCE_MAX = int(os.environ.get("REPRO_BENCH_SOLVER_REFERENCE_MAX", "64"))
LARGE_SIZE = int(os.environ.get("REPRO_BENCH_SOLVER_LARGE", "256"))
CEILING_S = float(os.environ.get("REPRO_BENCH_SOLVER_CEILING_S", "120"))

#: Required fast-vs-seed speedup at >= 64x64 (acceptance bar of the PR).
REQUIRED_SPEEDUP = 10.0
#: Agreement budget between the sparse and the seed path.
RTOL = 1e-9
#: Telemetry counters (``solver.<name>``) recorded per row.
LINEAR_ALGEBRA = ("factorizations", "triangular_solves")
#: Solver constructions timed per row; the row records their median.
BUILD_REPEATS = 5


def _case(size: int):
    geometry = CrossbarGeometry(rows=size, columns=size)
    netlist = build_crossbar_netlist(geometry)
    states = DeviceStateArrays(size, size)
    states.x[::2, 1::2] = 1.0  # checkerboard-ish HRS/LRS mix
    bias = write_bias(geometry, [(size // 2, size // 2)], 1.05)
    return netlist, states, bias


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _build_s(size: int, model) -> float:
    """Median time to build a crossbar's netlist and solver from scratch."""
    geometry = CrossbarGeometry(rows=size, columns=size)
    times = [
        _timed(lambda: CrossbarSolver(build_crossbar_netlist(geometry), model))[1]
        for _ in range(BUILD_REPEATS)
    ]
    return float(np.median(times))


def _counted_solve(solver, bias, states):
    """One timed solve and the factorizations / triangular solves it ran."""
    counters = get_telemetry().counters
    before = {name: counters.get(f"solver.{name}", 0.0) for name in LINEAR_ALGEBRA}
    op, elapsed = _timed(lambda: solver.solve(bias, states))
    counts = {name: counters.get(f"solver.{name}", 0.0) - before[name] for name in LINEAR_ALGEBRA}
    return op, elapsed, counts


def _cold_and_warm(size: int, solver, bias, states) -> tuple:
    """Cold and warm solve; the warm one must step on the held factor."""
    op, cold_s, cold = _counted_solve(solver, bias, states)
    assert cold_s < CEILING_S, f"{size}x{size} cold solve took {cold_s:.1f}s (ceiling {CEILING_S}s)"
    _, warm_s, warm = _counted_solve(solver, bias, states)
    assert warm["factorizations"] == 0, (
        f"{size}x{size}: a warm re-solve refactored {warm['factorizations']:.0f} time(s)"
    )
    return op, {
        "size": size,
        "nodes": solver.netlist.node_count,
        "devices": size * size,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "iterations": op.iterations,
        **cold,
        "warm_triangular_solves": warm["triangular_solves"],
    }


def _solve_size(size: int, with_reference: bool) -> dict:
    netlist, states, bias = _case(size)
    model = JartVcmModel()
    fast_op, row = _cold_and_warm(size, CrossbarSolver(netlist, model), bias, states)
    row["build_s"] = _build_s(size, model)

    if with_reference:
        reference = ReferenceCrossbarSolver(netlist, model)
        ref_op, reference_s = _timed(lambda: reference.solve(bias, states))
        np.testing.assert_allclose(
            fast_op.device_voltages_v, ref_op.device_voltages_v, rtol=RTOL, atol=1e-12
        )
        np.testing.assert_allclose(
            fast_op.device_currents_a, ref_op.device_currents_a, rtol=RTOL, atol=1e-15
        )
        row["reference_s"] = reference_s
        row["speedup_cold"] = reference_s / row["cold_s"]
        row["speedup_warm"] = reference_s / row["warm_s"]
    return row


def test_bench_solver_scaling(benchmark):
    rows = []
    for size in SIZES:
        rows.append(_solve_size(size, with_reference=size <= REFERENCE_MAX))

    if LARGE_SIZE:
        # The practical-ceiling demonstration is the benchmarked quantity.
        netlist, states, bias = _case(LARGE_SIZE)
        solver = CrossbarSolver(netlist, JartVcmModel())
        large_op, row = run_once(benchmark, lambda: _cold_and_warm(LARGE_SIZE, solver, bias, states))
        assert large_op.residual_a < solver.residual_tolerance_a
        row["build_s"] = _build_s(LARGE_SIZE, solver.model)
        rows.append(row)
    else:
        run_once(benchmark, lambda: None)

    print()
    for row in rows:
        line = (
            f"solver {row['size']:>4}x{row['size']:<4} nodes={row['nodes']:>7} "
            f"factors={row['factorizations']:.0f}/{row['triangular_solves']:.0f} "
            f"build={row['build_s'] * 1e3:7.2f}ms "
            f"cold={row['cold_s'] * 1e3:9.1f}ms warm={row['warm_s'] * 1e3:8.1f}ms"
        )
        if "reference_s" in row:
            line += (
                f" seed={row['reference_s'] * 1e3:9.1f}ms"
                f" -> {row['speedup_cold']:.0f}x cold / {row['speedup_warm']:.0f}x warm"
            )
        print(line)

    for row in rows:
        if row["size"] >= 64 and "speedup_cold" in row:
            assert row["speedup_cold"] >= REQUIRED_SPEEDUP, (
                f"sparse solver is only {row['speedup_cold']:.1f}x faster than the seed dense "
                f"solver at {row['size']}x{row['size']} (required {REQUIRED_SPEEDUP:.0f}x)"
            )

    path = write_bench_json(
        "solver_scaling",
        {
            "sizes": SIZES,
            "reference_max": REFERENCE_MAX,
            "large_size": LARGE_SIZE,
            "results": rows,
        },
    )
    print(f"results -> {path}")
