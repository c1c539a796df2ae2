"""CROSSTALK HUB — FFT convolution vs. the seed dense alpha table.

For a ladder of square crossbars this benchmark times the crosstalk hub's
Eq. 5 application (FFT convolution with a precomputed kernel spectrum) and,
up to ``REPRO_BENCH_CROSSTALK_DENSE_MAX``, the dense ``(cells, cells)``
alpha-table matvec of the seed implementation (the coupling model's
``alpha_table()`` with its diagonal zeroed), checking element-for-element
agreement and reporting the speedup and the alpha-state memory footprint.
A large FFT-only case (``REPRO_BENCH_CROSSTALK_LARGE``, default 256x256)
proves the hub constructs where the dense table (~34 GB) cannot.  A
full-array Monte-Carlo section times ``MonteCarloEngine(mode="full_array")``
re-solving the nodal operating point per sampled array on top of the freed
memory.

Acceptance bars enforced here:

* at every size the hub must hold O(cells) alpha state, at most
  ``MAX_STATE_BYTES_PER_CELL`` bytes per cell (CI's smoke run fails if the
  state grows towards the quadratic dense table),
* every apply must finish under ``REPRO_BENCH_CROSSTALK_CEILING_S``,
* wherever the dense matvec is measured at >= 64x64 the hub's apply must
  be >= 10x faster,
* the large case must hold <= ~4.5 MB of alpha state.

Results are persisted as ``BENCH_crosstalk.json`` via the shared JSON
reporter so the perf trajectory is tracked across PRs.

Environment knobs (all optional):
    REPRO_BENCH_CROSSTALK_SIZES      comma list of square sizes (default 32,64,128)
    REPRO_BENCH_CROSSTALK_DENSE_MAX  largest size timed through the dense table (default 64)
    REPRO_BENCH_CROSSTALK_LARGE      FFT-only large size, 0 disables (default 256)
    REPRO_BENCH_CROSSTALK_CEILING_S  per-apply wall-clock ceiling [s] (default 5)
    REPRO_BENCH_CROSSTALK_MC_ARRAYS  sampled arrays of the full-array MC run, 0 disables (default 100)
    REPRO_BENCH_CROSSTALK_MC_SIZE    crossbar size of the full-array MC run (default 64)
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import run_once, write_bench_json

from repro.circuit import CrosstalkHub
from repro.config import CrossbarGeometry, SimulationConfig
from repro.montecarlo import MonteCarloConfig, MonteCarloEngine
from repro.thermal import AnalyticCouplingModel

SIZES = [int(s) for s in os.environ.get("REPRO_BENCH_CROSSTALK_SIZES", "32,64,128").split(",") if s]
DENSE_MAX = int(os.environ.get("REPRO_BENCH_CROSSTALK_DENSE_MAX", "64"))
LARGE_SIZE = int(os.environ.get("REPRO_BENCH_CROSSTALK_LARGE", "256"))
CEILING_S = float(os.environ.get("REPRO_BENCH_CROSSTALK_CEILING_S", "5"))
MC_ARRAYS = int(os.environ.get("REPRO_BENCH_CROSSTALK_MC_ARRAYS", "100"))
MC_SIZE = int(os.environ.get("REPRO_BENCH_CROSSTALK_MC_SIZE", "64"))

#: Required hub-vs-dense apply speedup at >= 64x64 (acceptance bar).
REQUIRED_SPEEDUP = 10.0
#: O(cells) bound on the hub's alpha state (the kernel and its spectrum
#: hold about 63 bytes per cell from 32x32 to 256x256).
MAX_STATE_BYTES_PER_CELL = 80
#: Agreement budget between the hub and the dense path.
RTOL = 1e-12


def _median_time(fn, repeats: int = 9) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _temperatures(size: int) -> np.ndarray:
    rng = np.random.default_rng(size)
    temperatures = 300.0 + rng.uniform(0.0, 20.0, size=(size, size))
    temperatures[size // 2, size // 2] = 950.0
    return temperatures


def _bench_size(size: int, with_dense: bool) -> dict:
    geometry = CrossbarGeometry(rows=size, columns=size)
    hub = CrosstalkHub(AnalyticCouplingModel(geometry), 300.0)
    temperatures = _temperatures(size)

    start = time.perf_counter()
    additional = hub.additional_temperatures(temperatures)
    first_apply_s = time.perf_counter() - start
    apply_s = _median_time(lambda: hub.additional_temperatures(temperatures))

    row = {
        "size": size,
        "cells": size * size,
        "apply_s": apply_s,
        "first_apply_s": first_apply_s,
        "alpha_state_bytes": hub.alpha_state_bytes,
        "dense_table_bytes": 8 * (size * size) ** 2,
    }

    assert apply_s < CEILING_S, f"{size}x{size} apply took {apply_s:.2f}s (ceiling {CEILING_S}s)"
    _assert_state_is_linear(size, hub)

    if with_dense:
        build_start = time.perf_counter()
        table = hub.coupling.alpha_table()
        np.fill_diagonal(table, 0.0)
        dense_build_s = time.perf_counter() - build_start
        rises = np.maximum(temperatures - 300.0, 0.0).ravel()
        dense_apply_s = _median_time(lambda: table.T @ rises)
        np.testing.assert_allclose(
            (table.T @ rises).reshape(size, size), additional, rtol=RTOL,
            atol=1e-12 * float(np.abs(additional).max()),
        )
        row["dense_build_s"] = dense_build_s
        row["dense_apply_s"] = dense_apply_s
        row["dense_state_bytes"] = table.nbytes
        row["speedup_apply"] = dense_apply_s / apply_s
    return row


def _assert_state_is_linear(size: int, hub: CrosstalkHub) -> None:
    per_cell = hub.alpha_state_bytes / (size * size)
    assert per_cell <= MAX_STATE_BYTES_PER_CELL, (
        f"{size}x{size} hub holds {per_cell:.0f} bytes of alpha state per cell "
        f"(bound {MAX_STATE_BYTES_PER_CELL})"
    )


def test_bench_crosstalk_hub(benchmark):
    rows = [_bench_size(size, with_dense=size <= DENSE_MAX) for size in SIZES]

    large_row = None
    if LARGE_SIZE:
        geometry = CrossbarGeometry(rows=LARGE_SIZE, columns=LARGE_SIZE)
        build_start = time.perf_counter()
        hub = CrosstalkHub(AnalyticCouplingModel(geometry), 300.0)
        build_s = time.perf_counter() - build_start
        temperatures = _temperatures(LARGE_SIZE)
        result = run_once(benchmark, lambda: hub.additional_temperatures(temperatures))
        apply_s = _median_time(lambda: hub.additional_temperatures(temperatures), repeats=5)
        _assert_state_is_linear(LARGE_SIZE, hub)
        assert hub.alpha_state_bytes <= 4.5 * 1024 * 1024, (
            f"{LARGE_SIZE}x{LARGE_SIZE} alpha state holds {hub.alpha_state_bytes} bytes"
        )
        centre = LARGE_SIZE // 2
        assert float(result[centre, centre + 1]) > float(result[0, 0]) > 0.0
        large_row = {
            "size": LARGE_SIZE,
            "cells": LARGE_SIZE * LARGE_SIZE,
            "construct_s": build_s,
            "apply_s": apply_s,
            "alpha_state_bytes": hub.alpha_state_bytes,
            "dense_table_bytes": 8 * (LARGE_SIZE * LARGE_SIZE) ** 2,
        }
        rows.append(large_row)
    else:
        run_once(benchmark, lambda: None)

    mc_row = None
    if MC_ARRAYS:
        config = MonteCarloConfig(
            n_samples=MC_ARRAYS,
            seed=1,
            mode="full_array",
            distributions=[
                {"path": "device.activation_energy_ev", "kind": "normal",
                 "mean": 1.0, "sigma": 0.02, "relative": True, "within_die": 0.3},
                {"path": "device.series_resistance_ohm", "kind": "normal",
                 "mean": 1.0, "sigma": 0.05, "relative": True},
            ],
        )
        simulation = SimulationConfig(geometry={"rows": MC_SIZE, "columns": MC_SIZE})
        engine = MonteCarloEngine(config, simulation=simulation)
        start = time.perf_counter()
        outcome = engine.run()
        mc_total_s = time.perf_counter() - start
        assert int(outcome.array_valid.sum()) == MC_ARRAYS, "sampled arrays failed to solve"
        mc_row = {
            "arrays": MC_ARRAYS,
            "size": MC_SIZE,
            "victims_per_array": outcome.victims_per_array,
            "total_s": mc_total_s,
            "per_array_s": mc_total_s / MC_ARRAYS,
            "flip_probability": outcome.flip_probability,
            "array_flip_probability": outcome.array_flip_probability,
        }

    print()
    for row in rows:
        line = (
            f"crosstalk {row['size']:>4}x{row['size']:<4}"
            f" apply={row['apply_s'] * 1e6:9.1f}us state={row['alpha_state_bytes'] / 1e6:8.3f}MB"
            f" (dense table would be {row['dense_table_bytes'] / 1e9:8.3f}GB)"
        )
        if "dense_apply_s" in row:
            line += (
                f" dense={row['dense_apply_s'] * 1e6:9.1f}us"
                f" -> {row['speedup_apply']:.0f}x"
            )
        print(line)
    if mc_row:
        print(
            f"full-array MC {mc_row['arrays']} arrays of {mc_row['size']}x{mc_row['size']}: "
            f"{mc_row['total_s']:.1f}s total, {mc_row['per_array_s'] * 1e3:.0f}ms/array "
            f"({mc_row['victims_per_array']} victims/array, "
            f"flip p={mc_row['flip_probability']:.3f})"
        )

    for row in rows:
        if row["size"] >= 64 and "speedup_apply" in row:
            assert row["speedup_apply"] >= REQUIRED_SPEEDUP, (
                f"hub apply is only {row['speedup_apply']:.1f}x faster than the dense "
                f"matvec at {row['size']}x{row['size']} (required {REQUIRED_SPEEDUP:.0f}x)"
            )

    # Telemetry sanity: every hub built above registered its build, and at
    # least one apply was recorded.
    from repro.obs import get_telemetry

    counters = get_telemetry().counters
    built = counters.get("crosstalk.hub.built", 0.0)
    assert built >= len(rows), f"telemetry saw only {built:.0f} hub builds for {len(rows)} sizes"
    applies = sum(v for k, v in counters.items() if k.startswith("crosstalk.apply"))
    assert applies > 0, "telemetry recorded no crosstalk applies"

    path = write_bench_json(
        "crosstalk",
        {
            "sizes": SIZES,
            "dense_max": DENSE_MAX,
            "large_size": LARGE_SIZE,
            "mc_size": MC_SIZE,
            "mc_arrays": MC_ARRAYS,
            "results": rows,
            "full_array_montecarlo": mc_row,
        },
    )
    print(f"results -> {path}")
