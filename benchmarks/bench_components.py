"""Micro-benchmarks of the simulation substrates.

These do not correspond to a paper figure; they track the cost of the
building blocks the figure sweeps are made of (device model evaluation,
self-heating fixed point, nonlinear crossbar solve, electro-thermal
snapshot, finite-volume heat solve, fast attack path), so performance
regressions are visible independently of the experiment-level numbers.
"""

from __future__ import annotations

import numpy as np

from repro.attack import hammer_once
from repro.circuit import CrossbarArray, write_bias
from repro.config import CrossbarGeometry, ThermalSolverConfig
from repro.devices import DeviceState, JartVcmModel, solve_operating_point
from repro.thermal import HeatSolver, build_voxel_model


def test_bench_device_current_evaluation(benchmark):
    model = JartVcmModel()
    state = DeviceState(x=0.3, filament_temperature_k=350.0)

    def evaluate():
        total = 0.0
        for voltage in (0.1, 0.3, 0.525, 0.8, 1.05):
            total += model.current(voltage, state)
        return total

    result = benchmark(evaluate)
    assert result > 0.0


def test_bench_self_heating_operating_point(benchmark):
    """The scalar Eq. 6 fixed point at the Fig. 2a aggressor and the Fig. 3a victim."""
    model = JartVcmModel()

    def solve():
        aggressor = solve_operating_point(model, 1.05, 1.0, 300.0)
        victim = solve_operating_point(model, 0.525, 0.3, 300.0, crosstalk_temperature_k=75.0)
        return aggressor, victim

    aggressor, victim = benchmark(solve)
    assert aggressor.filament_temperature_k > 900.0
    assert victim.filament_temperature_k > 375.0


def test_bench_crossbar_operating_point(benchmark):
    crossbar = CrossbarArray()
    crossbar.set_state((2, 2), 1.0)
    bias = write_bias(crossbar.geometry, [(2, 2)], 1.05)

    op = benchmark(crossbar.solve_bias, bias)
    assert abs(op.cell_voltage((2, 2)) - 1.05) < 0.1


def test_bench_thermal_snapshot(benchmark):
    crossbar = CrossbarArray()
    crossbar.set_state((2, 2), 1.0)
    bias = write_bias(crossbar.geometry, [(2, 2)], 1.05)

    snapshot = benchmark(crossbar.thermal_snapshot, bias)
    assert snapshot.cell_temperature((2, 2)) > 600.0


def test_bench_finite_volume_heat_solve(benchmark):
    model = build_voxel_model(
        CrossbarGeometry(),
        ThermalSolverConfig(lateral_resolution_m=25e-9, vertical_resolution_m=25e-9),
    )
    solver = HeatSolver(model, 300.0)
    # Warm the cached system matrix so the benchmark measures the solve.
    solver.solve({(2, 2): 100e-6})

    field = benchmark(solver.solve, {(2, 2): 300e-6})
    assert field.cell_temperature((2, 2)) > 400.0


def test_bench_fast_attack_path(benchmark):
    result = benchmark.pedantic(
        hammer_once, kwargs={"pulse_length_s": 50e-9}, rounds=3, iterations=1, warmup_rounds=0
    )
    assert result.flipped
