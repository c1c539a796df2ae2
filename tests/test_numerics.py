"""Tests of the numerics-health watchdog (:mod:`repro.obs.numerics`).

Covers each detector (non-finite guard, underflow canary, residual
blowup/stall, iteration pressure, condition proxy), the telemetry signals
they emit, the instrumentation wired through the crossbar solver, and the
disabled-overhead contract: the watchdog and the audit trail ride on the one
telemetry context, so with telemetry off a solve reads that context once and
the guard cost stays under 2% of a 64x64 operating-point solve.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.circuit import BiasPattern, CrossbarSolver, build_crossbar_netlist
from repro.config import CrossbarGeometry, WireParameters
from repro.devices import DeviceStateArrays, JartVcmModel
import repro.circuit.solver as solver_module
from repro.obs import Telemetry, disable_telemetry, get_telemetry, telemetry_capture


@pytest.fixture(autouse=True)
def _telemetry_off_after_each_test():
    yield
    disable_telemetry()


def _solver_setup(rows=3):
    geometry = CrossbarGeometry(rows=rows, columns=rows)
    netlist = build_crossbar_netlist(geometry, WireParameters())
    states = DeviceStateArrays(geometry.rows, geometry.columns)
    states.x[...] = 0.5
    states.temperature_k[...] = 300.0
    bias = BiasPattern(
        row_voltages_v={i: (0.6 if i == 1 else 0.0) for i in range(geometry.rows)},
        column_voltages_v={j: 0.0 for j in range(geometry.columns)},
        label="numerics",
    )
    return CrossbarSolver(netlist, JartVcmModel()), bias, states


class TestDetectors:
    def test_disabled_by_default(self):
        tel = get_telemetry()
        assert not tel.enabled
        assert tel.audit is None and tel.heartbeat is None
        # A live telemetry always carries a watchdog bound to itself.
        live = Telemetry()
        assert live.numerics.telemetry is live

    def test_nonfinite_array_counts_and_events(self):
        tel = Telemetry()
        watchdog = tel.numerics
        assert watchdog.check_array("solver.solve", "v", [1.0, 2.0]) is True
        assert watchdog.check_array("solver.solve", "v", [1.0, np.nan, np.inf]) is False
        snapshot = tel.snapshot()
        assert snapshot["counters"]["numerics.checks"] == 2.0
        assert snapshot["counters"]["numerics.nonfinite"] == 1.0
        event = tel.events["numerics.nonfinite"][-1]
        assert event["stage"] == "solver.solve" and event["array"] == "v"
        assert event["nan"] == 1 and event["inf"] == 1 and event["size"] == 3

    def test_integer_arrays_are_skipped(self):
        tel = Telemetry()
        watchdog = tel.numerics
        assert watchdog.check_array("s", "ints", np.arange(4)) is True
        assert "numerics.checks" not in tel.snapshot()["counters"]

    def test_subnormal_underflow_is_counted_not_failed(self):
        tiny = np.finfo(np.float64).tiny
        tel = Telemetry()
        watchdog = tel.numerics
        assert watchdog.check_array("s", "x", [1.0, tiny / 4, tiny / 2]) is True
        assert tel.snapshot()["counters"]["numerics.underflow"] == 2.0

    def test_residual_blowup_detected_with_step(self):
        tel = Telemetry()
        watchdog = tel.numerics
        assert watchdog.check_residuals("solver.solve", [1e-3, 1e-6, 1e-2]) is False
        event = tel.events["numerics.residual_anomaly"][-1]
        assert event["kind"] == "blowup" and event["step"] == 2
        assert tel.snapshot()["counters"]["numerics.residual_anomalies"] == 1.0

    def test_residual_stall_detected(self):
        tel = Telemetry()
        watchdog = tel.numerics
        assert watchdog.check_residuals("s", [1e-3, 5e-4, 1e-3]) is False
        assert tel.events["numerics.residual_anomaly"][-1]["kind"] == "stall"

    def test_stall_counts_only_at_or_above_tolerance(self):
        tel = Telemetry()
        watchdog = tel.numerics
        assert watchdog.check_residuals("s", [1e-17, 2e-17], tolerance=1e-9) is True
        assert watchdog.check_residuals("s", [1e-6, 5e-6], tolerance=1e-9) is False
        assert tel.events["numerics.residual_anomaly"][-1]["kind"] == "stall"
        assert tel.snapshot()["counters"]["numerics.residual_anomalies"] == 1.0

    def test_contracting_residuals_pass(self):
        tel = Telemetry()
        watchdog = tel.numerics
        assert watchdog.check_residuals("s", [1e-3, 1e-5, 1e-9]) is True
        assert watchdog.check_residuals("s", [1e-3]) is True
        assert "numerics.residual_anomalies" not in tel.snapshot()["counters"]

    def test_iteration_pressure(self):
        tel = Telemetry()
        watchdog = tel.numerics
        assert watchdog.check_iterations("s", 10, 100) is True
        assert watchdog.check_iterations("s", 95, 100) is False
        assert watchdog.check_iterations("s", 95, 0) is True
        assert tel.snapshot()["counters"]["numerics.iteration_pressure"] == 1.0
        event = tel.events["numerics.iteration_pressure"][-1]
        assert event["iterations"] == 95 and event["limit"] == 100

    def test_condition_proxy_gauge(self):
        tel = Telemetry()
        watchdog = tel.numerics
        proxy = watchdog.gauge_condition("solver.jacobian", [1e-3, 0.0, 1e3])
        assert proxy == pytest.approx(1e6)
        assert tel.snapshot()["gauges"]["numerics.condition_proxy.solver.jacobian"][
            "value"
        ] == pytest.approx(1e6)
        assert watchdog.gauge_condition("s", [0.0, 0.0]) is None


class TestSolverIntegration:
    def test_healthy_solve_emits_checks_and_condition_gauge(self):
        solver, bias, states = _solver_setup()
        with telemetry_capture() as tel:
            solver.solve(bias, states)
        snapshot = tel.snapshot()
        assert snapshot["counters"]["numerics.checks"] >= 2.0
        assert "numerics.nonfinite" not in snapshot["counters"]
        assert any(
            name.startswith("numerics.condition_proxy.solver.jacobian")
            for name in snapshot["gauges"]
        )

    @pytest.mark.parametrize("rows", [3, 8])
    def test_converged_warm_resolve_is_not_a_stall(self, rows):
        # A warm re-solve starts at the converged point, so its residuals
        # sit at roundoff (~1e-16 A) and may tick up by an ulp; far below
        # the solve's 1e-9 A tolerance that is not a stall.
        solver, bias, states = _solver_setup(rows=rows)
        solver.solve(bias, states)
        with telemetry_capture() as tel:
            solver.solve(bias, states)
        counters = tel.snapshot()["counters"]
        assert counters["solver.warm_starts"] == 1.0
        assert "numerics.residual_anomalies" not in counters
        assert "numerics.residual_anomaly" not in tel.events



class TestDisabledOverhead:
    def test_disabled_watchdog_and_audit_cost_under_two_percent_of_a_solve(self, monkeypatch):
        """The opt-out contract, mirroring the telemetry bound: with telemetry
        off, watchdog and audit cost one context read per solve, and that
        guard stays <2% of a 64x64 solve even at 100 guards per solve."""
        disable_telemetry()
        solver, bias, states = _solver_setup(rows=64)
        solver.solve(bias, states)  # warm-up: structure + first factorisation

        reads = []

        def counting_get_telemetry():
            reads.append(1)
            return get_telemetry()

        monkeypatch.setattr(solver_module, "get_telemetry", counting_get_telemetry)
        loops = 3
        start = time.perf_counter()
        for _ in range(loops):
            solver.solve(bias, states)
        solve_s = (time.perf_counter() - start) / loops
        assert len(reads) == loops, "CrossbarSolver.solve must read the context once per call"

        guards = 10_000
        start = time.perf_counter()
        for _ in range(guards):
            tel = get_telemetry()
            if tel.enabled:  # pragma: no cover - telemetry is off here
                tel.numerics.check_iterations("never", 0, 1)
                if tel.audit is not None:
                    tel.audit.record("never")
        guard_s = (time.perf_counter() - start) / guards

        overhead = (100 * guard_s) / solve_s
        assert overhead < 0.02, (
            f"disabled watchdog+audit guard overhead {overhead:.2%} of a "
            f"{solve_s * 1e3:.1f}ms solve exceeds the 2% budget"
        )
