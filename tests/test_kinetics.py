"""Tests for the switching-kinetics integrators and self-heating solver."""

from __future__ import annotations

import math

import pytest

from repro.devices import (
    DeviceState,
    JartVcmModel,
    equilibrium_temperature,
    pulses_to_switch,
    solve_operating_point,
    time_to_switch,
)
from repro.devices.kinetics import StateTrajectoryPoint
from repro.errors import ConvergenceError, DeviceModelError


class TestOperatingPoint:
    def test_zero_bias_stays_at_ambient(self, jart_model):
        point = solve_operating_point(jart_model, 0.0, 0.0, 300.0)
        assert point.filament_temperature_k == pytest.approx(300.0, abs=0.2)
        assert point.power_w == pytest.approx(0.0, abs=1e-12)

    def test_crosstalk_adds_to_ambient(self, jart_model):
        point = solve_operating_point(jart_model, 0.0, 0.0, 300.0, crosstalk_temperature_k=50.0)
        assert point.filament_temperature_k == pytest.approx(350.0, abs=0.5)
        assert point.self_heating_k == pytest.approx(0.0, abs=0.5)

    def test_lrs_at_set_voltage_heats_strongly(self, jart_model):
        point = solve_operating_point(jart_model, 1.05, 1.0, 300.0)
        assert point.self_heating_k > 400.0
        assert point.current_a > 100e-6

    def test_equilibrium_temperature_wrapper(self, jart_model):
        direct = solve_operating_point(jart_model, 0.525, 0.0, 300.0).filament_temperature_k
        wrapped = equilibrium_temperature(jart_model, 0.525, 0.0, 300.0)
        assert wrapped == pytest.approx(direct, abs=0.2)

    def test_higher_ambient_means_higher_equilibrium(self, jart_model):
        low = equilibrium_temperature(jart_model, 0.525, 0.0, 273.0)
        high = equilibrium_temperature(jart_model, 0.525, 0.0, 373.0)
        assert high > low + 90.0

    @pytest.mark.parametrize(
        "voltage, x, crosstalk, most",
        [(1.05, 1.0, 0.0, 7), (0.525, 0.3, 75.0, 6)],
        ids=["fig2a_aggressor", "fig3a_victim"],
    )
    def test_current_solves_per_fixed_point(self, jart_model, monkeypatch, voltage, x, crosstalk, most):
        calls = []
        current = jart_model.current

        def counted(voltage_v, state):
            calls.append(state.filament_temperature_k)
            return current(voltage_v, state)

        monkeypatch.setattr(jart_model, "current", counted)
        point = solve_operating_point(jart_model, voltage, x, 300.0, crosstalk_temperature_k=crosstalk)
        assert len(calls) <= most
        # The returned pair is self-consistent: no re-solve after the stop.
        assert calls[-1] == point.filament_temperature_k

    def test_iteration_cap_raises(self, jart_model):
        with pytest.raises(ConvergenceError):
            solve_operating_point(jart_model, 1.05, 1.0, 300.0, max_iterations=1)


class TestTimeToSwitch:
    def test_wrong_polarity_never_switches(self, jart_model):
        result = time_to_switch(jart_model, -0.5, 0.0, 0.5, max_time_s=1e-3)
        assert not result.switched

    def test_hot_victim_switches_faster(self, jart_model):
        cold = time_to_switch(jart_model, 0.525, 0.0, 0.5, crosstalk_temperature_k=0.0, max_time_s=10.0)
        hot = time_to_switch(jart_model, 0.525, 0.0, 0.5, crosstalk_temperature_k=75.0, max_time_s=10.0)
        assert hot.switched
        assert cold.time_s > 100.0 * hot.time_s

    def test_full_write_is_fast(self, jart_model):
        result = time_to_switch(jart_model, 1.05, 0.0, 0.5, max_time_s=1e-2)
        assert result.switched
        assert result.time_s < 1e-4

    def test_respects_time_budget(self, jart_model):
        result = time_to_switch(jart_model, 0.2, 0.0, 0.5, max_time_s=1e-6)
        assert not result.switched
        assert result.time_s == pytest.approx(1e-6)

    def test_records_trajectory(self, jart_model):
        trajectory = []
        time_to_switch(
            jart_model, 1.05, 0.0, 0.5, max_time_s=1e-2, record=trajectory
        )
        assert len(trajectory) >= 2
        assert all(isinstance(point, StateTrajectoryPoint) for point in trajectory)
        assert trajectory[0].x <= trajectory[-1].x

    def test_invalid_states_rejected(self, jart_model):
        with pytest.raises(DeviceModelError):
            time_to_switch(jart_model, 0.5, -0.1, 0.5)
        with pytest.raises(DeviceModelError):
            time_to_switch(jart_model, 0.5, 0.0, 1.5)

    def test_reset_direction_supported(self, jart_model):
        result = time_to_switch(jart_model, -1.05, 1.0, 0.5, max_time_s=1e-1)
        assert result.switched
        assert result.final_x <= 0.5


class TestPulsesToSwitch:
    def test_pulse_count_matches_time(self, jart_model):
        continuous = time_to_switch(jart_model, 0.525, 0.0, 0.5, crosstalk_temperature_k=75.0)
        pulsed = pulses_to_switch(
            jart_model, 0.525, 50e-9, 0.0, 0.5, crosstalk_temperature_k=75.0
        )
        assert pulsed.flipped
        expected = math.ceil(continuous.time_s / 50e-9)
        assert pulsed.pulses == pytest.approx(expected, rel=0.05)

    def test_shorter_pulses_need_more_pulses(self, jart_model):
        short = pulses_to_switch(jart_model, 0.525, 10e-9, 0.0, 0.5, crosstalk_temperature_k=75.0)
        long = pulses_to_switch(jart_model, 0.525, 100e-9, 0.0, 0.5, crosstalk_temperature_k=75.0)
        assert short.pulses > long.pulses

    def test_budget_exhaustion_reported(self, jart_model):
        result = pulses_to_switch(
            jart_model, 0.525, 50e-9, 0.0, 0.5, crosstalk_temperature_k=0.0, max_pulses=100
        )
        assert not result.flipped
        assert result.pulses == 100

    def test_wall_clock_includes_duty_cycle(self, jart_model):
        result = pulses_to_switch(
            jart_model, 0.525, 50e-9, 0.0, 0.5, duty_cycle=0.25, crosstalk_temperature_k=75.0
        )
        assert result.wall_clock_s == pytest.approx(result.pulses * 200e-9, rel=1e-6)

    def test_invalid_inputs_rejected(self, jart_model):
        with pytest.raises(DeviceModelError):
            pulses_to_switch(jart_model, 0.5, 0.0, 0.0, 0.5)
        with pytest.raises(DeviceModelError):
            pulses_to_switch(jart_model, 0.5, 50e-9, 0.0, 0.5, max_pulses=0)
        with pytest.raises(DeviceModelError):
            pulses_to_switch(jart_model, 0.5, 50e-9, 0.0, 0.5, duty_cycle=0.0)
