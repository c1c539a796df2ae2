"""Tests for the switching-time rule, its integrators and the self-heating solver."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.devices import (
    DeviceState,
    JartVcmModel,
    equilibrium_temperature,
    pulses_to_switch,
    solve_operating_point,
    time_to_switch,
)
from repro.devices.kinetics import QUADRATURE_NODES, quadrature_states, switching_time
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


def inverse_rate(x):
    """A time density dt/dx of degree 7, which the panel interpolates exactly."""
    return 2.0 + 3.0 * x + x**7


def elapsed(x_start, x):
    """The exact integral of :func:`inverse_rate` from ``x_start`` to ``x``."""
    return 2.0 * (x - x_start) + 1.5 * (x**2 - x_start**2) + (x**8 - x_start**8) / 8.0


class TestSwitchingTimeRule:
    """The one switching-time rule: a Gauss–Legendre panel in x."""

    def test_nodes_lie_inside_the_panel_one_row_per_node(self):
        nodes = quadrature_states(0.1, 0.6)
        assert nodes.shape == (QUADRATURE_NODES,)
        assert (np.diff(nodes) > 0).all() and 0.1 < nodes[0] and nodes[-1] < 0.6
        lanes = quadrature_states(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert lanes.shape == (QUADRATURE_NODES, 2)
        np.testing.assert_allclose(lanes[:, 1], 1.0 - lanes[:, 0], rtol=1e-15)

    @pytest.mark.parametrize("x_start, x_target", [(0.1, 0.7), (0.7, 0.1)])
    def test_time_is_exact_where_the_inverse_rate_is_a_polynomial(self, x_start, x_target):
        nodes = quadrature_states(x_start, x_target)
        direction = math.copysign(1.0, x_target - x_start)
        outcome = switching_time(
            x_start, x_target, direction / inverse_rate(nodes), np.full(nodes.shape, 350.0), 10.0
        )
        assert outcome.switched[0]
        exact = abs(elapsed(x_start, x_target))
        assert outcome.time[0] == pytest.approx(exact, rel=1e-13)
        assert outcome.final_x[0] == x_target
        assert outcome.final_temperature_k[0] == pytest.approx(350.0, rel=1e-13)

    def test_budget_limited_lane_stops_where_its_cumulative_time_meets_the_budget(self):
        nodes = quadrature_states(0.0, 0.5)
        reached = 0.3137
        outcome = switching_time(
            0.0, 0.5, 1.0 / inverse_rate(nodes), 300.0 + 100.0 * nodes, elapsed(0.0, reached)
        )
        assert not outcome.switched[0]
        assert outcome.time[0] == elapsed(0.0, reached)
        assert outcome.final_x[0] == pytest.approx(reached, abs=1e-10)
        # The temperature is the node temperatures' interpolant there.
        assert outcome.final_temperature_k[0] == pytest.approx(300.0 + 100.0 * reached, abs=1e-8)

    @pytest.mark.parametrize("stalled_node", [0, QUADRATURE_NODES - 1])
    def test_a_node_without_progress_leaves_the_lane_stuck_at_its_start(self, stalled_node):
        nodes = quadrature_states(0.2, 0.5)
        rate = 1.0 / inverse_rate(nodes)
        for stalled in (0.0, -1e-3):
            rate[stalled_node] = stalled
            outcome = switching_time(0.2, 0.5, rate, np.full(nodes.shape, 320.0), 7.0)
            assert not outcome.switched[0]
            assert outcome.time[0] == 7.0
            assert outcome.final_x[0] == 0.2
            assert outcome.final_temperature_k[0] == pytest.approx(320.0, rel=1e-13)

    def test_an_empty_panel_switches_at_once(self):
        rate = np.ones(QUADRATURE_NODES)
        outcome = switching_time(0.4, 0.4, rate, np.full(QUADRATURE_NODES, 300.0), 1.0)
        assert outcome.switched[0] and outcome.time[0] == 0.0 and outcome.final_x[0] == 0.4

    def test_a_lane_does_not_depend_on_the_lanes_it_shares_a_call_with(self):
        rng = np.random.default_rng(4)
        n = 48
        x_start = rng.uniform(0.0, 0.3, n)
        x_target = rng.uniform(0.4, 0.9, n)
        rising = np.linspace(1.0, 4.0, QUADRATURE_NODES)[:, None]
        rate = rng.uniform(0.5, 20.0, (QUADRATURE_NODES, n)) * rising
        rate[:, :4] *= -1.0  # stuck lanes
        temperature = rng.uniform(300.0, 500.0, (QUADRATURE_NODES, n))
        budget = rng.uniform(0.01, 0.2, n)
        together = switching_time(x_start, x_target, rate, temperature, budget)
        assert together.switched.any() and not together.switched.all()
        for lane in range(n):
            alone = switching_time(
                x_start[lane], x_target[lane], rate[:, lane], temperature[:, lane], budget[lane]
            )
            for field in together._fields:
                assert getattr(alone, field)[0] == getattr(together, field)[lane], (lane, field)


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
