"""Tests for the NeuroHammer attack engine (fast path and analysis helpers)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.attack import (
    NeuroHammer,
    hammer_once,
    minimum_alpha_to_flip,
    narrate_attack,
    single_aggressor,
    switching_rate,
    thermal_acceleration_factor,
)
from repro.attack.patterns import double_sided_row, standard_patterns
from repro.circuit import CrossbarArray
from repro.config import AttackConfig, CrossbarGeometry, PulseConfig
from repro.devices import DeviceState, JartVcmModel, LinearIonDriftModel
from repro.errors import AttackError, ConfigurationError


class TestHammerOnce:
    def test_default_operating_point_flips(self):
        result = hammer_once(pulse_length_s=50e-9)
        assert result.flipped
        assert 1_000 <= result.pulses <= 50_000
        assert result.victim == (2, 3)
        assert result.aggressors == ((2, 2),)
        assert result.victim_final_x >= 0.5

    def test_longer_pulses_need_fewer_pulses(self):
        short = hammer_once(pulse_length_s=10e-9)
        long = hammer_once(pulse_length_s=100e-9)
        assert short.pulses > long.pulses
        # ...but about the same cumulative stress time.
        assert short.stress_time_s == pytest.approx(long.stress_time_s, rel=0.2)

    def test_tight_spacing_is_more_vulnerable(self):
        dense = hammer_once(pulse_length_s=50e-9, electrode_spacing_m=10e-9)
        sparse = hammer_once(pulse_length_s=50e-9, electrode_spacing_m=90e-9)
        assert dense.pulses < sparse.pulses / 5

    def test_hot_ambient_is_more_vulnerable(self):
        cold = hammer_once(pulse_length_s=50e-9, ambient_temperature_k=273.0)
        hot = hammer_once(pulse_length_s=50e-9, ambient_temperature_k=373.0)
        assert hot.pulses < cold.pulses / 100

    def test_v_third_scheme_mitigates(self):
        v_half = hammer_once(pulse_length_s=50e-9, bias_scheme="v_half")
        v_third = hammer_once(pulse_length_s=50e-9, bias_scheme="v_third", max_pulses=1_000_000)
        assert v_third.pulses > 5 * v_half.pulses

    def test_budget_exhaustion_reports_no_flip(self):
        result = hammer_once(pulse_length_s=50e-9, max_pulses=10)
        assert not result.flipped
        assert result.pulses <= 10

    def test_result_bookkeeping(self):
        result = hammer_once(pulse_length_s=50e-9)
        assert result.pulse_length_s == pytest.approx(50e-9)
        assert result.wall_clock_s >= result.stress_time_s
        assert result.hammer_energy_j > 0.0
        assert result.pulses_per_aggressor == pytest.approx(result.pulses)
        assert len(result.phase_points) == 1
        point = result.phase_points[0]
        assert 0.4 < point.victim_voltage_v < 0.6
        assert point.victim_crosstalk_k > 40.0
        assert point.aggressor_temperature_k > 800.0

    def test_hammer_energy_uses_the_aggressor_cell_voltage(self):
        # At 0.9 V the aggressor cell sees ~0.87 V; pricing its current at the
        # 1.05 V SET default would read ~20 % high.
        result = hammer_once(pulse_length_s=50e-9, amplitude_v=0.9)
        point = result.phase_points[0]
        assert point.aggressor_voltage_v < 0.9
        expected = (
            abs(point.aggressor_voltage_v * point.aggressor_current_a)
            * result.pulse_length_s
            * result.pulses
        )
        assert result.hammer_energy_j == pytest.approx(expected, rel=1e-12)


class TestNeuroHammerEngine:
    def test_prepare_sets_aggressors_lrs_victim_hrs(self, paper_crossbar):
        attack = NeuroHammer(paper_crossbar)
        pattern = single_aggressor(paper_crossbar.geometry)
        attack.prepare(pattern)
        assert paper_crossbar.get_state(pattern.aggressors[0]).x == 1.0
        assert paper_crossbar.get_state(pattern.victim).x == 0.0

    def test_double_sided_pattern_stronger_than_single(self, paper_geometry):
        single_result = hammer_once(pulse_length_s=50e-9)
        crossbar = CrossbarArray(geometry=paper_geometry)
        attack = NeuroHammer(crossbar)
        pattern = double_sided_row(paper_geometry)
        config = AttackConfig(
            aggressors=list(pattern.aggressors),
            victim=pattern.victim,
            pulse=PulseConfig(length_s=50e-9),
        )
        double_result = attack.run(pattern=pattern, config=config)
        assert double_result.flipped
        assert double_result.pulses < single_result.pulses

    def test_ambient_mismatch_rejected(self, paper_crossbar):
        attack = NeuroHammer(paper_crossbar)
        config = AttackConfig(ambient_temperature_k=350.0)
        with pytest.raises(ConfigurationError):
            attack.run(config=config)

    def test_transient_ambient_mismatch_rejected(self):
        """The transient engine simulates at the crossbar's ambient, so a
        config at another ambient is refused as :meth:`NeuroHammer.run`
        refuses it, instead of being reported under the config's ambient."""
        crossbar = CrossbarArray(geometry=CrossbarGeometry(rows=3, columns=3))
        config = AttackConfig(
            aggressors=[(1, 1)], victim=(1, 2), pulse=PulseConfig(length_s=20e-6),
            ambient_temperature_k=380.0,
        )
        with pytest.raises(ConfigurationError, match="ambient temperature"):
            NeuroHammer(crossbar).run_transient(config=config, max_pulses=3)
        assert np.all(crossbar.state_map() == 0.0)

    def test_multi_aggressor_config_needs_victim(self, paper_crossbar):
        attack = NeuroHammer(paper_crossbar)
        config = AttackConfig(aggressors=[(2, 1), (2, 3)])
        with pytest.raises(AttackError):
            attack.run(config=config)

    def test_custom_config_pattern(self, paper_crossbar):
        attack = NeuroHammer(paper_crossbar)
        config = AttackConfig(
            aggressors=[(1, 1)], victim=(1, 2), pulse=PulseConfig(length_s=50e-9)
        )
        result = attack.run(config=config)
        assert result.flipped
        assert result.victim == (1, 2)

    def test_multi_phase_run_stays_within_its_pulse_budget(self, paper_geometry):
        # A two-phase pattern whose budget ends mid-round pulses only the
        # leading phases that still fit, instead of a whole round.
        pattern = standard_patterns(paper_geometry)["quad"]
        assert len(pattern.phases) == 2

        def run(max_pulses):
            attack = NeuroHammer(CrossbarArray(geometry=paper_geometry))
            return attack.run(pattern=pattern, config=AttackConfig(max_pulses=max_pulses))

        free = run(10_000_000)
        assert free.flipped
        for budget in range(free.pulses - 4, free.pulses + 3):
            result = run(budget)
            assert result.pulses <= budget
            assert result.stress_time_s == pytest.approx(result.pulses * 50e-9)
            if budget >= free.pulses:
                assert result.flipped
                assert result.pulses == free.pulses
                assert result.victim_final_x == free.victim_final_x


class TestVictimRate:
    """The quasi-static integrator's rate comes from the fixed point's current."""

    @pytest.mark.parametrize("x", [0.0, 0.3, 0.5])
    def test_rate_equals_the_state_derivative_at_the_fixed_point(self, paper_crossbar, x):
        # The Fig. 3a victim bias: one centre aggressor, 50 ns pulses at 300 K.
        attack = NeuroHammer(paper_crossbar)
        pattern = single_aggressor(paper_crossbar.geometry)
        attack.prepare(pattern)
        point = attack.phase_operating_point(pattern, pattern.phases[0], 1.05)
        model = paper_crossbar.model
        rate, temperature = attack._victim_rate(model, point, x, 300.0)
        expected = model.state_derivative(point.victim_voltage_v, DeviceState(x, temperature))
        assert rate == expected

    def test_linear_ion_drift_attack_is_unchanged(self, paper_geometry):
        """A model without a rate-from-current override takes the same rule.

        The default ``state_derivative_from_current`` re-solves the current,
        so these numbers pin the switching-time rule on that path.
        """
        crossbar = CrossbarArray(geometry=paper_geometry, model=LinearIonDriftModel())
        pattern = single_aggressor(paper_geometry)
        config = AttackConfig(
            aggressors=[pattern.aggressors[0]], victim=pattern.victim,
            pulse=PulseConfig(length_s=1e-3), max_pulses=20_000,
        )
        result = NeuroHammer(crossbar).run(pattern=pattern, config=config)
        assert result.flipped
        assert result.pulses == 7634
        assert result.stress_time_s == pytest.approx(7.634, rel=1e-12)
        assert result.victim_final_x == 0.5
        assert result.victim_temperature_k == pytest.approx(413.7652183336684, rel=1e-12)


#: The attack points whose biased time to flip the rule must resolve:
#: (pulse length [s], ambient [K], pattern).
ACCURACY_POINTS = {
    "fig3a_10ns": (10e-9, 300.0, "single"),
    "fig3a_50ns": (50e-9, 300.0, "single"),
    "fig3a_100ns": (100e-9, 300.0, "single"),
    "fig3c_273K": (50e-9, 273.0, "single"),
    "fig3c_373K": (50e-9, 373.0, "single"),
    "quad": (50e-9, 300.0, "quad"),
}
#: The coarse step in x of the forward-Euler reference; it also runs at half
#: this step.
EULER_STEP = 1e-3
THRESHOLD = 0.5


def attack_run(length_s, ambient_k, pattern_name):
    """One run of an attack at 1.05 V; its result carries the steady state."""
    geometry = CrossbarGeometry()
    crossbar = CrossbarArray(geometry=geometry, ambient_temperature_k=ambient_k)
    config = AttackConfig(
        pulse=PulseConfig(amplitude_v=1.05, length_s=length_s), ambient_temperature_k=ambient_k
    )
    pattern = standard_patterns(geometry)[pattern_name]
    return NeuroHammer(crossbar).run(pattern=pattern, config=config)


def extrapolated_rounds(round_rate):
    """Richardson-extrapolated forward-Euler rounds at x = h, 2h, ..., threshold.

    ``round_rate`` holds dx per round on the grid x = 0, h/2, h, ...  Euler
    with a fixed step in x takes each step at the rate of its start, so its
    time is the left Riemann sum of dx / rate, whose error is first order in
    the step; twice the half-step sum minus the full-step sum cancels it.
    """
    fine = np.cumsum(0.5 * EULER_STEP / round_rate)
    coarse = np.cumsum(EULER_STEP / round_rate[::2])
    return 2.0 * fine[1::2] - coarse


class TestSwitchingTimeAccuracy:
    """The quadrature rule against a fine-step forward-Euler limit."""

    @pytest.fixture(scope="class")
    def jart_points(self):
        """Each point's run and Euler reference, from one batched solve."""
        from repro.montecarlo import VectorizedJartVcm, solve_operating_point_batch

        grid = np.arange(0.0, THRESHOLD, 0.5 * EULER_STEP)
        cases = {name: attack_run(*point) for name, point in ACCURACY_POINTS.items()}
        phases = [(name, point) for name, result in cases.items() for point in result.phase_points]
        voltage = np.concatenate([np.full(grid.size, p.victim_voltage_v) for _, p in phases])
        crosstalk = np.concatenate([np.full(grid.size, p.victim_crosstalk_k) for _, p in phases])
        ambient = np.concatenate(
            [np.full(grid.size, ACCURACY_POINTS[name][1]) for name, _ in phases]
        )
        x = np.tile(grid, len(phases))
        kernel = VectorizedJartVcm(x.size)
        solved = solve_operating_point_batch(kernel, voltage, x, ambient, crosstalk)
        rates = kernel.state_derivative(voltage, x, solved.filament_temperature_k)
        round_rate = {name: np.zeros(grid.size) for name in cases}
        for (name, _), rate in zip(phases, rates.reshape(len(phases), grid.size)):
            round_rate[name] += np.maximum(rate, 0.0) * ACCURACY_POINTS[name][0]
        return {
            name: (result, extrapolated_rounds(round_rate[name]))
            for name, result in cases.items()
        }

    @pytest.mark.parametrize("name", list(ACCURACY_POINTS))
    def test_rounds_to_flip_match_the_euler_limit(self, jart_points, name):
        result, reference = jart_points[name]
        length_s, _, _ = ACCURACY_POINTS[name]
        rule = result.steady_state.rounds_to_flip(length_s, math.inf)
        assert rule.switched[0]
        assert abs(rule.time[0] / reference[-1] - 1.0) < 5e-4
        # The campaign pulses every phase for each whole round the rule counts.
        assert result.pulses == math.ceil(rule.time[0]) * len(result.phase_points)

    @pytest.mark.parametrize("name", ["fig3a_50ns", "fig3c_373K", "quad"])
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_budget_limited_state_matches_the_euler_limit(self, jart_points, name, fraction):
        result, reference = jart_points[name]
        length_s, _, _ = ACCURACY_POINTS[name]
        budget = math.floor(fraction * reference[-1])
        rule = result.steady_state.rounds_to_flip(length_s, budget)
        assert not rule.switched[0]
        ends = EULER_STEP * np.arange(reference.size + 1)
        expected = np.interp(budget, np.concatenate([[0.0], reference]), ends)
        assert abs(rule.final_x[0] - expected) < 1e-3

    def test_linear_ion_drift_rounds_match_the_euler_limit(self, paper_geometry):
        attack = NeuroHammer(CrossbarArray(geometry=paper_geometry, model=LinearIonDriftModel()))
        pattern = single_aggressor(paper_geometry)
        config = AttackConfig(pulse=PulseConfig(amplitude_v=1.05, length_s=1e-3))
        steady = attack.run(pattern=pattern, config=config).steady_state
        point = steady.phase_points[0]
        grid = np.arange(0.0, THRESHOLD, 0.5 * EULER_STEP)
        rate = [attack._victim_rate(attack.crossbar.model, point, x, 300.0)[0] for x in grid]
        reference = extrapolated_rounds(np.asarray(rate) * 1e-3)
        rule = steady.rounds_to_flip(1e-3, math.inf)
        assert abs(rule.time[0] / reference[-1] - 1.0) < 5e-4

    def test_fig3a_victim_flips_after_the_converged_pulse_count(self):
        assert hammer_once(pulse_length_s=50e-9).pulses in (5409, 5410)


class TestAnalysisHelpers:
    def test_switching_rate_monotone_in_temperature(self, jart_model):
        assert switching_rate(jart_model, 0.525, 400.0) > switching_rate(jart_model, 0.525, 320.0)

    def test_acceleration_factor_large_at_victim_temperature(self, jart_model):
        factor = thermal_acceleration_factor(jart_model, 0.525, hot_temperature_k=375.0)
        assert factor > 100.0

    def test_acceleration_factor_is_one_without_heating(self, jart_model):
        assert thermal_acceleration_factor(jart_model, 0.525, hot_temperature_k=300.0) == pytest.approx(1.0)

    def test_minimum_alpha_bisects(self, jart_model):
        alpha = minimum_alpha_to_flip(
            jart_model, pulse_length_s=50e-9, pulse_budget=10_000, aggressor_rise_k=650.0
        )
        assert alpha is not None
        assert 0.0 < alpha < 0.5
        # A bigger budget needs less coupling.
        relaxed = minimum_alpha_to_flip(
            jart_model, pulse_length_s=50e-9, pulse_budget=1_000_000, aggressor_rise_k=650.0
        )
        assert relaxed < alpha

    def test_minimum_alpha_rejects_bad_budget(self, jart_model):
        with pytest.raises(AttackError):
            minimum_alpha_to_flip(jart_model, 50e-9, 0, 650.0)

    def test_narrative_is_consistent(self):
        narrative = narrate_attack(pulse_length_s=50e-9)
        assert narrative.aggressor_temperature_k > 800.0
        assert narrative.victim_crosstalk_k > 40.0
        assert narrative.acceleration_factor > 100.0
        assert narrative.pulses_to_flip * narrative.pulse_length_s == pytest.approx(
            narrative.time_to_flip_s, rel=0.05
        )
        assert len(narrative.as_lines()) == 4
