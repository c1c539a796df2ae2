"""Tests for the configuration dataclasses."""

from __future__ import annotations

import pytest

from repro.config import (
    AttackConfig,
    CrossbarGeometry,
    PulseConfig,
    SimulationConfig,
    ThermalSolverConfig,
    WireParameters,
)
from repro.errors import ConfigurationError, GeometryError


class TestCrossbarGeometry:
    def test_defaults_match_paper_setup(self):
        geometry = CrossbarGeometry()
        assert geometry.rows == 5
        assert geometry.columns == 5
        assert geometry.electrode_spacing_m == pytest.approx(50e-9)
        assert geometry.filament_radius_m == pytest.approx(15e-9)
        assert geometry.filament_height_m == pytest.approx(5e-9)

    def test_pitch_is_width_plus_spacing(self):
        geometry = CrossbarGeometry(electrode_width_m=40e-9, electrode_spacing_m=60e-9)
        assert geometry.pitch_m == pytest.approx(100e-9)

    def test_cell_count(self):
        assert CrossbarGeometry(rows=3, columns=7).cell_count == 21

    def test_centre_cell(self):
        assert CrossbarGeometry().centre_cell() == (2, 2)
        assert CrossbarGeometry(rows=3, columns=3).centre_cell() == (1, 1)

    def test_cell_centre_coordinates(self):
        geometry = CrossbarGeometry()
        x, y = geometry.cell_centre(0, 0)
        assert x == pytest.approx(geometry.pitch_m / 2)
        assert y == pytest.approx(geometry.pitch_m / 2)

    def test_cell_distance_symmetric(self):
        geometry = CrossbarGeometry()
        assert geometry.cell_distance((0, 0), (2, 2)) == pytest.approx(
            geometry.cell_distance((2, 2), (0, 0))
        )

    def test_nearest_neighbour_distance_is_pitch(self):
        geometry = CrossbarGeometry()
        assert geometry.cell_distance((2, 2), (2, 3)) == pytest.approx(geometry.pitch_m)

    def test_validate_cell_rejects_out_of_range(self):
        geometry = CrossbarGeometry()
        with pytest.raises(GeometryError):
            geometry.validate_cell(5, 0)
        with pytest.raises(GeometryError):
            geometry.validate_cell(0, -1)

    def test_iter_cells_row_major(self):
        cells = list(CrossbarGeometry(rows=2, columns=2).iter_cells())
        assert cells == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_rejects_zero_rows(self):
        with pytest.raises(GeometryError):
            CrossbarGeometry(rows=0)

    def test_rejects_negative_spacing(self):
        with pytest.raises(GeometryError):
            CrossbarGeometry(electrode_spacing_m=-1e-9)

    def test_rejects_filament_wider_than_electrode(self):
        with pytest.raises(GeometryError):
            CrossbarGeometry(filament_radius_m=40e-9, electrode_width_m=50e-9)

    def test_json_round_trip(self, tmp_path):
        geometry = CrossbarGeometry(rows=4, columns=6, electrode_spacing_m=20e-9)
        path = tmp_path / "geometry.json"
        geometry.to_json(path)
        restored = CrossbarGeometry.from_json(path)
        assert restored == geometry

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            CrossbarGeometry.from_dict({"rows": 3, "bogus": 1})


class TestPulseConfig:
    def test_defaults(self):
        pulse = PulseConfig()
        assert pulse.amplitude_v == pytest.approx(1.05)
        assert pulse.duty_cycle == pytest.approx(0.5)

    def test_period_and_idle(self):
        pulse = PulseConfig(length_s=50e-9, duty_cycle=0.25)
        assert pulse.period_s == pytest.approx(200e-9)
        assert pulse.idle_s == pytest.approx(150e-9)

    def test_full_duty_cycle_has_no_idle(self):
        pulse = PulseConfig(length_s=10e-9, duty_cycle=1.0)
        assert pulse.idle_s == pytest.approx(0.0)

    def test_rejects_zero_length(self):
        with pytest.raises(ConfigurationError):
            PulseConfig(length_s=0.0)

    def test_rejects_bad_duty_cycle(self):
        with pytest.raises(ConfigurationError):
            PulseConfig(duty_cycle=0.0)
        with pytest.raises(ConfigurationError):
            PulseConfig(duty_cycle=1.5)


class TestAttackConfig:
    def test_defaults_target_centre_cell(self):
        config = AttackConfig()
        assert config.aggressors == [(2, 2)]
        assert config.bias_scheme == "v_half"

    def test_victim_cannot_be_aggressor(self):
        with pytest.raises(ConfigurationError):
            AttackConfig(aggressors=[(2, 2)], victim=(2, 2))

    def test_rejects_empty_aggressors(self):
        with pytest.raises(ConfigurationError):
            AttackConfig(aggressors=[])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            AttackConfig(bias_scheme="v_quarter")

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            AttackConfig(flip_threshold=0.0)

    def test_nested_pulse_from_dict(self):
        config = AttackConfig.from_dict(
            {"aggressors": [[1, 1]], "pulse": {"length_s": 1e-8}, "victim": [1, 2]}
        )
        assert isinstance(config.pulse, PulseConfig)
        assert config.pulse.length_s == pytest.approx(1e-8)
        assert config.aggressors == [(1, 1)]
        assert config.victim == (1, 2)


class TestWireParameters:
    def test_defaults_positive(self):
        wires = WireParameters()
        assert wires.segment_resistance_ohm > 0
        assert wires.driver_resistance_ohm > 0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            WireParameters(segment_resistance_ohm=-1.0)


class TestThermalSolverConfig:
    def test_rejects_bad_resolution(self):
        with pytest.raises(ConfigurationError):
            ThermalSolverConfig(lateral_resolution_m=0.0)


class TestSimulationConfig:
    def test_nested_round_trip(self):
        config = SimulationConfig()
        restored = SimulationConfig.from_dict(config.to_dict())
        assert restored.geometry == config.geometry
        assert restored.wires == config.wires

    def test_rejects_a_thermal_section(self):
        # The quasi-static job reads no finite-volume setting, so a spec that
        # carries one fails loudly instead of being hashed and ignored.
        with pytest.raises(ConfigurationError):
            SimulationConfig.from_dict({"thermal": {}})
