"""Tests for the CrossbarArray, the crosstalk hub and the thermal snapshot."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attack.patterns import standard_patterns
from repro.circuit import CrossbarArray, CrossbarSolver, CrosstalkHub, idle_bias, write_bias
from repro.circuit.crossbar import LOOSE_SOLVE_STOP
from repro.circuit.solver import CHORD_STOP_FRACTION
from repro.config import CrossbarGeometry
from repro.errors import ConfigurationError, GeometryError
from repro.obs import AuditTrail, Telemetry, telemetry_capture
from repro.thermal import AnalyticCouplingModel, UniformCouplingModel


def _picard_probes():
    """(geometry, LRS cells, driven cells, amplitude [V], ambient [K]).

    The 3x3 flip-probability map grid, every phase of the 5x5 Fig. 3d
    patterns at three ambients, and 16x16 corner and centre aggressors.
    """
    small = CrossbarGeometry(rows=3, columns=3)
    for amplitude in (0.7, 0.8, 0.9, 1.0, 1.1, 1.2):
        for ambient in (250.0, 280.0, 310.0, 340.0):
            yield pytest.param(small, [(1, 1)], [(1, 1)], amplitude, ambient,
                               id=f"map-{amplitude}V-{ambient:g}K")
    paper = CrossbarGeometry()
    large = CrossbarGeometry(rows=16, columns=16)
    for ambient in (250.0, 300.0, 380.0):
        for name, pattern in standard_patterns(paper).items():
            for index, phase in enumerate(pattern.phases):
                yield pytest.param(paper, pattern.aggressors, phase.aggressors, 1.05, ambient,
                                   id=f"5x5-{name}-{index}-{ambient:g}K")
        for row, column in ((0, 0), (8, 8)):
            cells = [(row, column)]
            yield pytest.param(large, cells, cells, 1.05, ambient,
                               id=f"16x16-{row}-{column}-{ambient:g}K")


def plain_picard_field(crossbar, bias, iterates=40):
    """The fixed-point temperature field by plain Picard, T <- G(T).

    Written out here, independently of ``thermal_snapshot``: solve, apply the
    hub to the self-heating rises, update every filament temperature.
    """
    ambient = crossbar.ambient_temperature_k
    rth = crossbar.model.thermal_resistance_k_per_w()
    for _ in range(iterates):
        rise = rth * crossbar.solve_bias(bias).device_powers_w
        field = ambient + rise + crossbar.hub.additional_temperatures(ambient + rise)
        crossbar.state.temperature_k[...] = field
    return field


def spied_snapshot(crossbar, bias, **kwargs):
    """A snapshot, its telemetry counters, and the field and stop of each of
    its nodal solves."""
    solves = []
    solve = crossbar.solver.solve

    def spy(bias, states, **options):
        solves.append((states.temperature_k.copy(), options.get("stop")))
        return solve(bias, states, **options)

    crossbar.solver.solve = spy
    try:
        with telemetry_capture() as tel:
            snapshot = crossbar.thermal_snapshot(bias, **kwargs)
    finally:
        del crossbar.solver.solve
    return snapshot, tel.counters, solves


def assert_tight_operating_point(crossbar, bias, snapshot, solves):
    """The returned operating point comes from a solve at the solver's own
    stop, and matches a fresh solve at the field it was solved at."""
    field, stop = solves[-1]
    assert stop is None
    op = snapshot.operating_point
    assert op.residual_a < crossbar.solver.residual_tolerance_a
    states = crossbar.state.copy()
    states.temperature_k[...] = field
    fresh = CrossbarSolver(crossbar.netlist, crossbar.model).solve(bias, states)
    np.testing.assert_allclose(
        op.device_voltages_v, fresh.device_voltages_v, rtol=1e-9, atol=1e-12
    )
    np.testing.assert_allclose(
        op.device_currents_a, fresh.device_currents_a, rtol=1e-9, atol=1e-15
    )


class TestCrosstalkHub:
    @pytest.fixture
    def hub(self, paper_geometry):
        return CrosstalkHub(AnalyticCouplingModel(paper_geometry), 300.0)

    def test_cold_array_produces_no_crosstalk(self, hub):
        temperatures = np.full((5, 5), 300.0)
        assert np.allclose(hub.additional_temperatures(temperatures), 0.0)

    def test_single_hot_cell_heats_neighbours(self, hub):
        temperatures = np.full((5, 5), 300.0)
        temperatures[2, 2] = 950.0
        additional = hub.additional_temperatures(temperatures)
        assert additional[2, 2] == pytest.approx(0.0)
        assert additional[2, 3] == pytest.approx(0.115 * 650.0, rel=0.1)
        assert additional[0, 0] < additional[2, 3]

    def test_contributions_add_linearly(self, hub):
        base = np.full((5, 5), 300.0)
        one = base.copy(); one[2, 1] = 800.0
        other = base.copy(); other[2, 3] = 800.0
        both = base.copy(); both[2, 1] = 800.0; both[2, 3] = 800.0
        combined = hub.additional_temperatures(both)
        summed = hub.additional_temperatures(one) + hub.additional_temperatures(other)
        assert np.allclose(combined, summed)

    def test_aggressor_contribution_helper(self, hub):
        value = hub.aggressor_contribution((2, 2), (2, 3), 950.0)
        assert value == pytest.approx(0.115 * 650.0, rel=0.1)

    def test_cells_below_ambient_are_clamped(self, hub):
        temperatures = np.full((5, 5), 280.0)
        assert np.allclose(hub.additional_temperatures(temperatures), 0.0)

    def test_shape_mismatch_rejected(self, hub):
        with pytest.raises(ConfigurationError):
            hub.additional_temperatures(np.full((3, 3), 300.0))


class TestCrossbarArrayState:
    def test_initial_state_is_hrs(self, small_crossbar):
        assert np.allclose(small_crossbar.state_map(), 0.0)
        assert np.all(small_crossbar.bit_map() == 0)

    def test_set_and_get_state(self, small_crossbar):
        small_crossbar.set_state((1, 1), 0.8)
        assert small_crossbar.get_state((1, 1)).x == pytest.approx(0.8)

    def test_set_state_clamps(self, small_crossbar):
        small_crossbar.set_state((0, 0), 1.7)
        assert small_crossbar.get_state((0, 0)).x == 1.0

    def test_bit_round_trip(self, small_crossbar):
        small_crossbar.set_bit((2, 2), 1)
        assert small_crossbar.get_bit((2, 2)) == 1
        small_crossbar.set_bit((2, 2), 0)
        assert small_crossbar.get_bit((2, 2)) == 0

    def test_initialise_bits_pattern(self, small_crossbar):
        pattern = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1]])
        small_crossbar.initialise_bits(pattern)
        assert np.array_equal(small_crossbar.bit_map(), pattern)

    def test_initialise_bits_rejects_wrong_shape(self, small_crossbar):
        with pytest.raises(ConfigurationError):
            small_crossbar.initialise_bits(np.zeros((2, 2), dtype=int))

    def test_get_state_is_a_detached_copy(self, small_crossbar):
        small_crossbar.set_state((1, 1), 0.8)
        state = small_crossbar.get_state((1, 1))
        state.x = 0.1
        state.filament_temperature_k = 900.0
        assert small_crossbar.get_state((1, 1)).x == pytest.approx(0.8)
        assert small_crossbar.state.temperature_k[1, 1] == small_crossbar.ambient_temperature_k

    def test_copy_and_restore_states(self, small_crossbar):
        small_crossbar.set_state((0, 1), 0.6)
        snapshot = small_crossbar.copy_state_arrays()
        small_crossbar.set_state((0, 1), 0.1)
        small_crossbar.restore_states(snapshot)
        assert small_crossbar.get_state((0, 1)).x == pytest.approx(0.6)

    def test_out_of_range_cell_rejected(self, small_crossbar):
        with pytest.raises(GeometryError):
            small_crossbar.set_state((5, 5), 1.0)

    def test_coupling_geometry_mismatch_rejected(self, paper_geometry):
        wrong = AnalyticCouplingModel(CrossbarGeometry(rows=3, columns=3))
        with pytest.raises(GeometryError):
            CrossbarArray(geometry=paper_geometry, coupling=wrong)


class TestThermalSnapshot:
    def test_reproduces_fig2a_operating_point(self, paper_crossbar):
        paper_crossbar.set_state((2, 2), 1.0)
        bias = write_bias(paper_crossbar.geometry, [(2, 2)], 1.05)
        snapshot = paper_crossbar.thermal_snapshot(bias)
        assert 800.0 < snapshot.cell_temperature((2, 2)) < 1050.0
        assert 340.0 < snapshot.cell_temperature((2, 3)) < 420.0
        assert snapshot.cell_temperature((0, 0)) < snapshot.cell_temperature((2, 3))

    def test_snapshot_updates_device_temperatures(self, paper_crossbar):
        paper_crossbar.set_state((2, 2), 1.0)
        bias = write_bias(paper_crossbar.geometry, [(2, 2)], 1.05)
        snapshot = paper_crossbar.thermal_snapshot(bias)
        assert paper_crossbar.get_state((2, 2)).filament_temperature_k == pytest.approx(
            snapshot.cell_temperature((2, 2))
        )
        paper_crossbar.reset_temperatures()
        assert paper_crossbar.get_state((2, 2)).filament_temperature_k == pytest.approx(300.0)

    def test_crosstalk_separated_from_self_heating(self, paper_crossbar):
        paper_crossbar.set_state((2, 2), 1.0)
        bias = write_bias(paper_crossbar.geometry, [(2, 2)], 1.05)
        snapshot = paper_crossbar.thermal_snapshot(bias)
        # The victim's temperature is dominated by crosstalk, the aggressor's
        # by its own dissipation.
        victim_crosstalk = snapshot.crosstalk_temperatures_k[2, 3]
        victim_rise = snapshot.cell_temperature((2, 3)) - 300.0
        assert victim_crosstalk == pytest.approx(victim_rise, abs=10.0)
        aggressor_crosstalk = snapshot.crosstalk_temperatures_k[2, 2]
        aggressor_rise = snapshot.cell_temperature((2, 2)) - 300.0
        assert aggressor_crosstalk < 0.1 * aggressor_rise

    def test_idle_bias_keeps_array_at_ambient(self, small_crossbar):
        snapshot = small_crossbar.thermal_snapshot(idle_bias(small_crossbar.geometry))
        assert np.allclose(snapshot.filament_temperatures_k, 300.0, atol=1.0)

    def test_uniform_coupling_alternative(self, small_geometry):
        crossbar = CrossbarArray(
            geometry=small_geometry, coupling=UniformCouplingModel(small_geometry, alpha=0.2)
        )
        crossbar.set_state((1, 1), 1.0)
        bias = write_bias(small_geometry, [(1, 1)], 1.05)
        snapshot = crossbar.thermal_snapshot(bias)
        assert snapshot.cell_temperature((1, 2)) > 350.0
        # Diagonal neighbours receive no direct aggressor coupling under the
        # uniform model; only the (sub-kelvin) self-heating of half-selected
        # cells leaks through to them.
        assert snapshot.crosstalk_temperatures_k[0, 0] < 1.0
        assert snapshot.crosstalk_temperatures_k[0, 0] < 0.05 * snapshot.crosstalk_temperatures_k[1, 2]

    def test_converged_exit_is_reported(self, paper_crossbar):
        paper_crossbar.set_state((2, 2), 1.0)
        bias = write_bias(paper_crossbar.geometry, [(2, 2)], 1.05)
        with telemetry_capture() as tel:
            snapshot = paper_crossbar.thermal_snapshot(bias)
        assert snapshot.converged
        assert snapshot.iterations == 4 == tel.counters["solver.solves"]
        assert tel.counters.get("thermal.picard.unconverged", 0) == 0
        # Solving every step to the solver's own stop took 16 chord steps;
        # the three loose solves before the last leave 10.
        assert tel.counters["solver.iterations"] <= 10

    def test_loose_solves_precede_one_tight_solve(self, paper_crossbar):
        """Each solve's audit record names the stop it met."""
        paper_crossbar.set_state((2, 2), 1.0)
        bias = write_bias(paper_crossbar.geometry, [(2, 2)], 1.05)
        trail = AuditTrail()
        with telemetry_capture(Telemetry(audit=trail)):
            paper_crossbar.thermal_snapshot(bias)
        solver = paper_crossbar.solver
        tight = (CHORD_STOP_FRACTION * solver.voltage_tolerance_v, solver.residual_tolerance_a)
        stops = [
            (record["meta"]["stop_step_v"], record["meta"]["stop_residual_a"])
            for record in trail.records()
            if record["stage"] == "solver.operating_point"
        ]
        assert stops == [LOOSE_SOLVE_STOP] * 3 + [tight]

    def test_a_field_left_warm_is_solved_tightly_first(self, paper_crossbar):
        """An earlier snapshot leaves the field near this one's fixed point,
        so the image of the first solve is the one the loop returns from."""
        paper_crossbar.set_state((2, 2), 1.0)
        bias = write_bias(paper_crossbar.geometry, [(2, 2)], 1.05)
        paper_crossbar.thermal_snapshot(bias)
        snapshot, _, solves = spied_snapshot(paper_crossbar, bias)
        assert snapshot.converged and snapshot.iterations == 2
        assert [stop for _, stop in solves] == [None, None]
        idle, _, _ = spied_snapshot(paper_crossbar, idle_bias(paper_crossbar.geometry))
        assert idle.converged and idle.iterations == 1

    def test_a_loose_solve_that_meets_the_tolerance_is_solved_again_tightly(self, small_crossbar):
        """An idle array meets the tolerance on its first, loose solve; the
        snapshot re-solves tightly at the same field and returns that."""
        bias = idle_bias(small_crossbar.geometry)
        snapshot, counters, solves = spied_snapshot(small_crossbar, bias)
        assert snapshot.converged and snapshot.iterations == 2 == counters["solver.solves"]
        assert [stop for _, stop in solves] == [LOOSE_SOLVE_STOP, None]
        np.testing.assert_array_equal(solves[0][0], solves[1][0])
        assert_tight_operating_point(small_crossbar, bias, snapshot, solves)

    @pytest.mark.parametrize(
        "geometry, lrs_cells, driven, amplitude_v, ambient_k", list(_picard_probes())
    )
    def test_converges_in_four_solves_to_the_fixed_point(
        self, geometry, lrs_cells, driven, amplitude_v, ambient_k
    ):
        def prepared():
            crossbar = CrossbarArray(geometry=geometry, ambient_temperature_k=ambient_k)
            for cell in lrs_cells:
                crossbar.set_state(cell, 1.0)
            return crossbar

        bias = write_bias(geometry, driven, amplitude_v)
        crossbar = prepared()
        snapshot, counters, solves = spied_snapshot(crossbar, bias)
        assert snapshot.converged
        assert snapshot.iterations == counters["solver.solves"] <= 4
        assert "numerics.residual_anomalies" not in counters
        assert "numerics.iteration_pressure" not in counters
        assert_tight_operating_point(crossbar, bias, snapshot, solves)
        reference = plain_picard_field(prepared(), bias)
        np.testing.assert_allclose(snapshot.filament_temperatures_k, reference, rtol=0.0, atol=0.25)

    def test_iteration_cap_exit_is_reported(self, paper_crossbar):
        paper_crossbar.set_state((2, 2), 1.0)
        bias = write_bias(paper_crossbar.geometry, [(2, 2)], 1.05)
        snapshot, counters, solves = spied_snapshot(paper_crossbar, bias, max_iterations=2)
        assert not snapshot.converged
        assert snapshot.iterations == 2 == counters["solver.solves"]
        assert counters["thermal.picard.unconverged"] == 1
        assert "numerics.residual_anomalies" not in counters
        assert "numerics.iteration_pressure" not in counters
        assert_tight_operating_point(paper_crossbar, bias, snapshot, solves)
        # The last iterate is still returned: ~886 K against a converged ~906 K.
        assert snapshot.cell_temperature((2, 2)) < 900.0

    def test_invalid_iteration_count_rejected(self, small_crossbar):
        with pytest.raises(ConfigurationError):
            small_crossbar.thermal_snapshot(idle_bias(small_crossbar.geometry), max_iterations=0)
