"""Tests for the crossbar netlist and the nonlinear nodal solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import (
    BiasPattern,
    CrossbarSolver,
    build_crossbar_netlist,
    write_bias,
)
from repro.circuit.reference import expand_crossbar_netlist
from repro.config import CrossbarGeometry, WireParameters
from repro.devices import DeviceStateArrays, JartVcmModel, LinearIonDriftModel


def uniform_states(geometry, state):
    """Every cell of ``geometry`` in ``state``."""
    return DeviceStateArrays(
        geometry.rows, geometry.columns, x=state.x, temperature_k=state.filament_temperature_k
    )


def reference_indices(expanded):
    """The seed expansion's elements as node-index arrays."""
    index = {name: i for i, name in enumerate(expanded.nodes)}
    return {
        "device_wordline": [index[wordline] for _, wordline, _ in expanded.devices],
        "device_bitline": [index[bitline] for _, _, bitline in expanded.devices],
        "device_rows": [cell[0] for cell, _, _ in expanded.devices],
        "device_cols": [cell[1] for cell, _, _ in expanded.devices],
        "segment_a": [index[a] for a, _, _ in expanded.segments],
        "segment_b": [index[b] for _, b, _ in expanded.segments],
        "driver_nodes": [index[node] for _, _, node, _ in expanded.drivers],
    }


class TestNetlist:
    def test_node_and_element_counts(self, small_geometry):
        netlist = build_crossbar_netlist(small_geometry)
        rows, columns = small_geometry.rows, small_geometry.columns
        # One driver node + one crosspoint node per line element.
        assert netlist.node_count == rows * (columns + 1) + columns * (rows + 1)
        # Names are made on the first lookup by name, then cached.
        assert "nodes" not in vars(netlist)
        assert len(netlist.nodes) == netlist.node_count
        assert netlist.nodes is netlist.nodes
        assert netlist.device_wordline.size == netlist.device_bitline.size == rows * columns
        assert netlist.segment_a.size == netlist.segment_b.size == rows * columns * 2
        assert netlist.driver_nodes.size == rows + columns

    def test_device_lookup(self, small_geometry):
        netlist = build_crossbar_netlist(small_geometry)
        k = 1 * small_geometry.columns + 2  # row-major device order
        assert (netlist.device_rows[k], netlist.device_cols[k]) == (1, 2)
        assert netlist.nodes[netlist.device_wordline[k]] == "wl_1_2"
        assert netlist.nodes[netlist.device_bitline[k]] == "bl_1_2"

    def test_driver_lookup(self, small_geometry):
        netlist = build_crossbar_netlist(small_geometry)
        assert netlist.nodes[netlist.driver_nodes[1]] == "row_drv_1"
        assert netlist.nodes[netlist.driver_nodes[small_geometry.rows + 1]] == "col_drv_1"
        with pytest.raises(KeyError):
            netlist.node_index["row_drv_9"]

    def test_out_of_range_device_rejected(self, small_geometry):
        netlist = build_crossbar_netlist(small_geometry)
        with pytest.raises(KeyError):
            netlist.node_index["wl_5_5"]

    def test_wire_parameters_respected(self, small_geometry):
        wires = WireParameters(segment_resistance_ohm=7.0, driver_resistance_ohm=120.0)
        netlist = build_crossbar_netlist(small_geometry, wires)
        assert netlist.segment_conductance_s == pytest.approx(1.0 / 7.0)
        assert netlist.driver_conductance_s == pytest.approx(1.0 / 120.0)

    def test_resistor_conductance(self, small_geometry):
        # Ideal wires keep a finite conductance (1e-6 ohm / 1e-3 ohm floors).
        wires = WireParameters(segment_resistance_ohm=0.0, driver_resistance_ohm=0.0)
        netlist = build_crossbar_netlist(small_geometry, wires)
        assert netlist.segment_conductance_s == pytest.approx(1e6)
        assert netlist.driver_conductance_s == pytest.approx(1e3)

    @pytest.mark.parametrize("rows,columns", [(1, 4), (4, 1), (3, 5), (5, 3), (5, 5)])
    def test_matches_the_reference_expansion(self, rows, columns):
        """Differential check against the oracle's own per-element builder."""
        geometry = CrossbarGeometry(rows=rows, columns=columns)
        wires = WireParameters(segment_resistance_ohm=7.0, driver_resistance_ohm=120.0)
        netlist = build_crossbar_netlist(geometry, wires)
        expanded = expand_crossbar_netlist(geometry, wires)

        assert netlist.nodes == expanded.nodes
        for name, expected in reference_indices(expanded).items():
            np.testing.assert_array_equal(getattr(netlist, name), expected, err_msg=name)
        assert {g for _, _, g in expanded.segments} == {netlist.segment_conductance_s}
        assert {g for *_, g in expanded.drivers} == {netlist.driver_conductance_s}


class TestSolver:
    @pytest.fixture
    def solver(self, small_geometry):
        netlist = build_crossbar_netlist(small_geometry)
        return CrossbarSolver(netlist, JartVcmModel()), small_geometry

    def _hrs_states(self, geometry):
        return uniform_states(geometry, JartVcmModel().hrs_state())

    def test_selected_cell_sees_nearly_full_voltage(self, solver):
        engine, geometry = solver
        states = self._hrs_states(geometry)
        op = engine.solve(write_bias(geometry, [(1, 1)], 1.05), states)
        assert op.cell_voltage((1, 1)) == pytest.approx(1.05, abs=0.05)

    def test_half_selected_cells_see_half_voltage(self, solver):
        engine, geometry = solver
        states = self._hrs_states(geometry)
        op = engine.solve(write_bias(geometry, [(1, 1)], 1.05), states)
        assert op.cell_voltage((1, 2)) == pytest.approx(0.525, abs=0.05)
        assert op.cell_voltage((0, 1)) == pytest.approx(0.525, abs=0.05)

    def test_unselected_cells_see_no_voltage(self, solver):
        engine, geometry = solver
        states = self._hrs_states(geometry)
        op = engine.solve(write_bias(geometry, [(1, 1)], 1.05), states)
        assert abs(op.cell_voltage((0, 0))) < 0.05

    def test_kcl_residual_small(self, solver):
        engine, geometry = solver
        states = self._hrs_states(geometry)
        op = engine.solve(write_bias(geometry, [(1, 1)], 1.05), states)
        assert op.residual_a < 1e-9

    def test_lrs_aggressor_draws_more_current(self, solver):
        engine, geometry = solver
        states = self._hrs_states(geometry)
        bias = write_bias(geometry, [(1, 1)], 1.05)
        hrs_current = engine.solve(bias, states).cell_current((1, 1))
        lrs = JartVcmModel().lrs_state()
        states.x[1, 1] = lrs.x
        states.temperature_k[1, 1] = lrs.filament_temperature_k
        lrs_current = engine.solve(bias, states).cell_current((1, 1))
        assert lrs_current > 50.0 * hrs_current

    def test_wire_resistance_causes_ir_drop(self, small_geometry):
        lossy = CrossbarSolver(
            build_crossbar_netlist(small_geometry, WireParameters(segment_resistance_ohm=200.0, driver_resistance_ohm=500.0)),
            JartVcmModel(),
        )
        model = JartVcmModel()
        states = uniform_states(small_geometry, model.lrs_state())
        op = lossy.solve(write_bias(small_geometry, [(1, 1)], 1.05), states)
        assert op.cell_voltage((1, 1)) < 1.0

    def test_floating_lines_allowed(self, solver):
        engine, geometry = solver
        states = self._hrs_states(geometry)
        bias = BiasPattern(row_voltages_v={1: 1.0}, column_voltages_v={1: 0.0})
        op = engine.solve(bias, states)
        assert op.cell_voltage((1, 1)) == pytest.approx(1.0, abs=0.05)
        # Cells on floating lines float near the driven potential's divider.
        assert -1.0 <= op.cell_voltage((0, 0)) <= 1.0

    def test_power_is_voltage_times_current(self, solver):
        engine, geometry = solver
        states = self._hrs_states(geometry)
        op = engine.solve(write_bias(geometry, [(1, 1)], 1.05), states)
        assert op.cell_power((1, 1)) == pytest.approx(
            abs(op.cell_voltage((1, 1)) * op.cell_current((1, 1)))
        )
        assert op.total_power_w >= op.cell_power((1, 1))

    def test_works_with_other_device_models(self, small_geometry):
        model = LinearIonDriftModel()
        engine = CrossbarSolver(build_crossbar_netlist(small_geometry), model)
        states = uniform_states(small_geometry, model.hrs_state())
        op = engine.solve(write_bias(small_geometry, [(0, 0)], 1.0), states)
        assert op.cell_voltage((0, 0)) == pytest.approx(1.0, abs=0.05)

    def test_warm_start_reuses_previous_solution(self, solver):
        engine, geometry = solver
        states = self._hrs_states(geometry)
        bias = write_bias(geometry, [(1, 1)], 1.05)
        first = engine.solve(bias, states)
        second = engine.solve(bias, states)
        assert second.iterations <= first.iterations
        assert second.cell_voltage((1, 1)) == pytest.approx(first.cell_voltage((1, 1)), abs=1e-6)
