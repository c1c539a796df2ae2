"""Seed (pre-vectorization) reference implementations of the hot paths.

These are the original dense, per-device-Python-loop implementations of the
nodal solver and the transient stepping loop, kept verbatim so that

* the property/regression suites can validate the sparse vectorized paths
  element-for-element against the exact seed semantics, and
* ``benchmarks/bench_solver_scaling.py`` can measure the speedup against the
  honest baseline.

They are **not** used by any production path.

The oracle expands its own netlist: :func:`expand_crossbar_netlist` is the
seed per-element loop over the geometry and wire parameters, emitting named
nodes and plain element tuples.  It never reads the index arrays of
:class:`~repro.circuit.netlist.CrossbarNetlist`, so an indexing error in the
array-native build cannot hide in code both solvers share.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..config import CrossbarGeometry, WireParameters
from ..devices.base import DeviceState, DeviceStateArrays, MemristorModel, bit_from_state
from ..errors import ConvergenceError
from .crossbar import CrossbarArray
from .drivers import BiasPattern
from .netlist import GROUND_NODE, CrossbarNetlist
from .pulses import StimulusSchedule
from .solver import OperatingPoint
from .transient import BitFlipEvent, TransientResult, TransientSimulator, TransientTrace

Cell = Tuple[int, int]


class ExpandedNetlist(NamedTuple):
    """Per-element crossbar netlist of the seed builder."""

    nodes: List[str]
    #: ``(node_a, node_b, conductance_s)`` per wire segment.
    segments: List[Tuple[str, str, float]]
    #: ``(line_type, line_index, node, conductance_s)`` per line driver.
    drivers: List[Tuple[str, int, str, float]]
    #: ``(cell, wordline_node, bitline_node)`` per crosspoint device.
    devices: List[Tuple[Cell, str, str]]


def expand_crossbar_netlist(geometry: CrossbarGeometry, wires: WireParameters) -> ExpandedNetlist:
    """The seed netlist builder: one Python iteration per node and element."""
    segment_g = 1.0 / max(wires.segment_resistance_ohm, 1e-6)
    driver_g = 1.0 / max(wires.driver_resistance_ohm, 1e-3)
    expanded = ExpandedNetlist([], [], [], [])

    # Word-line chains: driver node, then one node per crosspoint.
    for row in range(geometry.rows):
        previous = f"row_drv_{row}"
        expanded.nodes.append(previous)
        expanded.drivers.append(("row", row, previous, driver_g))
        for column in range(geometry.columns):
            node = f"wl_{row}_{column}"
            expanded.nodes.append(node)
            expanded.segments.append((previous, node, segment_g))
            previous = node
    # Bit-line chains.
    for column in range(geometry.columns):
        previous = f"col_drv_{column}"
        expanded.nodes.append(previous)
        expanded.drivers.append(("column", column, previous, driver_g))
        for row in range(geometry.rows):
            node = f"bl_{row}_{column}"
            expanded.nodes.append(node)
            expanded.segments.append((previous, node, segment_g))
            previous = node
    # Crosspoint devices in row-major order.
    for row in range(geometry.rows):
        for column in range(geometry.columns):
            expanded.devices.append(((row, column), f"wl_{row}_{column}", f"bl_{row}_{column}"))
    return expanded


class ReferenceCrossbarSolver:
    """The seed dense Newton nodal solver (per-device Python stamp loops)."""

    def __init__(
        self,
        netlist: CrossbarNetlist,
        model: MemristorModel,
        max_iterations: int = 200,
        voltage_tolerance_v: float = 1e-7,
        residual_tolerance_a: float = 1e-9,
        max_step_v: float = 0.5,
    ):
        self.netlist = netlist
        self.model = model
        self.max_iterations = max_iterations
        self.voltage_tolerance_v = voltage_tolerance_v
        self.residual_tolerance_a = residual_tolerance_a
        self.max_step_v = max_step_v
        self._elements = expand_crossbar_netlist(netlist.geometry, netlist.wires)
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self._elements.nodes)}
        self._last_solution: Optional[np.ndarray] = None
        self._linear_matrix = self._assemble_linear_matrix()

    # -- assembly -----------------------------------------------------------

    def _assemble_linear_matrix(self) -> np.ndarray:
        n = len(self._index)
        matrix = np.zeros((n, n))
        for node_a, node_b, g in self._elements.segments:
            ia = self._index[node_a]
            ib = self._index[node_b]
            matrix[ia, ia] += g
            matrix[ib, ib] += g
            matrix[ia, ib] -= g
            matrix[ib, ia] -= g
        return matrix

    def _driver_stamps(self, bias: BiasPattern) -> Tuple[np.ndarray, np.ndarray]:
        n = len(self._index)
        extra_g = np.zeros(n)
        currents = np.zeros(n)
        for line_type, line_index, node, g in self._elements.drivers:
            if line_type == "row":
                voltage = bias.row_voltage(line_index)
            else:
                voltage = bias.column_voltage(line_index)
            if voltage is None:
                continue
            idx = self._index[node]
            extra_g[idx] += g
            currents[idx] += g * voltage
        return extra_g, currents

    # -- solving --------------------------------------------------------------

    def solve(self, bias: BiasPattern, states: DeviceStateArrays) -> OperatingPoint:
        n = len(self._index)
        # The seed stamp loops read one DeviceState per cell.
        cell_states = {
            cell: DeviceState(float(states.x[cell]), float(states.temperature_k[cell]))
            for cell, _, _ in self._elements.devices
        }
        extra_g, driver_currents = self._driver_stamps(bias)

        if self._last_solution is not None and len(self._last_solution) == n:
            voltages = self._last_solution.copy()
        else:
            voltages = np.zeros(n)

        device_index = [
            (cell, self._index[wordline], self._index[bitline])
            for cell, wordline, bitline in self._elements.devices
        ]

        iterations = 0
        residual = np.inf
        for iterations in range(1, self.max_iterations + 1):
            matrix = self._linear_matrix.copy()
            matrix[np.diag_indices_from(matrix)] += extra_g
            rhs = driver_currents.copy()

            for cell, iw, ib in device_index:
                state = cell_states[cell]
                branch_v = voltages[iw] - voltages[ib]
                current = self.model.current(branch_v, state)
                conductance = self.model.conductance(branch_v, state)
                equivalent = current - conductance * branch_v
                matrix[iw, iw] += conductance
                matrix[ib, ib] += conductance
                matrix[iw, ib] -= conductance
                matrix[ib, iw] -= conductance
                rhs[iw] -= equivalent
                rhs[ib] += equivalent

            new_voltages = np.linalg.solve(matrix, rhs)
            step = new_voltages - voltages
            max_step = np.abs(step).max() if len(step) else 0.0
            if max_step > self.max_step_v:
                step *= self.max_step_v / max_step
            voltages = voltages + step

            residual = self._kcl_residual(
                voltages, bias, cell_states, extra_g, driver_currents, device_index
            )
            if max_step < self.voltage_tolerance_v and residual < self.residual_tolerance_a:
                break
        else:
            raise ConvergenceError(
                f"crossbar Newton solve did not converge after {self.max_iterations} iterations "
                f"(residual {residual:.3g} A)"
            )

        self._last_solution = voltages.copy()
        return self._operating_point(voltages, cell_states, device_index, iterations, residual)

    # -- helpers ---------------------------------------------------------------

    def _kcl_residual(
        self,
        voltages: np.ndarray,
        bias: BiasPattern,
        states: Dict[Cell, DeviceState],
        extra_g: np.ndarray,
        driver_currents: np.ndarray,
        device_index,
    ) -> float:
        injection = driver_currents - extra_g * voltages
        residual = injection.copy()
        for node_a, node_b, g in self._elements.segments:
            ia = self._index[node_a]
            ib = self._index[node_b]
            current = (voltages[ia] - voltages[ib]) * g
            residual[ia] -= current
            residual[ib] += current
        for cell, iw, ib in device_index:
            branch_v = voltages[iw] - voltages[ib]
            current = self.model.current(branch_v, states[cell])
            residual[iw] -= current
            residual[ib] += current
        return float(np.abs(residual).max())

    def _operating_point(
        self,
        voltages: np.ndarray,
        states: Dict[Cell, DeviceState],
        device_index,
        iterations: int,
        residual: float,
    ) -> OperatingPoint:
        geometry = self.netlist.geometry
        device_v = np.zeros((geometry.rows, geometry.columns))
        device_i = np.zeros_like(device_v)
        for cell, iw, ib in device_index:
            branch_v = voltages[iw] - voltages[ib]
            device_v[cell] = branch_v
            device_i[cell] = self.model.current(branch_v, states[cell])
        node_voltages = {name: float(voltages[i]) for name, i in self._index.items()}
        node_voltages[GROUND_NODE] = 0.0
        return OperatingPoint(
            node_voltages_v=node_voltages,
            device_voltages_v=device_v,
            device_currents_a=device_i,
            device_powers_w=np.abs(device_v * device_i),
            iterations=iterations,
            residual_a=residual,
        )


class ReferenceTransientSimulator(TransientSimulator):
    """The seed per-cell-dict transient stepping loop.

    Runs the exact seed control flow (per-cell rate dicts, per-cell state
    advance, per-cell flip detection), one cell at a time through
    :meth:`CrossbarArray.get_state` and :attr:`CrossbarArray.state`.
    Electrical/thermal solves go through the crossbar exactly as in the
    vectorized engine, so any disagreement between the two isolates the
    transient-loop vectorization.
    """

    def run(
        self,
        schedule: StimulusSchedule,
        stop_on_flip_of: Optional[Cell] = None,
    ) -> TransientResult:
        crossbar = self.crossbar
        trace = TransientTrace()
        flips: List[BitFlipEvent] = []
        previous_bits = {
            cell: bit_from_state(crossbar.get_state(cell), threshold=self.flip_threshold)
            for cell in crossbar.cells()
        }
        time_s = 0.0
        steps = 0
        stop = False

        for segment in schedule:
            if stop:
                break
            bias = self._segment_bias(segment)
            remaining = segment.duration_s
            time_s = segment.start_s
            while remaining > 1e-21 and not stop:
                snapshot = crossbar.thermal_snapshot(bias)
                rates = self._state_rates(snapshot.operating_point.device_voltages_v)
                fastest = max((abs(rate) for rate in rates.values()), default=0.0)
                dt, divisor, factor = self._step(fastest, remaining, segment.duration_s)
                self._advance_states(rates, divisor, factor)
                time_s += dt
                remaining -= dt
                steps += 1

                new_flips = self._detect_flips(previous_bits, time_s)
                flips.extend(new_flips)
                if stop_on_flip_of is not None and any(
                    event.cell == tuple(stop_on_flip_of) for event in new_flips
                ):
                    stop = True

                if steps % self.record_every == 0 or stop or remaining <= 1e-21:
                    trace.append(
                        time_s,
                        crossbar.state_map(),
                        snapshot.filament_temperatures_k,
                        snapshot.operating_point.device_voltages_v,
                        segment.label,
                    )
            crossbar.reset_temperatures()

        return TransientResult(
            trace=trace, flip_events=flips, simulated_time_s=time_s, steps=steps
        )

    # -- seed per-cell helpers ------------------------------------------------

    def _state_rates(self, device_voltages_v: np.ndarray) -> Dict[Cell, float]:
        rates: Dict[Cell, float] = {}
        for cell in self.crossbar.cells():
            state = self.crossbar.get_state(cell)
            rates[cell] = self.crossbar.model.state_derivative(
                float(device_voltages_v[cell[0], cell[1]]), state
            )
        return rates

    def _advance_states(self, rates: Dict[Cell, float], divisor: float, factor: float) -> None:
        model = self.crossbar.model
        for cell, rate in rates.items():
            x = self.crossbar.get_state(cell).x
            self.crossbar.state.x[cell] = model.clamp_state(x + rate / divisor * factor)

    def _detect_flips(self, previous_bits: Dict[Cell, int], time_s: float) -> List[BitFlipEvent]:
        events: List[BitFlipEvent] = []
        for cell in self.crossbar.cells():
            state = self.crossbar.get_state(cell)
            bit = bit_from_state(state, threshold=self.flip_threshold)
            if bit != previous_bits[cell]:
                direction = "set" if bit == 1 else "reset"
                events.append(
                    BitFlipEvent(time_s=time_s, cell=cell, direction=direction, state_x=state.x)
                )
                previous_bits[cell] = bit
        return events
