"""Fig. 2a — thermal coupling map of the 5x5 crossbar.

The paper's Fig. 2a shows the steady-state filament temperatures of a 5x5
crossbar while the centre cell is driven at V_SET = 1.05 V in LRS from a
300 K ambient: the attacked cell sits at ≈947 K, the neighbours that share an
electrode line with it at ≈373-395 K, and the remaining cells at 320-355 K.

Three ways of producing the map are supported, in increasing fidelity /
decreasing speed: the circuit-level electro-thermal snapshot with the
calibrated analytic coupling (default; what the attack engine uses), the
lumped thermal resistance network, and the finite-volume solver that replaces
the paper's COMSOL step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..config import CrossbarGeometry, ThermalSolverConfig
from ..constants import DEFAULT_AMBIENT_TEMPERATURE_K, DEFAULT_SET_VOLTAGE_V
from ..circuit.crossbar import CrossbarArray
from ..circuit.drivers import write_bias
from ..errors import ExperimentError
from ..thermal.fdm import HeatSolver
from ..thermal.geometry import build_voxel_model
from ..thermal.network import ThermalResistanceNetwork
from .base import ExperimentResult

#: Quantitative reference points read from the paper's Fig. 2a (300 K ambient).
PAPER_REFERENCE: Dict[str, float] = {
    "aggressor_k": 947.2,
    "same_line_neighbour_min_k": 373.0,
    "same_line_neighbour_max_k": 394.4,
    "diagonal_neighbour_min_k": 345.4,
    "diagonal_neighbour_max_k": 354.4,
    "outer_cell_min_k": 319.7,
    "outer_cell_max_k": 334.2,
    "ambient_k": 300.0,
}


@dataclass
class ThermalMapResult:
    """Temperature map plus the headline comparison numbers."""

    method: str
    temperature_map_k: np.ndarray
    aggressor: Tuple[int, int]
    ambient_temperature_k: float

    @property
    def aggressor_temperature_k(self) -> float:
        """Temperature of the attacked cell [K]."""
        return float(self.temperature_map_k[self.aggressor])

    @property
    def same_line_neighbour_k(self) -> float:
        """Mean temperature of the four same-line nearest neighbours [K]."""
        row, column = self.aggressor
        values = []
        for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            r, c = row + dr, column + dc
            if 0 <= r < self.temperature_map_k.shape[0] and 0 <= c < self.temperature_map_k.shape[1]:
                values.append(self.temperature_map_k[r, c])
        return float(np.mean(values))

    @property
    def diagonal_neighbour_k(self) -> float:
        """Mean temperature of the diagonal neighbours [K]."""
        row, column = self.aggressor
        values = []
        for dr, dc in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            r, c = row + dr, column + dc
            if 0 <= r < self.temperature_map_k.shape[0] and 0 <= c < self.temperature_map_k.shape[1]:
                values.append(self.temperature_map_k[r, c])
        return float(np.mean(values))


def run_fig2a(
    method: str = "circuit",
    geometry: Optional[CrossbarGeometry] = None,
    ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    set_voltage_v: float = DEFAULT_SET_VOLTAGE_V,
    thermal_config: Optional[ThermalSolverConfig] = None,
) -> ThermalMapResult:
    """Produce the Fig. 2a temperature map with the selected method."""
    geometry = geometry if geometry is not None else CrossbarGeometry()
    aggressor = geometry.centre_cell()

    if method == "circuit":
        crossbar = CrossbarArray(geometry=geometry, ambient_temperature_k=ambient_temperature_k)
        crossbar.set_state(aggressor, 1.0)
        bias = write_bias(geometry, [aggressor], set_voltage_v)
        snapshot = crossbar.thermal_snapshot(bias)
        temperature_map = snapshot.filament_temperatures_k
    elif method == "network":
        crossbar = CrossbarArray(geometry=geometry, ambient_temperature_k=ambient_temperature_k)
        crossbar.set_state(aggressor, 1.0)
        bias = write_bias(geometry, [aggressor], set_voltage_v)
        power = crossbar.thermal_snapshot(bias).operating_point.cell_power(aggressor)
        network = ThermalResistanceNetwork(geometry, ambient_temperature_k=ambient_temperature_k)
        temperature_map = network.temperature_map({aggressor: power})
    elif method == "fdm":
        config = thermal_config if thermal_config is not None else ThermalSolverConfig(
            lateral_resolution_m=25e-9, vertical_resolution_m=25e-9,
        )
        model = build_voxel_model(geometry, config)
        solver = HeatSolver(model, ambient_temperature_k)
        # Inject the aggressor's dissipated power as computed by the circuit
        # level so the two stacks stay consistent.
        crossbar = CrossbarArray(geometry=geometry, ambient_temperature_k=ambient_temperature_k)
        crossbar.set_state(aggressor, 1.0)
        bias = write_bias(geometry, [aggressor], set_voltage_v)
        power = crossbar.thermal_snapshot(bias).operating_point.cell_power(aggressor)
        temperature_map = solver.solve({aggressor: power}).cell_temperature_map()
    else:
        raise ExperimentError(f"unknown fig2a method {method!r}")

    return ThermalMapResult(
        method=method,
        temperature_map_k=np.asarray(temperature_map, dtype=float),
        aggressor=aggressor,
        ambient_temperature_k=ambient_temperature_k,
    )


def fig2a_experiment(method: str = "circuit") -> ExperimentResult:
    """Package the Fig. 2a map as an :class:`ExperimentResult`."""
    outcome = run_fig2a(method=method)
    result = ExperimentResult(
        name="fig2a",
        description="Temperature map of the 5x5 crossbar while hammering the centre cell",
        columns=["row"] + [f"col{c}" for c in range(outcome.temperature_map_k.shape[1])],
        metadata={
            "method": method,
            "paper_reference": PAPER_REFERENCE,
            "aggressor_temperature_k": outcome.aggressor_temperature_k,
            "same_line_neighbour_k": outcome.same_line_neighbour_k,
            "diagonal_neighbour_k": outcome.diagonal_neighbour_k,
        },
    )
    for row_index, row in enumerate(outcome.temperature_map_k):
        result.add_row(row=row_index, **{f"col{c}": float(value) for c, value in enumerate(row)})
    return result
