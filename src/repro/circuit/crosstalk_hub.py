"""Crosstalk hub: thermal coupling between crossbar cells (paper Eq. 5).

The hub mirrors the Verilog-A module of the paper's Virtuoso framework: it
receives the filament temperature of every cell and returns, per cell, the
additional temperature contributed by all the other cells, weighted by the
alpha values extracted from the crossbar simulation:

    T_in(i) = sum_j alpha_ji * (T_out(j) - T0)

The paper states Eq. 5 in terms of absolute temperatures; the implementation
uses temperature *rises* so that a crossbar sitting idle at ambient does not
heat itself — this is the physically consistent reading of the alpha
regression (Eq. 4), which relates neighbour temperature rises to the
aggressor's dissipated power.

The sum is applied through a structured
:class:`~repro.thermal.operator.CrosstalkOperator` selected per coupling
model: translation-invariant models (all three shipped ones) run as an
O(N log N) FFT convolution or an O(taps * N) stencil, so the hub never
materialises the O(cells^2) alpha table; custom non-stationary models fall
back to the dense table automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..config import CrossbarGeometry
from ..constants import DEFAULT_AMBIENT_TEMPERATURE_K
from ..errors import ConfigurationError
from ..obs import get_telemetry
from ..thermal.coupling import CouplingModel
from ..thermal.operator import CrosstalkOperator, make_crosstalk_operator

Cell = Tuple[int, int]


@dataclass
class CrosstalkHub:
    """Aggregates thermal crosstalk contributions between cells."""

    coupling: CouplingModel
    ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K

    def __post_init__(self) -> None:
        if self.ambient_temperature_k <= 0:
            raise ConfigurationError("ambient temperature must be positive")
        self.operator: CrosstalkOperator = make_crosstalk_operator(self.coupling)

    @property
    def geometry(self) -> CrossbarGeometry:
        """Geometry of the underlying crossbar."""
        return self.coupling.geometry

    @property
    def operator_backend(self) -> str:
        """Backend the selected operator runs on ("fft", "stencil", "dense")."""
        return self.operator.backend

    @property
    def alpha_state_bytes(self) -> int:
        """Memory held by the operator's alpha state (kernel or dense table)."""
        return self.operator.state_bytes

    def alpha_between(self, aggressor: Cell, victim: Cell) -> float:
        """Coupling coefficient from aggressor to victim."""
        geometry = self.geometry
        geometry.validate_cell(*aggressor)
        geometry.validate_cell(*victim)
        return self.operator.alpha_between(tuple(aggressor), tuple(victim))

    def _rises(self, filament_temperatures_k: np.ndarray) -> np.ndarray:
        geometry = self.geometry
        expected = (geometry.rows, geometry.columns)
        if filament_temperatures_k.shape != expected:
            raise ConfigurationError(
                f"temperature map shape {filament_temperatures_k.shape} does not match {expected}"
            )
        return np.maximum(filament_temperatures_k - self.ambient_temperature_k, 0.0)

    def additional_temperatures(
        self, filament_temperatures_k: np.ndarray
    ) -> np.ndarray:
        """Per-cell additional temperature from crosstalk [K] (Eq. 5).

        Args:
            filament_temperatures_k: (rows x columns) array of the cells'
                filament temperatures *excluding* crosstalk (self-heating on
                top of ambient).
        """
        tel = get_telemetry()
        if tel.enabled:
            tel.count("crosstalk.apply." + self.operator.backend)
        return self.operator.apply(self._rises(filament_temperatures_k))

    def additional_temperature_for(
        self, victim: Cell, filament_temperatures_k: np.ndarray
    ) -> float:
        """Additional temperature of a single victim cell [K].

        Single-victim fast path: evaluates one output cell in O(cells)
        through the operator instead of computing the full array and
        indexing it.
        """
        self.geometry.validate_cell(*victim)
        tel = get_telemetry()
        if tel.enabled:
            tel.count("crosstalk.apply_single." + self.operator.backend)
        return self.operator.apply_single(
            tuple(victim), self._rises(filament_temperatures_k)
        )

    def aggressor_contribution(
        self, aggressor: Cell, victim: Cell, aggressor_temperature_k: float
    ) -> float:
        """Temperature delivered to ``victim`` by a single hot aggressor [K]."""
        rise = max(aggressor_temperature_k - self.ambient_temperature_k, 0.0)
        return self.alpha_between(aggressor, victim) * rise
