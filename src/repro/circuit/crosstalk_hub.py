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

Every coupling model is translation-invariant: the alpha of an
aggressor/victim pair depends only on their offset, through the model's
:meth:`~repro.thermal.coupling.CouplingModel.kernel`.  The sum above is then
a 2-D convolution of the rise map with that kernel, which the hub applies in
O(N log N) time and O(N) memory through a precomputed kernel spectrum, never
materialising the O(cells^2) alpha table.  Edge clipping is exact: the
convolution zero-pads outside the array, just as edge victims of the dense
table sum over fewer aggressors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import fft

from ..config import CrossbarGeometry
from ..constants import DEFAULT_AMBIENT_TEMPERATURE_K
from ..errors import ConfigurationError
from ..obs import get_telemetry
from ..thermal.coupling import CouplingModel

Cell = Tuple[int, int]


@dataclass
class CrosstalkHub:
    """Aggregates thermal crosstalk contributions between cells.

    ``kernel[dr + rows - 1, dc + cols - 1]`` is the alpha a victim at offset
    ``(dr, dc)`` from an aggressor receives; the centre (zero offset) is 0.0.
    """

    coupling: CouplingModel
    ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K

    def __post_init__(self) -> None:
        if self.ambient_temperature_k <= 0:
            raise ConfigurationError("ambient temperature must be positive")
        rows, cols = self.geometry.rows, self.geometry.columns
        kernel = np.array(self.coupling.kernel(), dtype=np.float64)
        if kernel.shape != (2 * rows - 1, 2 * cols - 1):
            raise ConfigurationError(
                f"offset kernel shape {kernel.shape} does not match the "
                f"{rows}x{cols} geometry (expected {(2 * rows - 1, 2 * cols - 1)})"
            )
        kernel[rows - 1, cols - 1] = 0.0
        self.kernel = kernel
        # A circular convolution of length >= 2N-1 per axis is exact for the
        # central (rows, cols) output block: the victim indices live at
        # n = v + (N-1) in [N-1, 2N-2] of the full linear convolution (support
        # [0, 3N-3]), and with L >= 2N-1 every alias n +- L falls outside
        # that support.  This halves the padded transform size versus the
        # full-linear (3N-2) padding.
        self._fft_shape = (fft.next_fast_len(2 * rows - 1), fft.next_fast_len(2 * cols - 1))
        self._kernel_fft = fft.rfft2(kernel, s=self._fft_shape)
        self._out_slice = (slice(rows - 1, 2 * rows - 1), slice(cols - 1, 2 * cols - 1))
        tel = get_telemetry()
        if tel.enabled:
            tel.count("crosstalk.hub.built")

    @property
    def geometry(self) -> CrossbarGeometry:
        """Geometry of the underlying crossbar."""
        return self.coupling.geometry

    @property
    def alpha_state_bytes(self) -> int:
        """Memory held by the hub's alpha state (kernel and its spectrum)."""
        return int(self.kernel.nbytes + self._kernel_fft.nbytes)

    def alpha_between(self, aggressor: Cell, victim: Cell) -> float:
        """Coupling coefficient from aggressor to victim (0.0 on the diagonal)."""
        geometry = self.geometry
        geometry.validate_cell(*aggressor)
        geometry.validate_cell(*victim)
        dr = victim[0] - aggressor[0]
        dc = victim[1] - aggressor[1]
        return float(self.kernel[dr + geometry.rows - 1, dc + geometry.columns - 1])

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

        One forward and one inverse real FFT of the rise map against the
        precomputed kernel spectrum.

        Args:
            filament_temperatures_k: (rows x columns) array of the cells'
                filament temperatures *excluding* crosstalk (self-heating on
                top of ambient).
        """
        tel = get_telemetry()
        if tel.enabled:
            tel.count("crosstalk.apply")
        spectrum = fft.rfft2(self._rises(filament_temperatures_k), s=self._fft_shape)
        spectrum *= self._kernel_fft
        full = fft.irfft2(spectrum, s=self._fft_shape)
        return np.ascontiguousarray(full[self._out_slice])

    def additional_temperature_for(
        self, victim: Cell, filament_temperatures_k: np.ndarray
    ) -> float:
        """Additional temperature of a single victim cell [K].

        Single-victim fast path: evaluates one output cell in O(cells)
        against the kernel instead of computing the full array and indexing
        it.
        """
        geometry = self.geometry
        geometry.validate_cell(*victim)
        tel = get_telemetry()
        if tel.enabled:
            tel.count("crosstalk.apply_single")
        vr, vc = victim
        # T_in(v) = sum_a K[v - a] * rise[a]; the kernel slice below holds
        # K[(vr - ar, vc - ac)] for ar, ac descending, hence the double flip.
        window = self.kernel[vr : vr + geometry.rows, vc : vc + geometry.columns][::-1, ::-1]
        return float(np.sum(window * self._rises(filament_temperatures_k)))

    def aggressor_contribution(
        self, aggressor: Cell, victim: Cell, aggressor_temperature_k: float
    ) -> float:
        """Temperature delivered to ``victim`` by a single hot aggressor [K]."""
        rise = max(aggressor_temperature_k - self.ambient_temperature_k, 0.0)
        return self.alpha_between(aggressor, victim) * rise
