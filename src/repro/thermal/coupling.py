"""Thermal-crosstalk coefficient containers and the calibrated analytic model.

The circuit-level simulation consumes thermal crosstalk as *alpha values*: the
fraction of the aggressor's filament temperature rise that appears at a
neighbouring cell (paper Eq. 4).  This module provides

* :class:`CouplingModel` — an abstract source of alpha values, stated both
  per cell pair and as the offset kernel the crosstalk hub convolves with
  (every model is translation-invariant),
* :class:`AnalyticCouplingModel` — a distance-decay kernel calibrated against
  the paper's Fig. 2a temperature matrix (fast default path),
* :class:`ExtractedCouplingModel` — alpha values taken from the finite-volume
  solver sweep (:mod:`repro.thermal.alpha`) or from the resistance-network
  model, assuming translation invariance of the kernel,
* :class:`UniformCouplingModel` — a constant nearest-neighbour bound,
* :class:`AlphaMatrix` — a dense per-aggressor matrix view.

The analytic model captures the two features visible in Fig. 2a: cells that
share an electrode line with the aggressor couple more strongly (the metal
line is a good heat conductor) than diagonal cells that couple only through
the oxide/insulator, and the coupling decays with the centre-to-centre
distance.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..config import CrossbarGeometry
from ..errors import ConfigurationError, GeometryError
from .alpha import AlphaExtractionResult

Cell = Tuple[int, int]


class CouplingModel(abc.ABC):
    """Source of thermal-crosstalk coefficients for a crossbar geometry."""

    def __init__(self, geometry: CrossbarGeometry):
        self.geometry = geometry

    @abc.abstractmethod
    def alpha_between(self, aggressor: Cell, victim: Cell) -> float:
        """Alpha value describing how strongly ``aggressor`` heats ``victim``."""

    @abc.abstractmethod
    def kernel(self) -> np.ndarray:
        """Offset kernel of the (translation-invariant) model.

        The full ``(2*rows - 1, 2*cols - 1)`` array with
        ``kernel[dr + rows - 1, dc + cols - 1] == alpha_between(a, a + (dr, dc))``
        for every offset two in-array cells can realise; the centre entry
        (zero offset, the 1.0 self-coupling) is ignored by consumers and
        should be 0.0.  The crosstalk hub convolves rise maps with it.
        """

    def alpha_table(self) -> np.ndarray:
        """Full ``(cells, cells)`` alpha table in row-major cell order.

        ``table[a, v]`` is ``alpha_between(cell_a, cell_v)`` (1.0 on the
        diagonal), expanded from the offset :meth:`kernel` with one gather.
        Note the quadratic memory: the crosstalk hub never builds it; it is
        the dense reference the hub is checked against.
        """
        g = self.geometry
        cell_rows = np.repeat(np.arange(g.rows), g.columns)
        cell_cols = np.tile(np.arange(g.columns), g.rows)
        dr = cell_rows[None, :] - cell_rows[:, None] + g.rows - 1
        dc = cell_cols[None, :] - cell_cols[:, None] + g.columns - 1
        table = self.kernel()[dr, dc]
        np.fill_diagonal(table, 1.0)
        return table

    def matrix_for(self, aggressor: Cell) -> "AlphaMatrix":
        """Dense (rows x columns) alpha matrix for one aggressor cell,
        sliced from the offset :meth:`kernel` (one O(cells) copy)."""
        g = self.geometry
        g.validate_cell(*aggressor)
        aggressor = tuple(aggressor)
        ar, ac = aggressor
        values = self.kernel()[
            g.rows - 1 - ar : 2 * g.rows - 1 - ar,
            g.columns - 1 - ac : 2 * g.columns - 1 - ac,
        ].copy()
        values[aggressor] = 1.0
        return AlphaMatrix(aggressor=aggressor, values=values, geometry=g)


@dataclass
class AlphaMatrix:
    """Alpha values of every cell with respect to one aggressor."""

    aggressor: Cell
    values: np.ndarray
    geometry: CrossbarGeometry

    def alpha_of(self, victim: Cell) -> float:
        """Alpha value of a victim cell."""
        self.geometry.validate_cell(*victim)
        return float(self.values[victim[0], victim[1]])

    def hottest_neighbours(self, count: int = 4) -> Dict[Cell, float]:
        """The ``count`` most strongly coupled cells (excluding the aggressor).

        Selects with :func:`numpy.argpartition` (O(cells) instead of a full
        Python sort) and orders only the selected ``count`` entries.
        """
        columns = self.values.shape[1]
        flat = self.values.ravel().astype(float, copy=True)
        flat[self.aggressor[0] * columns + self.aggressor[1]] = -np.inf
        count = min(count, flat.size - 1)
        if count <= 0:
            return {}
        top = np.argpartition(flat, -count)[-count:]
        top = top[np.argsort(flat[top])[::-1]]
        return {
            (int(index // columns), int(index % columns)): float(flat[index]) for index in top
        }


@dataclass
class AnalyticCouplingParameters:
    """Parameters of the calibrated distance-decay coupling kernel.

    The defaults are calibrated so that, for the paper's 50 nm spacing
    (100 nm pitch), the cells sharing an electrode line with the aggressor
    receive ~11.5 % of its temperature rise and the diagonal cells ~7 %,
    matching the Fig. 2a temperature matrix (aggressor ≈947 K, same-line
    neighbours ≈373-375 K, diagonal neighbours ≈345-354 K at 300 K ambient).
    """

    #: Amplitude of the coupling along a shared electrode line.
    line_amplitude: float = 0.285
    #: Amplitude of the coupling through the oxide/insulator (no shared line).
    oxide_amplitude: float = 0.256
    #: Exponential decay length of the coupling [m].
    decay_length_m: float = 110e-9
    #: Hard upper bound keeping alpha physical even for extreme geometries.
    max_alpha: float = 0.95

    def __post_init__(self) -> None:
        if self.line_amplitude <= 0 or self.oxide_amplitude <= 0:
            raise ConfigurationError("coupling amplitudes must be positive")
        if self.decay_length_m <= 0:
            raise ConfigurationError("decay length must be positive")
        if not 0 < self.max_alpha < 1:
            raise ConfigurationError("max_alpha must be in (0, 1)")


class AnalyticCouplingModel(CouplingModel):
    """Calibrated exponential distance-decay crosstalk kernel."""

    def __init__(
        self,
        geometry: CrossbarGeometry = None,
        parameters: AnalyticCouplingParameters = None,
    ):
        super().__init__(geometry if geometry is not None else CrossbarGeometry())
        self.parameters = parameters if parameters is not None else AnalyticCouplingParameters()

    def alpha_between(self, aggressor: Cell, victim: Cell) -> float:
        if tuple(aggressor) == tuple(victim):
            return 1.0
        g = self.geometry
        g.validate_cell(*aggressor)
        g.validate_cell(*victim)
        p = self.parameters
        distance = g.cell_distance(tuple(aggressor), tuple(victim))
        shares_line = aggressor[0] == victim[0] or aggressor[1] == victim[1]
        amplitude = p.line_amplitude if shares_line else p.oxide_amplitude
        alpha = amplitude * float(np.exp(-distance / p.decay_length_m))
        return min(alpha, p.max_alpha)

    def kernel(self) -> np.ndarray:
        """The closed-form exponential-decay kernel over all cell offsets.

        Built from broadcast distance arithmetic — O(cells) memory, a handful
        of array operations.
        """
        g = self.geometry
        p = self.parameters
        dr = np.arange(-(g.rows - 1), g.rows)[:, None]
        dc = np.arange(-(g.columns - 1), g.columns)[None, :]
        dy = dr * g.pitch_m
        dx = dc * g.pitch_m
        distance = np.sqrt(dx * dx + dy * dy)
        shares_line = (dr == 0) | (dc == 0)
        amplitude = np.where(shares_line, p.line_amplitude, p.oxide_amplitude)
        kernel = np.minimum(amplitude * np.exp(-distance / p.decay_length_m), p.max_alpha)
        kernel[g.rows - 1, g.columns - 1] = 0.0
        return kernel


class ExtractedCouplingModel(CouplingModel):
    """Coupling model backed by a finite-volume alpha extraction.

    The extraction yields alpha values of every cell with respect to *one*
    selected aggressor.  Assuming translation invariance of the kernel (valid
    away from the array edges), the value for an arbitrary aggressor/victim
    pair is looked up by relative offset; offsets that fall outside the
    extracted window fall back to the most distant extracted value.
    """

    def __init__(self, geometry: CrossbarGeometry, extraction: AlphaExtractionResult):
        super().__init__(geometry)
        self.extraction = extraction
        # The extraction's alpha matrix *is* the offset-indexed window: entry
        # (row, col) holds the alpha at offset (row, col) - selected_cell, so
        # lookups are plain array indexing shifted by the selected cell — no
        # per-offset dict, no double Python loop.
        self._window = np.asarray(extraction.alpha, dtype=np.float64)
        self._centre = tuple(extraction.selected_cell)
        self._fallback = float(self._window.min())

    def alpha_between(self, aggressor: Cell, victim: Cell) -> float:
        if tuple(aggressor) == tuple(victim):
            return 1.0
        self.geometry.validate_cell(*aggressor)
        self.geometry.validate_cell(*victim)
        row = victim[0] - aggressor[0] + self._centre[0]
        column = victim[1] - aggressor[1] + self._centre[1]
        if 0 <= row < self._window.shape[0] and 0 <= column < self._window.shape[1]:
            return float(self._window[row, column])
        return self._fallback

    def kernel(self) -> np.ndarray:
        """Offset kernel: the extraction window pasted over the fallback.

        Offsets the extraction did not cover carry the most distant extracted
        value, exactly as the scalar lookup falls back.
        """
        g = self.geometry
        kernel = np.full((2 * g.rows - 1, 2 * g.columns - 1), self._fallback)
        window_rows, window_cols = self._window.shape
        # Window index (row, col) is offset (row, col) - centre, which lands
        # at kernel index offset + (rows - 1, cols - 1); paste the overlap.
        row_shift = g.rows - 1 - self._centre[0]
        col_shift = g.columns - 1 - self._centre[1]
        src_r = slice(max(0, -row_shift), min(window_rows, kernel.shape[0] - row_shift))
        src_c = slice(max(0, -col_shift), min(window_cols, kernel.shape[1] - col_shift))
        if src_r.start < src_r.stop and src_c.start < src_c.stop:
            kernel[
                src_r.start + row_shift : src_r.stop + row_shift,
                src_c.start + col_shift : src_c.stop + col_shift,
            ] = self._window[src_r, src_c]
        kernel[g.rows - 1, g.columns - 1] = 0.0
        return kernel


class UniformCouplingModel(CouplingModel):
    """Constant-alpha coupling to the four nearest neighbours only.

    Mainly used in tests and as a pedagogical worst-case/best-case bound.
    """

    def __init__(self, geometry: CrossbarGeometry, alpha: float = 0.1):
        super().__init__(geometry)
        if not 0 <= alpha < 1:
            raise ConfigurationError("alpha must be in [0, 1)")
        self.alpha = alpha

    def alpha_between(self, aggressor: Cell, victim: Cell) -> float:
        if tuple(aggressor) == tuple(victim):
            return 1.0
        dr = abs(aggressor[0] - victim[0])
        dc = abs(aggressor[1] - victim[1])
        return self.alpha if dr + dc == 1 else 0.0

    def kernel(self) -> np.ndarray:
        """Compact four-tap nearest-neighbour kernel."""
        g = self.geometry
        kernel = np.zeros((2 * g.rows - 1, 2 * g.columns - 1))
        centre = (g.rows - 1, g.columns - 1)
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            row, column = centre[0] + dr, centre[1] + dc
            if 0 <= row < kernel.shape[0] and 0 <= column < kernel.shape[1]:
                kernel[row, column] = self.alpha
        return kernel


def coupling_from_extraction(
    geometry: CrossbarGeometry, extraction: AlphaExtractionResult
) -> ExtractedCouplingModel:
    """Convenience constructor mirroring :class:`AnalyticCouplingModel`'s API."""
    if extraction.alpha.shape != (geometry.rows, geometry.columns):
        raise GeometryError("extraction result does not match the crossbar geometry")
    return ExtractedCouplingModel(geometry, extraction)
