"""Read-path analysis: sense margins and sneak-path currents.

Passive crossbars suffer from sneak-path currents: when reading one cell, the
unselected cells form parallel conduction paths that disturb the sensed
current.  This module quantifies that effect for the reproduction's crossbar
— it is what makes the V/2 biasing of the paper necessary in the first place
and determines how reliably a NeuroHammer-induced flip is visible to the
memory controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .crossbar import CrossbarArray
from .drivers import read_bias

Cell = Tuple[int, int]


@dataclass
class ReadMargin:
    """Sensed currents of a cell in both states under identical surroundings."""

    cell: Cell
    lrs_current_a: float
    hrs_current_a: float

    @property
    def ratio(self) -> float:
        """LRS/HRS sensed-current ratio (> 1 means the states are separable)."""
        if self.hrs_current_a <= 0:
            return float("inf")
        return self.lrs_current_a / self.hrs_current_a

    @property
    def margin_a(self) -> float:
        """Absolute current margin between the two states [A]."""
        return self.lrs_current_a - self.hrs_current_a

    @property
    def midpoint_a(self) -> float:
        """Geometric-mean sensing threshold [A]."""
        return float(np.sqrt(max(self.lrs_current_a, 1e-30) * max(self.hrs_current_a, 1e-30)))


@dataclass
class SneakPathReport:
    """Worst-case sneak-path analysis of a read operation."""

    cell: Cell
    #: Sensed current with the victim in HRS and all other cells in HRS [A].
    isolated_hrs_current_a: float
    #: Sensed current with the victim in HRS and all other cells in LRS [A].
    worst_case_hrs_current_a: float
    #: Sensed current with the victim in LRS and all other cells in HRS [A].
    isolated_lrs_current_a: float

    @property
    def sneak_current_a(self) -> float:
        """Additional current attributable to sneak paths [A]."""
        return self.worst_case_hrs_current_a - self.isolated_hrs_current_a

    @property
    def read_window_a(self) -> float:
        """Remaining window between worst-case HRS and isolated LRS reads [A]."""
        return self.isolated_lrs_current_a - self.worst_case_hrs_current_a

    @property
    def window_closed(self) -> bool:
        """True if sneak paths destroy the read window entirely."""
        return self.read_window_a <= 0.0


def sensed_column_current(crossbar: CrossbarArray, cell: Cell, read_voltage_v: float = 0.2) -> float:
    """Current a sense amplifier on the selected bit line would measure [A].

    The sense amplifier sees the *column* current: the selected cell's
    current plus whatever the half-selected cells of the same column inject
    through the sneak paths.  This is what makes sneak paths a read-disturb
    problem in passive crossbars.
    """
    cell = tuple(cell)
    crossbar.geometry.validate_cell(*cell)
    bias = read_bias(crossbar.geometry, cell, read_voltage_v)
    op = crossbar.solve_bias(bias)
    column = cell[1]
    return float(abs(op.device_currents_a[:, column].sum()))


def read_margin(
    crossbar: CrossbarArray,
    cell: Cell,
    read_voltage_v: float = 0.2,
    background_x: float = 0.0,
) -> ReadMargin:
    """Sense the cell in both states while the rest of the array is fixed."""
    cell = tuple(cell)
    crossbar.geometry.validate_cell(*cell)
    snapshot = crossbar.copy_state_arrays()
    try:
        crossbar.initialise_states(default_x=background_x)

        crossbar.set_state(cell, 1.0)
        lrs_current = sensed_column_current(crossbar, cell, read_voltage_v)

        crossbar.set_state(cell, 0.0)
        hrs_current = sensed_column_current(crossbar, cell, read_voltage_v)
    finally:
        crossbar.restore_states(snapshot)
    return ReadMargin(cell=cell, lrs_current_a=lrs_current, hrs_current_a=hrs_current)


def sneak_path_report(
    crossbar: CrossbarArray,
    cell: Cell,
    read_voltage_v: float = 0.2,
) -> SneakPathReport:
    """Quantify the worst-case sneak-path disturbance for one cell."""
    cell = tuple(cell)
    crossbar.geometry.validate_cell(*cell)
    snapshot = crossbar.copy_state_arrays()
    try:
        crossbar.initialise_states(default_x=0.0)
        isolated_hrs = sensed_column_current(crossbar, cell, read_voltage_v)

        crossbar.set_state(cell, 1.0)
        isolated_lrs = sensed_column_current(crossbar, cell, read_voltage_v)

        crossbar.initialise_states(default_x=1.0)
        crossbar.set_state(cell, 0.0)
        worst_hrs = sensed_column_current(crossbar, cell, read_voltage_v)
    finally:
        crossbar.restore_states(snapshot)
    return SneakPathReport(
        cell=cell,
        isolated_hrs_current_a=isolated_hrs,
        worst_case_hrs_current_a=worst_hrs,
        isolated_lrs_current_a=isolated_lrs,
    )

