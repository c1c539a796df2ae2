"""Netlist representation of a passive memristive crossbar.

The netlist models what the paper instantiates in Cadence Virtuoso: every
word line and bit line is a resistive wire chain with one node per crosspoint
plus a driver attachment node, and a memristive device connects the word-line
node to the bit-line node at every crosspoint.  Drivers are attached through
their output resistance, so line loading and IR drop are captured.

A crossbar netlist is fully determined by ``(rows, columns)`` and the wire
parameters, so it is held as index arrays computed by arithmetic.  Nodes are
numbered chain by chain (ground is not a node):

* per row ``r``: ``row_drv_r``, then ``wl_r_0 ... wl_r_{C-1}``;
* then per column ``c``: ``col_drv_c``, then ``bl_0_c ... bl_{R-1}_c``.

Each chain starts at its driver node, and a wire segment joins every pair of
consecutive nodes of a chain.  Node names are made on demand, on the first
lookup by name, and cached; no solver path needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List

import numpy as np

from ..config import CrossbarGeometry, WireParameters

GROUND_NODE = "gnd"


@dataclass(eq=False)
class CrossbarNetlist:
    """Fully expanded crossbar netlist as index arrays.

    Devices are in row-major cell order; wire segments are the word-line
    chains row by row from the driver end, then the bit-line chains column
    by column; driver nodes are the rows', then the columns'.
    """

    geometry: CrossbarGeometry
    wires: WireParameters
    #: Per-device word-line node, bit-line node, cell row and cell column.
    device_wordline: np.ndarray
    device_bitline: np.ndarray
    device_rows: np.ndarray
    device_cols: np.ndarray
    #: Per-segment endpoints, driver end first.
    segment_a: np.ndarray
    segment_b: np.ndarray
    #: Attachment node of every line driver.
    driver_nodes: np.ndarray
    #: Conductance of every wire segment and of every driver output [S].
    segment_conductance_s: float
    driver_conductance_s: float

    @property
    def node_count(self) -> int:
        """Number of circuit nodes (excluding ground)."""
        rows, columns = self.geometry.rows, self.geometry.columns
        return rows * (columns + 1) + columns * (rows + 1)

    @cached_property
    def nodes(self) -> List[str]:
        """Node names in node-index order."""
        rows, columns = self.geometry.rows, self.geometry.columns
        names = []
        for row in range(rows):
            names.append(f"row_drv_{row}")
            names.extend(f"wl_{row}_{column}" for column in range(columns))
        for column in range(columns):
            names.append(f"col_drv_{column}")
            names.extend(f"bl_{row}_{column}" for row in range(rows))
        return names

    @cached_property
    def node_index(self) -> Dict[str, int]:
        """Node name -> row index in the nodal system (ground excluded)."""
        return {name: i for i, name in enumerate(self.nodes)}


def build_crossbar_netlist(
    geometry: CrossbarGeometry = None, wires: WireParameters = None
) -> CrossbarNetlist:
    """Expand a crossbar geometry into its netlist.

    Word lines run horizontally: the driver of row ``r`` attaches before
    column 0 and segments chain the crosspoints left to right.  Bit lines run
    vertically: the driver of column ``c`` attaches before row 0 and segments
    chain the crosspoints top to bottom.
    """
    geometry = geometry if geometry is not None else CrossbarGeometry()
    wires = wires if wires is not None else WireParameters()
    rows, columns = geometry.rows, geometry.columns
    # Word-line chains hold columns + 1 nodes each and start at node 0; the
    # bit-line chains (rows + 1 nodes each) follow them.
    bitline_base = rows * (columns + 1)
    row_drivers = np.arange(rows, dtype=np.int64) * (columns + 1)
    column_drivers = bitline_base + np.arange(columns, dtype=np.int64) * (rows + 1)

    cell_rows, cell_cols = np.divmod(np.arange(rows * columns, dtype=np.int64), columns)
    segment_a = np.concatenate([
        (row_drivers[:, None] + np.arange(columns)).ravel(),
        (column_drivers[:, None] + np.arange(rows)).ravel(),
    ])
    return CrossbarNetlist(
        geometry=geometry,
        wires=wires,
        device_wordline=row_drivers[cell_rows] + 1 + cell_cols,
        device_bitline=column_drivers[cell_cols] + 1 + cell_rows,
        device_rows=cell_rows,
        device_cols=cell_cols,
        segment_a=segment_a,
        segment_b=segment_a + 1,
        driver_nodes=np.concatenate([row_drivers, column_drivers]),
        segment_conductance_s=1.0 / max(wires.segment_resistance_ohm, 1e-6),
        driver_conductance_s=1.0 / max(wires.driver_resistance_ohm, 1e-3),
    )
