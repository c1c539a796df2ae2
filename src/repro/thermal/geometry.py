"""Voxelisation of the crossbar stack for the finite-volume solver.

The paper's low-level simulation (Fig. 2b) models a memristive crossbar of
electrodes on a Si/SiO2 substrate with a conductive filament at every
crosspoint.  This module turns a :class:`repro.config.CrossbarGeometry` into
a 3-D voxel model carrying per-voxel thermal and electrical conductivities,
which :mod:`repro.thermal.fdm` then discretises.

Conventions:

* ``x`` runs along the bottom-electrode (word line / row) direction, so a row
  line spans all columns.
* ``y`` runs along the top-electrode (bit line / column) direction.
* ``z`` points upwards through the stack: substrate, SiO2 insulator, bottom
  electrode layer, switching oxide (with filaments), top electrode layer.
* Arrays are indexed ``[ix, iy, iz]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..config import CrossbarGeometry, ThermalSolverConfig
from ..errors import GeometryError
from .materials import DEFAULT_STACK, Material, MaterialStack, filament_material

# Region codes stored in the voxel model for introspection and tests.
REGION_SUBSTRATE = 0
REGION_INSULATOR = 1
REGION_BOTTOM_ELECTRODE = 2
REGION_OXIDE = 3
REGION_FILAMENT = 4
REGION_TOP_ELECTRODE = 5
REGION_FILL = 6

REGION_NAMES = {
    REGION_SUBSTRATE: "substrate",
    REGION_INSULATOR: "insulator",
    REGION_BOTTOM_ELECTRODE: "bottom_electrode",
    REGION_OXIDE: "oxide",
    REGION_FILAMENT: "filament",
    REGION_TOP_ELECTRODE: "top_electrode",
    REGION_FILL: "fill",
}


@dataclass
class GridAxis:
    """One axis of the finite-volume grid."""

    edges_m: np.ndarray

    @property
    def centres_m(self) -> np.ndarray:
        """Voxel centre coordinates [m]."""
        return 0.5 * (self.edges_m[1:] + self.edges_m[:-1])

    @property
    def widths_m(self) -> np.ndarray:
        """Voxel widths [m]."""
        return np.diff(self.edges_m)

    @property
    def count(self) -> int:
        """Number of voxels along the axis."""
        return len(self.edges_m) - 1

    @property
    def length_m(self) -> float:
        """Total axis extent [m]."""
        return float(self.edges_m[-1] - self.edges_m[0])

    def locate(self, coordinate_m: float) -> int:
        """Index of the voxel containing the coordinate."""
        index = int(np.searchsorted(self.edges_m, coordinate_m, side="right") - 1)
        return min(max(index, 0), self.count - 1)


def _uniform_axis(length_m: float, resolution_m: float) -> GridAxis:
    """Build a uniform axis with spacing as close to the resolution as possible."""
    count = max(2, int(round(length_m / resolution_m)))
    return GridAxis(np.linspace(0.0, length_m, count + 1))


def _layered_axis(layers_m: List[Tuple[str, float]], resolution_m: float) -> Tuple[GridAxis, Dict[str, Tuple[int, int]]]:
    """Build the vertical axis so that every layer boundary lies on an edge.

    Returns the axis and a mapping from layer name to the half-open voxel
    index range [start, stop) occupied by the layer.
    """
    edges = [0.0]
    spans: Dict[str, Tuple[int, int]] = {}
    for name, thickness in layers_m:
        if thickness <= 0:
            raise GeometryError(f"layer {name!r} must have positive thickness")
        slabs = max(1, int(round(thickness / resolution_m)))
        start = len(edges) - 1
        base = edges[-1]
        for k in range(1, slabs + 1):
            edges.append(base + thickness * k / slabs)
        spans[name] = (start, len(edges) - 1)
    return GridAxis(np.asarray(edges)), spans


@dataclass
class CrossbarVoxelModel:
    """Voxelised crossbar stack ready for the finite-volume solver."""

    geometry: CrossbarGeometry
    stack: MaterialStack
    x_axis: GridAxis
    y_axis: GridAxis
    z_axis: GridAxis
    #: Thermal conductivity per voxel [W/(m K)].
    kappa: np.ndarray
    #: Electrical conductivity per voxel [S/m].
    sigma: np.ndarray
    #: Region code per voxel (see REGION_* constants).
    region: np.ndarray
    #: Layer name -> vertical index span.
    layer_spans: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: (row, column) -> boolean mask of the cell's filament voxels.
    filament_masks: Dict[Tuple[int, int], np.ndarray] = field(default_factory=dict)

    @property
    def shape(self) -> Tuple[int, int, int]:
        """Voxel grid shape (nx, ny, nz)."""
        return self.kappa.shape  # type: ignore[return-value]

    def voxel_volume_m3(self, ix: int, iy: int, iz: int) -> float:
        """Volume of one voxel [m^3]."""
        return float(
            self.x_axis.widths_m[ix] * self.y_axis.widths_m[iy] * self.z_axis.widths_m[iz]
        )

    def filament_indices(self, cell: Tuple[int, int]) -> np.ndarray:
        """Return an (n, 3) array of voxel indices of the cell's filament."""
        mask = self.filament_masks.get(tuple(cell))
        if mask is None:
            raise GeometryError(f"cell {cell!r} has no filament in this model")
        return np.argwhere(mask)

    def probe_index(self, cell: Tuple[int, int]) -> Tuple[int, int, int]:
        """Voxel used to probe the filament temperature of a cell."""
        indices = self.filament_indices(cell)
        centroid = indices.mean(axis=0)
        best = int(np.argmin(((indices - centroid) ** 2).sum(axis=1)))
        return tuple(int(v) for v in indices[best])  # type: ignore[return-value]

    def bottom_line_mask(self, row: int) -> np.ndarray:
        """Boolean mask of the bottom-electrode voxels belonging to one row line."""
        self.geometry.validate_cell(row, 0)
        mask = np.zeros(self.shape, dtype=bool)
        start, stop = self.layer_spans["bottom_electrode"]
        y_lo, y_hi = self._line_extent(row)
        for iy, yc in enumerate(self.y_axis.centres_m):
            if y_lo <= yc <= y_hi:
                mask[:, iy, start:stop] = self.region[:, iy, start:stop] == REGION_BOTTOM_ELECTRODE
        return mask

    def top_line_mask(self, column: int) -> np.ndarray:
        """Boolean mask of the top-electrode voxels belonging to one column line."""
        self.geometry.validate_cell(0, column)
        mask = np.zeros(self.shape, dtype=bool)
        start, stop = self.layer_spans["top_electrode"]
        x_lo, x_hi = self._line_extent(column)
        for ix, xc in enumerate(self.x_axis.centres_m):
            if x_lo <= xc <= x_hi:
                mask[ix, :, start:stop] = self.region[ix, :, start:stop] == REGION_TOP_ELECTRODE
        return mask

    def _line_extent(self, line_index: int) -> Tuple[float, float]:
        """In-plane extent of an electrode line perpendicular to its run direction."""
        g = self.geometry
        lo = line_index * g.pitch_m + 0.5 * g.electrode_spacing_m
        return lo, lo + g.electrode_width_m

    def region_fraction(self, code: int) -> float:
        """Fraction of voxels assigned to a region (diagnostic)."""
        return float(np.mean(self.region == code))


def build_voxel_model(
    geometry: CrossbarGeometry = None,
    thermal: ThermalSolverConfig = None,
    stack: MaterialStack = None,
    filament: Material = None,
    lrs_current_a: float = 290e-6,
    set_voltage_v: float = 1.05,
    lrs_cells: Optional[Iterable[Tuple[int, int]]] = None,
    hrs_conductivity_ratio: float = 1e-3,
) -> CrossbarVoxelModel:
    """Voxelise the crossbar stack.

    Args:
        geometry: Crossbar geometry; defaults to the paper's 5x5 / 50 nm setup.
        thermal: Solver configuration controlling the grid resolution.
        stack: Material assignment of the stack layers.
        filament: Filament material; if omitted it is derived with
            :func:`repro.thermal.materials.filament_material` so the LRS
            current at V_SET matches the device compact model.
        lrs_current_a: LRS current used to size the filament conductivity.
        set_voltage_v: Voltage used to size the filament conductivity.
        lrs_cells: Cells whose filament is in the low-resistive state.  When
            ``None`` every filament uses the LRS material (sufficient for the
            power-injection mode); for the coupled electro-thermal mode pass
            the selected cell(s) so the remaining filaments are HRS-like and
            sneak currents stay realistic.
        hrs_conductivity_ratio: Electrical conductivity of HRS filaments
            relative to the LRS filament material.
    """
    geometry = geometry if geometry is not None else CrossbarGeometry()
    thermal = thermal if thermal is not None else ThermalSolverConfig()
    stack = stack if stack is not None else DEFAULT_STACK
    if filament is None:
        filament = filament_material(
            target_current_a=lrs_current_a,
            voltage_v=set_voltage_v,
            filament_radius_m=geometry.filament_radius_m,
            filament_height_m=geometry.filament_height_m,
        )

    width_x = geometry.columns * geometry.pitch_m
    width_y = geometry.rows * geometry.pitch_m
    x_axis = _uniform_axis(width_x, thermal.lateral_resolution_m)
    y_axis = _uniform_axis(width_y, thermal.lateral_resolution_m)
    z_axis, layer_spans = _layered_axis(
        [
            ("substrate", geometry.substrate_thickness_m),
            ("insulator", geometry.insulator_thickness_m),
            ("bottom_electrode", geometry.electrode_thickness_m),
            ("oxide", geometry.oxide_thickness_m),
            ("top_electrode", geometry.electrode_thickness_m),
        ],
        thermal.vertical_resolution_m,
    )

    nx, ny, nz = x_axis.count, y_axis.count, z_axis.count
    kappa = np.zeros((nx, ny, nz))
    sigma = np.zeros((nx, ny, nz))
    region = np.full((nx, ny, nz), REGION_FILL, dtype=np.uint8)

    def assign(mask_3d: np.ndarray, material: Material, code: int) -> None:
        kappa[mask_3d] = material.thermal_conductivity_w_per_mk
        sigma[mask_3d] = material.electrical_conductivity_s_per_m
        region[mask_3d] = code

    def layer_mask(name: str) -> np.ndarray:
        start, stop = layer_spans[name]
        mask = np.zeros((nx, ny, nz), dtype=bool)
        mask[:, :, start:stop] = True
        return mask

    # Continuous layers.
    assign(layer_mask("substrate"), stack.substrate, REGION_SUBSTRATE)
    assign(layer_mask("insulator"), stack.insulator, REGION_INSULATOR)
    assign(layer_mask("oxide"), stack.oxide, REGION_OXIDE)

    x_centres = x_axis.centres_m
    y_centres = y_axis.centres_m

    # Bottom electrodes: one line per row, running along x.
    bottom = layer_mask("bottom_electrode")
    assign(bottom, stack.insulator, REGION_INSULATOR)  # inter-line fill
    for row in range(geometry.rows):
        lo = row * geometry.pitch_m + 0.5 * geometry.electrode_spacing_m
        hi = lo + geometry.electrode_width_m
        in_line = (y_centres >= lo) & (y_centres <= hi)
        line_mask = bottom & in_line[np.newaxis, :, np.newaxis]
        assign(line_mask, stack.bottom_electrode, REGION_BOTTOM_ELECTRODE)

    # Top electrodes: one line per column, running along y.
    top = layer_mask("top_electrode")
    assign(top, stack.insulator, REGION_INSULATOR)
    for column in range(geometry.columns):
        lo = column * geometry.pitch_m + 0.5 * geometry.electrode_spacing_m
        hi = lo + geometry.electrode_width_m
        in_line = (x_centres >= lo) & (x_centres <= hi)
        line_mask = top & in_line[:, np.newaxis, np.newaxis]
        assign(line_mask, stack.top_electrode, REGION_TOP_ELECTRODE)

    # Filaments: cylinders through the oxide at every crosspoint.
    oxide_start, oxide_stop = layer_spans["oxide"]
    filament_masks: Dict[Tuple[int, int], np.ndarray] = {}
    radius_sq = geometry.filament_radius_m ** 2
    lrs_set = None if lrs_cells is None else {tuple(cell) for cell in lrs_cells}
    hrs_filament = Material(
        "filament_hrs",
        thermal_conductivity_w_per_mk=stack.oxide.thermal_conductivity_w_per_mk,
        electrical_conductivity_s_per_m=filament.electrical_conductivity_s_per_m * hrs_conductivity_ratio,
    )
    for row, column in geometry.iter_cells():
        cx, cy = geometry.cell_centre(row, column)
        in_circle = (
            (x_centres[:, np.newaxis] - cx) ** 2 + (y_centres[np.newaxis, :] - cy) ** 2
        ) <= radius_sq
        if not in_circle.any():
            # Coarse grids may miss the circle entirely; fall back to the
            # voxel containing the cell centre so every cell stays probe-able.
            in_circle = np.zeros((nx, ny), dtype=bool)
            in_circle[x_axis.locate(cx), y_axis.locate(cy)] = True
        mask = np.zeros((nx, ny, nz), dtype=bool)
        mask[:, :, oxide_start:oxide_stop] = in_circle[:, :, np.newaxis]
        cell_material = filament
        if lrs_set is not None and (row, column) not in lrs_set:
            cell_material = hrs_filament
        assign(mask, cell_material, REGION_FILAMENT)
        filament_masks[(row, column)] = mask

    return CrossbarVoxelModel(
        geometry=geometry,
        stack=stack,
        x_axis=x_axis,
        y_axis=y_axis,
        z_axis=z_axis,
        kappa=kappa,
        sigma=sigma,
        region=region,
        layer_spans=layer_spans,
        filament_masks=filament_masks,
    )
