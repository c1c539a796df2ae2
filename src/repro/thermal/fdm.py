"""Finite-volume electro-thermal solver for the crossbar stack.

This module replaces the paper's COMSOL Multiphysics step.  It solves, on the
voxel model built by :mod:`repro.thermal.geometry`,

* the static heat-transfer equation  ``-div(kappa grad T) = q``   (paper Eq. 1)
* the current-continuity equation    ``div(sigma grad phi) = 0``  (paper Eq. 2)

with the paper's boundary conditions: the substrate base is an isothermal
heat sink at the ambient temperature and every other surface is thermally and
electrically insulated.

Two usage modes are supported:

* **Power injection** (:meth:`HeatSolver.solve`): the dissipated power of the
  selected cell is deposited uniformly in its filament voxels.  This is the
  fast path used for the alpha-value extraction sweep.
* **Electro-thermal** (:meth:`HeatSolver.solve_electrothermal`): the potential
  field is solved first, the local Joule heating ``j . E`` becomes the heat
  source, exactly as in the paper's coupled simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from ..constants import DEFAULT_AMBIENT_TEMPERATURE_K
from ..errors import ConvergenceError, GeometryError
from .geometry import CrossbarVoxelModel

Cell = Tuple[int, int]


@dataclass
class TemperatureField:
    """Steady-state temperature solution on the voxel grid."""

    model: CrossbarVoxelModel
    values_k: np.ndarray
    ambient_temperature_k: float

    def cell_temperature(self, cell: Cell) -> float:
        """Filament temperature of a cell, probed at the filament centre [K]."""
        return float(self.values_k[self.model.probe_index(cell)])

    def cell_temperature_map(self) -> np.ndarray:
        """(rows x columns) matrix of filament temperatures — the paper's Fig. 2a."""
        g = self.model.geometry
        out = np.zeros((g.rows, g.columns))
        for row, column in g.iter_cells():
            out[row, column] = self.cell_temperature((row, column))
        return out

    @property
    def max_temperature_k(self) -> float:
        """Hottest voxel temperature [K]."""
        return float(self.values_k.max())

    def rise_map(self) -> np.ndarray:
        """Cell temperature rises above ambient [K]."""
        return self.cell_temperature_map() - self.ambient_temperature_k


@dataclass
class PotentialSolution:
    """Solution of the current-continuity equation."""

    model: CrossbarVoxelModel
    potential_v: np.ndarray
    joule_heating_w: np.ndarray
    total_current_a: float
    applied_voltage_v: float

    @property
    def total_power_w(self) -> float:
        """Total dissipated power [W]."""
        return float(self.joule_heating_w.sum())


class _FiniteVolumeAssembler:
    """Shared finite-volume assembly for diffusion-type operators."""

    def __init__(self, model: CrossbarVoxelModel):
        self.model = model
        self.shape = model.shape
        self.size = int(np.prod(self.shape))
        self.dx = model.x_axis.widths_m
        self.dy = model.y_axis.widths_m
        self.dz = model.z_axis.widths_m

    def flat(self, ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
        return np.ravel_multi_index((ix, iy, iz), self.shape)

    def face_conductances(self, conductivity: np.ndarray, axis: int) -> np.ndarray:
        """Conductances [W/K or S] across every interior face along ``axis``."""
        nx, ny, nz = self.shape
        if axis == 0:
            widths = self.dx
            area = np.multiply.outer(self.dy, self.dz)[np.newaxis, :, :]
        elif axis == 1:
            widths = self.dy
            area = np.multiply.outer(self.dx, self.dz)[:, np.newaxis, :]
        else:
            widths = self.dz
            area = np.multiply.outer(self.dx, self.dy)[:, :, np.newaxis]

        lower = [slice(None)] * 3
        upper = [slice(None)] * 3
        lower[axis] = slice(0, -1)
        upper[axis] = slice(1, None)
        k_lower = conductivity[tuple(lower)]
        k_upper = conductivity[tuple(upper)]

        w = widths.reshape([-1 if i == axis else 1 for i in range(3)])
        w_lower = np.broadcast_to(w[tuple(lower)] if w.shape[axis] > 1 else w, k_lower.shape)
        w_upper = np.broadcast_to(w[tuple(upper)] if w.shape[axis] > 1 else w, k_upper.shape)

        with np.errstate(divide="ignore", invalid="ignore"):
            resist_lower = np.where(k_lower > 0, 0.5 * w_lower / np.maximum(k_lower, 1e-300), np.inf)
            resist_upper = np.where(k_upper > 0, 0.5 * w_upper / np.maximum(k_upper, 1e-300), np.inf)
            resist = resist_lower + resist_upper
            conduct = np.where(np.isfinite(resist) & (resist > 0), 1.0 / resist, 0.0)
        return conduct * np.broadcast_to(area, conduct.shape)

    def assemble_laplacian(
        self, conductivity: np.ndarray, active: Optional[np.ndarray] = None
    ) -> sparse.csr_matrix:
        """Assemble the (negative-definite-free) diffusion operator matrix.

        Rows/columns corresponding to inactive voxels are left empty; callers
        handle them separately (Dirichlet or excluded).
        """
        rows = []
        cols = []
        vals = []
        diag = np.zeros(self.size)
        nx, ny, nz = self.shape
        for axis in range(3):
            g = self.face_conductances(conductivity, axis)
            idx_lower = np.indices(g.shape)
            lower_flat = self.flat(*idx_lower)
            shift = np.zeros(3, dtype=int)
            shift[axis] = 1
            upper_flat = self.flat(
                idx_lower[0] + shift[0], idx_lower[1] + shift[1], idx_lower[2] + shift[2]
            )
            g_flat = g.ravel()
            lower_flat = lower_flat.ravel()
            upper_flat = upper_flat.ravel()
            if active is not None:
                act = active.ravel()
                keep = act[lower_flat] & act[upper_flat]
                g_flat = g_flat[keep]
                lower_flat = lower_flat[keep]
                upper_flat = upper_flat[keep]
            keep = g_flat > 0
            g_flat = g_flat[keep]
            lower_flat = lower_flat[keep]
            upper_flat = upper_flat[keep]
            rows.extend([lower_flat, upper_flat])
            cols.extend([upper_flat, lower_flat])
            vals.extend([-g_flat, -g_flat])
            np.add.at(diag, lower_flat, g_flat)
            np.add.at(diag, upper_flat, g_flat)

        all_rows = np.concatenate(rows + [np.arange(self.size)])
        all_cols = np.concatenate(cols + [np.arange(self.size)])
        all_vals = np.concatenate(vals + [diag])
        return sparse.csr_matrix((all_vals, (all_rows, all_cols)), shape=(self.size, self.size))


class HeatSolver:
    """Steady-state heat solver on the crossbar voxel model."""

    def __init__(
        self,
        model: CrossbarVoxelModel,
        ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    ):
        if ambient_temperature_k <= 0:
            raise GeometryError("ambient temperature must be positive")
        self.model = model
        self.ambient_temperature_k = ambient_temperature_k
        self._assembler = _FiniteVolumeAssembler(model)
        self._factor: Optional[sparse_linalg.SuperLU] = None
        self._sink_rhs: Optional[np.ndarray] = None

    # -- assembly (cached) --------------------------------------------------

    def _build_system(self) -> Tuple[sparse_linalg.SuperLU, np.ndarray]:
        """LU factor of the heat-conduction matrix and the heat-sink RHS.

        The matrix depends only on the voxel model, so it is assembled and
        factored once and every power injection is one triangular solve.
        """
        if self._factor is not None:
            return self._factor, self._sink_rhs
        asm = self._assembler
        matrix = asm.assemble_laplacian(self.model.kappa).tolil()
        sink_rhs = np.zeros(asm.size)
        # Dirichlet heat sink at the substrate base (z = 0 face) via ghost
        # conductances to the ambient temperature.
        nx, ny, _ = self.model.shape
        dz0 = self.model.z_axis.widths_m[0]
        kappa0 = self.model.kappa[:, :, 0]
        area = np.multiply.outer(self.model.x_axis.widths_m, self.model.y_axis.widths_m)
        ghost = np.where(kappa0 > 0, kappa0 / (0.5 * dz0), 0.0) * area
        ix, iy = np.indices((nx, ny))
        flat = asm.flat(ix, iy, np.zeros_like(ix))
        flat = flat.ravel()
        ghost_flat = ghost.ravel()
        diag = matrix.diagonal()
        diag[flat] += ghost_flat
        matrix.setdiag(diag)
        sink_rhs[flat] += ghost_flat * self.ambient_temperature_k
        self._factor = sparse_linalg.splu(matrix.tocsc())
        self._sink_rhs = sink_rhs
        return self._factor, self._sink_rhs

    # -- public API ----------------------------------------------------------

    def solve(self, power_sources_w: Mapping[Cell, float]) -> TemperatureField:
        """Solve for the temperature field with per-cell filament power injection."""
        factor, sink_rhs = self._build_system()
        rhs = sink_rhs.copy()
        for cell, power_w in power_sources_w.items():
            if power_w < 0:
                raise GeometryError(f"negative power for cell {cell!r}")
            if power_w == 0:
                continue
            mask = self.model.filament_masks.get(tuple(cell))
            if mask is None:
                raise GeometryError(f"cell {cell!r} not present in the voxel model")
            indices = np.flatnonzero(mask.ravel())
            rhs[indices] += power_w / len(indices)
        values = factor.solve(rhs)
        if not np.all(np.isfinite(values)):
            raise ConvergenceError("heat solve produced non-finite temperatures")
        field = values.reshape(self.model.shape)
        return TemperatureField(self.model, field, self.ambient_temperature_k)

    def solve_from_joule_field(self, joule_heating_w: np.ndarray) -> TemperatureField:
        """Solve for the temperature field given a per-voxel heat source [W]."""
        if joule_heating_w.shape != self.model.shape:
            raise GeometryError("joule heating field shape does not match the voxel model")
        factor, sink_rhs = self._build_system()
        values = factor.solve(sink_rhs + joule_heating_w.ravel())
        if not np.all(np.isfinite(values)):
            raise ConvergenceError("heat solve produced non-finite temperatures")
        return TemperatureField(self.model, values.reshape(self.model.shape), self.ambient_temperature_k)

    def solve_potential(self, cell: Cell, voltage_v: float) -> PotentialSolution:
        """Solve the current-continuity equation for a selected cell.

        The selected cell's top (column) line is driven at ``voltage_v`` at
        its boundary end face, the selected bottom (row) line is grounded at
        its end face, every other conductor floats, reproducing the paper's
        crossbar selection for the COMSOL step.
        """
        row, column = cell
        self.model.geometry.validate_cell(row, column)
        asm = self._assembler
        active = self.model.sigma > 0
        matrix = asm.assemble_laplacian(self.model.sigma, active=active).tolil()

        top_mask = self.model.top_line_mask(column) & active
        bottom_mask = self.model.bottom_line_mask(row) & active
        drive_mask = np.zeros(self.model.shape, dtype=bool)
        ground_mask = np.zeros(self.model.shape, dtype=bool)
        # Contact faces: the y = 0 end of the driven column line and the
        # x = 0 end of the grounded row line.
        drive_mask[:, 0, :] = top_mask[:, 0, :]
        ground_mask[0, :, :] = bottom_mask[0, :, :]
        if not drive_mask.any() or not ground_mask.any():
            raise GeometryError("could not locate electrode contact faces for the potential solve")

        fixed = drive_mask | ground_mask
        fixed_values = np.where(drive_mask, voltage_v, 0.0)

        size = asm.size
        fixed_flat = np.flatnonzero(fixed.ravel())
        fixed_vals_flat = fixed_values.ravel()[fixed_flat]
        csr = matrix.tocsr()
        # Standard Dirichlet elimination: move the fixed columns to the RHS,
        # blank the fixed and electrically inactive rows/columns and pin them
        # with identity entries.  A tiny diagonal regularisation keeps any
        # floating conductor island (pure-Neumann sub-network) non-singular.
        keep = np.ones(size)
        keep[fixed_flat] = 0.0
        keep[~active.ravel()] = 0.0
        keep_diag = sparse.diags(keep)
        rhs = keep_diag @ (-(csr[:, fixed_flat] @ fixed_vals_flat))
        rhs[fixed_flat] = fixed_vals_flat
        system = keep_diag @ csr @ keep_diag + sparse.diags(1.0 - keep) + 1e-12 * keep_diag
        solution = sparse_linalg.splu(system.tocsc()).solve(rhs)
        if not np.all(np.isfinite(solution)):
            raise ConvergenceError("potential solve produced non-finite values")
        potential = solution.reshape(self.model.shape)

        joule = self._joule_heating(potential, active)
        # Total current through the driven contact.
        total_current = self._contact_current(potential, drive_mask, voltage_v)
        return PotentialSolution(
            model=self.model,
            potential_v=potential,
            joule_heating_w=joule,
            total_current_a=total_current,
            applied_voltage_v=voltage_v,
        )

    def solve_electrothermal(self, cell: Cell, voltage_v: float) -> Tuple[TemperatureField, PotentialSolution]:
        """Coupled solve: potential -> Joule heating -> temperature field."""
        potential = self.solve_potential(cell, voltage_v)
        temperature = self.solve_from_joule_field(potential.joule_heating_w)
        return temperature, potential

    # -- internals -----------------------------------------------------------

    def _joule_heating(self, potential: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Per-voxel Joule heating [W] from the potential solution."""
        asm = self._assembler
        heating = np.zeros(self.model.shape)
        for axis in range(3):
            g = asm.face_conductances(self.model.sigma, axis)
            lower = [slice(None)] * 3
            upper = [slice(None)] * 3
            lower[axis] = slice(0, -1)
            upper[axis] = slice(1, None)
            dphi = potential[tuple(lower)] - potential[tuple(upper)]
            act = active[tuple(lower)] & active[tuple(upper)]
            face_power = np.where(act, g * dphi ** 2, 0.0)
            heating[tuple(lower)] += 0.5 * face_power
            heating[tuple(upper)] += 0.5 * face_power
        return heating

    def _contact_current(self, potential: np.ndarray, drive_mask: np.ndarray, voltage_v: float) -> float:
        """Net current leaving the driven contact voxels [A]."""
        asm = self._assembler
        active = self.model.sigma > 0
        total = 0.0
        for axis in range(3):
            g = asm.face_conductances(self.model.sigma, axis)
            lower = [slice(None)] * 3
            upper = [slice(None)] * 3
            lower[axis] = slice(0, -1)
            upper[axis] = slice(1, None)
            dphi = potential[tuple(lower)] - potential[tuple(upper)]
            act = active[tuple(lower)] & active[tuple(upper)]
            from_lower = act & drive_mask[tuple(lower)] & ~drive_mask[tuple(upper)]
            from_upper = act & drive_mask[tuple(upper)] & ~drive_mask[tuple(lower)]
            total += float(np.sum(np.where(from_lower, g * dphi, 0.0)))
            total -= float(np.sum(np.where(from_upper, g * dphi, 0.0)))
        return total
