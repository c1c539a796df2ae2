"""The memristive crossbar array: devices, wires, drivers and thermal state.

:class:`CrossbarArray` is the central object of the circuit-level framework
(the "memristive crossbar" block of the paper's Fig. 2c).  It owns the device
states of every crosspoint, solves bias patterns through the nonlinear nodal
solver, and keeps the electro-thermal picture consistent by combining each
cell's self-heating (Eq. 6) with the crosstalk hub contribution (Eq. 5).

Device state is stored as ``(rows, columns)`` float arrays
(:class:`~repro.devices.base.DeviceStateArrays`) so the solver and the
transient engine can evaluate the whole array in vectorized calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Tuple

import numpy as np

from ..config import CrossbarGeometry, WireParameters
from ..constants import DEFAULT_AMBIENT_TEMPERATURE_K
from ..devices.base import DeviceState, DeviceStateArrays, MemristorModel, bit_from_state
from ..devices.jart_vcm import JartVcmModel
from ..errors import ConfigurationError, DeviceModelError, GeometryError
from ..obs import get_telemetry
from ..thermal.coupling import AnalyticCouplingModel, CouplingModel
from .crosstalk_hub import CrosstalkHub
from .drivers import BiasPattern
from .netlist import CrossbarNetlist, build_crossbar_netlist
from .solver import CrossbarSolver, OperatingPoint

Cell = Tuple[int, int]

#: Stop of the nodal solves a thermal snapshot moves on from, as
#: ``(last chord step [V], KCL residual [A])`` (see
#: :meth:`~repro.circuit.solver.CrossbarSolver.solve`).  Over four seed-1
#: ``full_array_64`` batches, one paper figure set and one 3x3 map, a
#: 1e-4 V step took 80, 167 and 240 chord steps (131, 280 and 389 at the
#: solver's own stop) with every flip and pulse count unchanged and floats
#: within 2.5e-10; 1e-3 V saved another 9-10 % but moved pulse counts, and
#: 1e-6 V took 89, 192 and 263.  The step binds: residual stops from 1e-4
#: to 1e-7 A took the same steps.
LOOSE_SOLVE_STOP = (1e-4, 1e-6)

#: A snapshot solves loosely while the thermal residual it predicts for the
#: solve is at least this multiple of ``tolerance_k``.  On the same runs no
#: loose solve met the tolerance at 10, so every snapshot kept its 4 solves;
#: at 3, 1 of the 16 figure-set snapshots and 6 of the 24 map snapshots
#: re-solved, and at 30 the map took 260 chord steps against 240.
LOOSE_SOLVE_MARGIN = 10.0


@dataclass
class ThermalSnapshot:
    """Electro-thermal state of the array under one bias pattern.

    :meth:`CrossbarArray.thermal_snapshot` finds it by Picard iteration on
    the temperature field, T <- G(T), with an Anderson(1) step from the
    third solve on.  It stops when the residual G(T) - T is below the
    tolerance in every cell and returns the image G(T) with the operating
    point solved at T; at the iteration cap it returns the last image with
    ``converged`` cleared.  The solves before the last may stop loosely;
    the operating point returned always comes from a solve at the
    solver's own stop.
    """

    operating_point: OperatingPoint
    #: Filament temperature including self-heating and crosstalk [K].
    filament_temperatures_k: np.ndarray
    #: Crosstalk contribution alone [K].
    crosstalk_temperatures_k: np.ndarray
    #: Whether the last residual G(T) - T stayed below the tolerance in
    #: every cell; False means the loop hit its iteration cap.
    converged: bool
    #: Electrical solves the Picard loop ran.
    iterations: int

    def cell_temperature(self, cell: Cell) -> float:
        """Filament temperature of one cell [K]."""
        return float(self.filament_temperatures_k[cell[0], cell[1]])


class CrossbarArray:
    """A passive memristive crossbar with thermal crosstalk."""

    def __init__(
        self,
        geometry: CrossbarGeometry = None,
        model: MemristorModel = None,
        wires: WireParameters = None,
        coupling: CouplingModel = None,
        ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    ):
        self.geometry = geometry if geometry is not None else CrossbarGeometry()
        self.model = model if model is not None else JartVcmModel()
        self.wires = wires if wires is not None else WireParameters()
        if coupling is None:
            coupling = AnalyticCouplingModel(self.geometry)
        elif coupling.geometry is not self.geometry and (
            coupling.geometry.rows != self.geometry.rows
            or coupling.geometry.columns != self.geometry.columns
        ):
            raise GeometryError("coupling model geometry does not match the crossbar")
        if ambient_temperature_k <= 0:
            raise ConfigurationError("ambient temperature must be positive")
        self.ambient_temperature_k = ambient_temperature_k
        self.netlist: CrossbarNetlist = build_crossbar_netlist(self.geometry, self.wires)
        self.solver = CrossbarSolver(self.netlist, self.model)
        self.hub = CrosstalkHub(coupling, ambient_temperature_k)
        pristine = self.model.hrs_state(ambient_temperature_k)
        #: Device state of every cell.
        self.state = DeviceStateArrays(
            self.geometry.rows,
            self.geometry.columns,
            x=pristine.x,
            temperature_k=pristine.filament_temperature_k,
        )

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------

    def set_state(self, cell: Cell, x: float) -> None:
        """Set the normalised state of one cell."""
        self.geometry.validate_cell(*cell)
        cell = tuple(cell)
        self.state.x[cell] = self.model.clamp_state(x)
        self.state.temperature_k[cell] = self.ambient_temperature_k

    def set_bit(self, cell: Cell, bit: int, lrs_is_one: bool = True) -> None:
        """Store a logical bit in a cell (ideal write, no dynamics)."""
        self.geometry.validate_cell(*cell)
        written = self.model.state_from_bit(
            bit, self.ambient_temperature_k, lrs_is_one=lrs_is_one
        )
        cell = tuple(cell)
        self.state.x[cell] = written.x
        self.state.temperature_k[cell] = written.filament_temperature_k

    def get_state(self, cell: Cell) -> DeviceState:
        """Return a detached copy of one cell's device state."""
        self.geometry.validate_cell(*cell)
        cell = tuple(cell)
        return DeviceState(float(self.state.x[cell]), float(self.state.temperature_k[cell]))

    def get_bit(self, cell: Cell, lrs_is_one: bool = True) -> int:
        """Decode the logical bit of a cell from its state."""
        return bit_from_state(self.get_state(cell), lrs_is_one=lrs_is_one)

    def state_map(self) -> np.ndarray:
        """(rows x columns) array of normalised states."""
        return self.state.x.copy()

    def bit_map(self, lrs_is_one: bool = True) -> np.ndarray:
        """(rows x columns) array of stored bits."""
        is_lrs = self.state.x >= 0.5
        bits = is_lrs if lrs_is_one else ~is_lrs
        return bits.astype(int)

    def initialise_states(self, values: Mapping[Cell, float] = None, default_x: float = 0.0) -> None:
        """Reset every cell, optionally overriding individual cells."""
        self.state.x.fill(self.model.clamp_state(default_x))
        self.state.temperature_k.fill(self.ambient_temperature_k)
        if values:
            for cell, x in values.items():
                self.set_state(tuple(cell), x)

    def initialise_bits(self, bits: np.ndarray, lrs_is_one: bool = True) -> None:
        """Load a full bit pattern (the paper's "init file")."""
        bits = np.asarray(bits)
        if bits.shape != (self.geometry.rows, self.geometry.columns):
            raise ConfigurationError("bit pattern shape does not match the crossbar")
        if np.any((bits != 0) & (bits != 1)):
            raise DeviceModelError("bit pattern entries must be 0 or 1")
        lrs = self.model.lrs_state(self.ambient_temperature_k)
        hrs = self.model.hrs_state(self.ambient_temperature_k)
        stored_as_lrs = (bits == 1) == lrs_is_one
        self.state.x[...] = np.where(stored_as_lrs, lrs.x, hrs.x)
        self.state.temperature_k[...] = np.where(
            stored_as_lrs, lrs.filament_temperature_k, hrs.filament_temperature_k
        )

    def reset_temperatures(self) -> None:
        """Relax every filament back to the ambient temperature."""
        self.state.temperature_k.fill(self.ambient_temperature_k)

    # ------------------------------------------------------------------
    # electro-thermal solves
    # ------------------------------------------------------------------

    def solve_bias(self, bias: BiasPattern) -> OperatingPoint:
        """Solve the electrical operating point for one bias pattern."""
        return self.solver.solve(bias, self.state)

    def thermal_snapshot(
        self,
        bias: BiasPattern,
        max_iterations: int = 8,
        tolerance_k: float = 1.0,
    ) -> ThermalSnapshot:
        """Solve bias and return the self-consistent electro-thermal picture.

        The device currents depend on the filament temperatures, which depend
        on the dissipated powers (Eq. 6) plus the crosstalk hub contribution
        (Eq. 5), which depend on the currents again.  The loop re-solves the
        electrical network with updated temperatures until the temperature
        field settles.

        The crosstalk hub is applied once per electrical solve, to the cells'
        *self-heating* rises: the alpha values already describe the complete
        steady-state thermal field of a dissipating cell, so re-radiating a
        crosstalk-received rise through the hub again would double-count heat
        paths.

        Each solve at the field ``T_k`` gives its image ``g_k = G(T_k)``, the
        ambient plus the self-heating and crosstalk rises, and the residual
        ``f_k = g_k - T_k``.  ``T_0`` is the ambient field; the first solve
        runs at the filament temperatures the array holds (``T_0`` unless an
        earlier snapshot left them warm), and its residual is taken against
        ``T_0``.  The first two updates are plain Picard,
        ``T_{k+1} = g_k``.  From the third solve on the update is the
        Anderson(1) step ``T_{k+1} = g_k - theta (g_k - g_{k-1})`` with
        ``theta = <f_k, df> / <df, df>`` and ``df = f_k - f_{k-1}``, clamped
        at the ambient; it falls back to the Picard step when ``df`` is zero.
        (Device currents grow exponentially with temperature, so mixing
        earlier extrapolates from too far off the fixed point.)

        The loop stops when no residual entry reaches ``tolerance_k`` and
        returns the image ``g_k`` with the operating point solved at ``T_k``.
        A loop that reaches ``max_iterations`` returns its last image with
        ``converged`` cleared and counts ``thermal.picard.unconverged``.

        Only the solve whose image the loop returns needs the solver's own
        stop (an inexact fixed point with a forcing term, as in Eisenstat &
        Walker, SIAM J. Sci. Comput. 17, 1996).  So a solve stops at
        :data:`LOOSE_SOLVE_STOP` while the residual predicted for it is at
        least :data:`LOOSE_SOLVE_MARGIN` times ``tolerance_k``, and at the
        solver's own stop after that.  The prediction is how far the solve
        before moved the field it ran at, times the contraction of that
        distance over the solve before it (none after the first solve).
        The first solve runs loose only when the array holds the ambient
        field: a field an earlier snapshot left warm is usually near this
        one's fixed point, and the first image is then the one the loop
        returns from.  The last solve ``max_iterations`` allows is always
        tight, and a loose solve whose residual is already below
        ``tolerance_k`` is solved again tightly at the same field.
        """
        if max_iterations < 1:
            raise ConfigurationError("max_iterations must be at least 1")
        rows, columns = self.geometry.rows, self.geometry.columns
        ambient = float(self.ambient_temperature_k)
        rth = self.model.thermal_resistance_k_per_w()
        temperatures = np.full((rows, columns), ambient)
        image = residual = None
        converged = False
        loose_above = LOOSE_SOLVE_MARGIN * tolerance_k
        # Nothing bounds the first residual from the ambient field; a warm
        # field solves tightly first.
        predicted = np.inf if (self.state.temperature_k == ambient).all() else 0.0
        moved = 0.0
        for iterations in range(1, max_iterations + 1):
            loose = iterations < max_iterations and predicted >= loose_above
            op = self.solver.solve(bias, self.state, stop=LOOSE_SOLVE_STOP if loose else None)
            self_heating = rth * op.device_powers_w
            crosstalk = self.hub.additional_temperatures(ambient + self_heating)
            previous_image, previous_residual = image, residual
            image = ambient + self_heating + crosstalk
            residual = image - temperatures
            if float(np.abs(residual).max()) < tolerance_k:
                if not loose:
                    converged = True
                    break
                # Solve again tightly at the same field, so that the snapshot
                # returns a tight operating point.
                image, residual = previous_image, previous_residual
                predicted = 0.0
                continue
            # How far this solve moved the field it ran at, shrunk by the
            # contraction since the solve before, predicts the next residual.
            previous_moved = moved
            moved = float(np.abs(image - self.state.temperature_k).max())
            predicted = moved * min(1.0, moved / previous_moved) if previous_moved else moved
            temperatures = image
            if iterations >= 3:
                delta = residual - previous_residual
                norm = float(np.vdot(delta, delta))
                if norm > 0.0:
                    theta = float(np.vdot(residual, delta)) / norm
                    temperatures = np.maximum(image - theta * (image - previous_image), ambient)
            self.state.temperature_k[...] = temperatures
        self.state.temperature_k[...] = image
        if not converged:
            get_telemetry().count("thermal.picard.unconverged")
        return ThermalSnapshot(
            operating_point=op,
            filament_temperatures_k=image,
            crosstalk_temperatures_k=crosstalk,
            converged=converged,
            iterations=iterations,
        )

    def temperature_map(self) -> np.ndarray:
        """Current filament temperatures of every cell [K]."""
        return self.state.temperature_k.copy()

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def cells(self) -> Iterable[Cell]:
        """Iterate over all cell coordinates."""
        return self.geometry.iter_cells()

    def centre_cell(self) -> Cell:
        """The middle cell — the paper's default aggressor."""
        return self.geometry.centre_cell()

    def copy_state_arrays(self) -> DeviceStateArrays:
        """Checkpoint of every cell's device state, for :meth:`restore_states`."""
        return self.state.copy()

    def restore_states(self, snapshot: DeviceStateArrays) -> None:
        """Restore a snapshot from :meth:`copy_state_arrays`."""
        if snapshot.shape != self.state.shape:
            raise GeometryError("state snapshot shape does not match the crossbar")
        self.state.x[...] = snapshot.x
        self.state.temperature_k[...] = snapshot.temperature_k
