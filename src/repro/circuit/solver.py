"""Nonlinear nodal-analysis solver for the crossbar netlist.

This replaces the SPICE engine of Cadence Virtuoso for the operating-point
solves the framework needs: given driver voltages, wire resistances and the
(nonlinear, state- and temperature-dependent) memristive devices, find all
node voltages such that Kirchhoff's current law holds at every node.

The solver performs damped Newton-Raphson iterations on the same equations
as the original dense implementation (kept as
:class:`repro.circuit.reference.ReferenceCrossbarSolver` for validation and
benchmarking), but every per-device Python loop has been replaced by
array-native code, and the Jacobian is factored far less often than once per
iteration:

* all device currents and small-signal conductances are evaluated in one call
  through the model's :meth:`~repro.devices.base.MemristorModel.batched`
  interface (NumPy kernels for the shipped models), each call of one solve
  with the solve's :class:`~repro.devices.base.SolveScratch`;
* the Jacobian is assembled from index arrays precomputed once per netlist —
  the constant linear (wire + driver) stamps live in a cached CSR data
  vector, and the device stamps are scattered into their CSR slots with
  vectorized fancy indexing;
* the Jacobian is factored with ``scipy.sparse.linalg.splu`` and the factor
  is kept; each iteration is a chord (modified-Newton) step, one pair of
  triangular solves of the KCL residual vector against the held factor (see
  :class:`CrossbarSolver` for when it refactors and when a solve stops).

The KCL residual vector is both the convergence check and the right-hand
side of the step; it reuses the device currents already evaluated for the
iteration instead of recomputing them per device.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Optional, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import SuperLU, splu

from ..devices.base import (
    BatchedDeviceModel,
    DeviceState,
    DeviceStateArrays,
    MemristorModel,
    SolveScratch,
)
from ..errors import ConfigurationError, ConvergenceError
from ..faults import register_retryable
from ..obs import get_telemetry
from .drivers import BiasPattern
from .netlist import GROUND_NODE, CrossbarNetlist

# A failed Newton solve is a warm-start/damping artefact more often than a
# property of the configuration, so campaigns may retry it (see repro.faults).
register_retryable(ConvergenceError)

Cell = Tuple[int, int]

#: Per-cell device states accepted by :meth:`CrossbarSolver.solve`: either the
#: array-native container or the legacy per-cell mapping.
StateLike = Union[DeviceStateArrays, Mapping[Cell, DeviceState]]

#: A step larger than this fraction of the previous one means the held factor
#: no longer tracks the Jacobian: the next iteration refactors.
REFACTOR_CONTRACTION = 0.3

#: A solve may end on a chord step only when the step is below this fraction
#: of ``voltage_tolerance_v``; a linearly contracting iteration leaves an
#: error of the order of its last step.
CHORD_STOP_FRACTION = 1e-5


class NodeVoltageMap(MappingABC):
    """Lazy ``{node name: voltage}`` view over the solved voltage vector.

    Building an explicit dict costs O(nodes) Python work per solve — wasteful
    for a 256x256 crossbar with ~130k nodes.  This view resolves names on
    demand through the netlist's name index (itself built on the first lookup
    by name) and behaves like the dict the solver used to return (including
    the implicit ground entry).
    """

    __slots__ = ("_netlist", "_vector")

    def __init__(self, netlist: CrossbarNetlist, vector: np.ndarray):
        self._netlist = netlist
        self._vector = vector

    def __getitem__(self, name: str) -> float:
        if name == GROUND_NODE:
            return 0.0
        return float(self._vector[self._netlist.node_index[name]])

    def __iter__(self) -> Iterator[str]:
        yield from self._netlist.nodes
        yield GROUND_NODE

    def __len__(self) -> int:
        return self._netlist.node_count + 1


@dataclass
class OperatingPoint:
    """Solved DC operating point of the crossbar."""

    node_voltages_v: Mapping[str, float]
    #: Per-cell branch voltage (word-line node minus bit-line node) [V].
    device_voltages_v: np.ndarray
    #: Per-cell branch current [A].
    device_currents_a: np.ndarray
    #: Per-cell dissipated power [W].
    device_powers_w: np.ndarray
    #: Iterations used (chord and Newton steps).
    iterations: int
    #: Largest KCL residual at convergence [A].
    residual_a: float

    def cell_voltage(self, cell: Cell) -> float:
        """Branch voltage of one cell [V]."""
        return float(self.device_voltages_v[cell[0], cell[1]])

    def cell_current(self, cell: Cell) -> float:
        """Branch current of one cell [A]."""
        return float(self.device_currents_a[cell[0], cell[1]])

    def cell_power(self, cell: Cell) -> float:
        """Dissipated power of one cell [W]."""
        return float(self.device_powers_w[cell[0], cell[1]])

    @property
    def total_power_w(self) -> float:
        """Total power dissipated in the memristive devices [W]."""
        return float(self.device_powers_w.sum())


class CrossbarSolver:
    """Damped chord-Newton nodal-analysis solver over a crossbar netlist.

    The solver holds one sparse LU factor (``splu``, minimum-degree ordering
    on ``A^T + A``) of the last Jacobian it assembled.  Every iteration steps
    by the held factor's solve of the KCL residual vector.  Device
    conductances are evaluated and the Jacobian assembled and refactored at
    the present iterate only when

    * there is no factor yet,
    * the driver stamps of the bias (its driven-line set) differ from the
      ones the factor was built with, or
    * the previous step shrank by less than :data:`REFACTOR_CONTRACTION`
      relative to the one before it.

    The factor lives as long as the solver, so it carries across solves —
    Picard iterations, attack phases, the sampled arrays of one batch — but
    never across crossbars.  So does the solution: each solve starts from the
    previous one.  The first solve is a cold start: every node of a word-line
    or bit-line chain starts at its driver's voltage (0 V on a floating
    line), so a device between two driven lines starts at its wire-drop-free
    bias and the solve typically needs a single factor.  A solve converges
    when the KCL residual is below ``residual_tolerance_a`` and the last step
    is below ``voltage_tolerance_v`` if it was a Newton step (factor built at
    its iterate), or below :data:`CHORD_STOP_FRACTION` of that if it was a
    chord step.

    Each solve creates one :class:`~repro.devices.base.SolveScratch` and
    passes it to every device-kernel call it makes.  The device states and
    temperatures are fixed for the solve, so a kernel may derive its
    (x, T)-only constants on the first call and warm-start each inner solve
    from the last (the JART kernel does both).  The scratch is dropped with
    the solve; only the node voltages carry over to the next one.

    Args:
        netlist: The expanded crossbar netlist.
        model: Scalar device model; its :meth:`batched` kernel evaluates all
            devices per iteration in one call.
    """

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
        self._last_solution: Optional[np.ndarray] = None
        self._batched: BatchedDeviceModel = model.batched()
        #: Held LU factor of the last assembled Jacobian and the driver
        #: conductances it was assembled with.
        self._factor: Optional[SuperLU] = None
        self._factor_g: Optional[np.ndarray] = None

        self._dev_w, self._dev_b = netlist.device_wordline, netlist.device_bitline
        self._dev_rows, self._dev_cols = netlist.device_rows, netlist.device_cols
        # Nodes are numbered chain by chain, each chain from its driver node.
        self._chain_lengths = np.diff(np.append(netlist.driver_nodes, netlist.node_count))
        self._assemble_structure()

    # -- assembly -----------------------------------------------------------

    def _assemble_structure(self) -> None:
        """Precompute the sparsity pattern and the constant (linear) stamps.

        The nodal matrix is the sum of three contributions: the constant wire
        resistor stamps, the per-solve driver Norton conductances (diagonal
        only) and the device companion conductances.  All three are
        expressed as entries of one fixed COO template whose mapping onto CSR
        data slots is computed here once; each assembly then only fills a
        data vector — no Python loops, no re-sorting.
        """
        netlist = self.netlist
        n = netlist.node_count
        # Drivers are Norton stamps, so no wire segment touches ground.
        seg_a, seg_b = netlist.segment_a, netlist.segment_b
        seg_g = np.full(seg_a.size, netlist.segment_conductance_s)

        lin_rows = np.concatenate([seg_a, seg_b, seg_a, seg_b])
        lin_cols = np.concatenate([seg_a, seg_b, seg_b, seg_a])
        lin_data = np.concatenate([seg_g, seg_g, -seg_g, -seg_g])

        diag = np.arange(n, dtype=np.int64)
        dev_w, dev_b = self._dev_w, self._dev_b

        rows = np.concatenate([lin_rows, diag, dev_w, dev_b, dev_w, dev_b])
        cols = np.concatenate([lin_cols, diag, dev_w, dev_b, dev_b, dev_w])
        keys = rows * np.int64(n) + cols
        unique_keys, inverse = np.unique(keys, return_inverse=True)

        self._nnz = int(unique_keys.size)
        self._csr_indices = (unique_keys % n).astype(np.int32)
        self._csr_indptr = np.searchsorted(
            unique_keys, np.arange(n + 1, dtype=np.int64) * n
        ).astype(np.int32)

        n_lin = lin_rows.size
        nd = dev_w.size
        self._base_data = np.bincount(inverse[:n_lin], weights=lin_data, minlength=self._nnz)
        self._diag_slots = inverse[n_lin : n_lin + n]
        offset = n_lin + n
        self._slot_ww = inverse[offset : offset + nd]
        self._slot_bb = inverse[offset + nd : offset + 2 * nd]
        self._slot_wb = inverse[offset + 2 * nd : offset + 3 * nd]
        self._slot_bw = inverse[offset + 3 * nd : offset + 4 * nd]

        get_telemetry().count("solver.jacobian.structure_builds")

        self._linear_operator = sparse.csr_matrix(
            (self._base_data.copy(), self._csr_indices.copy(), self._csr_indptr.copy()),
            shape=(n, n),
        )

    def _driver_stamps(self, bias: BiasPattern) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Norton-equivalent driver stamps and the driver voltage of every line.

        Returns (diagonal conductance, current, line voltages), the lines in
        driver-node order.  A floating line (``None``) gets no stamp and a
        line voltage of 0 V.
        """
        netlist = self.netlist
        geometry = netlist.geometry
        line_voltages = [bias.row_voltage(row) for row in range(geometry.rows)]
        line_voltages += [bias.column_voltage(column) for column in range(geometry.columns)]
        driven = np.array([voltage is not None for voltage in line_voltages])
        line_v = np.array(
            [0.0 if voltage is None else voltage for voltage in line_voltages], dtype=float
        )
        nodes = netlist.driver_nodes[driven]
        g = netlist.driver_conductance_s
        extra_g = np.zeros(netlist.node_count)
        currents = np.zeros(netlist.node_count)
        extra_g[nodes] += g
        currents[nodes] += g * line_v[driven]
        return extra_g, currents, line_v

    def _state_arrays(self, states: StateLike) -> Tuple[np.ndarray, np.ndarray]:
        """Per-device state and temperature vectors in netlist device order."""
        arrays = states if isinstance(states, DeviceStateArrays) else getattr(states, "arrays", None)
        if isinstance(arrays, DeviceStateArrays):
            geometry = self.netlist.geometry
            if arrays.shape != (geometry.rows, geometry.columns):
                raise ConfigurationError(
                    f"state array shape {arrays.shape} does not match the "
                    f"{geometry.rows}x{geometry.columns} netlist"
                )
            return (
                arrays.x[self._dev_rows, self._dev_cols],
                arrays.temperature_k[self._dev_rows, self._dev_cols],
            )
        cells = [states[cell] for cell in zip(self._dev_rows.tolist(), self._dev_cols.tolist())]
        return (
            np.array([state.x for state in cells], dtype=float),
            np.array([state.filament_temperature_k for state in cells], dtype=float),
        )

    # -- solving --------------------------------------------------------------

    def solve(self, bias: BiasPattern, states: StateLike) -> OperatingPoint:
        """Solve the nonlinear operating point for one bias pattern.

        Newton starts from the previous solution (warm start) or, on the
        solver's first solve, from the cold start.

        Args:
            bias: Driver voltages per line (None = floating).
            states: Device state per cell — a :class:`DeviceStateArrays`
                container (fast path) or any mapping with every crosspoint
                present (legacy path).
        """
        extra_g, driver_currents, line_v = self._driver_stamps(bias)
        x_arr, t_arr = self._state_arrays(states)

        warm_started = self._last_solution is not None
        if warm_started:
            voltages = self._last_solution.copy()
        else:
            voltages = np.repeat(line_v, self._chain_lengths)

        if self._factor_g is not None and not np.array_equal(extra_g, self._factor_g):
            self._factor = None  # the driven-line set changed

        dev_w, dev_b = self._dev_w, self._dev_b
        scratch = SolveScratch()
        iterations = factorizations = 0
        prev_step = np.inf
        stop_step = self.voltage_tolerance_v
        refactor = False
        converged = False
        residual = np.inf
        tel = get_telemetry()
        residual_trajectory = [] if tel.enabled else None
        for solve_count in range(self.max_iterations + 1):
            branch_v = voltages[dev_w] - voltages[dev_b]
            currents = self._batched.current(branch_v, x_arr, t_arr, scratch)
            kcl = self._kcl_residual(voltages, extra_g, driver_currents, currents)
            residual = float(np.abs(kcl).max())
            if residual_trajectory is not None:
                residual_trajectory.append(residual)
            if prev_step < stop_step and residual < self.residual_tolerance_a:
                converged = True
                break
            if solve_count == self.max_iterations:
                break
            newton = refactor or self._factor is None
            if newton:
                conductances = self._batched.conductance(branch_v, x_arr, t_arr, scratch)
                self._factorize(extra_g, conductances, tel)
                factorizations += 1
            step = self._factor.solve(kcl)
            max_step = float(np.abs(step).max())
            refactor = max_step > REFACTOR_CONTRACTION * prev_step
            stop_step = self.voltage_tolerance_v * (1.0 if newton else CHORD_STOP_FRACTION)
            if max_step > self.max_step_v:
                step *= self.max_step_v / max_step
            voltages = voltages + step
            prev_step = max_step
            iterations = solve_count + 1

        if tel.enabled:
            tel.count("solver.solves")
            tel.count("solver.iterations", iterations)
            # Every iteration is one triangular solve against the held factor.
            tel.count("solver.triangular_solves", iterations)
            tel.count("solver.factorizations", factorizations)
            if warm_started:
                tel.count("solver.warm_starts")
            tel.observe("solver.residual_a", residual)
            tel.observe("solver.iterations_per_solve", iterations)
            numerics = tel.numerics
            numerics.check_array("solver.solve", "node_voltages_v", voltages)
            numerics.check_array("solver.solve", "device_currents_a", currents)
            numerics.check_iterations("solver.solve", iterations, self.max_iterations)
            numerics.check_residuals("solver.solve", residual_trajectory)

        if not converged:
            if tel.enabled:
                tel.count("solver.failures")
            raise ConvergenceError(
                f"crossbar Newton solve did not converge after {self.max_iterations} iterations "
                f"(residual {residual:.3g} A)"
            )

        self._last_solution = voltages.copy()
        if tel.audit is not None:
            tel.audit.record(
                "solver.operating_point",
                arrays={
                    "node_voltages_v": voltages,
                    "device_voltages_v": branch_v,
                    "device_currents_a": currents,
                },
                meta={"iterations": iterations, "residual_a": residual},
            )
        return self._operating_point(voltages, branch_v, currents, iterations, residual)

    # -- helpers ---------------------------------------------------------------

    def _factorize(self, extra_g: np.ndarray, conductances: np.ndarray, tel: Any) -> None:
        """Assemble the Jacobian at the present iterate and hold its LU factor."""
        n = self.netlist.node_count
        data = self._base_data.copy()
        data[self._diag_slots] += extra_g
        # Every crosspoint owns its word-line and bit-line node, so the
        # scatter targets are unique and plain fancy indexing applies.
        data[self._slot_ww] += conductances
        data[self._slot_bb] += conductances
        data[self._slot_wb] -= conductances
        data[self._slot_bw] -= conductances

        if tel.enabled:
            # Stamp-magnitude spread of the assembled Jacobian data: a cheap
            # conditioning proxy that drifts with the true condition number.
            tel.numerics.gauge_condition("solver.jacobian", data)

        # The nodal matrix is exactly symmetric, so its CSR arrays are also
        # its CSC arrays.
        jacobian = sparse.csc_matrix((data, self._csr_indices, self._csr_indptr), shape=(n, n))
        self._factor = splu(jacobian, permc_spec="MMD_AT_PLUS_A")
        self._factor_g = extra_g

    def _kcl_residual(
        self,
        voltages: np.ndarray,
        extra_g: np.ndarray,
        driver_currents: np.ndarray,
        device_currents: np.ndarray,
    ) -> np.ndarray:
        """KCL residual vector of the present voltages [A]: net current into
        each node, and the right-hand side of the Newton step.

        Reuses the device currents evaluated for this iteration instead of
        recomputing them per device.
        """
        residual = driver_currents - extra_g * voltages - self._linear_operator @ voltages
        residual[self._dev_w] -= device_currents
        residual[self._dev_b] += device_currents
        return residual

    def _operating_point(
        self,
        voltages: np.ndarray,
        branch_v: np.ndarray,
        currents: np.ndarray,
        iterations: int,
        residual: float,
    ) -> OperatingPoint:
        geometry = self.netlist.geometry
        device_v = np.zeros((geometry.rows, geometry.columns))
        device_i = np.zeros_like(device_v)
        device_v[self._dev_rows, self._dev_cols] = branch_v
        device_i[self._dev_rows, self._dev_cols] = currents
        node_voltages = NodeVoltageMap(self.netlist, voltages.copy())
        return OperatingPoint(
            node_voltages_v=node_voltages,
            device_voltages_v=device_v,
            device_currents_a=device_i,
            device_powers_w=np.abs(device_v * device_i),
            iterations=iterations,
            residual_a=residual,
        )
