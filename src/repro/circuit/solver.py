"""Nonlinear nodal-analysis solver for the crossbar netlist.

This replaces the SPICE engine of Cadence Virtuoso for the operating-point
solves the framework needs: given driver voltages, wire resistances and the
(nonlinear, state- and temperature-dependent) memristive devices, find all
node voltages such that Kirchhoff's current law holds at every node.

The solver performs damped chord-Newton iterations on the same equations
as the original dense implementation (kept as
:class:`repro.circuit.reference.ReferenceCrossbarSolver` for validation and
benchmarking), but every per-device Python loop has been replaced by
array-native code, and no general sparse factorization is needed:

* all device currents and small-signal conductances are evaluated in one call
  through the model's :meth:`~repro.devices.base.MemristorModel.batched`
  interface (NumPy kernels for the shipped models), each call of one solve
  with the solve's :class:`~repro.devices.base.SolveScratch`;
* nodes are numbered chain by chain from each driver, so the Jacobian
  without its word-line/bit-line device couplings is one symmetric
  positive-definite tridiagonal matrix, the *chain band*, whose LDL^T
  factor (LAPACK ``dpttrf``) costs O(nodes) and is held;
* each iteration is a chord step: block Gauss-Seidel sweeps over the
  word-line and bit-line chains against that factor, two where most lines
  are driven (see :class:`CrossbarSolver` for how many, when the band is
  rebuilt and when a solve stops).

The KCL residual vector is both the convergence check and the right-hand
side of the step; it reuses the device currents already evaluated for the
iteration instead of recomputing them per device.
"""

from __future__ import annotations

import math
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from ..devices.base import BatchedDeviceModel, DeviceStateArrays, MemristorModel, SolveScratch
from ..errors import ConfigurationError, ConvergenceError
from ..faults import register_retryable
from ..obs import get_telemetry
from .drivers import BiasPattern
from .netlist import GROUND_NODE, CrossbarNetlist

# A failed Newton solve is a warm-start/damping artefact more often than a
# property of the configuration, so campaigns may retry it (see repro.faults).
register_retryable(ConvergenceError)

Cell = Tuple[int, int]

#: A step larger than this fraction of the previous one means the held factor
#: no longer tracks the Jacobian: the next iteration rebuilds it.
REFACTOR_CONTRACTION = 0.3

#: A solve may end only when its last step is below this fraction of
#: ``voltage_tolerance_v``; a linearly contracting iteration leaves an error
#: of the order of its last step.  This is the solver's own stop, which the
#: operating point a thermal snapshot returns always meets; the solves
#: before a snapshot's last stop at
#: :data:`~repro.circuit.crossbar.LOOSE_SOLVE_STOP`.
CHORD_STOP_FRACTION = 1e-5

#: A chord step sweeps until the error its last two corrections predict is
#: below this fraction of the step, or for at most MAX_SWEEPS sweeps.
SWEEP_TOLERANCE = 1e-2
MAX_SWEEPS = 1000


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

    The nodal Jacobian is J = T + C.  The chain band T is tridiagonal: the
    wire and driver stamps of every word-line and bit-line chain, plus each
    device's conductance g on the diagonal entries of its two nodes; C holds
    the devices' word-line/bit-line couplings -g.  The solver holds the
    LDL^T factor of the last band it built.  Every iteration steps by block
    Gauss-Seidel sweeps on the held J against the KCL residual vector.  A
    sweep solves the word-line chains, adds each device's g times its
    word-line step into the bit-line right-hand side, then solves the
    bit-line chains; each later sweep runs on the residual r - J*step the
    earlier ones left.  Two sweeps make a step wherever most lines are
    driven; where most lines float they contract slowly, and a step sweeps
    on until the error estimated from its last two corrections is below
    :data:`SWEEP_TOLERANCE` of the step.  Conductances are evaluated and
    the band rebuilt at the present iterate only when

    * there is no factor yet,
    * the driver stamps of the bias (its driven-line set) differ from the
      ones the factor was built with, or
    * the previous step shrank by less than :data:`REFACTOR_CONTRACTION`
      relative to the one before it.

    Sweeps and chord contract because every device conductance is positive:
    T is then positive definite, and J = T - (-C) is a regular splitting of
    an M-matrix.  The JART and Yakopcic kernels floor their conductance at
    1e-12 S (:func:`~repro.devices.base.finite_difference_conductance`);
    linear ion drift's is 1/R.  A model whose conductances make the band
    indefinite fails its factorization, and the solve raises
    :class:`~repro.errors.ConvergenceError`.

    The factor lives as long as the solver, so it carries across solves —
    Picard iterations, attack phases, the sampled arrays of one batch — but
    never across crossbars.  So does the solution: each solve starts from the
    last successful one.  The first solve is a cold start: every node of a
    word-line or bit-line chain starts at its driver's voltage (0 V on a
    floating line), so a device between two driven lines starts at its
    wire-drop-free bias and the solve typically needs a single factor.  No
    step is an exact Newton step, so a solve converges when the KCL residual
    is below ``residual_tolerance_a`` and the last step below
    :data:`CHORD_STOP_FRACTION` of ``voltage_tolerance_v``: the solver's own
    stop.  A caller may give one solve a looser stop, as a thermal snapshot
    does for the solves before its last; the residual watchdog judges each
    solve against the stop it was given, and its audit record names it.  A
    solve whose KCL residual turns non-finite ends at once, and a failed
    solve drops the held factor, so the next one factors afresh.

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
        #: Held LDL^T factor of the last chain band (D, L's subdiagonal, the
        #: band's diagonal, the device conductances) and the driver
        #: conductances it was built with.
        self._factor: Optional[Tuple[np.ndarray, ...]] = None
        self._factor_g: Optional[np.ndarray] = None

        self._dev_w, self._dev_b = netlist.device_wordline, netlist.device_bitline
        self._dev_rows, self._dev_cols = netlist.device_rows, netlist.device_cols
        # Nodes are numbered chain by chain, each chain from its driver node,
        # the word-line chains first.
        self._chain_lengths = np.diff(np.append(netlist.driver_nodes, netlist.node_count))
        self._word_nodes = netlist.geometry.rows * (netlist.geometry.columns + 1)
        # Drivers are Norton stamps, so no wire segment touches ground, and a
        # segment joins consecutive nodes of one chain: its off-diagonal
        # entry sits at its first node, and the entry between chains is 0.
        self._wire_off = np.zeros(netlist.node_count - 1)
        self._wire_off[netlist.segment_a] = -netlist.segment_conductance_s
        self._wire_diag = -np.append(self._wire_off, 0.0) - np.append(0.0, self._wire_off)

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

    def _state_arrays(self, states: DeviceStateArrays) -> Tuple[np.ndarray, np.ndarray]:
        """Per-device state and temperature vectors in netlist device order."""
        geometry = self.netlist.geometry
        if states.shape != (geometry.rows, geometry.columns):
            raise ConfigurationError(
                f"state array shape {states.shape} does not match the "
                f"{geometry.rows}x{geometry.columns} netlist"
            )
        return (
            states.x[self._dev_rows, self._dev_cols],
            states.temperature_k[self._dev_rows, self._dev_cols],
        )

    # -- solving --------------------------------------------------------------

    def solve(
        self,
        bias: BiasPattern,
        states: DeviceStateArrays,
        *,
        stop: Optional[Tuple[float, float]] = None,
    ) -> OperatingPoint:
        """Solve the nonlinear operating point for one bias pattern.

        Starts from the last successful solve's voltages (warm start) or,
        until a solve has succeeded, from the cold start.

        Args:
            bias: Driver voltages per line (None = floating).
            states: Device state of every cell.
            stop: ``(step_v, residual_a)``: the solve ends once its last
                chord step is below ``step_v`` and its KCL residual below
                ``residual_a``.  The default is the solver's own stop,
                :data:`CHORD_STOP_FRACTION` of ``voltage_tolerance_v`` and
                ``residual_tolerance_a``;
                :meth:`~repro.circuit.crossbar.CrossbarArray.thermal_snapshot`
                passes a looser one to the solves its temperature loop
                moves on from.
        """
        if stop is None:
            stop = (self.voltage_tolerance_v * CHORD_STOP_FRACTION, self.residual_tolerance_a)
        stop_step, stop_residual = stop
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
        refactor = False
        converged = False
        failure = f"did not converge after {self.max_iterations} iterations"
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
            if not math.isfinite(residual):
                failure = f"has a non-finite KCL residual after {iterations} iterations"
                break
            if prev_step < stop_step and residual < stop_residual:
                converged = True
                break
            if solve_count == self.max_iterations:
                break
            if refactor or self._factor is None:
                conductances = self._batched.conductance(branch_v, x_arr, t_arr, scratch)
                info = self._factorize(extra_g, conductances, tel)
                if info:
                    failure = f"has an indefinite chain band (dpttrf info {info})"
                    break
                factorizations += 1
            step = self._chord_step(kcl)
            max_step = float(np.abs(step).max())
            refactor = max_step > REFACTOR_CONTRACTION * prev_step
            if max_step > self.max_step_v:
                step *= self.max_step_v / max_step
            voltages = voltages + step
            prev_step = max_step
            iterations = solve_count + 1

        if tel.enabled:
            tel.count("solver.solves")
            tel.count("solver.iterations", iterations)
            # Every iteration is one chord step against the held factor.
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
            numerics.check_residuals("solver.solve", residual_trajectory, stop_residual)

        if not converged:
            # A factor built from a broken iterate would fail the next solve
            # the same way.
            self._factor = self._factor_g = None
            if tel.enabled:
                tel.count("solver.failures")
            raise ConvergenceError(f"crossbar Newton solve {failure} (residual {residual:.3g} A)")

        self._last_solution = voltages.copy()
        if tel.audit is not None:
            tel.audit.record(
                "solver.operating_point",
                arrays={
                    "node_voltages_v": voltages,
                    "device_voltages_v": branch_v,
                    "device_currents_a": currents,
                },
                meta={
                    "iterations": iterations,
                    "residual_a": residual,
                    "stop_step_v": stop_step,
                    "stop_residual_a": stop_residual,
                },
            )
        return self._operating_point(voltages, branch_v, currents, iterations, residual)

    # -- helpers ---------------------------------------------------------------

    def _factorize(self, extra_g: np.ndarray, conductances: np.ndarray, tel: Any) -> int:
        """Build the chain band at the present iterate and hold its LDL^T
        factor; return LAPACK's ``info``, nonzero (no factor) if indefinite."""
        diag = self._wire_diag + extra_g
        # Every crosspoint owns its word-line and bit-line node, so the
        # scatter targets are unique and plain fancy indexing applies.
        diag[self._dev_w] += conductances
        diag[self._dev_b] += conductances

        if tel.enabled:
            # Stamp-magnitude spread of the Jacobian (band plus couplings): a
            # cheap conditioning proxy that drifts with the condition number.
            tel.numerics.gauge_condition(
                "solver.jacobian", np.concatenate([diag, self._wire_off, conductances])
            )

        d, e, info = dpttrf(diag, self._wire_off)
        self._factor = None if info else (d, e, diag, conductances)
        self._factor_g = extra_g
        return info

    def _chord_step(self, kcl: np.ndarray) -> np.ndarray:
        """Block Gauss-Seidel sweeps on the held Jacobian against ``kcl``.

        The ratio q of the last two corrections estimates the sweeps'
        contraction, so the error left is the tail c*q/(1 - q) of the last
        correction c, and a step takes at least two sweeps."""
        step = self._sweep(kcl)
        previous = float(np.abs(step).max())
        for _ in range(MAX_SWEEPS - 1):
            correction = self._sweep(kcl - self._held_product(step))
            step += correction
            size = float(np.abs(correction).max())
            q = size / previous if previous else 0.0
            # Written so that a NaN step stops sweeping too.
            if not size * q > SWEEP_TOLERANCE * (1.0 - q) * np.abs(step).max():
                break
            previous = size
        return step

    def _sweep(self, rhs: np.ndarray) -> np.ndarray:
        """One block Gauss-Seidel sweep from zero: an approximate J^-1 rhs.

        The band has no entry between the last word-line node and the first
        bit-line node, so its factor splits into the two blocks' factors.
        """
        d, e, _, g = self._factor
        nw = self._word_nodes
        rhs = rhs.copy()
        word = dpttrs(d[:nw], e[: nw - 1], rhs[:nw])[0]
        rhs[self._dev_b] += g * word[self._dev_w]
        return np.concatenate([word, dpttrs(d[nw:], e[nw:], rhs[nw:])[0]])

    def _band_product(self, diag: np.ndarray, vector: np.ndarray) -> np.ndarray:
        """Product of the band with diagonal ``diag`` and the wire off-diagonal."""
        product = diag * vector
        product[:-1] += self._wire_off * vector[1:]
        product[1:] += self._wire_off * vector[:-1]
        return product

    def _held_product(self, step: np.ndarray) -> np.ndarray:
        """Product of the held Jacobian (band plus device couplings) with ``step``."""
        _, _, diag, g = self._factor
        product = self._band_product(diag, step)
        product[self._dev_w] -= g * step[self._dev_b]
        product[self._dev_b] -= g * step[self._dev_w]
        return product

    def _kcl_residual(
        self,
        voltages: np.ndarray,
        extra_g: np.ndarray,
        driver_currents: np.ndarray,
        device_currents: np.ndarray,
    ) -> np.ndarray:
        """KCL residual vector of the present voltages [A]: net current into
        each node, and the right-hand side of the chord step.

        Reuses the device currents evaluated for this iteration instead of
        recomputing them per device.
        """
        residual = driver_currents - extra_g * voltages
        residual -= self._band_product(self._wire_diag, voltages)
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
