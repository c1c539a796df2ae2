"""NumPy-vectorized counterparts of the scalar device physics.

The scalar stack (:mod:`repro.devices.jart_vcm`, :mod:`repro.devices.thermal`,
:mod:`repro.devices.kinetics`) evaluates one cell at a time in pure Python —
perfect for a single trajectory, hopeless for a 10^4-cell Monte-Carlo
population.  This module re-implements the same algorithms over whole lanes of
cells at once:

* :class:`VectorizedJartVcm` — the JART-style VCM compact model with one
  parameter *array* per physical parameter, so every cell of the population
  can carry its own sampled activation energy, series resistance, ...;
* :func:`solve_operating_point_batch` — the safeguarded-secant electro-thermal
  fixed point of :func:`repro.devices.thermal.solve_operating_point`;
* :func:`pulses_to_switch_batch` — the pulse count of
  :mod:`repro.devices.kinetics`, its rates solved over lanes × quadrature
  nodes in one fixed-point call.

Every quantity is computed once, where its inputs last changed:

* **Lane constants** (filament area and A*·area, q·e·μ, plug and
  plug-plus-series resistance, field coefficient, activation energies over
  k_B) depend on the parameters only.  The kernel derives them at construction and
  :meth:`~VectorizedJartVcm.take` carries them with the lanes.
* **State constants** (:meth:`~VectorizedJartVcm.state_constants`): the
  ohmic resistance and the interface barrier depend on x alone.  Both halves
  below derive them there.
* **Prepared bias** (:class:`PreparedBias`): within one self-heating fixed
  point (V, x) stay fixed and only the temperature moves.
  :meth:`~VectorizedJartVcm.prepare` applies the validity guard and derives
  the bias and state terms once; :meth:`PreparedBias.solve` then runs the
  one Newton routine, :func:`interface_root`, at any lane temperatures.
* **Prepared state** (:class:`PreparedState`): within one nodal solve
  (x, T) stay fixed and only the cell voltages move.
  :meth:`~VectorizedJartVcm.prepare_state` derives i_sat and
  ``a = r_ohmic * i_sat / v_nl`` once; :meth:`PreparedState.solve` runs the
  same Newton at any lane voltages.
* **Warm starts scoped to one call or one solve.**  Each iterate of a
  self-heating fixed point starts its Newton from the previous iterate's
  roots, and :func:`pulses_to_switch_batch` takes each node's rate from the
  current its fixed point returned.  Each kernel call of one nodal
  solve starts from the roots of the solve's last current call, which
  :class:`JartArrayModel` keeps in the solve's
  :class:`~repro.devices.base.SolveScratch`.  Roots live in local variables
  of one call or in the scratch of one solve, never on the kernel or the
  solver: a call depends on no call outside its own solve, and a solve on
  no earlier solve beyond the node voltages the solver warm-starts from.

What stays per lane is the scalar control flow: the same quadrature nodes
and switching-time rule, the same fixed-point step rule (secant inside the
low-side bracket, damped fallback, error-estimate stop, iteration cap; its
constants come from :mod:`repro.devices.thermal`).  Only the innermost
interface-current root solve swaps the scalar's bisection for an
equally-precise Newton descent, so each lane reproduces the scalar result
to floating-point noise; the test suite validates element-for-element
agreement within 1e-9 relative tolerance.  Every lane stops its own Newton
and its own fixed point, so a lane's result does not depend on the lanes it
shares a call with.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..constants import (
    BOLTZMANN_EV_PER_K,
    BOLTZMANN_J_PER_K,
    DEFAULT_AMBIENT_TEMPERATURE_K,
    ELEMENTARY_CHARGE_C,
    RICHARDSON_A_PER_M2K2,
)
from ..devices.base import (
    VOLTAGE_LIMIT_V,
    BatchedDeviceModel,
    MemristorModel,
    SolveScratch,
    finite_difference_conductance,
)
from ..devices.jart_vcm import MAX_FIELD_ARGUMENT, JartVcmParameters
from ..devices.kinetics import QUADRATURE_NODES, quadrature_states, switching_time
from ..devices import thermal
from ..devices.thermal import FALLBACK_DAMPING
from ..errors import ConvergenceError, DeviceModelError
from ..obs import get_telemetry
from ..utils.logging import get_logger

logger = get_logger("montecarlo.vectorized")

ArrayLike = Union[float, np.ndarray]

#: Iteration cap of the Newton interface-current solve; the monotone convex
#: residual converges in ~6 iterations from a cold start and ~3 from a warm
#: one, the cap is a backstop only.
_MAX_NEWTON_STEPS = 80

#: Newton termination: a lane stops once its step is below ~1 ulp of ``b``,
#: the rounding floor of the residual ``g(w) = w + a sinh(w) - b``.
_NEWTON_RTOL = 4e-16

_PARAMETER_NAMES = tuple(f.name for f in fields(JartVcmParameters))


def _lanes(value: ArrayLike, n: int, name: str) -> np.ndarray:
    """Broadcast a scalar or (n,)-array to a float64 lane array."""
    array = np.asarray(value, dtype=np.float64)
    if array.ndim == 0:
        return np.full(n, float(array))
    if array.shape != (n,):
        raise DeviceModelError(f"{name} must be a scalar or shape ({n},), got {array.shape}")
    return array.copy()


def interface_root(
    a: np.ndarray, b: np.ndarray, start: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, int]:
    """Interface roots ``w`` per lane, and the Newton steps the call took.

    The per-lane root equation is the scalar model's
    (``v_nl * asinh(I / i_sat) + I * r_ohmic = |V|``), but instead of sixty
    bisection steps the root is located by Newton iteration in the interface
    coordinate ``w = asinh(I / i_sat)``, where the residual

        g(w) = w + a * sinh(w) - b,   a = r_ohmic * i_sat / v_nl,  b = |V| / v_nl,

    is strictly increasing and *convex* for w >= 0.  Both ``b`` and
    ``asinh(b / a)`` over-estimate the root (each drops one of the two
    positive terms); the iteration starts from their minimum, or from
    ``start`` (a warm start, e.g. the roots of a nearby call) where that is
    lower.  From above the root Newton descends monotonically; from a warm
    start in [0, root] its first step lands on the convex side (the tangent
    lies below g), where it is clamped at the over-estimate, and the descent
    follows.  A lane freezes once its own step moved it by no more than
    ``_NEWTON_RTOL * b`` in *either* direction: ``g`` cannot be evaluated
    more finely than the rounding of ``b``, so a step below that is noise.
    So each lane's root is the one it would get alone, whatever lanes share
    the call; the call ends when the last lane freezes.  Both solvers
    resolve the root orders of magnitude beyond the 1e-9 agreement budget
    of this module (the scalar bracket ends 2^-60 wide).
    """
    # fmin, not minimum: a lane whose i_sat underflowed (a = 0, root w = b)
    # divides to inf, or to NaN at zero bias.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = b / a
    ceiling = np.fmin(b, np.arcsinh(ratio))
    w = ceiling if start is None else np.minimum(ceiling, start)
    tolerance = _NEWTON_RTOL * b
    step = np.empty_like(w)
    slope = np.empty_like(w)
    frozen = None
    for steps in range(1, _MAX_NEWTON_STEPS + 1):
        np.sinh(w, out=step)
        step *= a
        step += w
        step -= b
        np.cosh(w, out=slope)
        slope *= a
        slope += 1.0
        step /= slope
        if frozen is not None:
            np.copyto(step, 0.0, where=frozen)
        w -= step
        if steps == 1 and start is not None:
            np.minimum(w, ceiling, out=w)
        # A zero-bias lane (b = 0) starts at its root w = 0 and steps by 0.
        np.abs(step, out=step)
        frozen = ~(step > tolerance)  # as is a NaN lane
        if frozen.all():
            break
    return w, steps


def _saturation_current(
    richardson_area: np.ndarray, barrier_k: np.ndarray, temperature_k: np.ndarray
) -> np.ndarray:
    """Interface saturation current i_sat [A] per lane."""
    temperature = np.maximum(temperature_k, 1.0)
    return richardson_area * temperature**2 * np.exp(-barrier_k / temperature)


def _scaled_bias(
    voltage_v: np.ndarray, interface_voltage_v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The sign of V and ``b = |V| / v_nl`` per lane, after the validity guard."""
    magnitude = np.abs(voltage_v)
    if (magnitude > VOLTAGE_LIMIT_V).any():
        raise DeviceModelError(
            f"cell voltage outside the model validity range "
            f"[-{VOLTAGE_LIMIT_V:g}, {VOLTAGE_LIMIT_V:g}] V in a lane"
        )
    return np.where(voltage_v > 0.0, 1.0, -1.0), magnitude / interface_voltage_v


class PreparedBias(NamedTuple):
    """The temperature-independent half of the current solve, per lane.

    Built by :meth:`VectorizedJartVcm.prepare` for one (V, x) per lane, as
    within one self-heating fixed point.  The bias magnitude and the ohmic
    resistance are scaled by the interface nonlinearity voltage ``v_nl``.
    """

    sign: np.ndarray
    #: ``|V| / v_nl``
    scaled_magnitude: np.ndarray
    #: ``r_ohmic / v_nl`` [1/A]
    scaled_ohmic: np.ndarray
    #: Interface barrier over k_B [K].
    barrier_k: np.ndarray
    #: The lane constant A*·area of the thermionic saturation current.
    richardson_area: np.ndarray

    def solve(
        self, temperature_k: np.ndarray, start: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Lane currents [A] and interface roots (see :func:`interface_root`)
        at the given temperatures, the Newton warm-started from ``start``."""
        i_sat = _saturation_current(self.richardson_area, self.barrier_k, temperature_k)
        w, _ = interface_root(self.scaled_ohmic * i_sat, self.scaled_magnitude, start)
        return self.sign * i_sat * np.sinh(w), w


class PreparedState(NamedTuple):
    """The bias-independent half of the current solve, per lane.

    Built by :meth:`VectorizedJartVcm.prepare_state` for one (x, T) per
    lane, as within one nodal solve, where only the cell voltages move.
    """

    #: Interface saturation current i_sat [A].
    saturation_current: np.ndarray
    #: ``a = r_ohmic * i_sat / v_nl``
    a: np.ndarray
    #: The lane parameter ``v_nl`` [V].
    interface_voltage_v: np.ndarray

    def solve(
        self, voltage_v: np.ndarray, start: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Lane currents [A] and interface roots (see :func:`interface_root`)
        at the given voltages, the Newton warm-started from ``start``."""
        sign, b = _scaled_bias(voltage_v, self.interface_voltage_v)
        w, _ = interface_root(self.a, b, start)
        return sign * self.saturation_current * np.sinh(w), w


class VectorizedJartVcm:
    """The JART-style VCM model over a population of cells.

    Every physical parameter is a lane array of shape ``(n,)``; lanes are
    fully independent, so one call evaluates ``n`` distinct sampled devices.
    Built from a nominal :class:`~repro.devices.jart_vcm.JartVcmParameters`
    plus per-field override arrays (sampled values).  The parameter-only
    lane constants of :data:`LANE_CONSTANTS` are derived once, here.
    """

    #: Lane arrays derived from the parameters alone (see :meth:`_derive`).
    LANE_CONSTANTS = (
        "area_m2",
        "richardson_area",
        "charge_mobility",
        "disc_span_per_m3",
        "plug_ohm",
        "plug_series_ohm",
        "field_k_per_v",
        "set_activation_k",
        "reset_activation_k",
    )

    def __init__(
        self,
        n: int,
        base: Optional[JartVcmParameters] = None,
        overrides: Optional[Mapping[str, ArrayLike]] = None,
    ):
        if n < 1:
            raise DeviceModelError("population size must be at least 1")
        self.n = int(n)
        base = base if base is not None else JartVcmParameters()
        overrides = dict(overrides or {})
        unknown = set(overrides) - set(_PARAMETER_NAMES)
        if unknown:
            raise DeviceModelError(f"unknown device parameter overrides {sorted(unknown)}")
        for name in _PARAMETER_NAMES:
            value = overrides.get(name, getattr(base, name))
            setattr(self, name, _lanes(value, self.n, f"device.{name}"))
        self._validate()
        self._derive()

    def _validate(self) -> None:
        """Element-wise mirror of ``JartVcmParameters.__post_init__``."""
        if np.any(self.n_disc_min_per_m3 <= 0) or np.any(self.n_disc_max_per_m3 <= self.n_disc_min_per_m3):
            raise DeviceModelError("need 0 < n_disc_min < n_disc_max in every lane")
        for name in ("filament_radius_m", "disc_length_m", "plug_length_m"):
            if np.any(getattr(self, name) <= 0):
                raise DeviceModelError(f"{name} must be positive in every lane")
        if np.any(self.interface_voltage_v <= 0):
            raise DeviceModelError("interface_voltage_v must be positive in every lane")
        if np.any(self.barrier_lowering_ev >= self.barrier_height_ev):
            raise DeviceModelError("barrier lowering must be smaller than the barrier height in every lane")
        if np.any(self.rth_eff_k_per_w < 0):
            raise DeviceModelError("rth_eff_k_per_w must be non-negative in every lane")
        if np.any(self.activation_energy_ev <= 0) or np.any(self.reset_activation_energy_ev <= 0):
            raise DeviceModelError("activation energies must be positive in every lane")
        if np.any(self.set_rate_prefactor_per_s <= 0) or np.any(self.reset_rate_prefactor_per_s <= 0):
            raise DeviceModelError("kinetic prefactors must be positive in every lane")

    def _derive(self) -> None:
        """The parameter-only lane constants of :data:`LANE_CONSTANTS`."""
        self.area_m2 = np.pi * self.filament_radius_m**2
        self.richardson_area = RICHARDSON_A_PER_M2K2 * self.area_m2
        # q·e·μ: times a vacancy concentration, the conductivity of a region.
        self.charge_mobility = self.charge_number * ELEMENTARY_CHARGE_C * self.electron_mobility_m2_per_vs
        self.disc_span_per_m3 = self.n_disc_max_per_m3 - self.n_disc_min_per_m3
        self.plug_ohm = self.plug_length_m / (self.charge_mobility * self.n_plug_per_m3 * self.area_m2)
        self.plug_series_ohm = self.plug_ohm + self.series_resistance_ohm
        self.field_k_per_v = (
            self.hop_distance_m
            * self.charge_number
            * ELEMENTARY_CHARGE_C
            / (2.0 * BOLTZMANN_J_PER_K * self.disc_length_m)
        )
        self.set_activation_k = self.activation_energy_ev / BOLTZMANN_EV_PER_K
        self.reset_activation_k = self.reset_activation_energy_ev / BOLTZMANN_EV_PER_K

    # ------------------------------------------------------------------
    # lane management
    # ------------------------------------------------------------------

    def take(self, indices: np.ndarray) -> "VectorizedJartVcm":
        """The population restricted to the given lanes, in the given order.

        ``indices`` is an integer index array (repeats allowed) or a boolean
        lane mask; the lane constants travel with their lanes.
        """
        indices = np.asarray(indices)
        if indices.dtype == bool:
            indices = np.flatnonzero(indices)
        if indices.shape == (self.n,) and np.array_equal(indices, np.arange(self.n)):
            return self
        subset = object.__new__(VectorizedJartVcm)
        subset.n = int(indices.size)
        for name in _PARAMETER_NAMES + self.LANE_CONSTANTS:
            setattr(subset, name, getattr(self, name)[indices])
        return subset

    def scalar_parameters(self, index: int) -> JartVcmParameters:
        """The exact parameter set one lane carries, as a scalar object.

        Used by the validation tests and the scalar reference path to build
        a :class:`~repro.devices.jart_vcm.JartVcmModel` per cell.
        """
        values = {}
        for name in _PARAMETER_NAMES:
            value = getattr(self, name)[index]
            values[name] = int(value) if name == "charge_number" else float(value)
        return JartVcmParameters(**values)

    # ------------------------------------------------------------------
    # electrical characteristic
    # ------------------------------------------------------------------

    def state_constants(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``r_ohmic / v_nl`` [1/A] and the interface barrier over k_B [K] at x."""
        x = np.minimum(np.maximum(x, 0.0), 1.0)
        concentration = self.n_disc_min_per_m3 + x * self.disc_span_per_m3
        disc_ohm = self.disc_length_m / (self.charge_mobility * concentration * self.area_m2)
        barrier_ev = self.barrier_height_ev - self.barrier_lowering_ev * x
        return (
            (disc_ohm + self.plug_series_ohm) / self.interface_voltage_v,
            barrier_ev / BOLTZMANN_EV_PER_K,
        )

    def prepare(self, voltage_v: np.ndarray, x: np.ndarray) -> PreparedBias:
        """The temperature-independent part of the current solve at (V, x)."""
        sign, scaled_magnitude = _scaled_bias(voltage_v, self.interface_voltage_v)
        scaled_ohmic, barrier_k = self.state_constants(x)
        return PreparedBias(sign, scaled_magnitude, scaled_ohmic, barrier_k, self.richardson_area)

    def prepare_state(self, x: np.ndarray, temperature_k: np.ndarray) -> PreparedState:
        """The bias-independent part of the current solve at (x, T)."""
        scaled_ohmic, barrier_k = self.state_constants(x)
        i_sat = _saturation_current(self.richardson_area, barrier_k, temperature_k)
        return PreparedState(i_sat, scaled_ohmic * i_sat, self.interface_voltage_v)

    def current(self, voltage_v: np.ndarray, x: np.ndarray, temperature_k: np.ndarray) -> np.ndarray:
        """Lane currents [A]: the scalar model's root equation, solved batched."""
        return self.prepare(voltage_v, x).solve(temperature_k)[0]

    # ------------------------------------------------------------------
    # switching kinetics
    # ------------------------------------------------------------------

    def state_derivative(
        self, voltage_v: np.ndarray, x: np.ndarray, temperature_k: np.ndarray
    ) -> np.ndarray:
        """dx/dt per lane — thermally activated, field-accelerated hopping."""
        return self._rate(voltage_v, x, temperature_k, self.current(voltage_v, x, temperature_k))

    def _rate(
        self, voltage_v: np.ndarray, x: np.ndarray, temperature_k: np.ndarray, current_a: np.ndarray
    ) -> np.ndarray:
        """dx/dt per lane, given the lane currents at (V, x, T)."""
        temperature = np.maximum(temperature_k, 1.0)
        # The drive is the cell voltage minus the plug and series drops.
        v_drive = voltage_v - current_a * self.plug_series_ohm
        field_argument = np.minimum(
            self.field_k_per_v * np.abs(v_drive) / temperature, MAX_FIELD_ARGUMENT
        )
        field_term = np.sinh(field_argument)
        set_rate = self.set_rate_prefactor_per_s * np.exp(-self.set_activation_k / temperature) * field_term
        reset_rate = (
            self.reset_rate_prefactor_per_s * np.exp(-self.reset_activation_k / temperature) * field_term
        )
        rate = np.where(voltage_v > 0.0, set_rate, -reset_rate)
        # Saturation at the state bounds and the zero-bias dead zone, exactly
        # as the scalar model reports them.
        rate = np.where((voltage_v > 0.0) & (x >= 1.0), 0.0, rate)
        rate = np.where((voltage_v < 0.0) & (x <= 0.0), 0.0, rate)
        rate = np.where(voltage_v == 0.0, 0.0, rate)
        return rate


# ----------------------------------------------------------------------
# array-wide batched kernel (single parameter set, arbitrary input shape)
# ----------------------------------------------------------------------


class JartArrayModel(BatchedDeviceModel):
    """The JART VCM kernel as an array-wide :class:`BatchedDeviceModel`.

    Where :class:`VectorizedJartVcm` carries one *sampled* parameter set per
    lane (a Monte-Carlo population), this adapter maps arbitrary-shaped
    array inputs onto kernel lanes — exactly what the crossbar nodal solver
    and the transient engine need to evaluate all ``rows x columns`` devices
    of an array in one call.  Two lane layouts are supported:

    * a single-lane kernel (the default, one nominal parameter set) is
      broadcast against inputs of any shape;
    * a multi-lane kernel (one lane per *cell*, the full-array Monte-Carlo
      path) remaps flattened inputs lane-for-lane: input element ``k`` of the
      raveled array evaluates through kernel lane ``k``.  The crossbar
      netlist enumerates devices in row-major cell order, so lane
      ``row * columns + column`` carries cell ``(row, column)`` both for the
      solver's flat device vectors and for ``(rows, columns)`` maps.

    Within one nodal solve x and T stay fixed, so :meth:`current` and
    :meth:`conductance` keep two things in the solve's
    :class:`~repro.devices.base.SolveScratch`: the :class:`PreparedState`
    (i_sat and ``a``), derived on the first call, and the interface roots of
    the last :meth:`current` call.  Every current solve starts its Newton
    from those roots (capped by the cold over-estimate, see
    :func:`interface_root`), and both finite-difference solves of a
    conductance start from the roots at its centre voltage.  Without a
    scratch every call is a cold solve.

    Conductance is :func:`~repro.devices.base.finite_difference_conductance`,
    the rule of the scalar
    :meth:`~repro.devices.base.MemristorModel.conductance` default;
    agreement with the scalar stamp loop is therefore limited only by the
    ~1e-15 current-solve agreement established by this module's property
    tests.
    """

    def __init__(
        self,
        parameters: Optional[JartVcmParameters] = None,
        kernel: Optional[VectorizedJartVcm] = None,
    ):
        if kernel is not None and parameters is not None:
            raise DeviceModelError("give either nominal parameters or a population kernel")
        self._kernel = kernel if kernel is not None else VectorizedJartVcm(1, base=parameters)

    @property
    def kernel(self) -> VectorizedJartVcm:
        """The underlying population kernel."""
        return self._kernel

    def rebind(self, kernel: VectorizedJartVcm) -> None:
        """Swap in a new population kernel (same lane count).

        Lets one solver/crossbar instance, with its netlist and held
        chain-band factor, be reused across sampled arrays.
        """
        if kernel.n != self._kernel.n:
            raise DeviceModelError(
                f"replacement kernel has {kernel.n} lanes, expected {self._kernel.n}"
            )
        self._kernel = kernel

    def _lane_inputs(self, voltage_v, x, temperature_k):
        """The inputs as kernel lanes, and the shape to give the results.

        A single-lane kernel broadcasts and needs no reshape (shape None).
        """
        voltage_v = np.asarray(voltage_v, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        temperature_k = np.asarray(temperature_k, dtype=np.float64)
        if self._kernel.n == 1:
            return voltage_v, x, temperature_k, None
        voltage_v, x, temperature_k = np.broadcast_arrays(voltage_v, x, temperature_k)
        if voltage_v.size != self._kernel.n:
            raise DeviceModelError(
                f"input of {voltage_v.size} devices does not match the "
                f"{self._kernel.n}-lane per-cell kernel"
            )
        shape = voltage_v.shape
        return voltage_v.reshape(-1), x.reshape(-1), temperature_k.reshape(-1), shape

    def _bind(self, voltage_v, x, temperature_k, scratch: SolveScratch):
        """Lane voltages and result shape; derives the scratch's state once."""
        voltage, x, temperature, shape = self._lane_inputs(voltage_v, x, temperature_k)
        if scratch.state is None:
            scratch.state = self._kernel.prepare_state(x, temperature)
        return voltage, shape

    def current(self, voltage_v, x, temperature_k, scratch=None) -> np.ndarray:
        scratch = scratch if scratch is not None else SolveScratch()
        voltage, shape = self._bind(voltage_v, x, temperature_k, scratch)
        current, scratch.roots = scratch.state.solve(voltage, scratch.roots)
        return current if shape is None else current.reshape(shape)

    def conductance(self, voltage_v, x, temperature_k, scratch=None) -> np.ndarray:
        scratch = scratch if scratch is not None else SolveScratch()
        voltage, shape = self._bind(voltage_v, x, temperature_k, scratch)
        state, centre = scratch.state, scratch.roots
        g = finite_difference_conductance(lambda v: state.solve(v, centre)[0], voltage)
        return g if shape is None else g.reshape(shape)

    def state_derivative(self, voltage_v, x, temperature_k) -> np.ndarray:
        voltage, x, temperature, shape = self._lane_inputs(voltage_v, x, temperature_k)
        rate = self._kernel.state_derivative(voltage, x, temperature)
        return rate if shape is None else rate.reshape(shape)


class SampledArrayJartModel(MemristorModel):
    """A crossbar whose every cell carries its own sampled JART parameters.

    The parameter-override path of the full-array Monte-Carlo mode: a
    :class:`VectorizedJartVcm` with one lane per cell (row-major) plugs into
    the batched :class:`~repro.circuit.solver.CrossbarSolver` kernel through a
    lane-remapped :class:`JartArrayModel`, so the nodal operating point of a
    *sampled* array is solved with exactly the machinery of the nominal one.
    :meth:`set_population` swaps the sampled lanes in place, letting one
    crossbar/solver (netlist, held chain-band factor, warm start) be reused
    across every sampled array of a population.

    The scalar :class:`~repro.devices.base.MemristorModel` entry points are
    deliberately unavailable — a per-cell model has no single parameter set a
    scalar call could refer to; array consumers go through :meth:`batched`.
    """

    name = "jart_vcm_sampled_array"

    def __init__(self, kernel: VectorizedJartVcm, shape):
        rows, columns = int(shape[0]), int(shape[1])
        if kernel.n != rows * columns:
            raise DeviceModelError(
                f"kernel has {kernel.n} lanes but the {rows}x{columns} array has "
                f"{rows * columns} cells"
            )
        self.shape = (rows, columns)
        self._kernel = kernel

    @property
    def kernel(self) -> VectorizedJartVcm:
        """The per-cell population kernel (lane = row * columns + column)."""
        return self._kernel

    def set_population(self, kernel: VectorizedJartVcm) -> None:
        """Swap the sampled per-cell parameters (same geometry)."""
        rows, columns = self.shape
        if kernel.n != rows * columns:
            raise DeviceModelError(
                f"kernel has {kernel.n} lanes but the {rows}x{columns} array has "
                f"{rows * columns} cells"
            )
        self._kernel = kernel
        self.batched().rebind(kernel)

    def _make_batched(self) -> JartArrayModel:
        return JartArrayModel(kernel=self._kernel)

    def thermal_resistance_k_per_w(self) -> np.ndarray:
        """Per-cell effective thermal resistance map [K/W] (broadcastable)."""
        return self._kernel.rth_eff_k_per_w.reshape(self.shape)

    def current(self, voltage_v: float, state) -> float:
        raise DeviceModelError(
            "SampledArrayJartModel has no scalar current; every cell carries its own "
            "parameters — evaluate through batched()"
        )

    def state_derivative(self, voltage_v: float, state) -> float:
        raise DeviceModelError(
            "SampledArrayJartModel has no scalar state_derivative; evaluate through batched()"
        )


# ----------------------------------------------------------------------
# electro-thermal operating point
# ----------------------------------------------------------------------


#: Rows of the batched fixed point's lane state: the prepared bias fields,
#: then these.
_BIAS_FIELDS = len(PreparedBias._fields)
(
    _V, _RTH, _BASE, _W, _T, _T_SOLVED, _F_SOLVED, _CURRENT, _LOW, _HIGH,
) = range(_BIAS_FIELDS, _BIAS_FIELDS + 10)


@dataclass
class BatchOperatingPoint:
    """Self-consistent electro-thermal operating points of a population."""

    voltage_v: np.ndarray
    current_a: np.ndarray
    power_w: np.ndarray
    filament_temperature_k: np.ndarray
    ambient_temperature_k: np.ndarray
    crosstalk_temperature_k: np.ndarray
    #: False in lanes that hit the iteration cap before their fixed point
    #: settled; such a lane reports its last solved iterate.
    converged: np.ndarray

    @property
    def temperature_rise_k(self) -> np.ndarray:
        return self.filament_temperature_k - self.ambient_temperature_k

    @property
    def self_heating_k(self) -> np.ndarray:
        return self.temperature_rise_k - self.crosstalk_temperature_k


def solve_operating_point_batch(
    model: VectorizedJartVcm,
    voltage_v: ArrayLike,
    x: ArrayLike,
    ambient_temperature_k: ArrayLike = DEFAULT_AMBIENT_TEMPERATURE_K,
    crosstalk_temperature_k: ArrayLike = 0.0,
    raise_on_failure: bool = True,
) -> BatchOperatingPoint:
    """Batched mirror of :func:`repro.devices.thermal.solve_operating_point`.

    Each lane runs the scalar solver's safeguarded secant (see
    :mod:`repro.devices.thermal`) and retires as soon as its own stop test
    passes, returning the temperature it was last solved at with that
    solve's current; iteration counts, and therefore results, match the
    scalar path lane for lane.  A lane still unsettled after
    :data:`~repro.devices.thermal.SELF_HEATING_MAX_ITERATIONS` current solves
    raises :class:`ConvergenceError`, or,
    with ``raise_on_failure=False``, returns its last iterate with
    ``converged`` cleared and counts ``thermal.self_heating.unconverged``,
    letting population studies keep the healthy lanes.

    The bias is prepared once per call and each iterate's Newton starts from
    the previous iterate's root.  The per-lane iteration state lives in the
    rows of one array, so retiring settled lanes is a single column take.
    """
    n = model.n
    voltage = _lanes(voltage_v, n, "voltage_v")
    x = _lanes(x, n, "x")
    ambient = _lanes(ambient_temperature_k, n, "ambient_temperature_k")
    crosstalk = _lanes(crosstalk_temperature_k, n, "crosstalk_temperature_k")

    prepared = model.prepare(voltage, x)
    base = ambient + crosstalk
    # Iteration 0 at T_base, where f = R_th * P >= 0: settled lanes stop
    # here, the others take one Picard step.
    current, w = prepared.solve(base)
    # Written as at every iterate, so T1 matches the scalar solver's bit for bit.
    residual = base + model.rth_eff_k_per_w * np.abs(voltage * current) - base
    temperature = base.copy()
    done = residual < thermal.SELF_HEATING_TOLERANCE_K
    lanes = np.flatnonzero(~done)
    if lanes.size:
        # The iterating lanes' state, one row per quantity, so that retiring
        # settled lanes is one column take.  ``_T`` is the iterate to solve
        # next; ``_T_SOLVED``, ``_F_SOLVED`` and ``_CURRENT`` hold the last
        # solved one.
        rows = np.stack(
            [
                *prepared,
                voltage,  # _V
                model.rth_eff_k_per_w,  # _RTH
                base,  # _BASE
                w,  # _W
                base + residual,  # _T, one Picard step
                base,  # _T_SOLVED
                residual,  # _F_SOLVED
                current,  # _CURRENT
                base,  # _LOW
                np.full(n, np.inf),  # _HIGH
            ]
        )
        if lanes.size < n:
            rows = rows[:, lanes]
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(1, thermal.SELF_HEATING_MAX_ITERATIONS):
                t = rows[_T]
                bias = PreparedBias(*rows[:_BIAS_FIELDS])
                lane_current, rows[_W] = bias.solve(t, start=rows[_W])
                f = rows[_V] * lane_current
                np.abs(f, out=f)
                f *= rows[_RTH]
                f += rows[_BASE]
                f -= t
                positive = f > 0.0
                low = np.where(positive, t, rows[_LOW])
                high = np.where(positive, rows[_HIGH], t)
                rise = t - rows[_T_SOLVED]
                change = f - rows[_F_SOLVED]
                secant = rise * change < 0.0
                # The secant step is -f * rise / change; t - quotient equals
                # t + step bit for bit.
                quotient = f * rise
                quotient /= change
                next_t = t - quotient
                secant &= low < next_t
                secant &= next_t < high
                np.abs(quotient, out=quotient)
                settled = quotient < thermal.SELF_HEATING_TOLERANCE_K
                settled &= secant
                settled |= f == 0.0
                if not secant.all():
                    damped = t + FALLBACK_DAMPING * f
                    halfway = t + 0.5 * (np.where(positive, high, low) - t)
                    damped = np.where((low < damped) & (damped < high), damped, halfway)
                    np.copyto(next_t, damped, where=~secant)
                rows[_T_SOLVED] = t
                rows[_F_SOLVED] = f
                rows[_CURRENT] = lane_current
                rows[_LOW] = low
                rows[_HIGH] = high
                rows[_T] = next_t
                if settled.any():
                    stop = lanes[settled]
                    done[stop] = True
                    temperature[stop] = rows[_T_SOLVED, settled]
                    current[stop] = lane_current[settled]
                    keep = ~settled
                    lanes = lanes[keep]
                    if not lanes.size:
                        break
                    rows = rows[:, keep]
            else:
                # The iteration cap: each lane reports its last solved iterate.
                temperature[lanes] = rows[_T_SOLVED]
                current[lanes] = rows[_CURRENT]

    if not done.all():
        failed = np.flatnonzero(~done)
        if raise_on_failure:
            lane = int(failed[0])
            raise ConvergenceError(
                f"filament temperature did not converge for V={voltage[lane]} V, x={x[lane]} "
                f"within {thermal.SELF_HEATING_MAX_ITERATIONS} current solves "
                f"(last T={temperature[lane]:.1f} K) "
                f"in {failed.size} of {n} lanes"
            )
        get_telemetry().count("thermal.self_heating.unconverged", failed.size)
        logger.debug("operating-point solve left %d of %d lanes unconverged", failed.size, n)

    return BatchOperatingPoint(
        voltage_v=voltage,
        current_a=current,
        power_w=np.abs(voltage * current),
        filament_temperature_k=temperature,
        ambient_temperature_k=ambient,
        crosstalk_temperature_k=crosstalk,
        converged=done,
    )


# ----------------------------------------------------------------------
# switching kinetics
# ----------------------------------------------------------------------


@dataclass
class BatchPulseCountResult:
    """Outcome of a batched pulsed switching estimation."""

    flipped: np.ndarray
    pulses: np.ndarray
    stress_time_s: np.ndarray
    wall_clock_s: np.ndarray
    final_x: np.ndarray
    final_temperature_k: np.ndarray
    converged: np.ndarray


def pulses_to_switch_batch(
    model: VectorizedJartVcm,
    voltage_v: ArrayLike,
    pulse_length_s: ArrayLike,
    x_start: ArrayLike,
    x_target: ArrayLike,
    duty_cycle: ArrayLike = 0.5,
    ambient_temperature_k: ArrayLike = DEFAULT_AMBIENT_TEMPERATURE_K,
    crosstalk_temperature_k: ArrayLike = 0.0,
    max_pulses: int = 10_000_000,
    raise_on_failure: bool = True,
) -> BatchPulseCountResult:
    """Batched mirror of :func:`repro.devices.kinetics.pulses_to_switch`.

    One :func:`solve_operating_point_batch` call solves every lane at every
    node of its :func:`~repro.devices.kinetics.quadrature_states` panel, each
    node's rate comes from the current its fixed point solved, and
    :func:`~repro.devices.kinetics.switching_time` integrates them.  A lane
    with a node whose fixed point did not settle is reported unflipped, with
    ``converged`` cleared.
    """
    n = model.n
    voltage = _lanes(voltage_v, n, "voltage_v")
    x = _lanes(x_start, n, "x_start")
    target = _lanes(x_target, n, "x_target")
    pulse_length = _lanes(pulse_length_s, n, "pulse_length_s")
    duty = _lanes(duty_cycle, n, "duty_cycle")
    if np.any((x < 0.0) | (x > 1.0)) or np.any((target < 0.0) | (target > 1.0)):
        raise DeviceModelError("states must lie in [0, 1] in every lane")
    if np.any(pulse_length <= 0):
        raise DeviceModelError("pulse_length_s must be positive in every lane")
    if max_pulses < 1:
        raise DeviceModelError("max_pulses must be at least 1")
    if np.any((duty <= 0.0) | (duty > 1.0)):
        raise DeviceModelError("duty cycle must be in (0, 1] in every lane")

    # Node-major lanes: lane k at node j is lane j * n + k of the solve.
    nodes = model.take(np.tile(np.arange(n), QUADRATURE_NODES))
    node_voltage = np.tile(voltage, QUADRATURE_NODES)
    node_x = quadrature_states(x, target).reshape(-1)
    solved = solve_operating_point_batch(
        nodes,
        node_voltage,
        node_x,
        np.tile(_lanes(ambient_temperature_k, n, "ambient_temperature_k"), QUADRATURE_NODES),
        np.tile(_lanes(crosstalk_temperature_k, n, "crosstalk_temperature_k"), QUADRATURE_NODES),
        raise_on_failure=raise_on_failure,
    )
    rate = nodes._rate(node_voltage, node_x, solved.filament_temperature_k, solved.current_a)
    shape = (QUADRATURE_NODES, n)
    outcome = switching_time(
        x,
        target,
        rate.reshape(shape),
        solved.filament_temperature_k.reshape(shape),
        pulse_length * max_pulses,
    )
    converged = solved.converged.reshape(shape).all(axis=0)
    flipped = outcome.switched & converged
    pulses = np.where(
        flipped,
        np.maximum(1, np.ceil(outcome.time / pulse_length)).astype(np.int64),
        np.int64(max_pulses),
    )
    return BatchPulseCountResult(
        flipped=flipped,
        pulses=pulses,
        stress_time_s=np.minimum(outcome.time, pulses * pulse_length),
        wall_clock_s=pulses * (pulse_length / duty),
        final_x=outcome.final_x,
        final_temperature_k=outcome.final_temperature_k,
        converged=converged,
    )
