"""Abstract interface shared by every memristive compact model.

The circuit level only ever talks to devices through this interface, so the
JART-style VCM model, the linear-ion-drift baseline and the Yakopcic model are
interchangeable everywhere (crossbar, transient engine, attack estimator).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import numpy as np

from ..constants import DEFAULT_AMBIENT_TEMPERATURE_K
from ..errors import DeviceModelError

#: Magnitude of the largest cell voltage any compact model accepts [V];
#: beyond it the models are driven outside their validity range.
VOLTAGE_LIMIT_V = 10.0


@dataclass
class DeviceState:
    """Dynamic state of a single memristive cell.

    Attributes:
        x: Normalised internal state in [0, 1]; 0 is the fully high-resistive
            state (HRS), 1 the fully low-resistive state (LRS).
        filament_temperature_k: Local filament temperature including
            self-heating and any externally imposed crosstalk contribution.
    """

    x: float
    filament_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K

    def copy(self) -> "DeviceState":
        """Return an independent copy of this state."""
        return DeviceState(self.x, self.filament_temperature_k)


class DeviceStateArrays:
    """Struct-of-arrays device state of a whole crossbar.

    Two ``(rows, columns)`` float64 arrays, so the nodal solver and the
    transient engine can evaluate every device in one vectorized call.
    """

    __slots__ = ("x", "temperature_k")

    def __init__(
        self,
        rows: int,
        columns: int,
        x: float = 0.0,
        temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    ):
        if rows < 1 or columns < 1:
            raise DeviceModelError("state arrays need at least one row and one column")
        self.x = np.full((int(rows), int(columns)), float(x), dtype=np.float64)
        self.temperature_k = np.full(
            (int(rows), int(columns)), float(temperature_k), dtype=np.float64
        )

    @classmethod
    def from_arrays(cls, x: np.ndarray, temperature_k: np.ndarray) -> "DeviceStateArrays":
        """Wrap existing arrays (copied) into a state container."""
        x = np.asarray(x, dtype=np.float64)
        temperature_k = np.asarray(temperature_k, dtype=np.float64)
        if x.ndim != 2 or x.shape != temperature_k.shape:
            raise DeviceModelError("state arrays must be matching (rows, columns) arrays")
        out = cls(x.shape[0], x.shape[1])
        out.x[...] = x
        out.temperature_k[...] = temperature_k
        return out

    @property
    def rows(self) -> int:
        return self.x.shape[0]

    @property
    def columns(self) -> int:
        return self.x.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return self.x.shape

    def copy(self) -> "DeviceStateArrays":
        """Independent deep copy (checkpoint/restore)."""
        return DeviceStateArrays.from_arrays(self.x, self.temperature_k)


def finite_difference_conductance(
    current: Callable[[np.ndarray], np.ndarray], voltage_v: np.ndarray
) -> np.ndarray:
    """Per-device conductance dI/dV [S] of ``current``, a function of V alone.

    Mirrors the scalar :meth:`MemristorModel.conductance` default exactly: a
    symmetric finite difference with the same step rule, the same clip of
    the probes to +-:data:`VOLTAGE_LIMIT_V` and the same positive floor, so
    Newton trajectories of the vectorized solver match the legacy per-device
    path.
    """
    voltage_v = np.asarray(voltage_v, dtype=np.float64)
    delta = np.maximum(1e-4, np.abs(voltage_v) * 1e-4)
    # Within delta of the limit a probe stops at it; the difference is then
    # taken over the span actually probed.
    up = np.minimum(delta, VOLTAGE_LIMIT_V - voltage_v)
    down = np.minimum(delta, VOLTAGE_LIMIT_V + voltage_v)
    g = (current(voltage_v + up) - current(voltage_v - down)) / (up + down)
    return np.where(g <= 0.0, 1e-12, g)


class SolveScratch:
    """What one nodal solve lends every kernel call it makes.

    Within a solve the device states and temperatures stay fixed and only
    the voltages move, so a kernel may keep in here what it derives from
    (x, T) alone (``state``) and the roots of its last inner solve
    (``roots``), to warm-start the next call.  The solver creates one per
    solve and drops it with the solve; a kernel without such state ignores
    it.
    """

    __slots__ = ("state", "roots")

    def __init__(self) -> None:
        self.state: Any = None
        self.roots: Optional[np.ndarray] = None


class BatchedDeviceModel(abc.ABC):
    """Vectorized device-model interface consumed by the array-native engine.

    Implementations evaluate whole arrays of independent devices in one call:
    every argument is broadcastable (typically the flattened per-device
    voltages, states and temperatures of a crossbar) and every return value
    has the broadcast shape.  :meth:`MemristorModel.batched` supplies one per
    scalar model; models without a native vectorized kernel fall back to
    :class:`ScalarBatchedModel`, which preserves correctness at scalar speed.
    """

    @abc.abstractmethod
    def current(
        self,
        voltage_v: np.ndarray,
        x: np.ndarray,
        temperature_k: np.ndarray,
        scratch: Optional[SolveScratch] = None,
    ) -> np.ndarray:
        """Per-device current [A].

        ``scratch`` is the :class:`SolveScratch` of the nodal solve making
        the call; a kernel without per-solve state ignores it.
        """

    def conductance(
        self,
        voltage_v: np.ndarray,
        x: np.ndarray,
        temperature_k: np.ndarray,
        scratch: Optional[SolveScratch] = None,
    ) -> np.ndarray:
        """Per-device small-signal conductance dI/dV [S].

        The :func:`finite_difference_conductance` of :meth:`current`.
        """
        return finite_difference_conductance(
            lambda voltage: self.current(voltage, x, temperature_k), voltage_v
        )

    @abc.abstractmethod
    def state_derivative(
        self, voltage_v: np.ndarray, x: np.ndarray, temperature_k: np.ndarray
    ) -> np.ndarray:
        """Per-device dx/dt [1/s]."""

    def clamp_state(self, x: np.ndarray) -> np.ndarray:
        """Per-device state clamp, mirroring the scalar model's clamp rule."""
        return np.clip(x, 0.0, 1.0)


class ScalarBatchedModel(BatchedDeviceModel):
    """Loop-based fallback adapter for models without a vectorized kernel."""

    def __init__(self, model: "MemristorModel"):
        self.model = model

    def _map(self, fn, voltage_v, x, temperature_k) -> np.ndarray:
        voltage_v, x, temperature_k = np.broadcast_arrays(
            np.asarray(voltage_v, dtype=np.float64),
            np.asarray(x, dtype=np.float64),
            np.asarray(temperature_k, dtype=np.float64),
        )
        flat_v = voltage_v.ravel()
        flat_x = x.ravel()
        flat_t = temperature_k.ravel()
        out = np.empty(flat_v.shape, dtype=np.float64)
        for k in range(flat_v.size):
            out[k] = fn(float(flat_v[k]), DeviceState(float(flat_x[k]), float(flat_t[k])))
        return out.reshape(voltage_v.shape)

    def current(self, voltage_v, x, temperature_k, scratch=None) -> np.ndarray:
        return self._map(self.model.current, voltage_v, x, temperature_k)

    def conductance(self, voltage_v, x, temperature_k, scratch=None) -> np.ndarray:
        # Delegate to the scalar model so per-model conductance overrides
        # (analytic derivatives, custom floors) are honoured exactly.
        return self._map(self.model.conductance, voltage_v, x, temperature_k)

    def state_derivative(self, voltage_v, x, temperature_k) -> np.ndarray:
        return self._map(self.model.state_derivative, voltage_v, x, temperature_k)

    def clamp_state(self, x: np.ndarray) -> np.ndarray:
        # Honour per-model clamp overrides (e.g. a floor keeping the nodal
        # matrix away from zero conductance) element for element.
        x = np.asarray(x, dtype=np.float64)
        flat = x.ravel()
        out = np.empty(flat.shape, dtype=np.float64)
        for k in range(flat.size):
            out[k] = self.model.clamp_state(float(flat[k]))
        return out.reshape(x.shape)


class MemristorModel(abc.ABC):
    """Behavioural compact model of a two-terminal memristive device.

    A model is stateless: all dynamic quantities live in :class:`DeviceState`
    objects owned by the caller, which keeps the model safe to share between
    the 25 crosspoints of a crossbar (and between threads).
    """

    #: Human-readable model name used in reports.
    name: str = "memristor"

    # -- electrical -------------------------------------------------------

    @abc.abstractmethod
    def current(self, voltage_v: float, state: DeviceState) -> float:
        """Device current [A] for a given applied cell voltage [V]."""

    def conductance(self, voltage_v: float, state: DeviceState) -> float:
        """Small-signal conductance dI/dV [S] around ``voltage_v``.

        The default implementation uses a symmetric finite difference, which
        is accurate enough for the Newton nodal solver; models with analytic
        derivatives may override it.  Within the step of
        +-:data:`VOLTAGE_LIMIT_V` a probe stops at the limit, and the
        difference is taken over the span actually probed.
        """
        delta = max(1e-4, abs(voltage_v) * 1e-4)
        up = min(delta, VOLTAGE_LIMIT_V - voltage_v)
        down = min(delta, VOLTAGE_LIMIT_V + voltage_v)
        upper = self.current(voltage_v + up, state)
        lower = self.current(voltage_v - down, state)
        g = (upper - lower) / (up + down)
        if g <= 0.0:
            # A passive resistive device can never present a negative or zero
            # small-signal conductance to the solver; clamp to a floor that
            # keeps the nodal matrix well conditioned.
            g = 1e-12
        return g

    def batched(self) -> BatchedDeviceModel:
        """Vectorized counterpart of this model (cached).

        Array-native consumers (the sparse nodal solver, the transient
        engine) evaluate all devices of a crossbar through this interface in
        one call.  Models ship native NumPy kernels where available; the
        default is a loop-based adapter that keeps arbitrary scalar models
        correct at their original speed.
        """
        cached = getattr(self, "_batched_cache", None)
        if cached is None:
            cached = self._make_batched()
            self._batched_cache = cached
        return cached

    def _make_batched(self) -> BatchedDeviceModel:
        return ScalarBatchedModel(self)

    def resistance(self, state: DeviceState, read_voltage_v: float = 0.2) -> float:
        """Static resistance V/I at the given read voltage [Ohm]."""
        current = self.current(read_voltage_v, state)
        if abs(current) < 1e-18:
            return 1e18
        return read_voltage_v / current

    # -- dynamics ---------------------------------------------------------

    @abc.abstractmethod
    def state_derivative(self, voltage_v: float, state: DeviceState) -> float:
        """Time derivative of the normalised state dx/dt [1/s]."""

    def state_derivative_from_current(
        self, voltage_v: float, state: DeviceState, current_a: float
    ) -> float:
        """dx/dt [1/s], given the current already solved at (V, x, T).

        A caller holding ``current(voltage_v, state)`` (an operating-point
        solve returns it) spares a model whose rate needs the current a
        second solve.  The default ignores ``current_a`` and calls
        :meth:`state_derivative`.
        """
        return self.state_derivative(voltage_v, state)

    def dissipated_power(self, voltage_v: float, state: DeviceState) -> float:
        """Joule power dissipated in the cell [W]."""
        return abs(voltage_v * self.current(voltage_v, state))

    def thermal_resistance_k_per_w(self) -> float:
        """Effective thermal resistance R_th,eff of the cell [K/W] (Eq. 6)."""
        return 0.0

    # -- state helpers ----------------------------------------------------

    def hrs_state(self, ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K) -> DeviceState:
        """A pristine high-resistive state."""
        return DeviceState(x=0.0, filament_temperature_k=ambient_temperature_k)

    def lrs_state(self, ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K) -> DeviceState:
        """A fully formed low-resistive state."""
        return DeviceState(x=1.0, filament_temperature_k=ambient_temperature_k)

    def state_from_bit(
        self,
        bit: int,
        ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
        lrs_is_one: bool = True,
    ) -> DeviceState:
        """Map a logical bit to a device state using the given encoding."""
        if bit not in (0, 1):
            raise DeviceModelError(f"bit must be 0 or 1, got {bit!r}")
        stored_as_lrs = (bit == 1) == lrs_is_one
        if stored_as_lrs:
            return self.lrs_state(ambient_temperature_k)
        return self.hrs_state(ambient_temperature_k)

    @staticmethod
    def clamp_state(x: float) -> float:
        """Clamp a normalised state variable into its physical range [0, 1]."""
        if x < 0.0:
            return 0.0
        if x > 1.0:
            return 1.0
        return x

    @staticmethod
    def check_voltage(voltage_v: float) -> None:
        """Guard against numerically absurd voltages reaching the model."""
        if not (-VOLTAGE_LIMIT_V <= voltage_v <= VOLTAGE_LIMIT_V):
            raise DeviceModelError(
                f"cell voltage {voltage_v!r} V outside the model validity range "
                f"[-{VOLTAGE_LIMIT_V}, {VOLTAGE_LIMIT_V}] V"
            )


def bit_from_state(state: DeviceState, threshold: float = 0.5, lrs_is_one: bool = True) -> int:
    """Decode the logical bit stored in a device state."""
    is_lrs = state.x >= threshold
    if lrs_is_one:
        return 1 if is_lrs else 0
    return 0 if is_lrs else 1
