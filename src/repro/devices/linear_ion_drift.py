"""HP-style linear ion drift memristor model (baseline device).

This is the classic Strukov/Williams model: the device is a series
combination of a doped (low resistance) and an undoped (high resistance)
region, and the boundary between them drifts proportionally to the current.
It has *no* temperature dependence, which is exactly why it serves as the
ablation baseline (ABL2): driving the NeuroHammer workload with this model
shows that without thermally accelerated kinetics the attack does not work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import DEFAULT_AMBIENT_TEMPERATURE_K
from ..errors import DeviceModelError
from .base import VOLTAGE_LIMIT_V, BatchedDeviceModel, DeviceState, MemristorModel
from .windows import WindowFunction, get_batched_window, get_window


@dataclass
class LinearIonDriftParameters:
    """Parameters of the linear ion drift model."""

    #: Resistance when fully doped (x = 1) [Ohm].
    r_on_ohm: float = 2_000.0
    #: Resistance when fully undoped (x = 0) [Ohm].
    r_off_ohm: float = 2_000_000.0
    #: Ion mobility [m^2 / (V s)].
    mobility_m2_per_vs: float = 1e-14
    #: Device (oxide) thickness [m].
    thickness_m: float = 10e-9
    #: Name of the window function shaping the boundary dynamics.
    window: str = "biolek"
    #: Window order parameter.
    window_order: int = 2
    #: Effective thermal resistance [K/W]; kept for interface parity with the
    #: VCM model so the thermal bookkeeping still works (the *kinetics* stay
    #: temperature independent, which is the point of the baseline).
    rth_eff_k_per_w: float = 2.0e6

    def __post_init__(self) -> None:
        if self.r_on_ohm <= 0 or self.r_off_ohm <= 0:
            raise DeviceModelError("resistances must be positive")
        if self.r_on_ohm >= self.r_off_ohm:
            raise DeviceModelError("r_on must be smaller than r_off")
        if self.mobility_m2_per_vs <= 0 or self.thickness_m <= 0:
            raise DeviceModelError("mobility and thickness must be positive")
        if self.window_order < 1:
            raise DeviceModelError("window_order must be >= 1")


class LinearIonDriftModel(MemristorModel):
    """Linear ion drift memristor with a configurable window function."""

    name = "linear_ion_drift"

    def __init__(self, parameters: LinearIonDriftParameters = None):
        self.parameters = parameters if parameters is not None else LinearIonDriftParameters()
        self._window: WindowFunction = get_window(self.parameters.window)

    # -- electrical -------------------------------------------------------

    def memristance(self, state: DeviceState) -> float:
        """Instantaneous memristance R(x) [Ohm]."""
        p = self.parameters
        x = self.clamp_state(state.x)
        return p.r_on_ohm * x + p.r_off_ohm * (1.0 - x)

    def current(self, voltage_v: float, state: DeviceState) -> float:
        self.check_voltage(voltage_v)
        return voltage_v / self.memristance(state)

    def conductance(self, voltage_v: float, state: DeviceState) -> float:
        return 1.0 / self.memristance(state)

    # -- dynamics ---------------------------------------------------------

    def state_derivative(self, voltage_v: float, state: DeviceState) -> float:
        p = self.parameters
        current_a = self.current(voltage_v, state)
        window_value = self._window(self.clamp_state(state.x), current_a)
        if isinstance(window_value, float) and window_value < 0.0:
            window_value = 0.0
        drift = p.mobility_m2_per_vs * p.r_on_ohm / (p.thickness_m ** 2)
        return drift * current_a * window_value

    def thermal_resistance_k_per_w(self) -> float:
        return self.parameters.rth_eff_k_per_w

    # -- convenience ------------------------------------------------------

    def hrs_state(self, ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K) -> DeviceState:
        return DeviceState(x=0.0, filament_temperature_k=ambient_temperature_k)

    def lrs_state(self, ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K) -> DeviceState:
        return DeviceState(x=1.0, filament_temperature_k=ambient_temperature_k)

    def _make_batched(self) -> BatchedDeviceModel:
        return BatchedLinearIonDrift(self)


class BatchedLinearIonDrift(BatchedDeviceModel):
    """NumPy-vectorized linear ion drift kernel (closed-form, loop-free)."""

    def __init__(self, model: LinearIonDriftModel):
        self.parameters = model.parameters
        self._window = get_batched_window(model.parameters.window)

    def _memristance(self, x: np.ndarray) -> np.ndarray:
        p = self.parameters
        x = np.clip(x, 0.0, 1.0)
        return p.r_on_ohm * x + p.r_off_ohm * (1.0 - x)

    def current(self, voltage_v, x, temperature_k, scratch=None) -> np.ndarray:
        voltage_v = np.asarray(voltage_v, dtype=np.float64)
        if np.any(np.abs(voltage_v) > VOLTAGE_LIMIT_V):
            raise DeviceModelError(
                f"cell voltage outside the model validity range "
                f"[-{VOLTAGE_LIMIT_V:g}, {VOLTAGE_LIMIT_V:g}] V"
            )
        return voltage_v / self._memristance(np.asarray(x, dtype=np.float64))

    def conductance(self, voltage_v, x, temperature_k, scratch=None) -> np.ndarray:
        out = 1.0 / self._memristance(np.asarray(x, dtype=np.float64))
        return np.broadcast_to(out, np.broadcast_shapes(out.shape, np.shape(voltage_v))).copy()

    def state_derivative(self, voltage_v, x, temperature_k) -> np.ndarray:
        p = self.parameters
        current_a = self.current(voltage_v, x, temperature_k)
        window = np.maximum(self._window(np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0), current_a), 0.0)
        drift = p.mobility_m2_per_vs * p.r_on_ohm / (p.thickness_m ** 2)
        return drift * current_a * window
