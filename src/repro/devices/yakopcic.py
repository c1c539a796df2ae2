"""Generalised Yakopcic memristor model (alternate device model).

The Yakopcic model describes the device current with a hyperbolic-sine
conduction term and the state motion with threshold-activated exponentials.
It sits between the linear-ion-drift baseline and the full VCM model in terms
of fidelity: nonlinear conduction and threshold-like switching, but no
explicit temperature physics.  It is provided so users can cross-check how
much of the NeuroHammer effect is attributable to the *thermal* acceleration
(only present in the VCM model) versus mere voltage nonlinearity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DeviceModelError
from .base import VOLTAGE_LIMIT_V, BatchedDeviceModel, DeviceState, MemristorModel


@dataclass
class YakopcicParameters:
    """Parameters of the generalised Yakopcic model."""

    #: Conduction amplitude in the high-conductive branch [A].
    a1: float = 2.3e-4
    #: Conduction amplitude in the low-conductive branch [A].
    a2: float = 3.6e-6
    #: Conduction nonlinearity [1/V].
    b: float = 2.0
    #: State motion amplitude above the positive threshold [1/s].
    a_p: float = 5e6
    #: State motion amplitude below the negative threshold [1/s].
    a_n: float = 5e6
    #: Positive switching threshold [V].
    v_p: float = 0.85
    #: Negative switching threshold [V].
    v_n: float = 0.85
    #: State boundary softening parameters.
    x_p: float = 0.9
    x_n: float = 0.1
    #: Effective thermal resistance [K/W] for bookkeeping parity.
    rth_eff_k_per_w: float = 2.0e6

    def __post_init__(self) -> None:
        if self.a1 <= 0 or self.a2 <= 0:
            raise DeviceModelError("conduction amplitudes must be positive")
        if self.v_p <= 0 or self.v_n <= 0:
            raise DeviceModelError("thresholds must be positive")
        if not (0.0 < self.x_n < self.x_p < 1.0):
            raise DeviceModelError("state boundaries must satisfy 0 < x_n < x_p < 1")


class YakopcicModel(MemristorModel):
    """Generalised threshold-type memristor model after Yakopcic et al."""

    name = "yakopcic"

    def __init__(self, parameters: YakopcicParameters = None):
        self.parameters = parameters if parameters is not None else YakopcicParameters()

    # -- electrical -------------------------------------------------------

    def current(self, voltage_v: float, state: DeviceState) -> float:
        self.check_voltage(voltage_v)
        p = self.parameters
        x = self.clamp_state(state.x)
        if voltage_v >= 0.0:
            return p.a1 * x * math.sinh(p.b * voltage_v)
        return p.a2 * x * math.sinh(p.b * voltage_v)

    # -- dynamics ---------------------------------------------------------

    def _motion(self, voltage_v: float) -> float:
        """Threshold-activated state motion g(V)."""
        p = self.parameters
        if voltage_v > p.v_p:
            return p.a_p * (math.exp(voltage_v) - math.exp(p.v_p))
        if voltage_v < -p.v_n:
            return -p.a_n * (math.exp(-voltage_v) - math.exp(p.v_n))
        return 0.0

    def _window(self, x: float, direction_positive: bool) -> float:
        """Boundary-aware motion damping f(x)."""
        p = self.parameters
        if direction_positive:
            if x < p.x_p:
                return 1.0
            span = 1.0 - p.x_p
            return math.exp(-(x - p.x_p) / span) if span > 0 else 0.0
        if x > p.x_n:
            return 1.0
        span = p.x_n
        return math.exp((x - p.x_n) / span) if span > 0 else 0.0

    def state_derivative(self, voltage_v: float, state: DeviceState) -> float:
        motion = self._motion(voltage_v)
        if motion == 0.0:
            return 0.0
        x = self.clamp_state(state.x)
        return motion * self._window(x, direction_positive=motion > 0.0)

    def thermal_resistance_k_per_w(self) -> float:
        return self.parameters.rth_eff_k_per_w

    def hrs_state(self, ambient_temperature_k: float = 300.0) -> DeviceState:
        # The Yakopcic conduction term vanishes at x = 0, which would make the
        # HRS an ideal open circuit; use a small residual state instead so the
        # crossbar solver always sees a finite conductance.
        return DeviceState(x=0.01, filament_temperature_k=ambient_temperature_k)

    def _make_batched(self) -> BatchedDeviceModel:
        return BatchedYakopcic(self)


class BatchedYakopcic(BatchedDeviceModel):
    """NumPy-vectorized Yakopcic kernel (closed-form, loop-free).

    Conductance falls back to the inherited finite-difference rule, matching
    the scalar model (which does not override the default either).
    """

    def __init__(self, model: YakopcicModel):
        self.parameters = model.parameters

    def current(self, voltage_v, x, temperature_k, scratch=None) -> np.ndarray:
        p = self.parameters
        voltage_v = np.asarray(voltage_v, dtype=np.float64)
        if np.any(np.abs(voltage_v) > VOLTAGE_LIMIT_V):
            raise DeviceModelError(
                f"cell voltage outside the model validity range "
                f"[-{VOLTAGE_LIMIT_V:g}, {VOLTAGE_LIMIT_V:g}] V"
            )
        x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
        amplitude = np.where(voltage_v >= 0.0, p.a1, p.a2)
        return amplitude * x * np.sinh(p.b * voltage_v)

    def state_derivative(self, voltage_v, x, temperature_k) -> np.ndarray:
        p = self.parameters
        voltage_v = np.asarray(voltage_v, dtype=np.float64)
        x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
        motion = np.where(
            voltage_v > p.v_p,
            p.a_p * (np.exp(voltage_v) - math.exp(p.v_p)),
            np.where(
                voltage_v < -p.v_n,
                -p.a_n * (np.exp(-voltage_v) - math.exp(p.v_n)),
                0.0,
            ),
        )
        span_p = 1.0 - p.x_p
        window_pos = np.where(
            x < p.x_p,
            1.0,
            np.exp(-(x - p.x_p) / span_p) if span_p > 0 else 0.0,
        )
        window_neg = np.where(
            x > p.x_n,
            1.0,
            np.exp((x - p.x_n) / p.x_n) if p.x_n > 0 else 0.0,
        )
        window = np.where(motion > 0.0, window_pos, window_neg)
        return np.where(motion == 0.0, 0.0, motion * window)
