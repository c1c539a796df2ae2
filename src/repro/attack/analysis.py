"""Analysis helpers: susceptibility metrics around the NeuroHammer mechanism.

These functions quantify the individual ingredients of the attack so they can
be studied (and tested) in isolation from the full campaign engine:

* how strongly the switching rate of a VCM cell accelerates with temperature,
* how much crosstalk (alpha) is needed before a given pulse budget suffices,
* how the four phases of Fig. 1 translate into concrete numbers for a given
  configuration (used by the quickstart example to narrate the attack).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..constants import DEFAULT_AMBIENT_TEMPERATURE_K, DEFAULT_SET_VOLTAGE_V
from ..devices.base import DeviceState, MemristorModel
from ..devices.jart_vcm import JartVcmModel
from ..devices.kinetics import pulses_to_switch
from ..devices.thermal import solve_operating_point
from ..errors import AttackError

Cell = Tuple[int, int]


def switching_rate(
    model: MemristorModel,
    voltage_v: float,
    temperature_k: float,
    x: float = 0.0,
) -> float:
    """Victim state rate dx/dt at a fixed voltage and filament temperature."""
    state = DeviceState(x=x, filament_temperature_k=temperature_k)
    return model.state_derivative(voltage_v, state)


def thermal_acceleration_factor(
    model: MemristorModel,
    voltage_v: float,
    hot_temperature_k: float,
    cold_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    x: float = 0.0,
) -> float:
    """How much faster the victim switches when heated (phase 3 of Fig. 1)."""
    hot = switching_rate(model, voltage_v, hot_temperature_k, x)
    cold = switching_rate(model, voltage_v, cold_temperature_k, x)
    if cold <= 0:
        return math.inf if hot > 0 else 1.0
    return hot / cold


def minimum_alpha_to_flip(
    model: MemristorModel,
    pulse_length_s: float,
    pulse_budget: int,
    aggressor_rise_k: float,
    half_select_voltage_v: float = DEFAULT_SET_VOLTAGE_V / 2.0,
    ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    flip_threshold: float = 0.5,
    tolerance: float = 1e-3,
) -> Optional[float]:
    """Smallest alpha value for which the flip fits into the pulse budget.

    Returns ``None`` if even full coupling (alpha = 1) is insufficient.  Used
    to reason about how dense a crossbar must be before NeuroHammer becomes
    practical — the design question behind the paper's Fig. 3b.
    """
    if pulse_budget < 1 or pulse_length_s <= 0:
        raise AttackError("pulse budget and pulse length must be positive")

    def flips(alpha: float) -> bool:
        result = pulses_to_switch(
            model,
            half_select_voltage_v,
            pulse_length_s,
            x_start=0.0,
            x_target=flip_threshold,
            ambient_temperature_k=ambient_temperature_k,
            crosstalk_temperature_k=alpha * aggressor_rise_k,
            max_pulses=pulse_budget,
        )
        return result.flipped

    if not flips(1.0):
        return None
    if flips(0.0):
        return 0.0
    low, high = 0.0, 1.0
    while high - low > tolerance:
        mid = 0.5 * (low + high)
        if flips(mid):
            high = mid
        else:
            low = mid
    return high


@dataclass
class PhaseNarrative:
    """Quantified description of the four NeuroHammer phases (Fig. 1)."""

    #: Phase 1 — hammering: aggressor current under the SET pulse [A].
    aggressor_current_a: float
    #: Phase 2 — temperature increase: aggressor filament temperature [K].
    aggressor_temperature_k: float
    #: Phase 2 — crosstalk temperature delivered to the victim [K].
    victim_crosstalk_k: float
    #: Phase 3 — switching-kinetics acceleration factor of the victim.
    acceleration_factor: float
    #: Phase 4 — biased time until the victim flips [s].
    time_to_flip_s: float
    #: Phase 4 — pulses until the victim flips for the given pulse length.
    pulses_to_flip: int
    pulse_length_s: float

    def as_lines(self) -> List[str]:
        """Render the narrative as printable lines (used by the examples)."""
        return [
            f"Phase 1 - hammering:      aggressor draws {self.aggressor_current_a * 1e6:.1f} uA per pulse",
            f"Phase 2 - heating:        aggressor filament at {self.aggressor_temperature_k:.0f} K, "
            f"victim receives +{self.victim_crosstalk_k:.1f} K of crosstalk",
            f"Phase 3 - kinetics:       victim switching rate accelerated {self.acceleration_factor:.0f}x",
            f"Phase 4 - bit-flip:       after {self.pulses_to_flip} pulses "
            f"({self.time_to_flip_s * 1e6:.1f} us of half-select stress at "
            f"{self.pulse_length_s * 1e9:.0f} ns per pulse)",
        ]


def narrate_attack(
    model: Optional[MemristorModel] = None,
    alpha: float = 0.115,
    pulse_length_s: float = 50e-9,
    amplitude_v: float = DEFAULT_SET_VOLTAGE_V,
    ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    flip_threshold: float = 0.5,
    max_pulses: int = 10_000_000,
) -> PhaseNarrative:
    """Compute the four-phase narrative for a single-aggressor attack."""
    model = model if model is not None else JartVcmModel()
    aggressor = solve_operating_point(model, amplitude_v, 1.0, ambient_temperature_k)
    crosstalk = alpha * aggressor.temperature_rise_k
    half_select = amplitude_v / 2.0

    victim_hot = solve_operating_point(
        model, half_select, 0.0, ambient_temperature_k, crosstalk_temperature_k=crosstalk
    )
    acceleration = thermal_acceleration_factor(
        model,
        half_select,
        hot_temperature_k=victim_hot.filament_temperature_k,
        cold_temperature_k=ambient_temperature_k,
    )
    count = pulses_to_switch(
        model,
        half_select,
        pulse_length_s,
        x_start=0.0,
        x_target=flip_threshold,
        ambient_temperature_k=ambient_temperature_k,
        crosstalk_temperature_k=crosstalk,
        max_pulses=max_pulses,
    )
    return PhaseNarrative(
        aggressor_current_a=aggressor.current_a,
        aggressor_temperature_k=aggressor.filament_temperature_k,
        victim_crosstalk_k=crosstalk,
        acceleration_factor=acceleration,
        time_to_flip_s=count.stress_time_s,
        pulses_to_flip=count.pulses,
        pulse_length_s=pulse_length_s,
    )
