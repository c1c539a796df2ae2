"""Memristive device compact models.

The flagship model is :class:`JartVcmModel`, a JART-VCM-v1b style filamentary
VCM cell with temperature-dependent switching kinetics — the mechanism the
NeuroHammer attack exploits.  The linear-ion-drift and Yakopcic models serve
as temperature-agnostic baselines for the ablation studies.
"""

from .base import (
    BatchedDeviceModel,
    DeviceState,
    DeviceStateArrays,
    MemristorModel,
    ScalarBatchedModel,
    SolveScratch,
    bit_from_state,
)
from .jart_vcm import JartVcmModel, JartVcmParameters
from .kinetics import (
    PulseCountResult,
    SwitchingResult,
    pulses_to_switch,
    time_to_switch,
)
from .linear_ion_drift import LinearIonDriftModel, LinearIonDriftParameters
from .thermal import ThermalOperatingPoint, equilibrium_temperature, solve_operating_point
from .windows import (
    WINDOW_FUNCTIONS,
    biolek_window,
    get_window,
    joglekar_window,
    prodromakis_window,
    rectangular_window,
)
from .yakopcic import YakopcicModel, YakopcicParameters

__all__ = [
    "DeviceState",
    "DeviceStateArrays",
    "BatchedDeviceModel",
    "ScalarBatchedModel",
    "SolveScratch",
    "MemristorModel",
    "bit_from_state",
    "JartVcmModel",
    "JartVcmParameters",
    "LinearIonDriftModel",
    "LinearIonDriftParameters",
    "YakopcicModel",
    "YakopcicParameters",
    "ThermalOperatingPoint",
    "equilibrium_temperature",
    "solve_operating_point",
    "SwitchingResult",
    "PulseCountResult",
    "time_to_switch",
    "pulses_to_switch",
    "WINDOW_FUNCTIONS",
    "get_window",
    "rectangular_window",
    "joglekar_window",
    "biolek_window",
    "prodromakis_window",
]
