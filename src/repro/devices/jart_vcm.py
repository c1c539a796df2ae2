"""JART-VCM-v1b style compact model of a filamentary VCM ReRAM cell.

This is the primary device model of the reproduction.  It follows the
structure of the Juelich-Aachen Resistive Switching Tools (JART) VCM v1b
model used by the paper (deterministic variant, Bengel et al., TCAS-I 2020):

* The internal state is the oxygen-vacancy concentration ``N_disc`` of the
  disc region of the filament, normalised here to ``x`` in [0, 1] between
  ``n_disc_min`` (HRS) and ``n_disc_max`` (LRS).
* The cell current flows through a nonlinear electrode/oxide interface
  (Schottky-like, thermionic with barrier lowering by the vacancy
  concentration) in series with the ohmic disc, plug and line resistances.
* The switching kinetics follow thermally activated, field-accelerated ion
  hopping (Mott-Gurney law): an Arrhenius factor in the filament temperature
  and a sinh term in the driving voltage.
* The filament temperature follows the paper's Eq. (6),
  ``T = Rth_eff * P + T0``, plus the additional temperature delivered by the
  crosstalk hub (Eq. 5).

The default parameters are calibrated (see ``repro.experiments.calibration``)
so that the operating point of the paper's Fig. 2a is reproduced: an LRS cell
driven at V_SET = 1.05 V from a 300 K ambient settles at ≈947 K, and the
victim operating point of Fig. 3a (50 ns pulses, 50 nm spacing, 300 K) needs
a few thousand hammer pulses.  The kinetic prefactor is an explicit
calibration constant subsuming the attempt frequency, vacancy density and
geometric factors that the public JART parameter set does not fully pin
down; every figure uses the same value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..constants import (
    BOLTZMANN_EV_PER_K,
    BOLTZMANN_J_PER_K,
    DEFAULT_AMBIENT_TEMPERATURE_K,
    ELEMENTARY_CHARGE_C,
    RICHARDSON_A_PER_M2K2,
)
from ..errors import DeviceModelError
from .base import DeviceState, MemristorModel

#: Cap of the ion-hopping field argument ``field_k_per_v * |V_drive| / T``:
#: an overflow guard for pathological inputs, since sinh(50) ~ 2.6e21
#: already means instantaneous switching.
MAX_FIELD_ARGUMENT = 50.0


@dataclass
class JartVcmParameters:
    """Physical parameters of the JART-style VCM compact model."""

    # ---- filament geometry ----------------------------------------------
    #: Filament radius [m] (paper Fig. 2b: diameter 30 nm).
    filament_radius_m: float = 15e-9
    #: Length of the disc region [m].
    disc_length_m: float = 1e-9
    #: Length of the plug region [m].
    plug_length_m: float = 4e-9

    # ---- vacancy concentrations ------------------------------------------
    #: Minimum disc vacancy concentration (HRS) [1/m^3].
    n_disc_min_per_m3: float = 0.008e26
    #: Maximum disc vacancy concentration (LRS) [1/m^3].
    n_disc_max_per_m3: float = 20e26
    #: Plug vacancy concentration [1/m^3].
    n_plug_per_m3: float = 20e26

    # ---- conduction --------------------------------------------------------
    #: Electron mobility in the oxide [m^2/(V s)].
    electron_mobility_m2_per_vs: float = 4e-6
    #: Charge number of the mobile donors (oxygen vacancies).
    charge_number: int = 2
    #: Series resistance of electrodes and ohmic TiOx layer [Ohm].
    series_resistance_ohm: float = 650.0
    #: Zero-state effective interface barrier height [eV].
    barrier_height_ev: float = 0.35
    #: Barrier lowering at full LRS (x = 1) [eV].
    barrier_lowering_ev: float = 0.22
    #: Interface nonlinearity voltage of the sinh characteristic [V].
    interface_voltage_v: float = 0.05

    # ---- thermal -----------------------------------------------------------
    #: Effective thermal resistance R_th,eff of the cell [K/W] (paper Eq. 6).
    rth_eff_k_per_w: float = 2.15e6

    # ---- switching kinetics ------------------------------------------------
    #: Activation energy of ion hopping [eV].
    activation_energy_ev: float = 1.2
    #: Activation energy of the RESET direction [eV].
    reset_activation_energy_ev: float = 1.05
    #: Effective ion hopping distance [m].
    hop_distance_m: float = 0.5e-9
    #: Kinetic prefactor of the SET direction [1/s] (calibration constant).
    set_rate_prefactor_per_s: float = 1.2e16
    #: Kinetic prefactor of the RESET direction [1/s].
    reset_rate_prefactor_per_s: float = 2.9e15

    def __post_init__(self) -> None:
        if self.n_disc_min_per_m3 <= 0 or self.n_disc_max_per_m3 <= self.n_disc_min_per_m3:
            raise DeviceModelError("need 0 < n_disc_min < n_disc_max")
        if self.filament_radius_m <= 0 or self.disc_length_m <= 0 or self.plug_length_m <= 0:
            raise DeviceModelError("filament geometry must be positive")
        if self.interface_voltage_v <= 0:
            raise DeviceModelError("interface_voltage_v must be positive")
        if self.barrier_lowering_ev >= self.barrier_height_ev:
            raise DeviceModelError("barrier lowering must be smaller than the barrier height")
        if self.rth_eff_k_per_w < 0:
            raise DeviceModelError("rth_eff_k_per_w must be non-negative")
        if self.activation_energy_ev <= 0 or self.reset_activation_energy_ev <= 0:
            raise DeviceModelError("activation energies must be positive")
        if self.set_rate_prefactor_per_s <= 0 or self.reset_rate_prefactor_per_s <= 0:
            raise DeviceModelError("kinetic prefactors must be positive")

    @property
    def filament_area_m2(self) -> float:
        """Cross-sectional area of the filament [m^2]."""
        return math.pi * self.filament_radius_m ** 2

    @property
    def field_coefficient_k_per_v(self) -> float:
        """Coefficient of the sinh field-acceleration term [K/V].

        Equals ``a z e / (2 k_B l_disc)`` so that the sinh argument is
        ``field_coefficient * V_drive / T``.
        """
        return (
            self.hop_distance_m
            * self.charge_number
            * ELEMENTARY_CHARGE_C
            / (2.0 * BOLTZMANN_J_PER_K * self.disc_length_m)
        )


class JartVcmModel(MemristorModel):
    """Deterministic JART-style VCM cell model."""

    name = "jart_vcm_v1b"

    def __init__(self, parameters: JartVcmParameters = None):
        self.parameters = parameters if parameters is not None else JartVcmParameters()

    # ------------------------------------------------------------------
    # state mapping
    # ------------------------------------------------------------------

    def disc_concentration(self, x: float) -> float:
        """Oxygen vacancy concentration of the disc for normalised state x."""
        p = self.parameters
        x = self.clamp_state(x)
        return p.n_disc_min_per_m3 + x * (p.n_disc_max_per_m3 - p.n_disc_min_per_m3)

    def normalised_state(self, n_disc_per_m3: float) -> float:
        """Inverse of :meth:`disc_concentration`."""
        p = self.parameters
        x = (n_disc_per_m3 - p.n_disc_min_per_m3) / (p.n_disc_max_per_m3 - p.n_disc_min_per_m3)
        return self.clamp_state(x)

    # ------------------------------------------------------------------
    # resistive elements
    # ------------------------------------------------------------------

    def disc_resistance(self, x: float) -> float:
        """Ohmic resistance of the disc region [Ohm]."""
        p = self.parameters
        sigma = p.charge_number * ELEMENTARY_CHARGE_C * p.electron_mobility_m2_per_vs * self.disc_concentration(x)
        return p.disc_length_m / (sigma * p.filament_area_m2)

    def plug_resistance(self) -> float:
        """Ohmic resistance of the plug region [Ohm]."""
        p = self.parameters
        sigma = p.charge_number * ELEMENTARY_CHARGE_C * p.electron_mobility_m2_per_vs * p.n_plug_per_m3
        return p.plug_length_m / (sigma * p.filament_area_m2)

    def ohmic_resistance(self, x: float) -> float:
        """Total ohmic series resistance (disc + plug + electrodes) [Ohm]."""
        return self.disc_resistance(x) + self.plug_resistance() + self.parameters.series_resistance_ohm

    def interface_saturation_current(self, x: float, temperature_k: float) -> float:
        """Saturation current of the Schottky-like interface element [A]."""
        p = self.parameters
        barrier_ev = p.barrier_height_ev - p.barrier_lowering_ev * self.clamp_state(x)
        thermionic = RICHARDSON_A_PER_M2K2 * temperature_k ** 2 * p.filament_area_m2
        return thermionic * math.exp(-barrier_ev / (BOLTZMANN_EV_PER_K * temperature_k))

    # ------------------------------------------------------------------
    # electrical characteristic
    # ------------------------------------------------------------------

    def current(self, voltage_v: float, state: DeviceState) -> float:
        """Cell current [A], solving the internal series combination.

        The cell voltage splits between the nonlinear interface
        ``V_int = V_nl * asinh(I / I_s)`` and the ohmic resistances; the
        resulting scalar equation in I is monotone and solved by bisection
        refined with Newton steps.
        """
        self.check_voltage(voltage_v)
        if voltage_v == 0.0:
            return 0.0
        sign = 1.0 if voltage_v > 0.0 else -1.0
        magnitude = abs(voltage_v)
        x = self.clamp_state(state.x)
        temperature = max(state.filament_temperature_k, 1.0)
        r_ohmic = self.ohmic_resistance(x)
        i_sat = self.interface_saturation_current(x, temperature)
        if i_sat == 0.0:
            # A few kelvin cold, the saturation current underflows and the
            # interface blocks (the batched kernel's i_sat * sinh(w) is 0).
            return 0.0
        v_nl = self.parameters.interface_voltage_v

        def residual(current_a: float) -> float:
            return v_nl * math.asinh(current_a / i_sat) + current_a * r_ohmic - magnitude

        low, high = 0.0, magnitude / r_ohmic
        # residual(low) = -magnitude < 0 and residual(high) >= 0, so the root
        # is always bracketed; 60 bisection steps give ~1e-18 A resolution.
        for _ in range(60):
            mid = 0.5 * (low + high)
            if residual(mid) > 0.0:
                high = mid
            else:
                low = mid
        return sign * 0.5 * (low + high)

    def interface_voltage(self, voltage_v: float, state: DeviceState) -> float:
        """Voltage drop across the nonlinear interface element [V] (signed)."""
        current_a = self.current(voltage_v, state)
        x = self.clamp_state(state.x)
        temperature = max(state.filament_temperature_k, 1.0)
        i_sat = self.interface_saturation_current(x, temperature)
        return self.parameters.interface_voltage_v * math.asinh(current_a / i_sat)

    def driving_voltage(self, voltage_v: float, state: DeviceState) -> float:
        """Voltage available to drive ion migration [V] (signed).

        Comprises the drops over the disc and the interface depletion region,
        i.e. the full cell voltage minus the drops over the plug and the
        external series resistance.
        """
        return self._driving_voltage(voltage_v, self.current(voltage_v, state))

    def _driving_voltage(self, voltage_v: float, current_a: float) -> float:
        series = self.plug_resistance() + self.parameters.series_resistance_ohm
        return voltage_v - current_a * series

    # ------------------------------------------------------------------
    # switching kinetics
    # ------------------------------------------------------------------

    def state_derivative(self, voltage_v: float, state: DeviceState) -> float:
        """dx/dt from thermally activated, field-accelerated ion hopping."""
        return self.state_derivative_from_current(
            voltage_v, state, self.current(voltage_v, state)
        )

    def state_derivative_from_current(
        self, voltage_v: float, state: DeviceState, current_a: float
    ) -> float:
        """dx/dt given the cell current at (V, x, T), which sets the drive."""
        if voltage_v == 0.0:
            return 0.0
        p = self.parameters
        temperature = max(state.filament_temperature_k, 1.0)
        v_drive = self._driving_voltage(voltage_v, current_a)
        field_argument = p.field_coefficient_k_per_v * abs(v_drive) / temperature
        field_argument = min(field_argument, MAX_FIELD_ARGUMENT)
        field_term = math.sinh(field_argument)
        if voltage_v > 0.0:
            arrhenius = math.exp(-p.activation_energy_ev / (BOLTZMANN_EV_PER_K * temperature))
            rate = p.set_rate_prefactor_per_s * arrhenius * field_term
            if state.x >= 1.0:
                return 0.0
            return rate
        arrhenius = math.exp(-p.reset_activation_energy_ev / (BOLTZMANN_EV_PER_K * temperature))
        rate = p.reset_rate_prefactor_per_s * arrhenius * field_term
        if state.x <= 0.0:
            return 0.0
        return -rate

    def thermal_resistance_k_per_w(self) -> float:
        """Effective thermal resistance R_th,eff of the cell [K/W] (Eq. 6)."""
        return self.parameters.rth_eff_k_per_w

    def _make_batched(self):
        """Array-wide kernel backed by the Monte-Carlo vectorized model.

        Imported lazily: :mod:`repro.montecarlo.vectorized` depends on this
        module, so the import must not run at module-load time.
        """
        from ..montecarlo.vectorized import JartArrayModel

        return JartArrayModel(self.parameters)

    # ------------------------------------------------------------------
    # characterisation helpers
    # ------------------------------------------------------------------

    def lrs_resistance_ohm(self, read_voltage_v: float = 0.2,
                           temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K) -> float:
        """Static LRS resistance at the read voltage [Ohm]."""
        return self.resistance(DeviceState(1.0, temperature_k), read_voltage_v)

    def hrs_resistance_ohm(self, read_voltage_v: float = 0.2,
                           temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K) -> float:
        """Static HRS resistance at the read voltage [Ohm]."""
        return self.resistance(DeviceState(0.0, temperature_k), read_voltage_v)

    def resistance_window(self, read_voltage_v: float = 0.2) -> float:
        """HRS/LRS resistance ratio at the read voltage."""
        return self.hrs_resistance_ohm(read_voltage_v) / self.lrs_resistance_ohm(read_voltage_v)
