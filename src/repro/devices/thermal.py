"""Cell-level self-heating helpers (paper Eq. 6).

The filament temperature of a cell is coupled to its own dissipation: a
hotter filament conducts differently, which changes the dissipated power,
which changes the temperature.  These helpers solve that fixed point so the
rest of the stack can ask for "the quasi-static temperature of this cell
under this bias" without re-implementing the iteration.

The fixed point is the root of ``f(T) = T_base + R_th * |V * I(V, x, T)| - T``
with ``T_base = T_amb + dT_crosstalk``.  It is found by a safeguarded secant
that starts on the low side:

* ``T0 = T_base``, where ``f(T0) >= 0``.  A residual below the tolerance
  there is converged at once (zero bias, ``R_th = 0``).
* ``T1 = T0 + f(T0)`` is one plain Picard step.
* From then on the secant step through the last two iterates is taken
  where the chord slope of ``f`` is negative (``g' < 1``) and the step lands
  inside the bracket ``(lo, hi)``: ``lo`` is the highest temperature seen
  with ``f > 0``, ``hi`` the lowest with ``f < 0``.  Anywhere else the
  damped step ``T + FALLBACK_DAMPING * f`` is taken, stopped halfway to the
  bracket end it would cross.
* An accepted secant step shorter than ``SELF_HEATING_TOLERANCE_K`` is the
  error estimate of the current iterate: the iterate is returned with the
  current already solved at it, a self-consistent pair.  So is an iterate
  with ``f = 0`` exactly.

For the JART model ``g(T) = T_base + R_th * P`` increases with T, so
Picard from ``T_base`` rises monotonically to the *lowest* root, and the
bracket and slope test keep the secant there: a bistable cell returns its
cold, stable root.  A JART cell always has a fixed point (its current is
bounded by ``|V| / r_ohmic``), so the iteration cap is the only failure
exit.
:func:`repro.montecarlo.vectorized.solve_operating_point_batch` transcribes
the same rule over lanes of cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..constants import DEFAULT_AMBIENT_TEMPERATURE_K
from ..errors import ConvergenceError
from .base import DeviceState, MemristorModel

#: Damping of the fallback step ``T + FALLBACK_DAMPING * f(T)``, taken where
#: the secant step is rejected.
FALLBACK_DAMPING = 0.6

#: Stop of the self-heating fixed point: the bound on the error estimate
#: (the last accepted secant step) [K].
SELF_HEATING_TOLERANCE_K = 1e-4

#: Current solves after which an unsettled self-heating fixed point fails.
SELF_HEATING_MAX_ITERATIONS = 200


@dataclass
class ThermalOperatingPoint:
    """Self-consistent electro-thermal operating point of a single cell."""

    voltage_v: float
    current_a: float
    power_w: float
    filament_temperature_k: float
    ambient_temperature_k: float
    crosstalk_temperature_k: float

    @property
    def temperature_rise_k(self) -> float:
        """Temperature rise above ambient, including crosstalk [K]."""
        return self.filament_temperature_k - self.ambient_temperature_k

    @property
    def self_heating_k(self) -> float:
        """Temperature rise caused by the cell's own dissipation only [K]."""
        return self.temperature_rise_k - self.crosstalk_temperature_k


def solve_operating_point(
    model: MemristorModel,
    voltage_v: float,
    x: float,
    ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    crosstalk_temperature_k: float = 0.0,
) -> ThermalOperatingPoint:
    """Solve the self-consistent filament temperature of a biased cell.

    Runs the module's safeguarded secant on
    ``f(T) = T_amb + dT_crosstalk + Rth_eff * P(V, x, T) - T``, one current
    solve per iteration, and returns the lowest fixed point within
    :data:`SELF_HEATING_TOLERANCE_K`.  Raises :class:`ConvergenceError` if
    :data:`SELF_HEATING_MAX_ITERATIONS` current solves do not settle it.
    """
    base = ambient_temperature_k + crosstalk_temperature_k
    rth = model.thermal_resistance_k_per_w()
    state = DeviceState(x=x, filament_temperature_k=base)
    temperature = base
    low, high = base, math.inf
    for iteration in range(SELF_HEATING_MAX_ITERATIONS):
        state.filament_temperature_k = temperature
        current_a = model.current(voltage_v, state)
        power_w = abs(voltage_v * current_a)
        residual = base + rth * power_w - temperature
        if iteration == 0:
            # f(T_base) = R_th * P >= 0: settled here, or one Picard step.
            if residual < SELF_HEATING_TOLERANCE_K:
                break
            step = residual
        elif residual == 0.0:
            break
        else:
            if residual > 0.0:
                low = temperature
            else:
                high = temperature
            rise = temperature - previous_temperature
            change = residual - previous_residual
            # A negative chord slope of f (g' < 1) gives the secant step.
            secant = -residual * rise / change if rise * change < 0.0 else None
            if secant is not None and low < temperature + secant < high:
                if abs(secant) < SELF_HEATING_TOLERANCE_K:
                    break
                step = secant
            else:
                step = FALLBACK_DAMPING * residual
                if not low < temperature + step < high:
                    step = 0.5 * ((high if residual > 0.0 else low) - temperature)
        previous_temperature, previous_residual = temperature, residual
        temperature += step
    else:
        raise ConvergenceError(
            f"filament temperature did not converge for V={voltage_v} V, x={x} "
            f"within {SELF_HEATING_MAX_ITERATIONS} current solves (last T={temperature:.1f} K)"
        )
    return ThermalOperatingPoint(
        voltage_v=voltage_v,
        current_a=current_a,
        power_w=power_w,
        filament_temperature_k=temperature,
        ambient_temperature_k=ambient_temperature_k,
        crosstalk_temperature_k=crosstalk_temperature_k,
    )


def equilibrium_temperature(
    model: MemristorModel,
    voltage_v: float,
    x: float,
    ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    crosstalk_temperature_k: float = 0.0,
) -> float:
    """Convenience wrapper returning only the self-consistent temperature [K]."""
    point = solve_operating_point(
        model,
        voltage_v,
        x,
        ambient_temperature_k=ambient_temperature_k,
        crosstalk_temperature_k=crosstalk_temperature_k,
    )
    return point.filament_temperature_k
