"""Switching-kinetics solvers built on top of the device compact models.

These routines answer the questions the attack analysis needs:

* How long does a cell need under a constant bias (and a constant crosstalk
  temperature contribution) until its state crosses a threshold?
* How many rectangular pulses of a given length does that correspond to?

Under a constant bias the state obeys the autonomous ODE ``dx/dt = r(x)``,
where ``r`` is taken at the self-consistent filament temperature of each x:
the positive feedback between state, current, self-heating and switching
rate that makes VCM SET transitions abrupt.  The switching time is then the
integral ``t = ∫ dx / r(x)`` from ``x_start`` to the threshold, and
:func:`switching_time` is the package's one rule for it: a
:data:`QUADRATURE_NODES`-node Gauss–Legendre panel on
``[x_start, x_target]``.  Every integrator evaluates its rates at the
panel's nodes (:func:`quadrature_states`) and hands them to that rule:
:func:`time_to_switch` and :func:`pulses_to_switch` here,
:func:`repro.montecarlo.vectorized.pulses_to_switch_batch` over lanes and
:meth:`repro.attack.NeuroHammer.run` over the phases of an attack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..constants import DEFAULT_AMBIENT_TEMPERATURE_K
from ..errors import DeviceModelError
from .base import DeviceState, MemristorModel
from .thermal import solve_operating_point

#: Nodes of the switching-time panel.  Over the 24 576 victim lanes of one
#: ``mc_map_store`` map of the repository benchmark (seed 1), eight nodes
#: keep the worst relative time error at 4.9e-4 (median 8e-5) against an
#: 8x16-node composite panel; twelve reach 9e-5 for 1.5x the rate solves.
QUADRATURE_NODES = 8

_ABSCISSAE, _WEIGHTS = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
#: Ascending power coefficients in the panel coordinate ξ ∈ [-1, 1] of the
#: Lagrange basis on the nodes: column i holds ℓ_i.
_INTERPOLANT = np.linalg.inv(np.vander(_ABSCISSAE, increasing=True))
#: The same for ∫ ℓ_i from -1 to ξ, the cumulative time of the interpolant.
_CUMULATIVE = np.zeros((QUADRATURE_NODES + 1, QUADRATURE_NODES))
_CUMULATIVE[1:] = _INTERPOLANT / np.arange(1, QUADRATURE_NODES + 1)[:, None]
_CUMULATIVE[0] = -np.polynomial.polynomial.polyval(-1.0, _CUMULATIVE)
#: Bisection steps that invert the cumulative time of a budget-limited
#: lane: they resolve ξ to 2^-35, 3e-11, far below the panel's own error.
_INVERSION_STEPS = 36


def quadrature_states(x_start, x_target) -> np.ndarray:
    """States at which :func:`switching_time` takes its rates.

    Shape ``(QUADRATURE_NODES,) + shape(x_start)``: one row per node, so each
    node's lanes are contiguous.
    """
    x_start = np.asarray(x_start, dtype=np.float64)
    x_target = np.asarray(x_target, dtype=np.float64)
    middle = 0.5 * (x_start + x_target)
    half = 0.5 * (x_target - x_start)
    return middle + np.multiply.outer(_ABSCISSAE, half)


def _lanewise(matrix: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``matrix @ values``, summed node by node.

    Each lane's result depends on that lane's values alone; a BLAS product
    may round a lane differently with its position in the call.
    """
    total = np.multiply.outer(matrix[:, 0], values[0])
    for column, row in zip(matrix.T[1:], values[1:]):
        total += np.multiply.outer(column, row)
    return total


def _polynomial(coefficients: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Horner evaluation of ascending per-lane coefficients at ``xi``."""
    value = coefficients[-1].copy()
    for coefficient in coefficients[-2::-1]:
        value *= xi
        value += coefficient
    return value


class SwitchingTime(NamedTuple):
    """Lane arrays returned by :func:`switching_time`."""

    #: The target was reached within the budget.
    switched: np.ndarray
    #: Time to the target; the budget where the lane did not switch.  In the
    #: time unit of the rates: seconds for dx/dt, rounds for dx per round.
    time: np.ndarray
    #: The target where switched, the state the budget reaches where
    #: budget-limited, ``x_start`` where stuck.
    final_x: np.ndarray
    #: The node temperatures' interpolant at ``final_x`` [K].
    final_temperature_k: np.ndarray


def switching_time(x_start, x_target, rate, temperature_k, budget) -> SwitchingTime:
    """Time to move each lane from ``x_start`` to ``x_target``.

    ``rate`` and ``temperature_k`` hold each lane's state rate and filament
    temperature at the :func:`quadrature_states` nodes, shape
    ``(QUADRATURE_NODES, lanes)`` (or ``(QUADRATURE_NODES,)`` for one lane).
    The time is the Gauss–Legendre sum of ``dx / rate`` over the panel.
    Three outcomes per lane:

    * **switched** — the time is within ``budget``;
    * **stuck** — the rate is zero or points away from the target at some
      node: unswitched with the full budget, at ``x_start``;
    * **budget-limited** — unswitched with the full budget, at the state
      where the cumulative time of the interpolant of ``1 / rate`` (degree
      ``QUADRATURE_NODES - 1`` in x) reaches the budget, found by bisection
      to 3e-11 of the panel.

    All sums run lane-wise, so a lane's result does not depend on the other
    lanes of the call.

    The panel takes ``1 / rate`` to be smooth on ``[x_start, x_target]``.
    Its nodes all lie inside, so a rate that vanishes at an end, as a window
    function that pins the state at its bound does (Joglekar, Prodromakis),
    goes unseen: the time comes out finite and short.
    """
    x_start = np.array(x_start, dtype=np.float64, ndmin=1)
    x_target = np.array(x_target, dtype=np.float64, ndmin=1)
    lanes = x_start.shape
    rate = np.asarray(rate, dtype=np.float64).reshape((QUADRATURE_NODES,) + lanes)
    temperature_k = np.asarray(temperature_k, dtype=np.float64).reshape(rate.shape)
    budget = np.broadcast_to(np.asarray(budget, dtype=np.float64), lanes)

    half = 0.5 * (x_target - x_start)
    direction = np.where(x_target >= x_start, 1.0, -1.0)
    stuck = (rate * direction <= 0.0).any(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Time per unit of the panel coordinate at each node.
        density = np.where(stuck, 0.0, half / rate)
    time = _lanewise(_WEIGHTS[np.newaxis], density)[0]
    switched = ~stuck & (time <= budget)

    xi = np.where(switched, 1.0, -1.0)
    limited = np.flatnonzero(~switched & ~stuck)
    if limited.size:
        cumulative = _lanewise(_CUMULATIVE, density[:, limited])
        target = budget[limited]
        low = np.full(limited.size, -1.0)
        high = np.ones(limited.size)
        for _ in range(_INVERSION_STEPS):
            middle = low + high
            middle *= 0.5
            short = _polynomial(cumulative, middle) < target
            np.copyto(low, middle, where=short)
            np.copyto(high, middle, where=~short)
        xi[limited] = 0.5 * (low + high)

    final_x = np.where(switched, x_target, x_start + half * (xi + 1.0))
    final_temperature = _polynomial(_lanewise(_INTERPOLANT, temperature_k), xi)
    return SwitchingTime(switched, np.where(switched, time, budget), final_x, final_temperature)


@dataclass
class SwitchingResult:
    """Outcome of a constant-bias switching-time integration."""

    #: True if the target state was reached within the time budget.
    switched: bool
    #: Time spent under bias until the target was reached (or the budget) [s].
    time_s: float
    #: Final normalised state.
    final_x: float
    #: Filament temperature at the final state [K].
    final_temperature_k: float


def time_to_switch(
    model: MemristorModel,
    voltage_v: float,
    x_start: float,
    x_target: float,
    ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    crosstalk_temperature_k: float = 0.0,
    max_time_s: float = 10.0,
) -> SwitchingResult:
    """Biased time until the state crosses ``x_target`` (see :func:`switching_time`).

    Args:
        model: Device compact model.
        voltage_v: Constant cell voltage applied while the bias is active.
        x_start: Initial normalised state.
        x_target: Threshold state.
        ambient_temperature_k: Ambient temperature (paper's T0).
        crosstalk_temperature_k: Additional temperature delivered by the
            crosstalk hub while the bias is active.
        max_time_s: Upper bound on the biased time; beyond it the result is
            reported as not switched.

    Each node's rate is taken at its self-consistent operating point, from
    the current that fixed point solved.
    """
    if not 0.0 <= x_start <= 1.0 or not 0.0 <= x_target <= 1.0:
        raise DeviceModelError("states must lie in [0, 1]")
    if max_time_s <= 0:
        raise DeviceModelError("max_time_s must be positive")

    rates, temperatures = [], []
    for x in quadrature_states(x_start, x_target):
        point = solve_operating_point(
            model,
            voltage_v,
            float(x),
            ambient_temperature_k=ambient_temperature_k,
            crosstalk_temperature_k=crosstalk_temperature_k,
        )
        state = DeviceState(x=float(x), filament_temperature_k=point.filament_temperature_k)
        rates.append(model.state_derivative_from_current(voltage_v, state, point.current_a))
        temperatures.append(point.filament_temperature_k)
    outcome = switching_time(x_start, x_target, rates, temperatures, max_time_s)
    return SwitchingResult(
        switched=bool(outcome.switched[0]),
        time_s=float(outcome.time[0]),
        final_x=float(outcome.final_x[0]),
        final_temperature_k=float(outcome.final_temperature_k[0]),
    )


@dataclass
class PulseCountResult:
    """Outcome of a pulsed switching estimation."""

    #: True if the flip happened within the pulse budget.
    flipped: bool
    #: Number of pulses needed (equals the budget when not flipped).
    pulses: int
    #: Cumulative biased (active) time [s].
    stress_time_s: float
    #: Total campaign time including idle parts of each period [s].
    wall_clock_s: float
    #: Final normalised state of the victim.
    final_x: float
    final_temperature_k: float


def pulses_to_switch(
    model: MemristorModel,
    voltage_v: float,
    pulse_length_s: float,
    x_start: float,
    x_target: float,
    duty_cycle: float = 0.5,
    ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    crosstalk_temperature_k: float = 0.0,
    max_pulses: int = 10_000_000,
) -> PulseCountResult:
    """Count rectangular pulses required to move the state across a threshold.

    The thermal model is quasi-static (the paper extracts *static* crosstalk
    coefficients), so the filament temperature follows the bias instantly and
    relaxes instantly between pulses; state motion therefore only accumulates
    during the active part of each period and the pulse count is the biased
    switching time of :func:`time_to_switch` divided by the pulse length,
    rounded up.
    """
    if pulse_length_s <= 0:
        raise DeviceModelError("pulse_length_s must be positive")
    if max_pulses < 1:
        raise DeviceModelError("max_pulses must be at least 1")
    if not 0.0 < duty_cycle <= 1.0:
        raise DeviceModelError("duty cycle must be in (0, 1]")

    budget_s = pulse_length_s * max_pulses
    result = time_to_switch(
        model,
        voltage_v,
        x_start,
        x_target,
        ambient_temperature_k=ambient_temperature_k,
        crosstalk_temperature_k=crosstalk_temperature_k,
        max_time_s=budget_s,
    )
    if result.switched:
        pulses = max(1, int(math.ceil(result.time_s / pulse_length_s)))
        flipped = True
    else:
        pulses = max_pulses
        flipped = False
    period_s = pulse_length_s / duty_cycle
    return PulseCountResult(
        flipped=flipped,
        pulses=pulses,
        stress_time_s=min(result.time_s, pulses * pulse_length_s),
        wall_clock_s=pulses * period_s,
        final_x=result.final_x,
        final_temperature_k=result.final_temperature_k,
    )
