"""The NeuroHammer attack engine.

Implements the four phases of the attack exactly as described in Sec. III of
the paper:

1. **Hammering** — the aggressor cell(s), initially in LRS to maximise the
   current, are pulsed with the full SET voltage while the V/2 scheme keeps
   the victim under constant half-select stress.
2. **Temperature increase** — every pulse dissipates power in the aggressor
   filament; the crosstalk hub (Eq. 5, alpha values) raises the victim's
   filament temperature, on top of the victim's own (small) half-select
   self-heating (Eq. 6).
3. **Switching kinetics** — the elevated temperature exponentially
   accelerates the victim's ion-migration kinetics.
4. **Bit-flip** — the repeated half-select pulses, harmless at ambient
   temperature, now gradually move the victim's state until it crosses the
   flip threshold.

Two execution paths are provided and validated against each other:

* :meth:`NeuroHammer.run` — the fast quasi-static campaign used for the
  figure-scale sweeps (10^2..10^7 pulses per point).  The aggressor bias is
  periodic and the victim state drifts slowly, so the electro-thermal
  operating point is solved once per hammer phase.  The victim's rate per
  round is taken at the nodes of the package's one switching-time rule,
  :func:`repro.devices.kinetics.switching_time`, which counts the rounds to
  the flip.  ``run`` is :meth:`NeuroHammer.steady_state` followed by
  :meth:`SteadyState.count`.  The operating points and the victim's rates
  at the nodes form the attack's :class:`SteadyState`, which does not
  depend on the pulse length, the duty cycle or the pulse budget: only the
  count reads those (:data:`COUNT_FIELDS`), and it needs no crossbar, so
  attacks that differ in nothing else can count from one steady state.
* :meth:`NeuroHammer.run_transient` — the full circuit-level transient
  simulation, pulse by pulse, used by tests and short demonstrations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..config import AttackConfig, CrossbarGeometry, PulseConfig
from ..constants import DEFAULT_AMBIENT_TEMPERATURE_K, DEFAULT_SET_VOLTAGE_V
from ..devices.base import DeviceState, MemristorModel
from ..devices.kinetics import (
    QUADRATURE_NODES,
    SwitchingTime,
    quadrature_states,
    switching_time,
)
from ..devices.thermal import solve_operating_point
from ..errors import ConfigurationError
from ..circuit.crossbar import CrossbarArray
from ..circuit.drivers import write_bias
from ..circuit.pulses import StimulusSchedule, StimulusSegment
from ..circuit.transient import TransientSimulator
from .patterns import AttackPattern, HammerPhase, pattern_from_config, single_aggressor

Cell = Tuple[int, int]


@dataclass
class PhaseOperatingPoint:
    """Electro-thermal conditions the victim experiences during one phase."""

    phase: HammerPhase
    #: Voltage across the victim cell during this phase [V].
    victim_voltage_v: float
    #: Crosstalk temperature delivered to the victim during this phase [K].
    victim_crosstalk_k: float
    #: Hottest aggressor filament temperature of this phase [K].
    aggressor_temperature_k: float
    #: Aggressor cell current of the hottest aggressor [A].
    aggressor_current_a: float
    #: Cell voltage of that same max-current aggressor [V].
    aggressor_voltage_v: float = 0.0


#: The :class:`AttackConfig` leaves that only :meth:`SteadyState.count`
#: reads, as dotted paths: the budget in rounds, the dx per round and the
#: wall clock.  A :class:`SteadyState` reads none of them.
COUNT_FIELDS = ("pulse.length_s", "pulse.duty_cycle", "max_pulses")


@dataclass(frozen=True, eq=False)
class SteadyState:
    """What one round of an attack does to its victim, at any pulse length.

    Under the quasi-static model the phases' operating points and the
    victim's self-consistent rate at each quadrature node depend on the
    geometry, wires, device, pattern, amplitude, bias scheme, ambient and
    flip threshold, but not on the pulse length, the duty cycle or the pulse
    budget.  :meth:`NeuroHammer.steady_state` solves one on a crossbar, and
    :meth:`count` counts an attack's pulses from it.  It holds the pattern,
    ambient and device model it was solved with, so the count needs no
    crossbar.
    """

    pattern: AttackPattern
    #: Ambient the victim's fixed points are solved at [K].
    ambient_temperature_k: float
    #: Device model of the victim.
    model: MemristorModel
    phase_points: Tuple[PhaseOperatingPoint, ...]
    #: Victim state the attack starts from.
    x_start: float
    flip_threshold: float
    #: Victim state rate [1/s] and filament temperature [K] during each
    #: phase's pulse (columns) at each node of the flip (rows).
    rates: np.ndarray
    temperatures_k: np.ndarray

    def rounds_to_flip(self, pulse_length_s: float, budget_rounds: float) -> SwitchingTime:
        """Rounds the victim needs from ``x_start`` to the flip threshold.

        Every phase pulses once per round, so a round moves the victim by
        ``t_p * sum_p max(r_p(x), 0)``, at the hottest phase's temperature.
        """
        round_dx = np.zeros(QUADRATURE_NODES)
        for rate in self.rates.T:
            round_dx += np.maximum(rate, 0.0) * pulse_length_s
        return switching_time(
            self.x_start, self.flip_threshold, round_dx,
            self.temperatures_k.max(axis=1), budget_rounds,
        )

    def count(self, config: AttackConfig) -> AttackResult:
        """The attack's pulses to the flip, within its budget.

        Of ``config`` the count reads only the :data:`COUNT_FIELDS`.  Every
        phase pulses once per round, and
        :func:`~repro.devices.kinetics.switching_time` counts the rounds to
        the flip threshold; the pulses are the whole rounds times the
        phases.  A campaign that does not flip within the budget's whole
        rounds spends what is left on a partial last round, which pulses
        only the leading phases the budget still allows.
        """
        pulse = config.pulse
        phases = len(self.phase_points)
        rounds, left = divmod(config.max_pulses, phases)
        outcome = self.rounds_to_flip(pulse.length_s, rounds)
        x = float(outcome.final_x[0])
        if outcome.switched[0]:
            pulses = max(1, math.ceil(outcome.time[0])) * phases
        else:
            pulses = config.max_pulses
            for point in self.phase_points[:left]:
                rate, _ = _victim_rate(self.model, point, x, self.ambient_temperature_k)
                x = self.model.clamp_state(x + max(rate, 0.0) * pulse.length_s)
        return AttackResult(
            pattern_name=self.pattern.name,
            victim=self.pattern.victim,
            aggressors=self.pattern.aggressors,
            flipped=x >= self.flip_threshold,
            pulses=pulses,
            stress_time_s=pulses * pulse.length_s,
            wall_clock_s=pulses * pulse.period_s,
            victim_final_x=x,
            victim_temperature_k=float(outcome.final_temperature_k[0]),
            phase_points=list(self.phase_points),
            pulse_length_s=pulse.length_s,
            ambient_temperature_k=self.ambient_temperature_k,
        )


def _victim_rate(
    model: MemristorModel, point: PhaseOperatingPoint, x: float, ambient: float
) -> Tuple[float, float]:
    """Victim state rate [1/s] and temperature [K] during one phase pulse.

    The fixed point returns the current it solved at the temperature it
    returns, so the rate is taken from that current.
    """
    operating = solve_operating_point(
        model,
        point.victim_voltage_v,
        x,
        ambient_temperature_k=ambient,
        crosstalk_temperature_k=point.victim_crosstalk_k,
    )
    state = DeviceState(x=x, filament_temperature_k=operating.filament_temperature_k)
    rate = model.state_derivative_from_current(
        point.victim_voltage_v, state, operating.current_a
    )
    return rate, operating.filament_temperature_k


@dataclass
class AttackResult:
    """Outcome of a NeuroHammer campaign."""

    pattern_name: str
    victim: Cell
    aggressors: Tuple[Cell, ...]
    flipped: bool
    #: Total number of hammer pulses applied (across all phases).
    pulses: int
    #: Cumulative biased (active) time of the campaign [s].
    stress_time_s: float
    #: Total campaign wall-clock time including idle periods [s].
    wall_clock_s: float
    #: Final normalised state of the victim.
    victim_final_x: float
    #: Victim filament temperature while being hammered [K].
    victim_temperature_k: float
    #: Per-phase operating points.
    phase_points: List[PhaseOperatingPoint] = field(default_factory=list)
    #: Pulse length used [s].
    pulse_length_s: float = 0.0
    ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K

    @property
    def pulses_per_aggressor(self) -> float:
        """Average number of pulses each aggressor received."""
        return self.pulses / max(len(self.aggressors), 1)

    @property
    def hammer_energy_j(self) -> float:
        """Approximate electrical energy spent hammering [J]: each phase's
        strongest aggressor's |V·I| per pulse, for every aggressor of it."""
        energy = 0.0
        for point in self.phase_points:
            pulses_of_phase = self.pulses / max(len(self.phase_points), 1)
            energy += (
                abs(point.aggressor_voltage_v * point.aggressor_current_a)
                * self.pulse_length_s
                * pulses_of_phase
                * len(point.phase.aggressors)
            )
        return energy


class NeuroHammer:
    """Drives NeuroHammer campaigns on a :class:`CrossbarArray`."""

    def __init__(
        self,
        crossbar: Optional[CrossbarArray] = None,
        geometry: Optional[CrossbarGeometry] = None,
        ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    ):
        if crossbar is None:
            crossbar = CrossbarArray(geometry=geometry, ambient_temperature_k=ambient_temperature_k)
        self.crossbar = crossbar

    # ------------------------------------------------------------------
    # setup helpers
    # ------------------------------------------------------------------

    def prepare(self, pattern: AttackPattern, victim_x: float = 0.0) -> None:
        """Initialise the array for an attack: aggressors LRS, victim HRS."""
        pattern.validate(self.crossbar.geometry)
        self.crossbar.initialise_states(default_x=0.0)
        for aggressor in pattern.aggressors:
            self.crossbar.set_state(aggressor, 1.0)
        self.crossbar.set_state(pattern.victim, victim_x)

    def phase_operating_point(
        self,
        pattern: AttackPattern,
        phase: HammerPhase,
        amplitude_v: float,
        scheme: str = "v_half",
    ) -> PhaseOperatingPoint:
        """Solve the electro-thermal conditions of one hammer phase."""
        bias = write_bias(self.crossbar.geometry, phase.aggressors, amplitude_v, scheme=scheme)
        snapshot = self.crossbar.thermal_snapshot(bias)
        victim = pattern.victim
        victim_voltage = snapshot.operating_point.cell_voltage(victim)
        crosstalk = float(snapshot.crosstalk_temperatures_k[victim[0], victim[1]])
        hottest = max(
            (snapshot.cell_temperature(cell) for cell in phase.aggressors),
        )
        strongest = max(
            phase.aggressors, key=lambda cell: abs(snapshot.operating_point.cell_current(cell))
        )
        # The solve leaves elevated temperatures in the states; clear them so
        # subsequent phases start from a clean slate.
        self.crossbar.reset_temperatures()
        return PhaseOperatingPoint(
            phase=phase,
            victim_voltage_v=victim_voltage,
            victim_crosstalk_k=crosstalk,
            aggressor_temperature_k=hottest,
            aggressor_current_a=abs(snapshot.operating_point.cell_current(strongest)),
            aggressor_voltage_v=snapshot.operating_point.cell_voltage(strongest),
        )

    # ------------------------------------------------------------------
    # fast quasi-static campaign
    # ------------------------------------------------------------------

    def run(
        self,
        pattern: Optional[AttackPattern] = None,
        config: Optional[AttackConfig] = None,
    ) -> AttackResult:
        """Run a campaign with the fast quasi-static integrator.

        Either an explicit ``pattern`` or an :class:`AttackConfig` (whose
        aggressors become a single simultaneous phase) must be given.

        The run solves the attack's :meth:`steady_state`, counts its pulses
        from it (:meth:`SteadyState.count`) and leaves the victim at its
        final state.
        """
        config = config if config is not None else AttackConfig()
        result = self.steady_state(pattern, config).count(config)
        self.crossbar.set_state(result.victim, result.victim_final_x)
        return result

    def steady_state(
        self,
        pattern: Optional[AttackPattern] = None,
        config: Optional[AttackConfig] = None,
    ) -> SteadyState:
        """Prepare the array for the attack and solve its :class:`SteadyState`.

        That is each phase's operating point and the victim's rate at each
        node of :func:`~repro.devices.kinetics.quadrature_states` between its
        start and the flip threshold.  Of ``config`` it reads everything but
        the :data:`COUNT_FIELDS`.
        """
        config = config if config is not None else AttackConfig()
        pattern = self._prepare_attack(pattern, config)
        points = tuple(
            self.phase_operating_point(pattern, phase, config.pulse.amplitude_v, config.bias_scheme)
            for phase in pattern.phases
        )
        x_start = self.crossbar.get_state(pattern.victim).x
        threshold = config.flip_threshold
        ambient = config.ambient_temperature_k
        model = self.crossbar.model
        rates = np.zeros((QUADRATURE_NODES, len(points)))
        temperatures = np.zeros_like(rates)
        for node, x in enumerate(quadrature_states(x_start, threshold)):
            for phase, point in enumerate(points):
                rates[node, phase], temperatures[node, phase] = _victim_rate(
                    model, point, float(x), ambient
                )
        rates.setflags(write=False)
        temperatures.setflags(write=False)
        return SteadyState(pattern, ambient, model, points, x_start, threshold, rates, temperatures)

    # ------------------------------------------------------------------
    # full transient campaign (slow, exact)
    # ------------------------------------------------------------------

    def run_transient(
        self,
        pattern: Optional[AttackPattern] = None,
        config: Optional[AttackConfig] = None,
        max_pulses: Optional[int] = None,
    ) -> AttackResult:
        """Run the campaign pulse by pulse through the transient engine."""
        config = config if config is not None else AttackConfig()
        pattern = self._prepare_attack(pattern, config)
        pulse = config.pulse
        budget = max_pulses if max_pulses is not None else config.max_pulses

        biases = [
            write_bias(self.crossbar.geometry, phase.aggressors, pulse.amplitude_v, config.bias_scheme)
            for phase in pattern.phases
        ]
        simulator = TransientSimulator(self.crossbar, flip_threshold=config.flip_threshold)
        pulses = 0
        flipped = False
        time_s = 0.0
        victim_temperature = config.ambient_temperature_k
        while pulses < budget and not flipped:
            bias = biases[pulses % len(biases)]
            schedule = StimulusSchedule()
            schedule.append(StimulusSegment(0.0, pulse.length_s, label="hammer", payload=bias))
            result = simulator.run(schedule, stop_on_flip_of=pattern.victim)
            pulses += 1
            time_s += pulse.period_s
            if len(result.trace):
                victim_temperature = max(
                    victim_temperature,
                    float(result.trace.temperatures_k[-1][pattern.victim[0], pattern.victim[1]]),
                )
            flipped = result.first_flip(pattern.victim) is not None
        final_x = self.crossbar.get_state(pattern.victim).x
        return AttackResult(
            pattern_name=pattern.name,
            victim=pattern.victim,
            aggressors=pattern.aggressors,
            flipped=flipped,
            pulses=pulses,
            stress_time_s=pulses * pulse.length_s,
            wall_clock_s=time_s,
            victim_final_x=final_x,
            victim_temperature_k=victim_temperature,
            phase_points=[],
            pulse_length_s=pulse.length_s,
            ambient_temperature_k=config.ambient_temperature_k,
        )

    # ------------------------------------------------------------------

    def _prepare_attack(
        self, pattern: Optional[AttackPattern], config: AttackConfig
    ) -> AttackPattern:
        """Check the attack against the crossbar and prepare the array for it.

        The crossbar simulates at its own ambient, so a config with another
        one is refused rather than reported under the wrong temperature.
        """
        if pattern is None:
            pattern = pattern_from_config(config, self.crossbar.geometry)
        pattern.validate(self.crossbar.geometry)
        if self.crossbar.ambient_temperature_k != config.ambient_temperature_k:
            raise ConfigurationError(
                "attack config ambient temperature does not match the crossbar; "
                "build the CrossbarArray with the same ambient_temperature_k"
            )
        self.prepare(pattern)
        return pattern


def hammer_once(
    pulse_length_s: float = 50e-9,
    electrode_spacing_m: float = 50e-9,
    ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    amplitude_v: float = DEFAULT_SET_VOLTAGE_V,
    max_pulses: int = 10_000_000,
    bias_scheme: str = "v_half",
) -> AttackResult:
    """One-call convenience wrapper: run the paper's default attack.

    Builds the paper's 5x5 crossbar with the requested electrode spacing and
    ambient temperature, hammers the centre cell and reports how many pulses
    the nearest same-row neighbour needs to flip.
    """
    geometry = CrossbarGeometry(electrode_spacing_m=electrode_spacing_m)
    crossbar = CrossbarArray(geometry=geometry, ambient_temperature_k=ambient_temperature_k)
    attack = NeuroHammer(crossbar)
    pattern = single_aggressor(geometry)
    config = AttackConfig(
        aggressors=[pattern.aggressors[0]],
        victim=pattern.victim,
        pulse=PulseConfig(amplitude_v=amplitude_v, length_s=pulse_length_s),
        ambient_temperature_k=ambient_temperature_k,
        max_pulses=max_pulses,
        bias_scheme=bias_scheme,
    )
    return attack.run(pattern=pattern, config=config)
