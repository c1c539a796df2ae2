"""Transient engine: time-domain simulation of the crossbar under stimuli.

This is the full-fidelity simulation path (the paper's circuit-level
framework run over a stimuli file): every time step re-solves the nonlinear
crossbar network for the active bias pattern, recomputes the electro-thermal
picture including crosstalk, and integrates every device's state ODE.  It is
used by the integration tests and the short demonstration examples; the
figure-scale sweeps use the quasi-static fast path
:meth:`repro.attack.neurohammer.NeuroHammer.run`, which is validated against
this engine.

The stepping loop is array-native: state rates, state advance and flip
detection operate on whole ``(rows, columns)`` arrays through the device
model's batched kernel, and traces record into preallocated arrays grown
geometrically.  The seed per-cell-dict loop is preserved as
:class:`repro.circuit.reference.ReferenceTransientSimulator` and the
regression suite checks flip-event and trace agreement between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..obs import get_telemetry
from .crossbar import CrossbarArray
from .drivers import BiasPattern, idle_bias
from .pulses import StimulusSchedule, StimulusSegment

Cell = Tuple[int, int]

#: Initial trace capacity; grown geometrically (x2) when exhausted.  Kept
#: small so short runs on large crossbars do not pay for unused slots.
_INITIAL_TRACE_CAPACITY = 4


@dataclass
class BitFlipEvent:
    """A victim cell crossing the flip threshold during a transient run."""

    time_s: float
    cell: Cell
    #: Direction of the flip: "set" (HRS -> LRS) or "reset" (LRS -> HRS).
    direction: str
    state_x: float


class TransientTrace:
    """Recorded time series of one transient simulation.

    Samples are stored in preallocated arrays that double in capacity when
    full (amortised O(1) appends, no per-sample Python list overhead).  The
    public attributes present trimmed views:

    * :attr:`times_s` — ``(n,)`` sample times [s],
    * :attr:`states` — ``(n, rows, columns)`` state maps,
    * :attr:`temperatures_k` — ``(n, rows, columns)`` filament temperatures,
    * :attr:`voltages_v` — ``(n, rows, columns)`` device voltages,
    * :attr:`labels` — per-sample segment labels.
    """

    def __init__(self) -> None:
        self._count = 0
        self._times: Optional[np.ndarray] = None
        self._states: Optional[np.ndarray] = None
        self._temperatures: Optional[np.ndarray] = None
        self._voltages: Optional[np.ndarray] = None
        self._labels: List[str] = []

    def _ensure_capacity(self, shape: Tuple[int, int]) -> None:
        if self._times is None:
            capacity = _INITIAL_TRACE_CAPACITY
            self._times = np.empty(capacity)
            self._states = np.empty((capacity, *shape))
            self._temperatures = np.empty((capacity, *shape))
            self._voltages = np.empty((capacity, *shape))
        elif self._count == self._times.shape[0]:
            capacity = 2 * self._times.shape[0]
            for name in ("_times", "_states", "_temperatures", "_voltages"):
                old = getattr(self, name)
                grown = np.empty((capacity, *old.shape[1:]))
                grown[: self._count] = old
                setattr(self, name, grown)

    def append(
        self,
        time_s: float,
        state_map: np.ndarray,
        temperature_map_k: np.ndarray,
        voltage_map_v: np.ndarray,
        label: str,
    ) -> None:
        """Record one sample (maps are copied into the trace storage)."""
        state_map = np.asarray(state_map)
        self._ensure_capacity(state_map.shape)
        i = self._count
        self._times[i] = time_s
        self._states[i] = state_map
        self._temperatures[i] = temperature_map_k
        self._voltages[i] = voltage_map_v
        self._labels.append(label)
        self._count += 1

    @property
    def times_s(self) -> np.ndarray:
        """Sample times [s]."""
        return self._times[: self._count] if self._times is not None else np.empty(0)

    @property
    def states(self) -> np.ndarray:
        """Per-sample (rows x columns) state maps."""
        return self._states[: self._count] if self._states is not None else np.empty((0, 0, 0))

    @property
    def temperatures_k(self) -> np.ndarray:
        """Per-sample (rows x columns) filament temperature maps [K]."""
        return (
            self._temperatures[: self._count]
            if self._temperatures is not None
            else np.empty((0, 0, 0))
        )

    @property
    def voltages_v(self) -> np.ndarray:
        """Per-sample (rows x columns) device voltage maps [V]."""
        return self._voltages[: self._count] if self._voltages is not None else np.empty((0, 0, 0))

    @property
    def labels(self) -> List[str]:
        """Segment label active at each sample."""
        return self._labels

    def cell_series(self, cell: Cell, quantity: str = "state") -> np.ndarray:
        """Time series of one cell ('state', 'temperature' or 'voltage')."""
        source = {
            "state": self.states,
            "temperature": self.temperatures_k,
            "voltage": self.voltages_v,
        }.get(quantity)
        if source is None:
            raise ConfigurationError(f"unknown quantity {quantity!r}")
        if len(source) == 0:
            return np.empty(0)
        return np.array(source[:, cell[0], cell[1]])

    def __len__(self) -> int:
        return self._count


@dataclass
class TransientResult:
    """Outcome of a transient simulation."""

    trace: TransientTrace
    flip_events: List[BitFlipEvent]
    simulated_time_s: float
    steps: int

    def first_flip(self, cell: Optional[Cell] = None) -> Optional[BitFlipEvent]:
        """First flip event, optionally restricted to one cell."""
        for event in self.flip_events:
            if cell is None or event.cell == tuple(cell):
                return event
        return None


class TransientSimulator:
    """Explicit time-stepping simulator over a :class:`CrossbarArray`.

    The per-step work — state rates, adaptive step choice, state advance,
    flip detection — runs on whole arrays; there are no per-cell Python
    loops (flip *events* are materialised per changed cell only, which is
    empty on almost every step).  A step limited by the state rates moves
    the fastest cell by exactly ``max_dx_per_step`` and every other cell
    by its rate's share of that (see :meth:`_step`).
    """

    def __init__(
        self,
        crossbar: CrossbarArray,
        flip_threshold: float = 0.5,
        max_dx_per_step: float = 0.05,
        min_steps_per_segment: int = 1,
        record_every: int = 1,
    ):
        if not 0.0 < flip_threshold < 1.0:
            raise ConfigurationError("flip_threshold must be in (0, 1)")
        if not 0.0 < max_dx_per_step <= 0.5:
            raise ConfigurationError("max_dx_per_step must be in (0, 0.5]")
        self.crossbar = crossbar
        self.flip_threshold = flip_threshold
        self.max_dx_per_step = max_dx_per_step
        self.min_steps_per_segment = max(1, min_steps_per_segment)
        self.record_every = max(1, record_every)

    # ------------------------------------------------------------------

    def run(
        self,
        schedule: StimulusSchedule,
        stop_on_flip_of: Optional[Cell] = None,
    ) -> TransientResult:
        """Run the schedule and return the recorded trace and flip events.

        Args:
            schedule: Time-ordered stimulus segments whose payloads are
                :class:`BiasPattern` objects (None payloads mean idle bias).
            stop_on_flip_of: If given, the simulation ends as soon as this
                cell crosses the flip threshold.
        """
        tel = get_telemetry()
        with tel.span("transient.run"):
            return self._run(schedule, stop_on_flip_of, tel)

    def _run(
        self,
        schedule: StimulusSchedule,
        stop_on_flip_of: Optional[Cell],
        tel,
    ) -> TransientResult:
        crossbar = self.crossbar
        state = crossbar.state
        batched = crossbar.model.batched()
        trace = TransientTrace()
        flips: List[BitFlipEvent] = []
        target_cell = tuple(stop_on_flip_of) if stop_on_flip_of is not None else None
        # A flip is a crossing of flip_threshold, so the initial bits decode
        # at that threshold too.
        previous_bits = state.x >= self.flip_threshold
        time_s = 0.0
        steps = 0
        stop = False

        audit = tel.audit
        for segment_index, segment in enumerate(schedule):
            if stop:
                break
            bias = self._segment_bias(segment)
            remaining = segment.duration_s
            time_s = segment.start_s
            while remaining > 1e-21 and not stop:
                snapshot = crossbar.thermal_snapshot(bias)
                voltages = snapshot.operating_point.device_voltages_v
                rates = batched.state_derivative(voltages, state.x, state.temperature_k)
                dt, divisor, factor = self._step(
                    float(np.abs(rates).max()), remaining, segment.duration_s
                )
                if tel.enabled:
                    tel.observe("transient.dt_s", dt)
                state.x[...] = batched.clamp_state(state.x + rates / divisor * factor)
                time_s += dt
                remaining -= dt
                steps += 1

                bits = state.x >= self.flip_threshold
                changed = bits != previous_bits
                if changed.any():
                    for row, column in np.argwhere(changed):
                        cell = (int(row), int(column))
                        flips.append(
                            BitFlipEvent(
                                time_s=time_s,
                                cell=cell,
                                direction="set" if bits[cell] else "reset",
                                state_x=float(state.x[cell]),
                            )
                        )
                        if target_cell is not None and cell == target_cell:
                            stop = True
                    previous_bits[changed] = bits[changed]

                if steps % self.record_every == 0 or stop or remaining <= 1e-21:
                    # append copies into the trace's preallocated storage.
                    trace.append(
                        time_s,
                        state.x,
                        snapshot.filament_temperatures_k,
                        voltages,
                        segment.label,
                    )
            if tel.enabled:
                tel.numerics.check_array("transient.segment", "state_x", state.x)
                tel.numerics.check_array("transient.segment", "temperature_k", state.temperature_k)
            if audit is not None:
                # Segment boundary: the trace contribution of one stimulus
                # segment is fully determined here (device states, filament
                # temperatures, accumulated flips).
                audit.record(
                    "transient.segment",
                    key=segment_index,
                    arrays={
                        "state_x": state.x,
                        "temperature_k": state.temperature_k,
                    },
                    meta={
                        "label": segment.label,
                        "steps": steps,
                        "flips": len(flips),
                        "time_s": time_s,
                    },
                )
            crossbar.reset_temperatures()

        if tel.enabled:
            tel.count("transient.runs")
            tel.count("transient.steps", steps)
            tel.count("transient.flips", len(flips))

        return TransientResult(trace=trace, flip_events=flips, simulated_time_s=time_s, steps=steps)

    # ------------------------------------------------------------------

    def _segment_bias(self, segment: StimulusSegment) -> BiasPattern:
        if segment.payload is None:
            return idle_bias(self.crossbar.geometry, label=segment.label)
        if not isinstance(segment.payload, BiasPattern):
            raise ConfigurationError(
                f"stimulus segment {segment.label!r} carries a payload that is not a BiasPattern"
            )
        return segment.payload

    def _step(
        self, fastest: float, remaining_s: float, segment_s: float
    ) -> Tuple[float, float, float]:
        """The time step, and the divisor and factor of each cell's increment.

        The step is the shortest of the segment rest, the segment share and
        ``max_dx_per_step / fastest`` (``fastest`` is the largest |rate|),
        floored at 1e-18 s.  Each cell's state moves by
        ``rate / divisor * factor``.  A rate-limited step moves by
        ``(rate / fastest) * max_dx_per_step``, so the fastest cell moves by
        exactly ``max_dx_per_step`` and the step at which a cell reaches a
        threshold does not hang on the last bit of its rate.  Any other step
        moves by ``rate / 1 * dt``, which is exactly ``rate * dt``.
        """
        limit = self.max_dx_per_step / fastest if fastest > 0.0 else math.inf
        dt = max(min(remaining_s, segment_s / self.min_steps_per_segment, limit), 1e-18)
        if dt == limit:
            return dt, fastest, self.max_dx_per_step
        return dt, 1.0, dt
