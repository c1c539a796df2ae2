"""Vectorized transient engine vs. the seed per-cell reference loop.

The array-native :class:`TransientSimulator` must reproduce the seed engine's
flip events (times, cells, directions) and recorded traces on the
integration-test style schedules within 1e-9 relative tolerance, plus the
flip-detection edge case of a cell crossing the threshold twice within one
record interval.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attack import NeuroHammer
from repro.circuit import (
    CrossbarArray,
    ReferenceTransientSimulator,
    StimulusSchedule,
    StimulusSegment,
    TransientSimulator,
    hammer_schedule,
    write_bias,
)
from repro.config import AttackConfig, CrossbarGeometry, PulseConfig

RTOL = 1e-9


def fresh_crossbar(rows: int = 3, columns: int = 3, lrs_cells=()) -> CrossbarArray:
    crossbar = CrossbarArray(geometry=CrossbarGeometry(rows=rows, columns=columns))
    for cell in lrs_cells:
        crossbar.set_state(cell, 1.0)
    return crossbar


def write_schedule(geometry: CrossbarGeometry, target, amplitude_v=1.05, duration_s=5e-6):
    schedule = StimulusSchedule()
    schedule.append(
        StimulusSegment(0.0, duration_s, label="write", payload=write_bias(geometry, [target], amplitude_v))
    )
    return schedule


def assert_same_run(vectorized, reference):
    assert vectorized.steps == reference.steps
    assert vectorized.simulated_time_s == pytest.approx(reference.simulated_time_s, rel=RTOL)
    assert len(vectorized.flip_events) == len(reference.flip_events)
    for ours, seed in zip(vectorized.flip_events, reference.flip_events):
        assert ours.cell == seed.cell
        assert ours.direction == seed.direction
        assert ours.time_s == pytest.approx(seed.time_s, rel=RTOL)
        assert ours.state_x == pytest.approx(seed.state_x, rel=RTOL, abs=1e-12)
    assert len(vectorized.trace) == len(reference.trace)
    np.testing.assert_allclose(vectorized.trace.times_s, reference.trace.times_s, rtol=RTOL)
    np.testing.assert_allclose(
        vectorized.trace.states, reference.trace.states, rtol=RTOL, atol=1e-12
    )
    np.testing.assert_allclose(
        vectorized.trace.temperatures_k, reference.trace.temperatures_k, rtol=RTOL
    )
    np.testing.assert_allclose(
        vectorized.trace.voltages_v, reference.trace.voltages_v, rtol=RTOL, atol=1e-12
    )
    assert vectorized.trace.labels == reference.trace.labels


class TestTransientRegression:
    def test_write_schedule_matches_seed_engine(self):
        crossbar_v = fresh_crossbar(lrs_cells=[(0, 2)])
        crossbar_r = fresh_crossbar(lrs_cells=[(0, 2)])
        schedule = write_schedule(crossbar_v.geometry, (1, 1))
        vectorized = TransientSimulator(crossbar_v).run(schedule)
        reference = ReferenceTransientSimulator(crossbar_r).run(
            write_schedule(crossbar_r.geometry, (1, 1))
        )
        assert vectorized.first_flip((1, 1)) is not None
        assert_same_run(vectorized, reference)
        np.testing.assert_allclose(crossbar_v.state_map(), crossbar_r.state_map(), rtol=RTOL)

    def test_hammer_schedule_matches_seed_engine(self):
        pulse = PulseConfig(length_s=200e-9, amplitude_v=1.05)
        crossbar_v = fresh_crossbar()
        crossbar_r = fresh_crossbar()
        bias = write_bias(crossbar_v.geometry, [(1, 1)], pulse.amplitude_v)
        schedule = hammer_schedule(pulse, 3, bias)
        vectorized = TransientSimulator(crossbar_v, record_every=2).run(schedule)
        reference = ReferenceTransientSimulator(crossbar_r, record_every=2).run(
            hammer_schedule(pulse, 3, write_bias(crossbar_r.geometry, [(1, 1)], pulse.amplitude_v))
        )
        assert_same_run(vectorized, reference)

    def test_stop_on_flip_matches_seed_engine(self):
        crossbar_v = fresh_crossbar()
        crossbar_r = fresh_crossbar()
        vectorized = TransientSimulator(crossbar_v).run(
            write_schedule(crossbar_v.geometry, (1, 1)), stop_on_flip_of=(1, 1)
        )
        reference = ReferenceTransientSimulator(crossbar_r).run(
            write_schedule(crossbar_r.geometry, (1, 1)), stop_on_flip_of=(1, 1)
        )
        assert vectorized.flip_events and vectorized.flip_events[-1].cell == (1, 1)
        assert_same_run(vectorized, reference)

    @pytest.mark.parametrize("engine", [TransientSimulator, ReferenceTransientSimulator])
    def test_cell_between_thresholds_has_not_flipped(self, engine):
        """A cell between 0.5 and a 0.6 threshold idles without an event."""
        crossbar = fresh_crossbar()
        crossbar.set_state((1, 2), 0.55)
        schedule = StimulusSchedule()
        schedule.append(StimulusSegment(0.0, 1e-9, label="idle", payload=None))
        result = engine(crossbar, flip_threshold=0.6).run(schedule)
        assert result.flip_events == []
        assert crossbar.get_state((1, 2)).x == pytest.approx(0.55)

    def test_non_default_threshold_engines_agree(self):
        """Flips are crossings of flip_threshold, identically in both engines.

        Cells parked between the 0.3 threshold and 0.5 report nothing; the
        written cell reports one SET, at its 0.3 crossing.
        """
        crossbar_v = fresh_crossbar()
        crossbar_r = fresh_crossbar()
        for crossbar in (crossbar_v, crossbar_r):
            crossbar.set_state((0, 0), 0.4)
            crossbar.set_state((2, 2), 0.4)
        schedule = write_schedule(crossbar_v.geometry, (1, 1))
        vectorized = TransientSimulator(crossbar_v, flip_threshold=0.3).run(schedule)
        reference = ReferenceTransientSimulator(crossbar_r, flip_threshold=0.3).run(
            write_schedule(crossbar_r.geometry, (1, 1))
        )
        assert [(e.cell, e.direction) for e in reference.flip_events] == [((1, 1), "set")]
        assert reference.flip_events[0].state_x >= 0.3
        assert_same_run(vectorized, reference)

    @pytest.mark.parametrize("threshold", [0.6, 0.7])
    def test_run_transient_flips_past_a_non_default_threshold(self, threshold):
        """Each pulse restarts the engine: a victim past 0.5 is not a flip yet.

        After 12 pulses of 20 us the victim sits at x = 0.52; the 13th pulse
        carries it over 0.6 and 0.7 alike.
        """
        config = AttackConfig(
            aggressors=[(1, 1)], victim=(1, 2), pulse=PulseConfig(length_s=20e-6),
            flip_threshold=threshold,
        )
        short = NeuroHammer(fresh_crossbar()).run_transient(config=config, max_pulses=12)
        assert not short.flipped
        assert 0.5 < short.victim_final_x < threshold
        result = NeuroHammer(fresh_crossbar()).run_transient(config=config)
        assert result.flipped
        assert result.pulses == 13
        assert result.victim_final_x >= threshold

    def test_idle_schedule_matches_seed_engine(self):
        crossbar_v = fresh_crossbar(lrs_cells=[(2, 2)])
        crossbar_r = fresh_crossbar(lrs_cells=[(2, 2)])
        schedule = StimulusSchedule()
        schedule.append(StimulusSegment(0.0, 1e-6, label="idle", payload=None))
        vectorized = TransientSimulator(crossbar_v).run(schedule)
        reference = ReferenceTransientSimulator(crossbar_r).run(schedule)
        assert not vectorized.flip_events
        assert_same_run(vectorized, reference)


class TestRateLimitedIncrement:
    @pytest.mark.parametrize("engine", [TransientSimulator, ReferenceTransientSimulator])
    def test_flip_step_does_not_hang_on_the_last_bits_of_the_rates(self, engine, monkeypatch):
        """A rate-limited step moves the fastest cell by exactly max_dx_per_step.

        The written cell is the fastest one: ten steps of 0.05 sum to
        0.49999999999999994, so it flips at step 11.  Rates scaled by
        1 + k * 2**-52 differ only in their last bits and must flip there too.
        """
        for k in range(33):
            scale = 1.0 + k * 2.0**-52
            crossbar = fresh_crossbar()
            if engine is TransientSimulator:
                owner = crossbar.model.batched()
            else:
                owner = crossbar.model
            rate = owner.state_derivative
            monkeypatch.setattr(
                owner, "state_derivative", lambda *args, rate=rate, scale=scale: rate(*args) * scale
            )
            result = engine(crossbar).run(
                write_schedule(crossbar.geometry, (1, 1)), stop_on_flip_of=(1, 1)
            )
            assert result.flip_events[-1].cell == (1, 1)
            assert result.steps == 11, (k, result.steps)


class TestFlipDetectionEdgeCases:
    def test_double_threshold_crossing_within_one_record_interval(self):
        """SET then RESET between two recorded samples: both events captured.

        Flip detection runs per *step*, not per recorded sample, so a cell
        that crosses the threshold upwards and back downwards between two
        records must still produce both events.
        """
        crossbar = fresh_crossbar()
        geometry = crossbar.geometry
        schedule = StimulusSchedule()
        schedule.append(
            StimulusSegment(0.0, 5e-6, label="set", payload=write_bias(geometry, [(1, 1)], 1.05))
        )
        schedule.append(
            StimulusSegment(5e-6, 5e-6, label="reset", payload=write_bias(geometry, [(1, 1)], -1.05))
        )
        # record_every far above the step count: only the forced segment-end
        # samples are recorded, so both crossings happen "inside" intervals.
        simulator = TransientSimulator(crossbar, record_every=10**6)
        result = simulator.run(schedule)

        victim_events = [event for event in result.flip_events if event.cell == (1, 1)]
        assert [event.direction for event in victim_events] == ["set", "reset"]
        assert victim_events[0].time_s < victim_events[1].time_s
        # Only the two segment-end samples were recorded — fewer samples than
        # events per interval boundary would imply.
        assert len(result.trace) == 2
        assert result.trace.labels == ["set", "reset"]
        # The reference engine sees the same two events.
        crossbar_r = fresh_crossbar()
        reference = ReferenceTransientSimulator(crossbar_r, record_every=10**6).run(
            result_schedule(crossbar_r.geometry)
        )
        seed_events = [event for event in reference.flip_events if event.cell == (1, 1)]
        assert [event.direction for event in seed_events] == ["set", "reset"]
        for ours, seed in zip(victim_events, seed_events):
            assert ours.time_s == pytest.approx(seed.time_s, rel=RTOL)

    def test_trace_grows_beyond_initial_capacity(self):
        crossbar = fresh_crossbar(2, 2)
        schedule = StimulusSchedule()
        schedule.append(
            StimulusSegment(
                0.0, 1e-6, label="fine", payload=write_bias(crossbar.geometry, [(0, 0)], 0.4)
            )
        )
        simulator = TransientSimulator(crossbar, min_steps_per_segment=100)
        result = simulator.run(schedule)
        assert len(result.trace) >= 100  # beyond the initial 64-slot capacity
        assert np.all(np.diff(result.trace.times_s) > 0)
        assert result.trace.states.shape == (len(result.trace), 2, 2)

    def test_trace_cell_series_and_views(self):
        crossbar = fresh_crossbar()
        result = TransientSimulator(crossbar).run(write_schedule(crossbar.geometry, (1, 1), duration_s=1e-6))
        series = result.trace.cell_series((1, 1), "state")
        assert series.shape == (len(result.trace),)
        assert series[-1] >= series[0]
        # Trimmed views never expose unwritten capacity.
        assert result.trace.times_s.shape[0] == len(result.trace)
        assert len(result.trace.labels) == len(result.trace)


def result_schedule(geometry: CrossbarGeometry) -> StimulusSchedule:
    schedule = StimulusSchedule()
    schedule.append(
        StimulusSegment(0.0, 5e-6, label="set", payload=write_bias(geometry, [(1, 1)], 1.05))
    )
    schedule.append(
        StimulusSegment(5e-6, 5e-6, label="reset", payload=write_bias(geometry, [(1, 1)], -1.05))
    )
    return schedule
