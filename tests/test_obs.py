"""Tests of the opt-in observability subsystem (:mod:`repro.obs`).

Covers the telemetry registry itself (counters/gauges/histograms/events,
span nesting and the exclusive-time invariant, snapshot merging across a
process boundary), the disabled-path overhead contract, the instrumentation
wired through the solver / Monte-Carlo / campaign layers, the console-logging
idempotence fix, cached-job duration preservation, and the ``repro profile``
/ ``--telemetry`` CLI surface.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.utils.logging as repro_logging
from repro.campaign import CampaignRunner, CampaignSpec, ResultCache
from repro.campaign.cli import main
from repro.circuit import BiasPattern, CrossbarSolver, build_crossbar_netlist
from repro.config import CrossbarGeometry, WireParameters
from repro.devices import DeviceStateArrays, JartVcmModel
from repro.obs import (
    MAX_EVENTS_PER_NAME,
    LogHistogram,
    NullTelemetry,
    SpanRecord,
    Telemetry,
    aggregate_spans,
    build_manifest,
    disable_telemetry,
    find_span,
    get_telemetry,
    render_report,
    spans_from_snapshot,
    telemetry_capture,
    telemetry_enabled,
    total_wall_s,
    write_snapshot,
)
from repro.utils.logging import configure_console_logging, get_logger


@pytest.fixture(autouse=True)
def _telemetry_off_after_each_test():
    yield
    disable_telemetry()


#: A 4-point attack campaign on a fast 3x3 crossbar.
CAMPAIGN_SPEC = dict(
    name="obs-campaign",
    simulation={"geometry": {"rows": 3, "columns": 3}},
    attack={"aggressors": [[1, 1]], "victim": [1, 2]},
    axes=[{"path": "attack.pulse.length_s", "values": [30e-9, 50e-9, 70e-9, 90e-9]}],
)

#: A tiny Monte-Carlo spec (8-cell population, 3x3 crossbar).
MC_SPEC = dict(
    name="obs-mc",
    kind="montecarlo",
    experiment="montecarlo",
    mode="grid",
    simulation={"geometry": {"rows": 3, "columns": 3}},
    attack={"aggressors": [[1, 1]], "victim": [1, 2], "max_pulses": 500_000},
    montecarlo={
        "n_samples": 8,
        "seed": 3,
        "distributions": [
            {"path": "device.series_resistance_ohm", "kind": "normal",
             "mean": 1.0, "sigma": 0.05, "relative": True},
        ],
    },
    axes=[
        {"path": "attack.pulse.length_s", "values": [30e-9, 60e-9]},
        {"path": "attack.ambient_temperature_k", "values": [300.0, 325.0]},
    ],
)


@pytest.fixture
def mc_spec_path(tmp_path) -> Path:
    path = tmp_path / "mc_spec.json"
    CampaignSpec(**MC_SPEC).to_json(path)
    return path


class TestTelemetryRegistry:
    def test_disabled_by_default(self):
        tel = get_telemetry()
        assert isinstance(tel, NullTelemetry)
        assert tel.enabled is False
        assert telemetry_enabled() is False
        # Every operation is callable and harmless on the null instance.
        tel.count("x")
        tel.gauge("x", 1.0)
        tel.observe("x", 1.0)
        tel.event("x", a=1)
        with tel.span("x"):
            pass

    def test_counters_gauges_histograms_events(self):
        tel = Telemetry()
        tel.count("solves")
        tel.count("solves", 4)
        tel.gauge("taps", 24.0)
        tel.gauge("taps", 8.0)
        tel.observe("dt", 1e-9)
        tel.observe("dt", 1e-6)
        tel.event("batch", index=0, n=64)
        snapshot = tel.snapshot()
        assert snapshot["counters"]["solves"] == 5.0
        assert snapshot["gauges"]["taps"] == {"value": 8.0, "min": 8.0, "max": 24.0, "n": 2}
        assert snapshot["histograms"]["dt"]["count"] == 2
        assert snapshot["events"]["batch"] == [{"index": 0, "n": 64}]
        # Snapshots are values, decoupled from later mutation.
        tel.count("solves")
        assert snapshot["counters"]["solves"] == 5.0

    def test_event_series_is_bounded(self):
        tel = Telemetry()
        for index in range(MAX_EVENTS_PER_NAME + 100):
            tel.event("batch", index=index)
        series = tel.events["batch"]
        assert len(series) == MAX_EVENTS_PER_NAME
        assert series[0]["index"] == 100  # oldest entries dropped first

    def test_capture_nests_and_restores(self):
        assert telemetry_enabled() is False
        with telemetry_capture() as outer:
            assert get_telemetry() is outer
            with telemetry_capture(Telemetry()) as inner:
                assert get_telemetry() is inner
                inner.count("inner.only")
            assert get_telemetry() is outer
            assert "inner.only" not in outer.counters
        assert telemetry_enabled() is False

    def test_snapshot_is_json_serialisable(self):
        with telemetry_capture() as tel:
            with tel.span("root", kind="test"):
                tel.count("c")
                tel.observe("h", 0.5)
                tel.gauge("g", 2.0)
                tel.event("e", x=1)
        json.dumps(tel.snapshot())  # must not raise


class TestLogHistogram:
    def test_binning_spans_decades(self):
        hist = LogHistogram()
        for value in (1e-9, 2e-9, 1e-3, 5.0, 0.0, -1.0):
            hist.observe(value)
        payload = hist.to_dict()
        assert payload["count"] == 6
        assert payload["nonpositive"] == 2
        assert payload["min"] == -1.0
        assert payload["max"] == 5.0
        assert sum(count for _low, _high, count in payload["bins"]) == 4
        for low, high, _count in payload["bins"]:
            assert low < high

    def test_merge_is_bin_exact(self):
        first, second = LogHistogram(), LogHistogram()
        for value in (1e-9, 3e-9, 2e-3):
            first.observe(value)
        for value in (1e-9, 7.0, 0.0):
            second.observe(value)
        merged = LogHistogram()
        merged.merge_dict(first.to_dict())
        merged.merge_dict(second.to_dict())
        reference = LogHistogram()
        for value in (1e-9, 3e-9, 2e-3, 1e-9, 7.0, 0.0):
            reference.observe(value)
        assert merged.to_dict() == reference.to_dict()

    def test_non_finite_samples_are_tallied_apart(self):
        tel = Telemetry()
        for value in (float("nan"), 2e-3, float("inf"), -float("inf"), 0.0):
            tel.observe("residual", value)
        payload = tel.snapshot()["histograms"]["residual"]
        assert payload["nonfinite"] == 3
        assert payload["count"] == 2 and payload["nonpositive"] == 1
        assert payload["sum"] == 2e-3
        assert (payload["min"], payload["max"]) == (0.0, 2e-3)
        assert sum(count for _low, _high, count in payload["bins"]) == 1
        json.dumps(payload, allow_nan=False)  # must not raise
        merged = Telemetry()
        merged.merge_snapshot(tel.snapshot())
        merged.merge_snapshot(tel.snapshot())
        twice = merged.snapshot()["histograms"]["residual"]
        assert twice["nonfinite"] == 6
        assert (twice["count"], twice["sum"]) == (4, 4e-3)


class TestSpans:
    def test_nesting_and_exclusive_time(self):
        tel = Telemetry()
        with tel.span("root"):
            time.sleep(0.01)
            with tel.span("child.a"):
                time.sleep(0.01)
                with tel.span("grandchild"):
                    time.sleep(0.005)
            with tel.span("child.b"):
                time.sleep(0.01)
        assert tel.open_span_count == 0
        (root,) = tel.spans
        assert root.name == "root"
        assert [child.name for child in root.children] == ["child.a", "child.b"]
        (grandchild,) = root.children[0].children
        assert grandchild.name == "grandchild"
        # The invariant the profile table is built on: exclusive times over
        # the whole tree sum back to the root's wall time exactly.
        exclusive_sum = sum(span.exclusive_s for span in root.walk())
        assert exclusive_sum == pytest.approx(root.duration_s, rel=1e-9)
        assert root.exclusive_s == pytest.approx(
            root.duration_s - sum(c.duration_s for c in root.children)
        )

    def test_exception_seals_span_and_records_error(self):
        tel = Telemetry()
        with pytest.raises(ValueError):
            with tel.span("root"):
                with tel.span("failing"):
                    raise ValueError("boom")
        assert tel.open_span_count == 0
        (root,) = tel.spans
        failing = root.children[0]
        assert failing.attrs["error"] == "ValueError"
        assert root.attrs["error"] == "ValueError"
        assert failing.duration_s >= 0.0

    def test_span_record_dict_round_trip(self):
        record = SpanRecord(name="a", attrs={"k": 1}, start_s=0.5, duration_s=2.0)
        record.children.append(SpanRecord(name="b", duration_s=0.5, remote=True))
        record.children.append(SpanRecord(name="c", duration_s=0.25))
        rebuilt = SpanRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert rebuilt.name == "a"
        assert rebuilt.attrs == {"k": 1}
        assert [child.name for child in rebuilt.children] == ["b", "c"]
        assert rebuilt.children[0].remote is True
        # Remote children do not consume the parent's exclusive time.
        assert rebuilt.exclusive_s == pytest.approx(2.0 - 0.25)

    def test_aggregate_and_find(self):
        tel = Telemetry()
        for _ in range(3):
            with tel.span("outer"):
                with tel.span("inner"):
                    pass
        aggregates = {a.name: a for a in aggregate_spans(tel.spans)}
        assert aggregates["outer"].calls == 3
        assert aggregates["inner"].calls == 3
        assert find_span(tel.spans, "inner").name == "inner"
        assert find_span(tel.spans, "missing") is None
        assert total_wall_s(tel.spans) == pytest.approx(
            sum(span.duration_s for span in tel.spans)
        )


class TestMergeSnapshot:
    def test_merge_round_trip_through_json(self):
        worker = Telemetry()
        with worker.span("campaign.job", index=0):
            worker.count("solver.solves", 5)
            worker.observe("solver.residual_a", 1e-12)
            worker.gauge("crosstalk.fft_size", 64.0)
            worker.event("adaptive.batch", index=0)
        wire = json.loads(json.dumps(worker.snapshot()))

        host = Telemetry()
        host.count("solver.solves", 2)
        with host.span("campaign.run") as run_span:
            host.merge_snapshot(wire, remote=True)
        assert host.counters["solver.solves"] == 7.0
        assert host.histograms["solver.residual_a"].count == 1
        assert host.events["adaptive.batch"] == [{"index": 0}]
        (job,) = run_span.children
        assert job.name == "campaign.job"
        assert job.remote is True
        # A concurrent remote child never eats the host's exclusive time.
        assert run_span.exclusive_s == pytest.approx(run_span.duration_s)

    def test_serial_merge_consumes_exclusive_time(self):
        worker = Telemetry()
        with worker.span("campaign.job"):
            time.sleep(0.005)
        host = Telemetry()
        with host.span("campaign.run") as run_span:
            # Sleep well past the worker's span: exclusive_s clamps at zero,
            # so the host span must outlast the merged child even when the
            # worker's sleep overshoots under scheduler load.
            time.sleep(0.02)
            host.merge_snapshot(worker.snapshot(), remote=False)
        (job,) = run_span.children
        assert job.remote is False
        assert run_span.exclusive_s == pytest.approx(
            run_span.duration_s - job.duration_s
        )

    def test_merge_path_respects_event_cap_dropping_oldest(self):
        """Merging a large remote event series keeps only the newest entries."""
        remote = Telemetry()
        for index in range(MAX_EVENTS_PER_NAME):
            remote.event("adaptive.batch", index=index)
        wire = json.loads(json.dumps(remote.snapshot()))

        host = Telemetry()
        for index in range(100):
            host.event("adaptive.batch", index=-1 - index)
        host.merge_snapshot(wire, remote=True)
        series = host.events["adaptive.batch"]
        assert len(series) == MAX_EVENTS_PER_NAME
        # The host's 100 pre-merge events were the oldest, so the cap dropped
        # them (plus none of the remote tail): the merged series is exactly
        # the remote run's events, newest-aligned.
        assert series[0]["index"] == 0
        assert series[-1]["index"] == MAX_EVENTS_PER_NAME - 1

    def test_multiprocessing_campaign_merge(self, tmp_path):
        """Pool workers' span trees and counters fold back into the parent."""
        spec = CampaignSpec(**CAMPAIGN_SPEC)
        runner = CampaignRunner(spec, cache=None, workers=2)
        with telemetry_capture() as tel:
            report = runner.run()
        assert report.counts()["ok"] == 4
        snapshot = tel.snapshot()
        assert snapshot["open_spans"] == 0
        # Worker-side physics counters crossed the process boundary.
        assert snapshot["counters"]["solver.solves"] > 0
        assert snapshot["counters"]["campaign.cache.misses"] == 4.0
        roots = spans_from_snapshot(snapshot)
        run_span = find_span(roots, "campaign.run")
        jobs = [span for span in run_span.walk() if span.name == "campaign.job"]
        assert len(jobs) == 4
        assert all(job.remote for job in jobs)
        assert {job.attrs["index"] for job in jobs} == {0, 1, 2, 3}
        assert "campaign.worker_utilization" in snapshot["gauges"]


class TestDisabledOverhead:
    def test_disabled_guard_cost_is_under_two_percent_of_a_solve(self):
        """The opt-out contract: telemetry off must cost <2% of a 64x64 solve.

        Telemetry is the one observer context: metrics, the numerics
        watchdog, the audit trail and the heartbeat all sit behind the same
        guard (``get_telemetry()`` + one attribute check).  Measure that
        guard directly and bound a generous 100-guards-per-solve budget
        against the measured solve time.
        """
        disable_telemetry()
        geometry = CrossbarGeometry(rows=64, columns=64)
        netlist = build_crossbar_netlist(geometry, WireParameters())
        states = DeviceStateArrays(geometry.rows, geometry.columns)
        states.x[...] = 0.5
        states.temperature_k[...] = 300.0
        bias = BiasPattern(
            row_voltages_v={i: (0.6 if i == 1 else 0.0) for i in range(geometry.rows)},
            column_voltages_v={j: 0.0 for j in range(geometry.columns)},
            label="overhead",
        )
        solver = CrossbarSolver(netlist, JartVcmModel())
        solver.solve(bias, states)  # warm-up: structure + first factorisation

        loops = 3
        start = time.perf_counter()
        for _ in range(loops):
            solver.solve(bias, states)
        solve_s = (time.perf_counter() - start) / loops

        guards = 10_000
        start = time.perf_counter()
        for _ in range(guards):
            tel = get_telemetry()
            if tel.enabled:  # pragma: no cover - telemetry is off here
                tel.count("never")
                tel.numerics.check_iterations("never", 0, 1)
                if tel.heartbeat is not None:
                    tel.heartbeat.update()
        guard_s = (time.perf_counter() - start) / guards

        overhead = (100 * guard_s) / solve_s
        assert overhead < 0.02, (
            f"disabled-telemetry guard overhead {overhead:.2%} of a "
            f"{solve_s * 1e3:.1f}ms solve exceeds the 2% budget"
        )


class TestInstrumentation:
    def test_solver_counters_and_residual_histogram(self):
        geometry = CrossbarGeometry(rows=3, columns=3)
        netlist = build_crossbar_netlist(geometry, WireParameters())
        states = DeviceStateArrays(geometry.rows, geometry.columns)
        states.x[...] = 0.5
        states.temperature_k[...] = 300.0
        bias = BiasPattern(
            row_voltages_v={0: 0.6, 1: 0.0, 2: 0.0},
            column_voltages_v={0: 0.0, 1: 0.0, 2: 0.0},
            label="unit",
        )
        with telemetry_capture() as tel:
            solver = CrossbarSolver(netlist, JartVcmModel())
            solver.solve(bias, states)
            first_factorizations = tel.counters["solver.factorizations"]
            solver.solve(bias, states)
        snapshot = tel.snapshot()
        counters = snapshot["counters"]
        assert counters["solver.solves"] == 2.0
        assert counters["solver.iterations"] >= 2.0
        assert counters["solver.triangular_solves"] == counters["solver.iterations"]
        assert first_factorizations >= 1.0
        # The identical second solve steps against the held factor.
        assert counters["solver.factorizations"] == first_factorizations
        assert counters["solver.warm_starts"] == 1.0
        assert snapshot["histograms"]["solver.residual_a"]["count"] == 2

    def test_montecarlo_engine_counters_and_manifest(self):
        from repro.config import AttackConfig, SimulationConfig
        from repro.montecarlo import MonteCarloConfig, MonteCarloEngine

        engine = MonteCarloEngine(
            MonteCarloConfig(n_samples=4, seed=7, distributions=MC_SPEC["montecarlo"]["distributions"]),
            simulation=SimulationConfig.from_dict(MC_SPEC["simulation"]),
            attack=AttackConfig.from_dict(MC_SPEC["attack"]),
        )
        with telemetry_capture() as tel:
            result = engine.run()
        snapshot = tel.snapshot()
        assert snapshot["counters"]["mc.runs"] == 1.0
        assert snapshot["counters"]["mc.samples"] == 4.0
        assert find_span(spans_from_snapshot(snapshot), "mc.run") is not None
        manifest = engine.manifest(telemetry_snapshot=snapshot)
        assert manifest["kind"] == "montecarlo"
        assert manifest["seed"] == 7
        assert manifest["telemetry"]["counters"]["mc.runs"] == 1.0
        table = result.to_experiment_result(max_rows=2)
        assert table.metadata["manifest"]["kind"] == "montecarlo"

    def test_adaptive_sampler_batches_and_stop_reason(self):
        from repro.montecarlo import AdaptiveConfig, AdaptiveSampler

        rng = np.random.default_rng(0)

        def evaluate(index, n):
            return rng.uniform(size=n) < 0.5, None

        config = AdaptiveConfig(batch_size=32, n_max=64, target_half_width=1e-4)
        with telemetry_capture() as tel:
            outcome = AdaptiveSampler(config, evaluate).run()
        assert outcome.stop_reason == "n_max"
        counters = tel.snapshot()["counters"]
        assert counters["adaptive.batches"] == 2.0
        assert counters["adaptive.samples"] == 64.0
        assert counters["adaptive.stops.n_max"] == 1.0
        assert len(tel.events["adaptive.batch"]) == 2


class TestLoggingIdempotence:
    @pytest.fixture(autouse=True)
    def _clean_library_logger(self):
        logger = get_logger()
        saved = list(logger.handlers)
        saved_level = logger.level
        for handler in saved:
            logger.removeHandler(handler)
        repro_logging._console_handler = None
        yield
        for handler in list(logger.handlers):
            logger.removeHandler(handler)
        repro_logging._console_handler = None
        for handler in saved:
            logger.addHandler(handler)
        logger.setLevel(saved_level)

    def test_repeated_configuration_keeps_one_handler(self):
        first = configure_console_logging(logging.INFO)
        assert len(first.handlers) == 1
        second = configure_console_logging(logging.DEBUG)
        third = configure_console_logging(logging.WARNING)
        assert second is third is first
        assert len(first.handlers) == 1
        # The managed handler retunes instead of stacking.
        assert first.handlers[0].level == logging.WARNING
        assert first.level == logging.WARNING

    def test_adopts_a_preexisting_stream_handler(self):
        logger = get_logger()
        existing = logging.StreamHandler()
        logger.addHandler(existing)
        configured = configure_console_logging(logging.DEBUG)
        assert configured.handlers == [existing]
        assert existing.level == logging.DEBUG

    def test_namespaced_child_loggers(self):
        assert get_logger("campaign.runner").name == "repro.campaign.runner"
        assert get_logger("montecarlo.engine").name == "repro.montecarlo.engine"


class TestDurationPreservation:
    def test_cached_campaign_records_keep_original_durations(self, tmp_path):
        spec = CampaignSpec(**CAMPAIGN_SPEC)
        cache = ResultCache(tmp_path / "cache")
        first = CampaignRunner(spec, cache=cache).run()
        originals = {record.index: record.duration_s for record in first.records}
        assert all(duration > 0.0 for duration in originals.values())
        assert first.compute_duration_s == pytest.approx(sum(originals.values()))

        second = CampaignRunner(spec, cache=cache).run()
        assert second.cached_count == 4
        for record in second.records:
            assert record.duration_s == pytest.approx(originals[record.index])
        assert second.compute_duration_s == pytest.approx(first.compute_duration_s)
        assert second.to_dict()["compute_duration_s"] == pytest.approx(
            first.compute_duration_s
        )

        status = CampaignRunner(spec, cache=cache).status()
        assert status["cached"] == 4
        assert status["cached_duration_s"] == pytest.approx(first.compute_duration_s)

    def test_montecarlo_points_preserve_engine_duration(self, tmp_path):
        spec = CampaignSpec(**MC_SPEC)
        cache = ResultCache(tmp_path / "cache")
        first = CampaignRunner(spec, cache=cache).run()
        for record in first.records:
            assert record.result["engine_duration_s"] > 0.0
        second = CampaignRunner(spec, cache=cache).run()
        assert second.cached_count == len(second.records)
        for before, after in zip(first.records, second.records):
            assert after.duration_s == pytest.approx(before.duration_s)


class TestManifest:
    def test_manifest_contents(self):
        with telemetry_capture() as tel:
            tel.count("solver.solves", 3)
            with tel.span("root"):
                pass
        manifest = build_manifest(
            seed=42,
            backends={"crosstalk": "fft"},
            telemetry_snapshot=tel.snapshot(),
            extra={"kind": "unit"},
        )
        assert manifest["schema"] == 1
        assert manifest["seed"] == 42
        assert manifest["backends"] == {"crosstalk": "fft"}
        assert manifest["versions"]["repro"]
        assert manifest["versions"]["numpy"]
        assert manifest["python"]
        assert manifest["platform"]
        assert manifest["telemetry"]["counters"]["solver.solves"] == 3.0
        assert manifest["telemetry"]["open_spans"] == 0
        assert manifest["telemetry"]["root_spans"] == ["root"]
        json.dumps(manifest)  # must serialise

    def test_manifest_without_scipy(self, monkeypatch):
        """A scipy-less install still builds a full manifest (scipy: null)."""
        monkeypatch.setitem(sys.modules, "scipy", None)
        manifest = build_manifest(seed=1)
        assert manifest["versions"]["scipy"] is None
        assert manifest["versions"]["numpy"]
        assert manifest["versions"]["repro"]
        json.dumps(manifest)  # must serialise with the null version


class TestCliSurface:
    def test_profile_requires_a_command(self, capsys):
        assert main(["profile"]) == 1
        assert "needs a command" in capsys.readouterr().err

    def test_profile_rejects_itself(self, capsys):
        assert main(["profile", "profile", "version"]) == 1
        assert "cannot profile itself" in capsys.readouterr().err

    def test_profile_mc_run_prints_report_and_writes_snapshot(
        self, mc_spec_path, tmp_path, capsys
    ):
        out = tmp_path / "telemetry.json"
        code = main([
            "profile", "--output", str(out),
            "mc", "run", str(mc_spec_path), "--mode", "full_array", "--rows", "2",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "cli.mc.run" in text
        assert "mc.run" in text
        assert "%wall" in text
        assert "solver.solves" in text

        snapshot = json.loads(out.read_text())
        assert snapshot["open_spans"] == 0
        assert snapshot["counters"]["solver.iterations"] > 0
        assert snapshot["counters"]["mc.batches"] >= 1
        assert snapshot["manifest"]["schema"] == 1
        # Acceptance criterion: per-phase exclusive times sum back to the
        # total wall time within 5%.
        roots = spans_from_snapshot(snapshot)
        wall = total_wall_s(roots)
        exclusive = sum(
            span.exclusive_s
            for root in roots
            for span in root.walk()
            if not span.remote
        )
        assert exclusive == pytest.approx(wall, rel=0.05)
        # Telemetry deactivates again once the profiled command finishes.
        assert telemetry_enabled() is False

    def test_telemetry_flag_on_campaign_run(self, tmp_path, capsys):
        spec_path = tmp_path / "campaign.json"
        CampaignSpec(**CAMPAIGN_SPEC).to_json(spec_path)
        out = tmp_path / "telemetry.json"
        code = main([
            "campaign", "run", str(spec_path), "--no-cache", "--telemetry", str(out),
        ])
        assert code == 0
        assert f"wrote telemetry snapshot to {out}" in capsys.readouterr().out
        snapshot = json.loads(out.read_text())
        assert snapshot["counters"]["campaign.points"] == 4.0
        assert snapshot["counters"]["solver.solves"] > 0
        assert snapshot["open_spans"] == 0
        assert snapshot["manifest"]["versions"]["repro"]
        roots = spans_from_snapshot(snapshot)
        assert find_span(roots, "cli.campaign.run") is not None
        assert find_span(roots, "campaign.job") is not None

    def test_render_report_flags_open_spans(self):
        tel = Telemetry()
        span = tel.span("leaky")
        span.__enter__()
        report = render_report(tel.snapshot())
        assert "still open" in report

    def test_write_snapshot_creates_parent_directories(self, tmp_path):
        target = tmp_path / "nested" / "deep" / "snap.json"
        write_snapshot(target, {"counters": {}})
        assert json.loads(target.read_text()) == {"counters": {}}
