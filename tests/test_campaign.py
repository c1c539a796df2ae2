"""Campaign engine: specs, cache, runner, aggregation.

The fast structural tests use materialisation only; the execution tests run
real (small, 3x3) NeuroHammer jobs so the serial/parallel equivalence and the
cache round-trip are exercised against the genuine simulation path.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.attack.neurohammer import NeuroHammer, hammer_once
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    JobRecord,
    ResultCache,
    SweepAxis,
    attack_result_to_dict,
    execute_point,
    point_key,
    run_campaign_job,
    summarise,
    to_experiment_result,
)
from repro.campaign import runner as runner_module
from repro.campaign.aggregate import ensure_complete, scenario_success_rates
from repro.circuit import CrossbarArray
from repro.config import AttackConfig, SimulationConfig
from repro.errors import AttackError, CampaignError
from repro.experiments import (
    fig3a_campaign_spec,
    fig3b_campaign_spec,
    fig3c_campaign_spec,
    fig3d_campaign_spec,
    run_fig3a,
    run_fig3c,
)
from repro.obs import Telemetry, telemetry_capture


def small_spec(**kwargs) -> CampaignSpec:
    """A fast 3x3-crossbar campaign used by the execution tests."""
    defaults = dict(
        name="small",
        mode="grid",
        simulation={"geometry": {"rows": 3, "columns": 3}},
        attack={"aggressors": [[1, 1]], "victim": [1, 2]},
        axes=[{"path": "attack.pulse.length_s", "values": [10e-9, 30e-9, 50e-9, 70e-9]}],
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


class TestCampaignSpec:
    def test_grid_materialises_cartesian_product_first_axis_slowest(self):
        spec = small_spec(
            axes=[
                {"path": "attack.ambient_temperature_k", "values": [298.0, 323.0]},
                {"path": "attack.pulse.length_s", "values": [10e-9, 50e-9, 100e-9]},
            ]
        )
        points = spec.materialise()
        assert spec.point_count() == len(points) == 6
        temps = [p.overrides["attack.ambient_temperature_k"] for p in points]
        assert temps == [298.0, 298.0, 298.0, 323.0, 323.0, 323.0]
        lengths = [p.overrides["attack.pulse.length_s"] for p in points]
        assert lengths[:3] == [10e-9, 50e-9, 100e-9]

    def test_overrides_reach_the_materialised_job(self):
        points = small_spec().materialise()
        assert [p.job["attack"]["pulse"]["length_s"] for p in points] == [10e-9, 30e-9, 50e-9, 70e-9]
        assert all(p.job["simulation"]["geometry"]["rows"] == 3 for p in points)

    def test_zip_mode_iterates_in_lockstep(self):
        spec = small_spec(
            mode="zip",
            axes=[
                {"path": "attack.pulse.length_s", "values": [10e-9, 50e-9]},
                {"path": "attack.ambient_temperature_k", "values": [298.0, 348.0]},
            ],
        )
        points = spec.materialise()
        assert len(points) == 2
        assert points[1].overrides == {
            "attack.pulse.length_s": 50e-9,
            "attack.ambient_temperature_k": 348.0,
        }

    def test_zip_mode_rejects_unequal_lengths(self):
        with pytest.raises(CampaignError):
            small_spec(
                mode="zip",
                axes=[
                    {"path": "attack.pulse.length_s", "values": [10e-9, 50e-9]},
                    {"path": "attack.ambient_temperature_k", "values": [298.0]},
                ],
            )

    def test_no_axes_materialises_the_single_base_point(self):
        spec = small_spec(axes=[])
        points = spec.materialise()
        assert len(points) == 1 and points[0].overrides == {}

    def test_random_mode_is_seed_reproducible(self):
        def build(seed):
            return small_spec(
                mode="random",
                samples=8,
                seed=seed,
                axes=[
                    {"path": "attack.pulse.length_s", "low": 1e-9, "high": 1e-7, "log": True},
                    {"path": "attack.ambient_temperature_k", "low": 273.0, "high": 373.0},
                    {"path": "attack.bias_scheme", "values": ["v_half", "v_third"]},
                ],
            )

        first = build(seed=7).materialise()
        second = build(seed=7).materialise()
        assert [p.overrides for p in first] == [p.overrides for p in second]
        assert [p.key for p in first] == [p.key for p in second]
        other = build(seed=8).materialise()
        assert [p.overrides for p in first] != [p.overrides for p in other]
        for point in first:
            assert 1e-9 <= point.overrides["attack.pulse.length_s"] <= 1e-7
            assert 273.0 <= point.overrides["attack.ambient_temperature_k"] <= 373.0

    def test_random_mode_needs_samples(self):
        with pytest.raises(CampaignError):
            small_spec(mode="random", samples=0)

    def test_unknown_mode_and_duplicate_axes_rejected(self):
        with pytest.raises(CampaignError):
            small_spec(mode="lattice")
        with pytest.raises(CampaignError):
            small_spec(
                axes=[
                    {"path": "attack.pulse.length_s", "values": [10e-9]},
                    {"path": "attack.pulse.length_s", "values": [50e-9]},
                ]
            )

    def test_unknown_sweep_path_rejected_at_materialise(self):
        spec = small_spec(axes=[{"path": "attack.pulse.duty", "values": [0.5]}])
        with pytest.raises(CampaignError, match="unknown configuration field"):
            spec.materialise()

    def test_invalid_point_value_raises_campaign_error(self):
        spec = small_spec(axes=[{"path": "attack.pulse.length_s", "values": [-1.0]}])
        with pytest.raises(CampaignError, match="invalid"):
            spec.materialise()

    def test_invalid_point_error_names_the_point_and_its_overrides(self):
        spec = small_spec(axes=[{"path": "attack.pulse.length_s", "values": [10e-9, -1.0, 50e-9]}])
        with pytest.raises(CampaignError) as excinfo:
            spec.materialise()
        assert str(excinfo.value).startswith(
            "campaign 'small': point 1 ({'attack.pulse.length_s': -1.0}) is invalid: "
        )

    def test_base_job_is_canonical_and_untouched_sections_match_it(self):
        spec = small_spec()
        base = spec.base_job()
        assert base == json.loads(json.dumps(base, sort_keys=True))
        assert json.dumps(base) == json.dumps(base, sort_keys=True)
        points = spec.materialise()
        # The axis touches only ``attack``; ``simulation`` is the base's.
        assert all(p.job["simulation"] == base["simulation"] for p in points)
        assert all(json.dumps(p.job) == json.dumps(p.job, sort_keys=True) for p in points)

    def test_overlapping_axes_leave_axis_values_and_overrides_intact(self):
        pulse = {"length_s": 1e-8, "amplitude_v": 1.0}
        spec = small_spec(
            axes=[
                {"path": "attack.pulse", "values": [dict(pulse)]},
                {"path": "attack.pulse.length_s", "values": [2e-8, 3e-8]},
            ]
        )
        points = spec.materialise()
        # The second axis writes into each point's job, not into the first
        # axis's value dict (which every point's overrides share).
        assert spec.axes[0].values == [pulse]
        for point, length in zip(points, (2e-8, 3e-8)):
            assert point.overrides == {"attack.pulse": pulse, "attack.pulse.length_s": length}
            assert point.job["attack"]["pulse"]["length_s"] == length
            assert point.job["attack"]["pulse"]["amplitude_v"] == 1.0
        assert [p.key for p in points] == [p.key for p in spec.materialise()]

    def test_axis_path_must_be_rooted(self):
        with pytest.raises(CampaignError):
            SweepAxis(path="pulse.length_s", values=[1e-8])

    def test_axis_over_unconsumed_section_is_rejected(self):
        # simulation.thermal.* is valid config but the attack job never reads
        # it; sweeping it would silently produce N identical points.  The
        # check lives on the spec because consumed paths depend on the kind.
        with pytest.raises(CampaignError, match="not consumed"):
            small_spec(axes=[{"path": "simulation.thermal.ambient_temperature_k", "values": [300.0]}])

    def test_montecarlo_paths_only_consumed_by_montecarlo_kind(self):
        with pytest.raises(CampaignError, match="not consumed"):
            small_spec(axes=[{"path": "montecarlo.n_samples", "values": [8, 16]}])
        spec = small_spec(
            kind="montecarlo",
            axes=[{"path": "montecarlo.n_samples", "values": [8, 16]}],
        )
        assert [p.job["montecarlo"]["n_samples"] for p in spec.materialise()] == [8, 16]

    def test_point_keys_are_stable_and_distinct(self):
        points = small_spec().materialise()
        keys = [p.key for p in points]
        assert len(set(keys)) == len(keys)
        assert keys == [p.key for p in small_spec().materialise()]
        assert point_key(points[0].job) == keys[0]
        assert point_key(points[0].job, version="other") != keys[0]

    def test_spec_json_round_trip(self, tmp_path):
        spec = small_spec(mode="random", samples=3, seed=11,
                          axes=[{"path": "attack.pulse.length_s", "low": 1e-9, "high": 1e-7}])
        path = tmp_path / "spec.json"
        spec.to_json(path)
        loaded = CampaignSpec.from_json(path)
        assert loaded == spec
        assert [p.key for p in loaded.materialise()] == [p.key for p in spec.materialise()]


class TestResultCache:
    def test_miss_put_hit_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" * 32
        assert cache.get(key) is None
        cache.put(key, {"status": "ok", "result": {"pulses": 5}})
        assert cache.get(key) == {"status": "ok", "result": {"pulses": 5}}
        assert len(cache.store) == 1 and cache.store.keys() == [key]

    def test_corrupt_entry_degrades_to_miss_and_quarantines(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        path = cache.put(key, {"status": "ok"})
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        # The bad payload is moved aside, not left to poison the next run.
        assert not path.exists()
        assert (cache.store.quarantine_dir / f"{key}.corrupt").exists()
        assert not cache.store.contains(key)
        assert cache.stats()["corrupt"] == 1
        # A recompute can re-populate the same key.
        cache.put(key, {"status": "ok", "result": {"pulses": 9}})
        assert cache.get(key) == {"status": "ok", "result": {"pulses": 9}}

    def test_invalid_key_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(CampaignError):
            cache.put("../escape", {})

    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put(f"{index:064x}", {"status": "ok"})
        stats = cache.stats()
        assert stats["entries"] == 3 and stats["bytes"] > 0
        assert cache.store.clear() == 3 and len(cache.store) == 0

    def test_root_must_be_a_directory(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("file", encoding="utf-8")
        with pytest.raises(CampaignError):
            ResultCache(target)


class TestCampaignRunner:
    def test_parallel_results_are_bit_identical_to_serial(self):
        spec = small_spec()
        serial = CampaignRunner(spec, workers=0).run()
        parallel = CampaignRunner(spec, workers=2).run()
        assert all(record.ok for record in serial.records)
        assert [r.result for r in serial.records] == [r.result for r in parallel.records]
        assert [r.key for r in serial.records] == [r.key for r in parallel.records]

    def test_cache_serves_second_run_and_resumes_partial_campaigns(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "cache")
        first = CampaignRunner(spec, cache=cache).run()
        assert first.cached_count == 0 and first.computed_count == 4
        second = CampaignRunner(spec, cache=cache).run()
        assert second.cached_count == 4 and second.computed_count == 0
        assert [r.result for r in first.records] == [r.result for r in second.records]
        # Drop one entry: only that point is recomputed (resume semantics).
        cache.store.delete(first.records[1].key)
        third = CampaignRunner(spec, cache=cache).run()
        assert third.cached_count == 3 and third.computed_count == 1
        assert [r.result for r in third.records] == [r.result for r in first.records]

    def test_error_in_one_point_is_captured_not_fatal(self):
        record = run_campaign_job((3, "00" * 32, {"simulation": {}, "attack": {"max_pulses": 0}}, {}))
        assert record.status == "error" and record.index == 3
        assert "max_pulses" in record.error
        report_like = type(
            "R", (), {"failed_records": [record], "records": [record], "spec_name": "x"}
        )()
        with pytest.raises(CampaignError, match="point 3"):
            ensure_complete(report_like)

    def test_parallel_timeout_is_recorded_and_queued_jobs_still_run(self):
        spec = small_spec(
            axes=[{"path": "attack.pulse.length_s", "values": [10e-9, 30e-9, 50e-9, 70e-9]}]
        )
        runner = CampaignRunner(spec, workers=2, timeout_s=1.0, job_fn=_sleepy_job)
        report = runner.run()
        by_index = {record.index: record for record in report.records}
        # Only the hung job times out; jobs queued behind it run in a fresh
        # pool instead of being falsely reported as timeouts.
        assert by_index[1].status == "timeout" and "timeout" in by_index[1].error
        assert [by_index[i].status for i in (0, 2, 3)] == ["ok", "ok", "ok"]

    def test_timeout_is_enforced_even_on_a_serial_run(self):
        spec = small_spec(axes=[{"path": "attack.pulse.length_s", "values": [10e-9, 30e-9]}])
        report = CampaignRunner(spec, workers=0, timeout_s=1.0, job_fn=_sleepy_job).run()
        by_index = {record.index: record for record in report.records}
        assert by_index[0].status == "ok"
        assert by_index[1].status == "timeout"

    def test_runner_argument_validation(self):
        spec = small_spec()
        with pytest.raises(CampaignError):
            CampaignRunner(spec, workers=-1)
        with pytest.raises(CampaignError):
            CampaignRunner(spec, timeout_s=0.0)

    def test_status_reports_cache_coverage(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path)
        runner = CampaignRunner(spec, cache=cache)
        before = runner.status()
        assert before["total"] == 4 and before["cached"] == 0 and len(before["missing_points"]) == 4
        runner.run()
        after = runner.status()
        assert after["cached"] == 4 and after["missing"] == 0


def _sleepy_job(payload):
    """Timeout-path stand-in: the second point sleeps past the deadline."""
    index, key, job, overrides = payload
    if index == 1:
        time.sleep(30)
    return JobRecord(index=index, key=key, status="ok", overrides=overrides, result={"pulses": 1})


class TestShardedCampaigns:
    def test_iter_points_matches_materialise(self):
        spec = small_spec()
        lazy = list(spec.iter_points())
        eager = spec.materialise()
        assert [p.key for p in lazy] == [p.key for p in eager]
        assert [p.overrides for p in lazy] == [p.overrides for p in eager]

    def test_iter_shards_partitions_without_reordering(self):
        spec = small_spec(shard_size=3)
        shards = list(spec.iter_shards())
        assert [len(shard) for shard in shards] == [3, 1]
        flattened = [p.index for shard in shards for p in shard]
        assert flattened == list(range(4))

    def test_random_mode_streams_identically(self):
        spec = small_spec(
            mode="random",
            samples=6,
            seed=13,
            axes=[{"path": "attack.pulse.length_s", "low": 10e-9, "high": 90e-9}],
        )
        assert [p.key for p in spec.iter_points()] == [p.key for p in spec.materialise()]

    def test_sharded_run_is_record_identical_to_unsharded(self, tmp_path):
        unsharded = CampaignRunner(small_spec()).run()
        sharded = CampaignRunner(small_spec(shard_size=2)).run()
        assert [r.status for r in sharded.records] == [r.status for r in unsharded.records]
        assert [r.result for r in sharded.records] == [r.result for r in unsharded.records]

    def test_sharded_run_populates_and_reuses_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = CampaignRunner(small_spec(shard_size=2), cache=cache).run()
        assert first.computed_count == 4
        second = CampaignRunner(small_spec(shard_size=3), cache=cache).run()
        assert second.cached_count == 4  # shard size never affects point keys
        assert [r.result for r in second.records] == [r.result for r in first.records]

    def test_negative_shard_size_rejected(self):
        with pytest.raises(CampaignError, match="shard_size"):
            small_spec(shard_size=-1)

    def test_status_streams_over_shards(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = small_spec(shard_size=2)
        CampaignRunner(spec, cache=cache).run()
        status = CampaignRunner(small_spec(shard_size=2), cache=cache).status()
        assert status["total"] == 4
        assert status["cached"] == 4
        assert status["missing"] == 0


class TestAggregation:
    def test_summary_statistics(self):
        spec = small_spec(axes=[{"path": "attack.pulse.length_s", "values": [10e-9, 50e-9]}])
        report = CampaignRunner(spec).run()
        summary = summarise(report)
        assert summary["total"] == summary["ok"] == 2
        assert summary["success_rate"] == 1.0
        assert summary["min_pulses_to_flip"] <= summary["max_pulses_to_flip"]
        assert summary["min_pulses_to_flip"] <= summary["geomean_pulses_to_flip"] <= summary["max_pulses_to_flip"]

    def test_generic_experiment_result_includes_swept_columns(self):
        spec = small_spec(axes=[{"path": "attack.pulse.length_s", "values": [10e-9, 50e-9]}])
        report = CampaignRunner(spec).run()
        result = to_experiment_result(spec, report)
        assert result.name == "small"
        assert len(result.rows) == 2
        assert "length_s" in result.columns and "pulses" in result.columns
        assert result.metadata["campaign"]["points"] == 2

    def test_generic_row_disambiguates_colliding_leaf_names(self):
        record = JobRecord(
            index=0,
            key="ab" * 32,
            status="ok",
            overrides={
                "attack.ambient_temperature_k": 298.0,
                "simulation.thermal.ambient_temperature_k": 300.0,
            },
            result={"pulses": 1, "flipped": True},
        )
        from repro.campaign import generic_row

        row = generic_row(record)
        assert row["attack.ambient_temperature_k"] == 298.0
        assert row["simulation.thermal.ambient_temperature_k"] == 300.0

    def test_scenario_success_rates_group_by_overrides(self):
        spec = small_spec(axes=[{"path": "attack.pulse.length_s", "values": [10e-9, 50e-9]}])
        report = CampaignRunner(spec).run()
        rates = scenario_success_rates(report)
        assert len(rates) == 2
        assert all(entry["success_rate"] == 1.0 for entry in rates.values())


class TestFigureCampaignEquivalence:
    PULSE_LENGTHS = (10e-9, 50e-9)

    def test_fig3a_campaign_matches_seed_serial_loop_row_for_row(self):
        result = run_fig3a(pulse_lengths_s=self.PULSE_LENGTHS)
        assert result.columns[:5] == [
            "pulse_length_ns",
            "pulses_to_flip",
            "stress_time_us",
            "victim_temperature_k",
            "flipped",
        ]
        for row, pulse_length in zip(result.rows, self.PULSE_LENGTHS):
            attack = hammer_once(pulse_length_s=pulse_length)
            assert row == {
                "pulse_length_ns": round(pulse_length * 1e9, 3),
                "pulses_to_flip": attack.pulses,
                "stress_time_us": attack.stress_time_s * 1e6,
                "victim_temperature_k": attack.victim_temperature_k,
                "flipped": attack.flipped,
            }

    def test_fig3a_parallel_and_cached_match_serial(self, tmp_path):
        serial = run_fig3a(pulse_lengths_s=self.PULSE_LENGTHS)
        cache = ResultCache(tmp_path / "cache")
        pooled = run_fig3a(pulse_lengths_s=self.PULSE_LENGTHS, workers=2, cache=cache)
        assert pooled.rows == serial.rows
        cached = run_fig3a(pulse_lengths_s=self.PULSE_LENGTHS, cache=cache)
        assert cached.rows == serial.rows
        assert cached.metadata["campaign"]["cached"] == len(self.PULSE_LENGTHS)

    def test_fig3c_campaign_matches_seed_serial_loop_row_for_row(self):
        temperatures = (298.0, 348.0)
        result = run_fig3c(temperatures_k=temperatures, pulse_lengths_s=(50e-9,))
        assert len(result.rows) == 2
        for row, temperature in zip(result.rows, temperatures):
            attack = hammer_once(pulse_length_s=50e-9, ambient_temperature_k=temperature, max_pulses=50_000_000)
            assert row == {
                "ambient_temperature_k": temperature,
                "pulse_length_ns": 50.0,
                "pulses_to_flip": attack.pulses,
                "victim_temperature_k": attack.victim_temperature_k,
                "flipped": attack.flipped,
            }

    def test_fig3a_spec_is_a_plain_json_document(self, tmp_path):
        spec = fig3a_campaign_spec(pulse_lengths_s=self.PULSE_LENGTHS)
        path = tmp_path / "fig3a.json"
        spec.to_json(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["experiment"] == "fig3a" and data["mode"] == "grid"
        assert CampaignSpec.from_json(path).materialise()[0].job["attack"]["victim"] == [2, 3]


def _fresh_record(job):
    """One point's record from ``NeuroHammer.run`` on its own new crossbar."""
    simulation = SimulationConfig.from_dict(job["simulation"])
    attack = AttackConfig.from_dict(job["attack"])
    crossbar = CrossbarArray(
        geometry=simulation.geometry, wires=simulation.wires,
        ambient_temperature_k=attack.ambient_temperature_k,
    )
    return attack_result_to_dict(NeuroHammer(crossbar).run(config=attack))


@pytest.fixture
def snapshot_count(monkeypatch):
    """A counter of every crossbar thermal snapshot taken from here on."""
    calls = []
    solve = CrossbarArray.thermal_snapshot

    def counted(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(CrossbarArray, "thermal_snapshot", counted)
    return calls


def shared_points(spec):
    """How many points of one serial run of ``spec`` the share served."""
    with telemetry_capture(Telemetry()) as tel:
        report = CampaignRunner(spec).run()
    assert all(record.ok for record in report.records)
    return tel.counter_value("attack.steady_state.shared")


class TestSteadyStateShare:
    """One run shares each attack's pulse-length-free steady state."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_every_figure_record_equals_a_fresh_attack(self, workers):
        specs = [
            fig3a_campaign_spec(), fig3b_campaign_spec(), fig3c_campaign_spec(),
            fig3d_campaign_spec(),
            # Budget-limited: 9 of 10 fig3a victims and 4 of 5 fig3d victims
            # end unflipped, the two-phase quad after a partial last round.
            fig3a_campaign_spec(max_pulses=3_000), fig3d_campaign_spec(max_pulses=87),
        ]
        unflipped = 0
        for spec in specs:
            report = CampaignRunner(spec, workers=workers).run()
            points = spec.materialise()
            assert [record.key for record in report.records] == [point.key for point in points]
            for record, point in zip(report.records, points):
                assert record.result == _fresh_record(point.job)
                unflipped += not record.result["flipped"]
        assert unflipped == 13

    def test_each_run_shares_within_itself_only(self, snapshot_count):
        for _ in range(2):
            with telemetry_capture(Telemetry()) as tel:
                run_fig3a()
            assert len(snapshot_count) == 1
            assert tel.counter_value("attack.steady_state.shared") == 9
            snapshot_count.clear()
        jobs = [point.job for point in fig3a_campaign_spec(pulse_lengths_s=(10e-9, 20e-9)).materialise()]
        for job in jobs:
            execute_point(job)
        assert len(snapshot_count) == 2

    def test_pulse_length_duty_cycle_and_budget_share(self):
        spec = small_spec(mode="zip", axes=[
            {"path": "attack.pulse.length_s", "values": [10e-9, 30e-9, 10e-9, 10e-9]},
            {"path": "attack.pulse.duty_cycle", "values": [0.5, 0.5, 0.25, 0.5]},
            {"path": "attack.max_pulses", "values": [10_000_000, 10_000_000, 10_000_000, 7]},
        ])
        assert shared_points(spec) == 3

    @pytest.mark.parametrize("path, values", [
        ("attack.pulse.amplitude_v", [1.05, 1.0]),
        ("attack.flip_threshold", [0.5, 0.4]),
        ("attack.ambient_temperature_k", [300.0, 325.0]),
        ("attack.bias_scheme", ["v_half", "v_third"]),
        ("attack.victim", [[1, 2], [1, 0]]),
        ("simulation.geometry.electrode_spacing_m", [50e-9, 30e-9]),
        ("simulation.wires.segment_resistance_ohm", [2.5, 5.0]),
    ])
    def test_any_other_field_keeps_points_apart(self, path, values):
        assert shared_points(small_spec(axes=[{"path": path, "values": values}])) == 0

    def test_patterns_keep_points_apart(self):
        assert shared_points(fig3d_campaign_spec(pattern_names=["single", "double_row"])) == 0

    def test_a_full_share_forgets_its_oldest_steady_state(self, monkeypatch):
        spec = small_spec(mode="zip", axes=[
            {"path": "attack.ambient_temperature_k", "values": [300.0, 325.0, 300.0]},
            {"path": "attack.pulse.length_s", "values": [10e-9, 10e-9, 30e-9]},
        ])
        assert shared_points(spec) == 1
        monkeypatch.setattr(runner_module, "STEADY_STATE_SHARE_SIZE", 1)
        assert shared_points(spec) == 0

    def test_a_steady_state_of_another_attack_is_rejected(self, paper_geometry):
        solved = NeuroHammer(CrossbarArray(geometry=paper_geometry)).run(config=AttackConfig())
        attack = NeuroHammer(CrossbarArray(geometry=paper_geometry))
        with pytest.raises(AttackError):
            attack.run(config=AttackConfig(flip_threshold=0.4), steady_state=solved.steady_state)
