"""Tests of the cross-run observability layer: run ledger, snapshot diffing,
histogram percentiles, and the benchmark regression gate.

The ledger is exercised both at the library level (:mod:`repro.obs.store`)
and through the CLI surfaces (``repro obs runs/show/diff/check-bench``
plus the silent recording every ``campaign run`` / ``mc run`` / ``mc map`` /
``profile`` invocation now performs).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.cli import main
from repro.errors import ReproError
from repro.obs import (
    LogHistogram,
    RunLedger,
    Telemetry,
    append_history,
    check_bench,
    diff_snapshots,
    disable_telemetry,
    gate_passed,
    load_baselines,
    load_bench_records,
    load_history,
    numerics_counts,
    render_diff,
    render_metrics,
    render_runs_table,
    render_span_table,
    spans_from_snapshot,
    total_wall_s,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _telemetry_off_after_each_test():
    yield
    disable_telemetry()


#: A 4-point attack campaign on a fast 3x3 crossbar.
CAMPAIGN_SPEC = dict(
    name="ledger-campaign",
    simulation={"geometry": {"rows": 3, "columns": 3}},
    attack={"aggressors": [[1, 1]], "victim": [1, 2]},
    axes=[{"path": "attack.pulse.length_s", "values": [30e-9, 50e-9, 70e-9, 90e-9]}],
)


#: One small Monte-Carlo population on the same crossbar.
MC_SPEC = dict(
    name="ledger-mc",
    kind="montecarlo",
    experiment="montecarlo",
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
)


@pytest.fixture
def spec_path(tmp_path) -> Path:
    path = tmp_path / "spec.json"
    CampaignSpec(**CAMPAIGN_SPEC).to_json(path)
    return path


def _snapshot(**counters) -> dict:
    tel = Telemetry()
    for name, value in counters.items():
        tel.count(name, value)
    with tel.span("root"):
        with tel.span("inner"):
            pass
    return tel.snapshot()


# ----------------------------------------------------------------------
# RunLedger
# ----------------------------------------------------------------------


class TestRunLedger:
    def test_record_appends_index_line_and_snapshot_file(self, tmp_path):
        ledger = RunLedger(tmp_path / "obs")
        entry = ledger.record("repro mc run spec.json", _snapshot(solves=5), label="mc.run")
        assert (tmp_path / "obs" / "ledger.jsonl").exists()
        assert (tmp_path / "obs" / "runs" / f"{entry.run_id}.json").exists()
        entries = ledger.entries()
        assert [e.run_id for e in entries] == [entry.run_id]
        assert entries[0].command == "repro mc run spec.json"

    def test_snapshot_payload_round_trips(self, tmp_path):
        ledger = RunLedger(tmp_path)
        snapshot = _snapshot(a=1)
        entry = ledger.record("cmd", snapshot, manifest={"versions": {"repro": "x"}})
        payload = ledger.load_snapshot(entry.run_id)
        assert payload["counters"] == {"a": 1}
        assert payload["manifest"]["versions"]["repro"] == "x"
        assert payload["command"] == "cmd"

    def test_resolve_latest_prefix_and_ambiguity(self, tmp_path):
        ledger = RunLedger(tmp_path)
        first = ledger.record("one", _snapshot(), run_id="20260101T000000-aaaaaa")
        second = ledger.record("two", _snapshot(), run_id="20260102T000000-bbbbbb")
        assert ledger.resolve("latest").run_id == second.run_id
        assert ledger.resolve("latest~1").run_id == first.run_id
        assert ledger.resolve("20260101").run_id == first.run_id
        with pytest.raises(ReproError, match="ambiguous"):
            ledger.resolve("2026")
        with pytest.raises(ReproError, match="no recorded run"):
            ledger.resolve("nope")

    def test_empty_ledger_resolve_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no recorded runs"):
            RunLedger(tmp_path / "empty").resolve("latest")

    def test_corrupt_index_lines_are_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path)
        entry = ledger.record("cmd", _snapshot())
        with open(ledger.index_path, "a", encoding="utf-8") as handle:
            handle.write('{"torn wri\n')
        assert [e.run_id for e in ledger.entries()] == [entry.run_id]

    def test_numerics_counts_reads_snapshot_counters(self):
        snapshot = _snapshot(**{"numerics.checks": 12.0, "numerics.underflow": 3.0})
        assert numerics_counts(snapshot) == {
            "checks": 12,
            "nonfinite": 0,
            "residual_anomalies": 0,
            "iteration_pressure": 0,
            "underflow": 3,
        }
        assert not any(numerics_counts({}).values())

    def test_index_counters_are_promoted(self, tmp_path):
        ledger = RunLedger(tmp_path)
        tel = Telemetry()
        tel.count("campaign.points", 12)
        tel.count("some.internal.counter", 99)
        entry = ledger.record("cmd", tel.snapshot())
        assert entry.counters == {"campaign.points": 12}

    def test_exclusive_invariant_holds_for_persisted_snapshot(self, tmp_path):
        """Sum of exclusive times == root wall time, after the JSON round trip."""
        tel = Telemetry()
        with tel.span("root"):
            with tel.span("a"):
                with tel.span("a.child"):
                    pass
            with tel.span("b"):
                pass
        ledger = RunLedger(tmp_path)
        entry = ledger.record("cmd", tel.snapshot())
        payload = ledger.load_snapshot(entry.run_id)
        roots = spans_from_snapshot(payload)
        wall = total_wall_s(roots)

        def walk(spans):
            for span in spans:
                yield span
                yield from walk(span.children)

        exclusive = sum(s.exclusive_s for s in walk(roots) if not s.remote)
        assert exclusive == pytest.approx(wall, rel=1e-6)


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------


class TestDiff:
    def test_counter_deltas_and_pct(self):
        diff = diff_snapshots(_snapshot(solves=10, hits=5), _snapshot(solves=15))
        assert diff["counters"]["solves"] == {"a": 10.0, "b": 15.0, "delta": 5.0, "pct": 50.0}
        assert diff["counters"]["hits"]["delta"] == -5.0
        assert diff["counters"]["hits"]["pct"] == -100.0

    def test_new_counter_has_no_pct(self):
        diff = diff_snapshots(_snapshot(), _snapshot(fresh=3))
        assert diff["counters"]["fresh"]["pct"] is None

    def test_span_aggregates_in_diff(self):
        diff = diff_snapshots(_snapshot(), _snapshot())
        assert set(diff["spans"]) == {"root", "inner"}
        assert diff["spans"]["root"]["calls_a"] == diff["spans"]["root"]["calls_b"] == 1

    def test_render_diff_mentions_runs_and_deltas(self):
        diff = diff_snapshots(_snapshot(solves=10), _snapshot(solves=15))
        text = render_diff(diff, run_a="RUN_A", run_b="RUN_B")
        assert "RUN_A -> RUN_B" in text
        assert "solves" in text
        assert "+50.0%" in text

    def test_render_runs_table_empty(self):
        assert "no runs" in render_runs_table([])


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------


class TestHistogramPercentiles:
    def test_quantiles_land_in_the_right_bins(self):
        hist = LogHistogram()
        for value in [0.001] * 50 + [0.01] * 40 + [0.1] * 9 + [1.0]:
            hist.observe(value)
        payload = hist.to_dict()
        # Each quantile must fall inside the bin holding that rank: p50 in
        # the 1e-3 bin, p90 at the boundary into the 1e-2 bin, p99 in 1e-1.
        assert 0.001 <= payload["p50"] < 10 ** -2.75
        assert 0.01 <= payload["p90"] < 10 ** -1.75
        assert 0.1 <= payload["p99"] < 10 ** -0.75

    def test_single_sample_percentiles_clamp_to_observed(self):
        hist = LogHistogram()
        hist.observe(0.02)
        payload = hist.to_dict()
        assert payload["p50"] == payload["p90"] == payload["p99"] == 0.02

    def test_empty_histogram_has_no_percentiles(self):
        assert LogHistogram().to_dict()["p50"] is None

    def test_nonpositive_samples_report_bounded_minimum(self):
        hist = LogHistogram()
        hist.observe(-1.0)
        hist.observe(-2.0)
        hist.observe(5.0)
        assert hist.quantile(0.5) == -2.0
        assert hist.quantile(0.99) == pytest.approx(math.sqrt(10 ** 0.5 * 10 ** 0.75))

    def test_percentiles_survive_merge(self):
        a, b = LogHistogram(), LogHistogram()
        for value in (0.001, 0.01):
            a.observe(value)
        for value in (0.1, 1.0):
            b.observe(value)
        a.merge_dict(b.to_dict())
        assert a.quantile(0.5) == pytest.approx(math.sqrt(0.01 * 10 ** -1.75))

    def test_render_metrics_includes_percentiles(self):
        tel = Telemetry()
        tel.observe("lat", 0.5)
        assert "p50=" in render_metrics(tel.snapshot())


# ----------------------------------------------------------------------
# span-table determinism
# ----------------------------------------------------------------------


class TestSpanTableOrdering:
    def _snapshot_with_siblings(self):
        tel = Telemetry()
        with tel.span("root"):
            with tel.span("aaa_fast"):
                pass
            with tel.span("zzz_slow"):
                for _ in range(2000):
                    pass
        return tel.snapshot()

    def test_rows_sorted_by_total_descending(self):
        snapshot = self._snapshot_with_siblings()
        table = render_span_table(snapshot)
        assert table.index("zzz_slow") < table.index("aaa_fast")

    def test_top_truncates_and_reports_dropped(self):
        snapshot = self._snapshot_with_siblings()
        table = render_span_table(snapshot, top=1)
        assert "aaa_fast" not in table
        assert "(1 more)" in table

    def test_bad_sort_key_rejected(self):
        with pytest.raises(ValueError, match="sort"):
            render_span_table(self._snapshot_with_siblings(), sort="calls")


# ----------------------------------------------------------------------
# regression gate
# ----------------------------------------------------------------------


BASELINES = {
    "default_tolerance": 0.25,
    "metrics": [
        {"metric": "mc.wall_s", "baseline": 1.0, "direction": "lower"},
        {"metric": "mc.speedup", "baseline": 10.0, "direction": "higher", "tolerance": 0.5},
    ],
}


class TestRegressionGate:
    def test_passes_within_tolerance(self):
        records = [{"benchmark": "mc", "wall_s": 1.2, "speedup": 9.0}]
        results = check_bench(records, BASELINES)
        assert [r.status for r in results] == ["ok", "ok"]
        assert gate_passed(results)

    def test_fails_on_doubled_wall_time(self):
        records = [{"benchmark": "mc", "wall_s": 2.0, "speedup": 9.0}]
        results = check_bench(records, BASELINES)
        assert results[0].status == "fail"
        assert not gate_passed(results)

    def test_fails_on_speedup_collapse(self):
        records = [{"benchmark": "mc", "wall_s": 0.5, "speedup": 2.0}]
        assert not gate_passed(check_bench(records, BASELINES))

    def test_when_matcher_skips_other_configs(self):
        baselines = {
            "metrics": [
                {"metric": "mc.wall_s", "baseline": 1.0, "when": {"n": 1000}},
                {"metric": "mc.wall_s", "baseline": 0.1, "when": {"n": 64}},
            ]
        }
        records = [{"benchmark": "mc", "wall_s": 1.1, "n": 1000}]
        results = check_bench(records, baselines)
        assert [r.status for r in results] == ["ok", "skipped"]
        assert gate_passed(results)

    def test_gate_fails_when_nothing_checked(self):
        # A gate whose every entry is missing/skipped must not green-light CI.
        assert not gate_passed(check_bench([], BASELINES))

    def test_missing_metric_path_reported(self):
        records = [{"benchmark": "mc", "speedup": 11.0}]
        results = check_bench(records, BASELINES)
        assert results[0].status == "missing"

    def test_history_latest_record_wins(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        append_history({"benchmark": "mc", "wall_s": 9.0}, path)
        append_history({"benchmark": "mc", "wall_s": 0.5}, path)
        assert [r["wall_s"] for r in load_history(path)] == [9.0, 0.5]
        records = load_bench_records(tmp_path)
        assert len(records) == 1 and records[0]["wall_s"] == 0.5

    def test_bench_json_fallback_when_no_history(self, tmp_path):
        (tmp_path / "BENCH_mc.json").write_text(json.dumps({"benchmark": "mc", "wall_s": 0.7}))
        records = load_bench_records(tmp_path)
        assert records[0]["wall_s"] == 0.7

    def test_committed_trajectory_passes_committed_baselines(self):
        """The in-repo BENCH history must gate clean against its baselines."""
        bench_dir = REPO_ROOT / "benchmarks"
        baselines = load_baselines(bench_dir / "BENCH_baselines.json")
        results = check_bench(load_bench_records(bench_dir), baselines)
        assert gate_passed(results), [r.to_dict() for r in results if r.status == "fail"]

    def test_committed_trajectory_fails_on_synthetic_slowdown(self, tmp_path):
        """Doubling the hottest wall time must trip the committed gate."""
        bench_dir = REPO_ROOT / "benchmarks"
        record = json.loads((bench_dir / "BENCH_montecarlo.json").read_text())
        record["vectorized_s"] *= 2.0
        (tmp_path / "BENCH_montecarlo.json").write_text(json.dumps(record))
        baselines = load_baselines(bench_dir / "BENCH_baselines.json")
        results = check_bench(load_bench_records(tmp_path), baselines)
        assert any(r.status == "fail" and r.metric == "montecarlo.vectorized_s" for r in results)
        assert not gate_passed(results)


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------


class TestObsCli:
    def test_campaign_run_records_to_ledger(self, tmp_path, spec_path, capsys):
        obs = tmp_path / "obs"
        assert main(["campaign", "run", str(spec_path), "--no-cache", "--obs-dir", str(obs)]) == 0
        capsys.readouterr()
        ledger = RunLedger(obs)
        entries = ledger.entries()
        assert len(entries) == 1
        assert entries[0].label == "campaign.run"
        assert entries[0].spec_name == "ledger-campaign"
        assert entries[0].status == "ok"
        payload = ledger.load_snapshot("latest")
        assert payload["counters"]["campaign.points"] == 4
        assert payload["manifest"]["versions"]["repro"]
        # The root CLI span was sealed before persisting.
        assert payload["open_spans"] == 0

    def test_mc_run_ledger_entry_records_numerics_health(self, tmp_path, capsys):
        spec = tmp_path / "mc.json"
        CampaignSpec(**MC_SPEC).to_json(spec)
        obs = tmp_path / "obs"
        assert main(["mc", "run", str(spec), "--rows", "2", "--obs-dir", str(obs)]) == 0
        capsys.readouterr()
        payload = RunLedger(obs).load_snapshot("latest")
        assert payload["counters"]["numerics.checks"] > 0
        assert main(["obs", "show", "latest", "--obs-dir", str(obs)]) == 0
        lines = capsys.readouterr().out.splitlines()
        numerics = [line for line in lines if line.startswith("numerics: ")]
        assert len(numerics) == 1
        for field in ("nonfinite=0", "residual_anomalies=", "iteration_pressure=", "underflow="):
            assert field in numerics[0]

    def test_no_obs_skips_recording(self, tmp_path, spec_path, capsys):
        obs = tmp_path / "obs"
        code = main(
            ["campaign", "run", str(spec_path), "--no-cache", "--obs-dir", str(obs), "--no-obs"]
        )
        assert code == 0
        capsys.readouterr()
        assert RunLedger(obs).entries() == []

    def test_recording_is_silent_on_stdout(self, tmp_path, spec_path, capsys):
        assert main(
            ["campaign", "run", str(spec_path), "--no-cache", "--obs-dir", str(tmp_path / "o"), "--json"]
        ) == 0
        # The whole stdout must still parse as the command's own JSON.
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["total"] == 4

    def test_error_runs_are_recorded_as_failed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        obs = tmp_path / "obs"
        assert main(["campaign", "run", str(bad), "--no-cache", "--obs-dir", str(obs)]) == 1
        capsys.readouterr()
        entries = RunLedger(obs).entries()
        assert len(entries) == 1
        assert entries[0].status == "error"

    def test_obs_runs_and_show_and_diff(self, tmp_path, spec_path, capsys):
        obs = tmp_path / "obs"
        cache = tmp_path / "cache"
        for _ in range(2):
            assert main(
                ["campaign", "run", str(spec_path), "--cache", str(cache), "--obs-dir", str(obs)]
            ) == 0
        capsys.readouterr()

        assert main(["obs", "runs", "--obs-dir", str(obs)]) == 0
        out = capsys.readouterr().out
        assert "campaign run" in out and out.count("ok") >= 2

        assert main(["obs", "show", "latest", "--obs-dir", str(obs)]) == 0
        out = capsys.readouterr().out
        assert "cli.campaign.run" in out and "campaign.cache.hits" in out

        assert main(["obs", "diff", "latest~1", "latest", "--obs-dir", str(obs)]) == 0
        out = capsys.readouterr().out
        # First run computes all 4 points, second serves them from cache.
        assert "campaign.cache.hits" in out
        assert "+4" in out

    def test_obs_diff_json_reports_counter_deltas(self, tmp_path, spec_path, capsys):
        obs = tmp_path / "obs"
        cache = tmp_path / "cache"
        for _ in range(2):
            main(["campaign", "run", str(spec_path), "--cache", str(cache), "--obs-dir", str(obs)])
        capsys.readouterr()
        assert main(["obs", "diff", "latest~1", "latest", "--json", "--obs-dir", str(obs)]) == 0
        payload = json.loads(capsys.readouterr().out)
        deltas = payload["diff"]["counters"]
        assert deltas["campaign.cache.hits"]["delta"] == 4.0
        assert deltas["campaign.cache.misses"]["delta"] == -4.0

    def test_obs_show_unknown_run_fails_cleanly(self, tmp_path, capsys):
        assert main(["obs", "runs", "--obs-dir", str(tmp_path / "void")]) == 0
        assert "no runs recorded" in capsys.readouterr().out
        assert main(["obs", "show", "zzz", "--obs-dir", str(tmp_path / "void")]) == 1
        assert "no recorded runs" in capsys.readouterr().err

    def test_profile_records_and_supports_top_sort(self, tmp_path, spec_path, capsys):
        obs = tmp_path / "obs"
        code = main(
            ["profile", "--obs-dir", str(obs), "--top", "2", "--sort", "excl",
             "campaign", "run", str(spec_path), "--no-cache"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "span" in out
        entries = RunLedger(obs).entries()
        assert len(entries) == 1
        assert entries[0].command.startswith("repro profile campaign run")

    def test_check_bench_cli_pass_and_fail(self, tmp_path, capsys):
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        (bench_dir / "BENCH_baselines.json").write_text(
            json.dumps({"metrics": [{"metric": "mc.wall_s", "baseline": 1.0, "direction": "lower"}]})
        )
        append_history({"benchmark": "mc", "wall_s": 1.1}, bench_dir / "BENCH_history.jsonl")
        assert main(["obs", "check-bench", "--bench-dir", str(bench_dir)]) == 0
        assert "PASS" in capsys.readouterr().out

        append_history({"benchmark": "mc", "wall_s": 2.2}, bench_dir / "BENCH_history.jsonl")
        assert main(["obs", "check-bench", "--bench-dir", str(bench_dir)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_check_bench_json_output(self, tmp_path, capsys):
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        (bench_dir / "BENCH_baselines.json").write_text(
            json.dumps({"metrics": [{"metric": "mc.wall_s", "baseline": 1.0, "direction": "lower"}]})
        )
        append_history({"benchmark": "mc", "wall_s": 0.4}, bench_dir / "BENCH_history.jsonl")
        assert main(["obs", "check-bench", "--bench-dir", str(bench_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["checks"][0]["status"] == "ok"
