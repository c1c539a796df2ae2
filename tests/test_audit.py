"""Tests of the determinism audit trail (:mod:`repro.obs.audit`).

Covers the canonical fingerprints themselves (dtype normalization, volatile
key stripping, spawn digests), the opt-in through the telemetry context,
stream persistence and the divergence differ, the execution-path invariant —
serial, 2-worker pool and two-process shared-store campaigns of one seeded
spec produce identical fingerprint streams — and the headline acceptance
scenario: a deliberately perturbed point is localized to its exact stage and
index by ``repro obs audit``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import CampaignRunner, CampaignSpec, ResultCache
from repro.campaign.cli import main
from repro.circuit import BiasPattern, CrossbarSolver, build_crossbar_netlist
from repro.config import CrossbarGeometry, WireParameters
from repro.devices import DeviceStateArrays, JartVcmModel
from repro.errors import ReproError
from repro.obs import (
    AuditTrail,
    RunLedger,
    Telemetry,
    canonical_array_bytes,
    diff_audit_streams,
    disable_telemetry,
    enable_telemetry,
    fingerprint,
    get_telemetry,
    payload_max_abs_diff,
    read_audit_stream,
    render_audit_diff,
    spawn_digest,
    strip_volatile,
    telemetry_capture,
    write_audit_stream,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _telemetry_off_after_each_test():
    yield
    disable_telemetry()


#: A 4-point attack campaign on a fast 3x3 crossbar.
CAMPAIGN_SPEC = dict(
    name="audit-campaign",
    simulation={"geometry": {"rows": 3, "columns": 3}},
    attack={"aggressors": [[1, 1]], "victim": [1, 2]},
    axes=[{"path": "attack.pulse.length_s", "values": [30e-9, 50e-9, 70e-9, 90e-9]}],
)


def _spec_file(tmp_path: Path) -> Path:
    path = tmp_path / "spec.json"
    CampaignSpec(**CAMPAIGN_SPEC).to_json(path)
    return path


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_float32_and_float64_views_fingerprint_identically(self):
        values = np.array([1.0, 2.5, -3.0])
        assert canonical_array_bytes(values.astype(np.float32)) == canonical_array_bytes(values)
        # Non-contiguous views canonicalize too.
        square = np.arange(9, dtype=np.float64).reshape(3, 3)
        assert canonical_array_bytes(square.T) == canonical_array_bytes(
            np.ascontiguousarray(square.T)
        )

    def test_dtype_and_shape_cannot_alias(self):
        ints = np.array([1, 2, 3], dtype=np.int64)
        floats = np.array([1.0, 2.0, 3.0])
        assert canonical_array_bytes(ints) != canonical_array_bytes(floats)
        flat = np.zeros(4)
        assert canonical_array_bytes(flat) != canonical_array_bytes(flat.reshape(2, 2))

    def test_fingerprint_sensitive_to_single_element(self):
        a = np.linspace(0.0, 1.0, 16)
        b = a.copy()
        b[7] += 2.0**-40 * b[7]
        assert fingerprint(arrays={"x": a}) != fingerprint(arrays={"x": b})

    def test_volatile_keys_are_stripped_recursively(self):
        payload = {
            "status": "ok",
            "duration_s": 1.23,
            "result": {"flipped": True, "engine_duration_s": 9.9, "wall_clock_s": 0.5},
        }
        slower = json.loads(json.dumps(payload))
        slower["duration_s"] = 99.0
        slower["result"]["engine_duration_s"] = 0.1
        slower["result"]["wall_clock_s"] = 7.0
        assert fingerprint(payload=payload) == fingerprint(payload=slower)
        assert "duration_s" not in strip_volatile(payload)
        assert "wall_clock_s" not in strip_volatile(payload)["result"]

    def test_fingerprint_sensitive_to_payload_values(self):
        assert fingerprint(payload={"p": 0.25}) != fingerprint(payload={"p": 0.250001})

    def test_spawn_digest_is_stable_and_path_sensitive(self):
        assert spawn_digest(42, "montecarlo", "batch", 3) == spawn_digest(
            42, "montecarlo", "batch", 3
        )
        assert spawn_digest(42, "montecarlo", "batch", 3) != spawn_digest(
            42, "montecarlo", "batch", 4
        )
        assert spawn_digest(42, "montecarlo") != spawn_digest(43, "montecarlo")


# ----------------------------------------------------------------------
# the trail and its scoping
# ----------------------------------------------------------------------


class TestAuditTrail:
    def test_disabled_by_default_and_null_is_inert(self):
        tel = get_telemetry()
        assert not tel.enabled and tel.audit is None
        # A live telemetry records only when handed a trail.
        assert Telemetry().audit is None

    def test_enable_disable_and_capture_restores_previous(self):
        trail = AuditTrail()
        outer = enable_telemetry(Telemetry(audit=trail))
        assert get_telemetry().audit is trail
        inner = AuditTrail()
        with telemetry_capture(Telemetry(audit=inner)):
            assert get_telemetry().audit is inner
        assert get_telemetry() is outer and outer.audit is trail
        disable_telemetry()
        assert get_telemetry().audit is None

    def test_capture_with_null_suppresses_recording(self):
        """A job-local telemetry without a trail keeps a solve out of the stream."""
        geometry = CrossbarGeometry(rows=3, columns=3)
        solver = CrossbarSolver(build_crossbar_netlist(geometry, WireParameters()), JartVcmModel())
        states = DeviceStateArrays(geometry.rows, geometry.columns)
        states.x[...] = 0.5
        states.temperature_k[...] = 300.0
        bias = BiasPattern(row_voltages_v={1: 0.6}, column_voltages_v={}, label="audit")
        trail = AuditTrail()
        with telemetry_capture(Telemetry(audit=trail)) as tel:
            tel.audit.record("outer", key=0)
            with telemetry_capture(Telemetry()):
                solver.solve(bias, states)
            tel.audit.record("outer", key=2)
        stages = [record["stage"] for record in trail.records()]
        assert stages == ["outer", "outer"]
        with telemetry_capture(Telemetry(audit=trail)):
            solver.solve(bias, states)
        assert trail.records()[-1]["stage"] == "solver.operating_point"

    def test_unkeyed_records_get_per_stage_sequence(self):
        trail = AuditTrail()
        trail.record("a")
        trail.record("b")
        trail.record("a")
        assert [(r["stage"], r["key"]) for r in trail.records()] == [
            ("a", 0),
            ("b", 0),
            ("a", 1),
        ]

    def test_meta_rides_on_the_record_but_not_the_fingerprint(self):
        trail = AuditTrail()
        a = trail.record("s", key=0, arrays={"x": [1.0]}, meta={"note": "one"})
        b = trail.record("s", key=0, arrays={"x": [1.0]}, meta={"note": "two"})
        assert a["sha256"] == b["sha256"]
        assert a["meta"] != b["meta"]


# ----------------------------------------------------------------------
# persistence + differ
# ----------------------------------------------------------------------


class TestStreamsAndDiffer:
    def test_stream_round_trip(self, tmp_path):
        trail = AuditTrail()
        trail.record("solver.operating_point", arrays={"v": np.ones(3)})
        trail.record("campaign.point", key=2, payload={"status": "ok"})
        path = write_audit_stream(tmp_path / "a.jsonl", trail.records(), run_id="r1", label="x")
        header, records = read_audit_stream(path)
        assert header["records"] == 2 and header["run_id"] == "r1"
        assert records == trail.records()

    def test_read_missing_stream_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no audit stream"):
            read_audit_stream(tmp_path / "nope.jsonl")

    def test_diff_identical(self):
        records = AuditTrail()
        records.record("s", key=0, arrays={"x": [1.0]})
        report = diff_audit_streams(records.records(), records.records())
        assert report["identical"] and report["divergent"] == 0
        assert "IDENTICAL" in render_audit_diff(report)

    def test_diff_pinpoints_first_fingerprint_divergence(self):
        a, b = AuditTrail(), AuditTrail()
        for key in range(4):
            value = 1.0 if key != 2 else 1.0 + 2.0**-40
            a.record("campaign.point", key=key, arrays={"x": [1.0]})
            b.record("campaign.point", key=key, arrays={"x": [value]})
        report = diff_audit_streams(a.records(), b.records())
        assert not report["identical"]
        first = report["first_divergence"]
        assert first["reason"] == "fingerprint"
        assert first["stage"] == "campaign.point" and first["key"] == 2
        assert "DIVERGENT" in render_audit_diff(report)

    def test_diff_reports_stage_mismatch_and_length_mismatch(self):
        a, b = AuditTrail(), AuditTrail()
        a.record("s1", key=0)
        b.record("s2", key=0)
        report = diff_audit_streams(a.records(), b.records())
        assert report["first_divergence"]["reason"] == "stage-mismatch"
        longer = AuditTrail()
        longer.record("s1", key=0)
        longer.record("s1", key=1)
        report = diff_audit_streams(a.records(), longer.records())
        assert report["first_divergence"]["reason"] == "missing-in-a"

    def test_payload_max_abs_diff_walks_nested_payloads(self):
        a = {"result": {"p": [0.5, 0.25], "flag": True}}
        b = {"result": {"p": [0.5, 0.75], "flag": True}}
        assert payload_max_abs_diff(a, b) == (0.5, "result.p[1]")
        assert payload_max_abs_diff(a, a) is None
        assert payload_max_abs_diff({"k": 1}, {})[0] == float("inf")


# ----------------------------------------------------------------------
# execution-path invariance (the tentpole contract)
# ----------------------------------------------------------------------


def _run_campaign_stream(tmp_path, name, **runner_kwargs):
    spec = CampaignSpec(**{**CAMPAIGN_SPEC, "name": "stream-campaign"})
    cache = ResultCache(tmp_path / name) if runner_kwargs.pop("cached", True) else None
    trail = AuditTrail()
    with telemetry_capture(Telemetry(audit=trail)):
        report = CampaignRunner(spec, cache=cache, **runner_kwargs).run()
    assert report.counts()["ok"] == 4
    return trail.records()


class TestExecutionPathInvariance:
    def test_serial_pool_and_cached_replay_streams_are_identical(self, tmp_path):
        serial = _run_campaign_stream(tmp_path, "cache-serial", workers=0)
        pool = _run_campaign_stream(tmp_path, "cache-pool", workers=2)
        assert diff_audit_streams(serial, pool)["identical"]
        # All four stages are campaign.point records keyed 0..3, in order.
        assert [(r["stage"], r["key"]) for r in serial] == [
            ("campaign.point", index) for index in range(4)
        ]
        # A replay served entirely from the cache fingerprints identically.
        replay = _run_campaign_stream(tmp_path, "cache-serial", workers=0)
        assert all(r["meta"]["cached"] for r in replay)
        assert diff_audit_streams(serial, replay)["identical"]

    def test_serial_jobs_do_not_leak_stage_records(self, tmp_path):
        """In-process jobs run under a trail-less job telemetry: only parent-side records."""
        records = _run_campaign_stream(tmp_path, "cache-leak", workers=0, cached=False)
        assert {record["stage"] for record in records} == {"campaign.point"}

    def test_two_process_shared_store_streams_are_identical(self, tmp_path):
        """Two concurrent CLI processes on one shared store partition the
        sweep, yet both emit the same full fingerprint stream."""
        spec_path = _spec_file(tmp_path)
        store = tmp_path / "store"
        obs = tmp_path / "obs"
        cmd = [
            sys.executable, "-m", "repro", "campaign", "run", str(spec_path),
            "--cache", str(store), "--obs-dir", str(obs), "--audit",
        ]
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        procs = [subprocess.Popen(cmd, env=env, cwd=tmp_path) for _ in range(2)]
        assert [proc.wait(timeout=300) for proc in procs] == [0, 0]
        ledger = RunLedger(obs)
        entries = ledger.entries()
        assert len(entries) == 2
        streams = [read_audit_stream(ledger.audit_path(e.run_id))[1] for e in entries]
        assert len(streams[0]) == 4
        assert diff_audit_streams(streams[0], streams[1])["identical"]


# ----------------------------------------------------------------------
# divergence localization through the CLI (acceptance scenario)
# ----------------------------------------------------------------------


class TestAuditCli:
    def _run(self, spec_path, obs, cache, *extra):
        argv = [
            "campaign", "run", str(spec_path),
            "--cache", str(cache), "--obs-dir", str(obs), "--audit", *extra,
        ]
        assert main(argv) == 0

    def test_perturbed_point_is_localized_with_context(self, tmp_path, capsys):
        spec_path = _spec_file(tmp_path)
        obs = tmp_path / "obs"
        self._run(spec_path, obs, tmp_path / "cache-clean")
        self._run(
            spec_path, obs, tmp_path / "cache-bad", "--inject-faults", "perturb@2"
        )
        capsys.readouterr()
        code = main([
            "obs", "audit", "latest~1", "latest", "--obs-dir", str(obs),
            "--cache-a", str(tmp_path / "cache-clean"),
            "--cache-b", str(tmp_path / "cache-bad"),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "DIVERGENT: 1 of 4" in out
        assert "stage='campaign.point' key=2" in out
        assert "payload max-abs-diff" in out

    def test_identical_runs_pass_and_check_gates(self, tmp_path, capsys):
        spec_path = _spec_file(tmp_path)
        obs = tmp_path / "obs"
        self._run(spec_path, obs, tmp_path / "cache-a")
        self._run(spec_path, obs, tmp_path / "cache-b", "--workers", "2")
        capsys.readouterr()
        assert main(["obs", "audit", "latest~1", "latest", "--obs-dir", str(obs)]) == 0
        assert "IDENTICAL" in capsys.readouterr().out
        golden = tmp_path / "golden.jsonl"
        assert main(["obs", "audit", "latest~1", "--obs-dir", str(obs),
                     "--export", str(golden)]) == 0
        assert main(["obs", "audit", "latest", "--obs-dir", str(obs),
                     "--check", str(golden)]) == 0

    def test_single_run_summary_and_json(self, tmp_path, capsys):
        spec_path = _spec_file(tmp_path)
        obs = tmp_path / "obs"
        self._run(spec_path, obs, tmp_path / "cache")
        capsys.readouterr()
        assert main(["obs", "audit", "latest", "--obs-dir", str(obs), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 4
        assert payload["stages"] == {"campaign.point": 4}

    def test_missing_stream_is_a_clear_error(self, tmp_path, capsys):
        spec_path = _spec_file(tmp_path)
        obs = tmp_path / "obs"
        argv = ["campaign", "run", str(spec_path), "--no-cache", "--obs-dir", str(obs)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["obs", "audit", "latest", "--obs-dir", str(obs)]) == 1
        assert "no audit stream" in capsys.readouterr().err

    def test_audit_with_no_obs_is_refused_gracefully(self, tmp_path, capsys):
        spec_path = _spec_file(tmp_path)
        argv = [
            "campaign", "run", str(spec_path), "--no-cache",
            "--obs-dir", str(tmp_path / "obs"), "--audit", "--no-obs",
        ]
        assert main(argv) == 0
        assert "ignored with --no-obs" in capsys.readouterr().out


# ----------------------------------------------------------------------
# satellite CLI surfaces riding along
# ----------------------------------------------------------------------


class TestSatelliteCliSurfaces:
    def test_obs_runs_status_filter(self, tmp_path, capsys):
        spec_path = _spec_file(tmp_path)
        obs = tmp_path / "obs"
        assert main(["campaign", "run", str(spec_path), "--no-cache", "--obs-dir", str(obs)]) == 0
        capsys.readouterr()
        assert main(["obs", "runs", "--obs-dir", str(obs), "--status", "ok", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 1 and entries[0]["status"] == "ok"
        assert main(["obs", "runs", "--obs-dir", str(obs), "--status", "error"]) == 0
        assert "(no runs recorded)" in capsys.readouterr().out

    def test_store_verify_json_reports_checked_corrupt_orphaned(self, tmp_path, capsys):
        spec_path = _spec_file(tmp_path)
        store = tmp_path / "store"
        argv = [
            "campaign", "run", str(spec_path), "--cache", str(store),
            "--obs-dir", str(tmp_path / "obs"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["store", "verify", str(store), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checked"] == report["entries"] == 4
        assert report["corrupt"] == 0
        assert report["orphaned"] == report["orphan_payloads"]
        assert report["clean"] is True
