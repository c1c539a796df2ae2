"""Tests of live campaign monitoring: heartbeat files and cross-process tails.

Covers the :class:`~repro.obs.live.HeartbeatWriter` file protocol (atomic
replace, monotone ``seq``, throttling, terminal statuses), the telemetry
context that carries the writer to instrumented code, the runner/engine/
adaptive hooks that populate progress fields, the rule that campaign jobs
(serial or forked pool workers) never write the parent's file, and — the acceptance scenario — one process running a
campaign while a second process tails it via ``repro campaign status
--follow`` and observes monotonically increasing progress.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import numpy as np

from repro.campaign import CampaignRunner, CampaignSpec, ResultCache
from repro.campaign.cli import main
from repro.campaign.runner import _init_worker
from repro.faults import FAULTS_ENV
from repro.montecarlo import AdaptiveConfig, AdaptiveSampler
from repro.obs import (
    AuditTrail,
    HeartbeatWriter,
    RunLedger,
    Telemetry,
    disable_telemetry,
    find_heartbeats,
    follow_heartbeat,
    get_telemetry,
    read_heartbeat,
    render_heartbeat,
    telemetry_capture,
)

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _telemetry_off_after_each_test():
    yield
    disable_telemetry()


CAMPAIGN_SPEC = dict(
    name="live-campaign",
    simulation={"geometry": {"rows": 3, "columns": 3}},
    attack={"aggressors": [[1, 1]], "victim": [1, 2]},
    axes=[{"path": "attack.pulse.length_s", "values": [30e-9, 50e-9, 70e-9, 90e-9]}],
)


@pytest.fixture
def spec_path(tmp_path) -> Path:
    path = tmp_path / "spec.json"
    CampaignSpec(**CAMPAIGN_SPEC).to_json(path)
    return path


# ----------------------------------------------------------------------
# file protocol
# ----------------------------------------------------------------------


class TestHeartbeatWriter:
    def test_initial_write_is_immediate(self, tmp_path):
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, run_id="r1", label="campaign.run", total=4)
        state = read_heartbeat(path)
        assert state["run_id"] == "r1"
        assert state["status"] == "running"
        assert state["seq"] == 1
        assert state["done"] == 0 and state["total"] == 4
        assert state["pid"] and state["started_unix_s"] > 0
        writer.finish()

    def test_seq_is_monotone_and_finish_is_terminal(self, tmp_path):
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, total=2, min_interval_s=0.0)
        seqs = [read_heartbeat(path)["seq"]]
        writer.advance(1)
        seqs.append(read_heartbeat(path)["seq"])
        writer.finish("done", cached=2)
        state = read_heartbeat(path)
        seqs.append(state["seq"])
        assert seqs == sorted(seqs) and len(set(seqs)) == 3
        assert state["status"] == "done"
        assert state["cached"] == 2

    def test_throttle_skips_rapid_updates_but_keeps_state(self, tmp_path):
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, total=100, min_interval_s=60.0)
        first = read_heartbeat(path)["seq"]
        for _ in range(50):
            writer.advance(1)
        # Rapid updates inside the interval never hit the filesystem...
        assert read_heartbeat(path)["seq"] == first
        # ...but the accumulated state lands with the (forced) final write.
        writer.finish()
        state = read_heartbeat(path)
        assert state["done"] == 50
        assert state["seq"] == first + 1

    def test_eta_extrapolates_remaining_points(self, tmp_path):
        writer = HeartbeatWriter(tmp_path / "hb.json", total=4, min_interval_s=0.0)
        time.sleep(0.01)
        writer.advance(2)
        state = read_heartbeat(tmp_path / "hb.json")
        # Half done: ETA ~ elapsed.
        assert state["eta_s"] == pytest.approx(state["elapsed_s"], rel=1e-6)

    def test_eta_with_zero_observed_rate_is_none(self, tmp_path):
        """An all-cached resume reports done>0 at ~zero elapsed; the ETA
        must be "no estimate", not a division blowup or a bogus 0."""
        writer = HeartbeatWriter(tmp_path / "hb.json", total=4, min_interval_s=0.0)
        writer.advance(2)
        assert writer._eta(0.0) is None
        assert writer._eta(-1.0) is None
        # A positive elapsed with progress still extrapolates normally.
        assert writer._eta(1.0) == pytest.approx(1.0)
        writer.finish()

    def test_no_tmp_files_left_behind(self, tmp_path):
        writer = HeartbeatWriter(tmp_path / "hb.json", min_interval_s=0.0)
        for _ in range(5):
            writer.advance(1)
        writer.finish()
        assert [p.name for p in tmp_path.iterdir()] == ["hb.json"]

    def test_read_heartbeat_missing_file_returns_none(self, tmp_path):
        assert read_heartbeat(tmp_path / "absent.json") is None

    def test_find_heartbeats_keyed_by_run_id(self, tmp_path):
        HeartbeatWriter(tmp_path / "a.json", run_id="run-a").finish()
        HeartbeatWriter(tmp_path / "b.json", run_id="run-b").finish()
        found = find_heartbeats(tmp_path)
        assert set(found) == {"run-a", "run-b"}
        assert find_heartbeats(tmp_path / "nope") == {}


class TestFollowHeartbeat:
    def test_follow_yields_each_seq_then_stops_on_terminal(self, tmp_path):
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, total=2, min_interval_s=0.0)
        writer.advance(1)
        writer.finish("done")
        states = list(follow_heartbeat(path, poll_s=0.01, timeout_s=1.0))
        # Only the latest state is on disk, and it is terminal.
        assert len(states) == 1
        assert states[0]["status"] == "done"

    def test_follow_times_out_on_stalled_writer(self, tmp_path):
        path = tmp_path / "hb.json"
        HeartbeatWriter(path, total=10, min_interval_s=0.0)  # never finishes
        start = time.monotonic()
        states = list(follow_heartbeat(path, poll_s=0.01, timeout_s=0.2))
        assert time.monotonic() - start < 5.0
        assert len(states) == 1
        assert states[0]["status"] == "running"


class TestHeartbeatScope:
    def test_default_is_null_and_inert(self):
        tel = get_telemetry()
        assert not tel.enabled and tel.heartbeat is None
        # A live telemetry carries a heartbeat only when handed one.
        assert Telemetry().heartbeat is None

    def test_scope_installs_and_restores(self, tmp_path):
        writer = HeartbeatWriter(tmp_path / "hb.json")
        with telemetry_capture(Telemetry(heartbeat=writer)) as tel:
            assert get_telemetry() is tel
            assert tel.heartbeat is writer
        assert get_telemetry().heartbeat is None
        # The scope does not write a terminal status; the owner does.
        assert read_heartbeat(tmp_path / "hb.json")["status"] == "running"


class TestRenderHeartbeat:
    def test_render_includes_progress_fields(self):
        line = render_heartbeat(
            {
                "spec_name": "demo",
                "status": "running",
                "done": 3,
                "total": 8,
                "cached": 2,
                "samples": 64,
                "ci_half_width": 0.025,
                "worker_utilization": 0.5,
                "eta_s": 1.25,
                "elapsed_s": 0.75,
            }
        )
        assert line.startswith("[demo] running: 3/8 points")
        for token in ("cached=2", "samples=64", "ci_half_width=0.025", "util=50%", "eta=1.2s", "elapsed=0.8s"):
            assert token in line


# ----------------------------------------------------------------------
# instrumentation hooks
# ----------------------------------------------------------------------


class TestHeartbeatHooks:
    def test_campaign_runner_populates_heartbeat(self, tmp_path, spec_path):
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, min_interval_s=0.0)
        spec = CampaignSpec.from_json(spec_path)
        with telemetry_capture(Telemetry(heartbeat=writer)):
            CampaignRunner(spec, workers=2).run()
        writer.finish()
        state = read_heartbeat(path)
        assert state["spec_name"] == "live-campaign"
        assert state["total"] == 4
        assert state["done"] == 4
        assert state["failed"] == 0
        assert state["workers"] == 2
        assert 0.0 < state["worker_utilization"] <= 1.0

    def test_campaign_runner_reports_cache_hits(self, tmp_path, spec_path):
        spec = CampaignSpec.from_json(spec_path)
        cache = ResultCache(tmp_path / "cache")
        CampaignRunner(spec, cache=cache).run()
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, min_interval_s=0.0)
        with telemetry_capture(Telemetry(heartbeat=writer)):
            CampaignRunner(spec, cache=cache).run()
        writer.finish()
        state = read_heartbeat(path)
        assert state["cached"] == 4
        assert state["done"] == 4

    def test_adaptive_sampler_reports_ci_and_batches(self, tmp_path):
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, min_interval_s=0.0)
        rng = np.random.default_rng(0)

        def evaluate(index, n):
            return rng.uniform(size=n) < 0.5, None

        config = AdaptiveConfig(batch_size=32, n_max=64, target_half_width=1e-4)
        with telemetry_capture(Telemetry(heartbeat=writer)):
            AdaptiveSampler(config, evaluate).run()
        writer.finish()
        state = read_heartbeat(path)
        assert state["samples"] == 64
        assert state["batches"] == 2
        assert "ci_half_width" in state and "estimate" in state


#: One adaptive Monte-Carlo point: its sampler would report samples/batches
#: to any heartbeat it could reach.
ADAPTIVE_MC_SPEC = dict(
    name="live-adaptive",
    kind="montecarlo",
    experiment="montecarlo",
    simulation={"geometry": {"rows": 3, "columns": 3}},
    attack={"aggressors": [[1, 1]], "victim": [1, 2], "max_pulses": 500000},
    montecarlo={
        "n_samples": 8,
        "seed": 3,
        "adaptive": {"batch_size": 8, "n_max": 16, "target_half_width": 0.2},
        "distributions": [
            {"path": "device.series_resistance_ohm", "kind": "normal",
             "mean": 1.0, "sigma": 0.05, "relative": True}
        ],
    },
    axes=[{"path": "attack.pulse.length_s", "values": [3e-8]}],
)


class TestJobsNeverWriteHeartbeat:
    def test_init_worker_drops_inherited_heartbeat_and_audit(self, tmp_path):
        """A forked worker inherits the parent's telemetry; the initializer
        must replace it with a fresh one that carries neither observer."""
        handlers = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)}
        writer = HeartbeatWriter(tmp_path / "hb.json")
        try:
            with telemetry_capture(Telemetry(audit=AuditTrail(), heartbeat=writer)):
                _init_worker(True, None)
                tel = get_telemetry()
                assert tel.enabled
                assert tel.heartbeat is None and tel.audit is None
        finally:
            for sig, handler in handlers.items():
                signal.signal(sig, handler)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_adaptive_campaign_job_reports_points_not_samples(self, tmp_path, workers):
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, min_interval_s=0.0)
        spec = CampaignSpec(**ADAPTIVE_MC_SPEC)
        with telemetry_capture(Telemetry(heartbeat=writer)):
            report = CampaignRunner(spec, workers=workers).run()
        writer.finish()
        assert report.counts()["ok"] == 1
        state = read_heartbeat(path)
        # Every update merges into the file's state, so a single job-side
        # write would have left these keys behind.
        assert "samples" not in state and "batches" not in state
        assert state["done"] == state["total"] == 1


# ----------------------------------------------------------------------
# cross-process acceptance scenario
# ----------------------------------------------------------------------


def _parse_progress(lines):
    """Extract the N of 'N/M points' from rendered heartbeat lines."""
    done = []
    for line in lines:
        if " points" not in line:
            continue
        fraction = line.split(":", 1)[1].strip().split(" ", 1)[0]
        done.append(int(fraction.split("/")[0]))
    return done


#: Every point of the followed run first sleeps 0.1 s (an injected ``hang``
#: that returns), so the run stays in flight for ~1 s however fast its
#: physics is, and a tail polling every 0.05 s sees it before it ends.
SLOW_POINTS_FAULTS = "hang~1.0;hang=0.1"


class TestTwoProcessFollow:
    @pytest.fixture
    def slow_spec_path(self, tmp_path) -> Path:
        """The 12-point spec the tail follows (see ``SLOW_POINTS_FAULTS``)."""
        spec = dict(
            CAMPAIGN_SPEC,
            name="live-follow",
            axes=[
                {
                    "path": "attack.pulse.length_s",
                    "values": [float(30e-9 + 2e-9 * i) for i in range(12)],
                }
            ],
        )
        path = tmp_path / "slow-spec.json"
        CampaignSpec(**spec).to_json(path)
        return path

    def test_status_follow_tails_live_run_from_another_process(
        self, tmp_path, slow_spec_path, capsys
    ):
        """One process runs the campaign; this one tails its heartbeat."""
        obs = tmp_path / "obs"
        child = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "campaign",
                "run",
                str(slow_spec_path),
                "--no-cache",
                "--obs-dir",
                str(obs),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            cwd=tmp_path,
            env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin", FAULTS_ENV: SLOW_POINTS_FAULTS},
        )
        try:
            code = main(
                [
                    "campaign",
                    "status",
                    str(slow_spec_path),
                    "--follow",
                    "--obs-dir",
                    str(obs),
                    "--poll",
                    "0.05",
                    "--timeout",
                    "120",
                ]
            )
        finally:
            child.wait(timeout=120)
        assert code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("[live-follow]")]
        assert lines, f"no heartbeat lines in output:\n{out}"
        done = _parse_progress(lines)
        # Monotonically increasing progress, observed live across processes.
        assert done == sorted(done)
        assert done[-1] == 12
        assert any(d < 12 for d in done), "never saw an in-flight state"
        assert lines[-1].startswith("[live-follow] done:")
        assert child.returncode == 0
        # The run also landed in the shared ledger.
        entries = RunLedger(obs).entries()
        assert [e.spec_name for e in entries] == ["live-follow"]
        assert entries[0].status == "ok"

    def test_follow_with_no_live_run_fails_cleanly(self, tmp_path, spec_path, capsys):
        code = main(
            [
                "campaign",
                "status",
                str(spec_path),
                "--follow",
                "--obs-dir",
                str(tmp_path / "obs"),
                "--timeout",
                "0.3",
                "--poll",
                "0.05",
            ]
        )
        assert code == 1
        assert "no live run" in capsys.readouterr().out

    def test_follow_picks_up_finished_run(self, tmp_path, spec_path, capsys):
        obs = tmp_path / "obs"
        assert main(
            ["campaign", "run", str(spec_path), "--no-cache", "--obs-dir", str(obs)]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "campaign",
                "status",
                str(spec_path),
                "--follow",
                "--obs-dir",
                str(obs),
                "--timeout",
                "5",
                "--poll",
                "0.05",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("[live-campaign] done: 4/4 points")

    def test_obs_top_shows_latest_heartbeat(self, tmp_path, spec_path, capsys):
        obs = tmp_path / "obs"
        main(["campaign", "run", str(spec_path), "--no-cache", "--obs-dir", str(obs)])
        capsys.readouterr()
        assert main(["obs", "top", "latest", "--once", "--obs-dir", str(obs)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[live-campaign] done: 4/4 points")

    def test_obs_top_unknown_run_fails(self, tmp_path, capsys):
        (tmp_path / "obs").mkdir()
        assert main(["obs", "top", "nope", "--once", "--obs-dir", str(tmp_path / "obs")]) == 1


# ----------------------------------------------------------------------
# sharded status
# ----------------------------------------------------------------------


class TestShardedStatus:
    def test_status_reports_per_shard_coverage(self, tmp_path, spec_path, capsys):
        cache = tmp_path / "cache"
        # Warm only the first half of the grid: shard 0 complete, shard 1 empty.
        half = dict(CAMPAIGN_SPEC, axes=[
            {"path": "attack.pulse.length_s", "values": [30e-9, 50e-9]}
        ])
        half_path = tmp_path / "half.json"
        CampaignSpec(**half).to_json(half_path)
        assert main(["campaign", "run", str(half_path), "--cache", str(cache)]) == 0
        capsys.readouterr()

        code = main(
            [
                "campaign",
                "status",
                str(spec_path),
                "--cache",
                str(cache),
                "--shard-size",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shards (2 points each):" in out
        assert "2/2 cached (complete)" in out
        assert "0/2 cached (partial)" in out

    def test_runner_status_payload_includes_shards(self, tmp_path, spec_path):
        spec = CampaignSpec.from_json(spec_path)
        spec.shard_size = 3
        payload = CampaignRunner(spec, cache=ResultCache(tmp_path / "cache")).status()
        assert payload["shard_size"] == 3
        assert [s["total"] for s in payload["shards"]] == [3, 1]
        assert all(s["cached"] == 0 for s in payload["shards"])
