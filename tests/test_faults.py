"""Tests of the fault-tolerance layer (:mod:`repro.faults`).

Covers the retry policy and the retryable-exception registry, the
``REPRO_FAULTS`` spec grammar and its deterministic seeded draws, the
campaign runner's retry/crash/quarantine machinery under injected faults,
the straggler-timeout path with multiple hung workers, harvest of
undeliverable results, cache-corruption quarantine, and graceful shutdown —
including the acceptance scenario: a pool worker SIGKILLed mid-campaign
with bit-identical resilience counters across two seeded runs.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, JobRecord, ResultCache
from repro.errors import CampaignError, CampaignInterrupted, ConvergenceError, FaultInjectionError
from repro.faults import (
    DEFAULT_HANG_S,
    FAULTS_ENV,
    FaultPlan,
    FaultRule,
    InjectedFatalFault,
    InjectedFault,
    RetryPolicy,
    active_plan,
    fire_point_faults,
    graceful_shutdown,
    is_retryable,
    register_retryable,
    retryable_types,
    should_tear_write,
)
from repro.obs import RunLedger, resilience_counts

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def chaos_spec(n: int = 5, **kwargs) -> CampaignSpec:
    """A tiny 3x3-crossbar campaign with ``n`` points for chaos tests."""
    defaults = dict(
        name="chaos",
        mode="grid",
        simulation={"geometry": {"rows": 3, "columns": 3}},
        attack={"aggressors": [[1, 1]], "victim": [1, 2]},
        axes=[{"path": "attack.pulse.length_s", "values": [float(10e-9 * (i + 1)) for i in range(n)]}],
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def _chaos_job(payload):
    """A fast fault-aware stand-in for the real simulation job.

    Runs the injection sites for its point and reports an injected raise as
    an ordinary error record, exactly like the production job wrapper does.
    """
    index, key, job, overrides = payload
    try:
        fire_point_faults(index)
    except Exception as exc:  # noqa: BLE001 - mirror of the production boundary
        return JobRecord(
            index=index,
            key=key,
            status="error",
            overrides=overrides,
            error=f"{type(exc).__name__}: {exc}",
            retryable=is_retryable(exc),
        )
    return JobRecord(index=index, key=key, status="ok", overrides=overrides, result={"pulses": 1})


def _slow_job(payload):
    """A job slow enough for a signal to land mid-campaign."""
    index, key, job, overrides = payload
    time.sleep(0.15)
    return JobRecord(index=index, key=key, status="ok", overrides=overrides, result={"pulses": 1})


def _unpicklable_job(payload):
    """Returns a record the pool cannot ship back to the parent."""
    index, key, job, overrides = payload
    if index == 1:
        return JobRecord(
            index=index, key=key, status="ok", overrides=overrides,
            result={"callback": lambda: None},
        )
    return JobRecord(index=index, key=key, status="ok", overrides=overrides, result={"pulses": 1})


def _record_states(report):
    """Canonical per-point outcome tuple used for determinism assertions."""
    return tuple(sorted((r.index, r.status, r.attempts) for r in report.records))


# ----------------------------------------------------------------------
# RetryPolicy and the retryable registry
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(CampaignError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(CampaignError):
            RetryPolicy(base_delay_s=-0.1)
        with pytest.raises(CampaignError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(CampaignError):
            RetryPolicy(base_delay_s=1.0, max_delay_s=0.5)
        with pytest.raises(CampaignError):
            RetryPolicy(jitter=1.5)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay_s=0.1, backoff_factor=2.0, max_delay_s=0.3, jitter=0.0)
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.2)
        assert policy.delay_s(3) == pytest.approx(0.3)
        assert policy.delay_s(10) == pytest.approx(0.3)

    def test_jitter_is_seeded_and_per_key(self):
        a = RetryPolicy(seed=3)
        b = RetryPolicy(seed=3)
        c = RetryPolicy(seed=4)
        delays_a = [a.delay_s(k, key="point-1") for k in (1, 2, 3)]
        assert delays_a == [b.delay_s(k, key="point-1") for k in (1, 2, 3)]
        assert delays_a != [c.delay_s(k, key="point-1") for k in (1, 2, 3)]
        assert delays_a != [a.delay_s(k, key="point-2") for k in (1, 2, 3)]
        # Jittered delay stays within [base, base * (1 + jitter)].
        assert 0.05 <= delays_a[0] <= 0.05 * 1.5

    def test_delay_is_one_based(self):
        with pytest.raises(CampaignError):
            RetryPolicy().delay_s(0)

    def test_round_trip_and_unknown_fields(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.01, seed=9)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        with pytest.raises(CampaignError):
            RetryPolicy.from_dict({"max_attempts": 2, "bogus": 1})

    def test_should_retry_combines_budget_and_classification(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.should_retry(ConnectionError("flake"), attempt=0)
        assert not policy.should_retry(ConnectionError("flake"), attempt=1)
        assert not policy.should_retry(ValueError("deterministic"), attempt=0)


class TestRetryableRegistry:
    def test_os_flakes_are_registered(self):
        for exc in (ConnectionError("x"), TimeoutError("x"), EOFError("x"), MemoryError()):
            assert is_retryable(exc)
        assert not is_retryable(ValueError("x"))
        assert ConnectionError in retryable_types()

    def test_solver_registers_convergence_error(self):
        import repro.circuit.solver  # noqa: F401 - registration happens at import

        assert is_retryable(ConvergenceError("did not converge"))

    def test_instance_attribute_overrides_registry(self):
        flake = ValueError("transient this once")
        flake.retryable = True
        assert is_retryable(flake)
        hard = ConnectionError("actually fatal")
        hard.retryable = False
        assert not is_retryable(hard)

    def test_register_retryable_is_a_decorator_and_validates(self):
        @register_retryable
        class _Flaky(RuntimeError):
            pass

        assert is_retryable(_Flaky("x"))
        with pytest.raises(TypeError):
            register_retryable("not a type")

    def test_injected_fault_classification(self):
        assert is_retryable(InjectedFault("x"))
        assert not is_retryable(InjectedFatalFault("x"))


# ----------------------------------------------------------------------
# Fault spec grammar
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_round_trip(self):
        spec = "raise@1x2;kill@4;torn-write~0.5;seed=7;hang=2"
        plan = FaultPlan.parse(spec)
        assert plan.seed == 7 and plan.hang_s == 2.0
        assert [r.action for r in plan.rules] == ["raise", "kill", "torn-write"]
        assert plan.rules[0] == FaultRule(action="raise", indices=(1,), times=2)
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_parse_defaults(self):
        plan = FaultPlan.parse("kill@0")
        assert plan.seed == 0 and plan.hang_s == DEFAULT_HANG_S
        assert plan.rules[0].times == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "explode@1",          # unknown action
            "raise@",             # no indices
            "raise@1x0",          # repeat must be >= 1
            "raise~1.5",          # rate out of (0, 1]
            "raise~oops",         # unparsable rate
            "raise",              # no @ or ~
            "seed=abc",           # unparsable seed
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(FaultInjectionError):
            FaultPlan.parse(bad)

    def test_indexed_rule_fires_on_listed_attempts_only(self):
        rule = FaultRule(action="raise", indices=(1, 3), times=2)
        assert rule.fires(1, 0, seed=0) and rule.fires(1, 1, seed=0)
        assert not rule.fires(1, 2, seed=0)
        assert rule.fires(3, 0, seed=0)
        assert not rule.fires(2, 0, seed=0)

    def test_rate_rule_is_deterministic_per_seed(self):
        rule = FaultRule(action="raise", rate=0.5)
        draws = [rule.fires(i, 0, seed=11) for i in range(64)]
        assert draws == [rule.fires(i, 0, seed=11) for i in range(64)]
        assert any(draws) and not all(draws)
        assert draws != [rule.fires(i, 0, seed=12) for i in range(64)]

    def test_active_plan_tracks_environment(self, monkeypatch):
        assert active_plan() is None
        monkeypatch.setenv(FAULTS_ENV, "raise@2")
        plan = active_plan()
        assert plan is not None and plan.should("raise", 2)
        assert active_plan() is plan  # cached per raw value
        monkeypatch.delenv(FAULTS_ENV)
        assert active_plan() is None

    def test_fire_point_faults_raises_by_schedule(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@2x1;fatal@3")
        fire_point_faults(0)  # not scheduled: no-op
        with pytest.raises(InjectedFault):
            fire_point_faults(2, attempt=0)
        fire_point_faults(2, attempt=1)  # transient: second attempt clean
        with pytest.raises(InjectedFatalFault):
            fire_point_faults(3, attempt=0)

    def test_should_tear_write(self, monkeypatch):
        assert not should_tear_write(0)
        monkeypatch.setenv(FAULTS_ENV, "torn-write@0")
        assert should_tear_write(0)
        assert not should_tear_write(1)


# ----------------------------------------------------------------------
# Campaign retries (serial and pool)
# ----------------------------------------------------------------------


class TestCampaignRetries:
    def test_serial_transient_fault_is_retried_to_success(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@1x2")
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        runner = CampaignRunner(chaos_spec(), workers=0, job_fn=_chaos_job, retry=retry)
        report = runner.run()
        assert report.counts()["ok"] == 5 and report.counts()["error"] == 0
        by_index = {r.index: r for r in report.records}
        assert by_index[1].attempts == 3
        assert all(by_index[i].attempts == 1 for i in (0, 2, 3, 4))
        assert runner.resilience["retried"] == 2
        assert report.counts()["retried"] == 2

    def test_serial_fatal_fault_is_not_retried(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "fatal@2x99")
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        runner = CampaignRunner(chaos_spec(), workers=0, job_fn=_chaos_job, retry=retry)
        report = runner.run()
        record = {r.index: r for r in report.records}[2]
        assert record.status == "error" and record.attempts == 1
        assert "InjectedFatalFault" in record.error
        assert runner.resilience["retried"] == 0

    def test_serial_retry_budget_exhausts(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@1x99")
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.0)
        runner = CampaignRunner(chaos_spec(), workers=0, job_fn=_chaos_job, retry=retry)
        report = runner.run()
        record = {r.index: r for r in report.records}[1]
        assert record.status == "error" and record.attempts == 2
        assert runner.resilience["retried"] == 1

    def test_no_policy_means_no_retries(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@1x2")
        runner = CampaignRunner(chaos_spec(), workers=0, job_fn=_chaos_job)
        report = runner.run()
        record = {r.index: r for r in report.records}[1]
        assert record.status == "error" and record.attempts == 1

    def test_pool_transient_fault_is_retried_to_success(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@1x2")
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        runner = CampaignRunner(chaos_spec(), workers=2, job_fn=_chaos_job, retry=retry)
        report = runner.run()
        assert report.counts()["ok"] == 5
        assert {r.index: r.attempts for r in report.records}[1] == 3
        assert runner.resilience["retried"] == 2

    def test_error_record_serialises_retryability(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@0x99")
        report = CampaignRunner(chaos_spec(n=1), workers=0, job_fn=_chaos_job).run()
        payload = report.records[0].to_dict()
        assert payload["status"] == "error"
        assert payload["retryable"] is True
        assert payload["attempts"] == 1


# ----------------------------------------------------------------------
# Worker crashes, stragglers, undeliverable results
# ----------------------------------------------------------------------


class TestWorkerCrashRecovery:
    def _run_chaos(self, monkeypatch, tmp_path, cache_name):
        """One seeded chaos campaign: point 1 flakes twice, point 4 is poison."""
        monkeypatch.setenv(FAULTS_ENV, "raise@1x2;kill@4x99;seed=11")
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.0, seed=7)
        runner = CampaignRunner(
            chaos_spec(),
            cache=ResultCache(tmp_path / cache_name),
            workers=2,
            job_fn=_chaos_job,
            retry=retry,
            max_crashes=2,
        )
        report = runner.run()
        return runner, report

    def test_sigkilled_worker_is_detected_and_point_quarantined(self, monkeypatch, tmp_path):
        """Acceptance: a live pool worker dies by SIGKILL mid-campaign."""
        runner, report = self._run_chaos(monkeypatch, tmp_path, "cache-a")
        counts = report.counts()
        assert counts["total"] == 5 and counts["ok"] == 4 and counts["crashed"] == 1
        by_index = {r.index: r for r in report.records}
        poison = by_index[4]
        assert poison.status == "crashed"
        assert poison.attempts == 2  # exactly max_crashes executions
        assert "quarantined" in poison.error
        assert by_index[1].status == "ok" and by_index[1].attempts == 3
        assert runner.resilience == {
            "retried": 2,
            "crashed": 2,
            "quarantined": 1,
            "pool_restarts": 2,
            "lease_steals": 0,
            "claim_conflicts": 0,
        }
        # No point lost, none duplicated.
        assert sorted(r.index for r in report.records) == [0, 1, 2, 3, 4]
        # Survivors are cached; the quarantined point is not.
        cache = ResultCache(tmp_path / "cache-a")
        assert len(cache.store) == 4

    def test_chaos_counters_are_bit_identical_across_runs(self, monkeypatch, tmp_path):
        """Acceptance: two runs of the same seeded schedule agree exactly."""
        first_runner, first_report = self._run_chaos(monkeypatch, tmp_path, "cache-b1")
        second_runner, second_report = self._run_chaos(monkeypatch, tmp_path, "cache-b2")
        assert first_runner.resilience == second_runner.resilience
        assert first_report.counts() == second_report.counts()
        assert _record_states(first_report) == _record_states(second_report)

    def test_two_hung_jobs_time_out_without_losing_points(self, monkeypatch):
        """Two stragglers in one campaign: one pool restart each, no losses."""
        monkeypatch.setenv(FAULTS_ENV, "hang@1,3x99;hang=30")
        runner = CampaignRunner(chaos_spec(), workers=1, timeout_s=0.4, job_fn=_chaos_job)
        report = runner.run()
        counts = report.counts()
        assert counts["timeout"] == 2 and counts["ok"] == 3
        timed_out = sorted(r.index for r in report.records if r.status == "timeout")
        assert timed_out == [1, 3]
        for record in report.records:
            if record.status == "timeout":
                assert "timeout" in record.error
        assert runner.resilience["pool_restarts"] == 2
        assert sorted(r.index for r in report.records) == [0, 1, 2, 3, 4]

    def test_undeliverable_result_becomes_error_record(self):
        """A result the pool cannot pickle must not kill the campaign."""
        runner = CampaignRunner(chaos_spec(n=3), workers=2, job_fn=_unpicklable_job)
        report = runner.run()
        by_index = {r.index: r for r in report.records}
        assert by_index[0].status == "ok" and by_index[2].status == "ok"
        assert by_index[1].status == "error"
        assert "result delivery failed" in by_index[1].error


# ----------------------------------------------------------------------
# Cache corruption quarantine
# ----------------------------------------------------------------------


class TestCacheCorruption:
    def test_injected_corruption_is_quarantined_on_next_run(self, monkeypatch, tmp_path):
        spec = chaos_spec()
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv(FAULTS_ENV, "torn-write@0")
        first = CampaignRunner(spec, cache=ResultCache(cache_dir), workers=0, job_fn=_chaos_job).run()
        assert first.counts()["ok"] == 5
        key0 = {r.index: r for r in first.records}[0].key
        cache = ResultCache(cache_dir)
        report = cache.store.verify()
        assert report["checksum_failures"] == 1 and report["bad_keys"] == [key0]

        monkeypatch.delenv(FAULTS_ENV)
        second = CampaignRunner(spec, cache=ResultCache(cache_dir), workers=0, job_fn=_chaos_job).run()
        counts = second.counts()
        assert counts["ok"] == 5 and counts["cached"] == 4  # point 0 recomputed
        cache = ResultCache(cache_dir)
        assert cache.stats()["corrupt"] == 1
        assert cache.get(key0) is not None  # rewritten by the recompute
        assert (cache.store.quarantine_dir / f"{key0}.corrupt").exists()
        assert cache.store.verify()["clean"]


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------


def _wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestGracefulShutdown:
    def test_first_signal_sets_flag_without_raising(self):
        with graceful_shutdown() as flag:
            assert not flag.requested
            os.kill(os.getpid(), signal.SIGINT)
            assert _wait_for(lambda: flag.requested)
            assert flag.signum == signal.SIGINT
            assert flag.signal_name == "SIGINT"
        # Handler restored: the context manager exits cleanly.

    def test_second_signal_raises_keyboard_interrupt(self):
        with pytest.raises(KeyboardInterrupt):
            with graceful_shutdown() as flag:
                os.kill(os.getpid(), signal.SIGINT)
                assert _wait_for(lambda: flag.requested)
                os.kill(os.getpid(), signal.SIGINT)
                time.sleep(5)  # interrupted by the raise
                pytest.fail("second SIGINT must raise KeyboardInterrupt")

    def test_interrupted_campaign_drains_caches_and_resumes(self, tmp_path):
        spec = chaos_spec(n=6)
        cache_dir = tmp_path / "cache"
        runner = CampaignRunner(spec, cache=ResultCache(cache_dir), workers=0, job_fn=_slow_job)
        timer = threading.Timer(0.35, os.kill, args=(os.getpid(), signal.SIGINT))
        timer.start()
        try:
            with pytest.raises(CampaignInterrupted, match="rerun the same spec to resume"):
                runner.run()
        finally:
            timer.cancel()
        finished = len(ResultCache(cache_dir).store)
        assert 1 <= finished < 6  # partial progress survived

        # A rerun of the same spec picks up exactly where the first stopped.
        report = CampaignRunner(spec, cache=ResultCache(cache_dir), workers=0, job_fn=_slow_job).run()
        counts = report.counts()
        assert counts["ok"] == 6 and counts["cached"] == finished


# ----------------------------------------------------------------------
# CLI integration: SIGINT, exit code 130, ledger status
# ----------------------------------------------------------------------


class TestCliInterruption:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        spec = chaos_spec(
            name="interruptible",
            axes=[{"path": "attack.pulse.length_s", "values": [float(30e-9 + 1e-9 * i) for i in range(40)]}],
        )
        path = tmp_path / "spec.json"
        spec.to_json(path)
        return path

    def test_sigint_exits_130_records_interrupted_and_resumes(self, tmp_path, spec_path):
        obs = tmp_path / "obs"
        cache = tmp_path / "cache"
        argv = [
            sys.executable, "-m", "repro", "campaign", "run", str(spec_path),
            "--cache", str(cache), "--obs-dir", str(obs),
        ]
        env = {"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"}
        child = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=tmp_path, env=env, text=True
        )
        try:
            # Interrupt once real progress is on disk.
            assert _wait_for(lambda: len(list(cache.glob("payloads/*/*.json"))) >= 2, timeout_s=60)
            child.send_signal(signal.SIGINT)
            _, stderr = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=10)
        assert child.returncode == 130, f"stderr:\n{stderr}"
        assert "interrupted" in stderr
        finished = len(ResultCache(cache).store)
        assert 2 <= finished < 40

        entries = RunLedger(obs).entries()
        assert entries and entries[-1].status == "interrupted"

        # The same command resumes from the cache and completes cleanly.
        done = subprocess.run(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, cwd=tmp_path, env=env, text=True, timeout=300
        )
        assert done.returncode == 0, f"output:\n{done.stdout}"
        assert len(ResultCache(cache).store) == 40
        entries = RunLedger(obs).entries()
        assert entries[-1].status == "ok"


# ----------------------------------------------------------------------
# Observability surfaces
# ----------------------------------------------------------------------


class TestResilienceSurfaces:
    def test_resilience_counts_reads_snapshot_counters(self):
        snapshot = {
            "counters": {
                "campaign.retries": 3.0,
                "campaign.crashes": 2.0,
                "campaign.quarantined": 1.0,
                "campaign.pool_restarts": 2.0,
                "cache.corrupt_entries": 1.0,
                "faults.injected.raise": 4.0,
                "faults.injected.kill": 2.0,
            }
        }
        assert resilience_counts(snapshot) == {
            "retried": 3,
            "crashed": 2,
            "quarantined": 1,
            "pool_restarts": 2,
            "cache_corrupt": 1,
            "faults_injected": 6,
        }

    def test_resilience_counts_empty_snapshot(self):
        assert resilience_counts({}) == {
            "retried": 0,
            "crashed": 0,
            "quarantined": 0,
            "pool_restarts": 0,
            "cache_corrupt": 0,
            "faults_injected": 0,
        }

    def test_campaign_summary_mentions_crashes_and_retries(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@1x2;kill@4x99")
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        runner = CampaignRunner(
            chaos_spec(), workers=2, job_fn=_chaos_job, retry=retry, max_crashes=1
        )
        report = runner.run()
        summary = report.summary()
        assert "1 crashed" in summary
        assert "retried" in summary
