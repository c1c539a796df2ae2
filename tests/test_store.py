"""Tests for the concurrent-safe shared result store (repro.store).

Covers the sqlite index, the advisory lease protocol, checksum detection
and quarantine, verify/gc/migrate, the ResultCache front (refusal of
unusable and per-file cache directories, the CLI's run without a cache,
best-effort publishing), runner leasing, and — the acceptance bar —
multi-process contention: an N-writer stress test with no lost updates and
two concurrent ``campaign run`` processes partitioning one sweep with zero
duplicated computations.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, ResultCache
from repro.campaign.runner import JobRecord
from repro.cli import main
from repro.errors import CampaignError, StoreError, StoreUnavailableError
from repro.obs import Telemetry, telemetry_capture
from repro.store import (
    DEFAULT_LEASE_TTL_S,
    INDEX_FILENAME,
    LeaseManager,
    ResultStore,
    SqliteIndex,
    is_store_dir,
    migrate_legacy_cache,
)

KEY_A = "aa11"
KEY_B = "bb22"
PAYLOAD = {"status": "ok", "result": {"flipped": True, "pulses": 7}}


def small_spec(n: int = 3, name: str = "store-spec") -> CampaignSpec:
    """A tiny n-point grid on a fast 3x3 crossbar."""
    return CampaignSpec(
        name=name,
        mode="grid",
        simulation={"geometry": {"rows": 3, "columns": 3}},
        attack={"aggressors": [[1, 1]], "victim": [1, 2]},
        axes=[
            {
                "path": "attack.pulse.length_s",
                "values": [float(10e-9 * (i + 1)) for i in range(n)],
            }
        ],
    )


def fake_job(payload):
    """Instant stand-in for the real compute: deterministic per-point result."""
    index, key, _job, overrides = payload
    return JobRecord(
        index=index,
        key=key,
        status="ok",
        overrides=overrides,
        result={"index": index},
        duration_s=0.0,
    )


def write_legacy_entry(root: Path, key: str, payload) -> Path:
    """One ``<key>.json`` entry of the per-file cache layout the store replaced."""
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"{key}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def dead_pid() -> int:
    """A pid that provably belonged to an exited process."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


# ----------------------------------------------------------------------
# sqlite index
# ----------------------------------------------------------------------


class TestSqliteIndex:
    def test_upsert_lookup_remove_roundtrip(self, tmp_path):
        index = SqliteIndex(tmp_path / INDEX_FILENAME)
        index.upsert(KEY_A, sha256="0" * 64, size=12, spec_name="s")
        row = index.lookup(KEY_A)
        assert row["sha256"] == "0" * 64 and row["size"] == 12
        assert index.lookup(KEY_B) is None
        assert index.remove(KEY_A) is True
        assert index.remove(KEY_A) is False
        index.close()

    def test_index_persists_across_instances(self, tmp_path):
        path = tmp_path / INDEX_FILENAME
        first = SqliteIndex(path)
        first.upsert(KEY_A, sha256="1" * 64, size=3)
        first.close()
        second = SqliteIndex(path)
        assert second.lookup(KEY_A)["sha256"] == "1" * 64
        assert second.keys() == [KEY_A]
        second.close()

    def test_upsert_replaces_in_place(self, tmp_path):
        index = SqliteIndex(tmp_path / INDEX_FILENAME)
        index.upsert(KEY_A, sha256="2" * 64, size=1)
        index.upsert(KEY_A, sha256="3" * 64, size=2)
        assert index.count() == 1
        assert index.lookup(KEY_A)["sha256"] == "3" * 64
        index.close()


# ----------------------------------------------------------------------
# leases
# ----------------------------------------------------------------------


class TestLeaseManager:
    def test_acquire_is_exclusive_across_managers(self, tmp_path):
        ours = LeaseManager(tmp_path)
        theirs = LeaseManager(tmp_path)
        assert ours.acquire(KEY_A) is True
        assert theirs.acquire(KEY_A) is False
        assert ours.holds(KEY_A) and not theirs.holds(KEY_A)

    def test_release_lets_another_process_claim(self, tmp_path):
        ours = LeaseManager(tmp_path)
        theirs = LeaseManager(tmp_path)
        ours.acquire(KEY_A)
        assert ours.release(KEY_A) is True
        assert theirs.acquire(KEY_A) is True

    def test_live_lease_cannot_be_stolen(self, tmp_path):
        ours = LeaseManager(tmp_path)
        thief = LeaseManager(tmp_path)
        ours.acquire(KEY_A)
        assert thief.steal(KEY_A) is False
        assert ours.holds(KEY_A)

    def test_past_deadline_lease_is_stolen(self, tmp_path):
        expiring = LeaseManager(tmp_path, ttl_s=0.05)
        thief = LeaseManager(tmp_path)
        expiring.acquire(KEY_A)
        time.sleep(0.1)
        assert thief.steal(KEY_A) is True
        assert thief.holds(KEY_A)

    def test_dead_pid_lease_is_stolen_before_deadline(self, tmp_path):
        owner = LeaseManager(tmp_path, ttl_s=3600.0)
        owner.acquire(KEY_A)
        # Rewrite the lease as if a since-dead process held it.
        state = owner.read(KEY_A)
        payload = state.to_dict()
        payload["pid"] = dead_pid()
        owner.path_for(KEY_A).write_text(json.dumps(payload), encoding="utf-8")
        thief = LeaseManager(tmp_path)
        assert thief.steal(KEY_A) is True

    def test_refresh_extends_the_deadline(self, tmp_path):
        ours = LeaseManager(tmp_path, ttl_s=10.0)
        ours.acquire(KEY_A)
        before = ours.read(KEY_A).deadline_s
        time.sleep(0.02)
        ours.refresh(KEY_A)
        assert ours.read(KEY_A).deadline_s > before

    def test_refresh_of_unheld_lease_raises(self, tmp_path):
        ours = LeaseManager(tmp_path)
        with pytest.raises(StoreError):
            ours.refresh(KEY_A)

    def test_refresh_due_only_touches_aged_leases(self, tmp_path):
        ours = LeaseManager(tmp_path, ttl_s=1000.0)
        ours.acquire(KEY_A)
        assert ours.refresh_due() == 0  # brand new: nowhere near half-life
        aging = LeaseManager(tmp_path, ttl_s=0.1)
        aging.acquire(KEY_B)
        time.sleep(0.06)
        assert aging.refresh_due() == 1

    def test_release_all_cleans_up_everything_held(self, tmp_path):
        ours = LeaseManager(tmp_path)
        ours.acquire(KEY_A)
        ours.acquire(KEY_B)
        assert ours.release_all() == 2
        assert ours.held == []
        assert ours.active() == []

    def test_sweep_removes_stale_lease_files(self, tmp_path):
        expiring = LeaseManager(tmp_path, ttl_s=0.05)
        expiring.acquire(KEY_A)
        fresh = LeaseManager(tmp_path, ttl_s=3600.0)
        fresh.acquire(KEY_B)
        time.sleep(0.1)
        assert fresh.sweep() == 1
        assert [state.key for state in fresh.active()] == [KEY_B]


# ----------------------------------------------------------------------
# result store
# ----------------------------------------------------------------------


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, PAYLOAD)
        assert store.get(KEY_A)["result"]["pulses"] == 7
        assert store.get(KEY_B) is None
        assert store.contains(KEY_A) and KEY_A in store.keys()

    def test_identical_payloads_share_one_content_addressed_file(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, PAYLOAD)
        store.put(KEY_B, PAYLOAD)
        assert len(store) == 2
        assert len(list(store.payloads_dir.glob("*/*.json"))) == 1
        # Deleting one key keeps the payload the other still references.
        store.delete(KEY_A)
        assert store.get(KEY_B)["result"]["pulses"] == 7

    def test_torn_payload_is_detected_and_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(KEY_A, PAYLOAD)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn, possibly still parseable
        assert store.get(KEY_A) is None
        assert store.get(KEY_A) is None  # idempotent after quarantine
        assert store.index.lookup(KEY_A) is None
        assert list(store.quarantine_dir.glob(f"{KEY_A}.corrupt"))

    def test_verify_reports_checksum_damage_and_repair_quarantines(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, PAYLOAD)
        path = store.put(KEY_B, {"status": "ok", "result": {"x": 2}})
        path.write_bytes(b'{"status": "ok"')
        report = store.verify()
        assert report["entries"] == 2 and report["ok"] == 1
        assert report["checksum_failures"] == 1 and not report["clean"]
        assert report["bad_keys"] == [KEY_B]
        # Without repair the damaged row is still indexed.
        assert store.index.lookup(KEY_B) is not None
        repaired = store.verify(repair=True)
        assert repaired["checksum_failures"] == 1
        after = store.verify()
        assert after["clean"] and after["entries"] == 1 and after["quarantined"] == 1

    def test_verify_reports_missing_payloads(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(KEY_A, PAYLOAD)
        path.unlink()
        report = store.verify()
        assert report["missing_payloads"] == 1 and not report["clean"]

    def test_gc_sweeps_orphans_tmp_files_and_stale_leases(self, tmp_path):
        store = ResultStore(tmp_path, lease_ttl_s=0.05)
        store.put(KEY_A, PAYLOAD)
        orphan_dir = store.payloads_dir / "ff"
        orphan_dir.mkdir(parents=True, exist_ok=True)
        (orphan_dir / ("f" * 64 + ".json")).write_text("{}", encoding="utf-8")
        (orphan_dir / ("e" * 64 + ".tmp")).write_text("", encoding="utf-8")
        store.leases.acquire(KEY_B)
        time.sleep(0.1)  # lease lapses
        swept = store.gc()
        assert swept == {"orphan_payloads": 1, "tmp_files": 1, "stale_leases": 1}
        assert store.get(KEY_A)["result"]["pulses"] == 7  # live data untouched

    def test_gc_spares_a_publish_in_flight(self, tmp_path, monkeypatch):
        """A gc between put's temp write and its rename, or between the rename
        and the index commit, must not sweep the entry being published."""
        store = ResultStore(tmp_path)
        replace, upsert = os.replace, store.index.upsert

        def gc_first(step):
            def wrapped(*args, **kwargs):
                store.gc()
                return step(*args, **kwargs)

            return wrapped

        monkeypatch.setattr("repro.store.store.os.replace", gc_first(replace))
        monkeypatch.setattr(store.index, "upsert", gc_first(upsert))
        store.put(KEY_A, PAYLOAD)
        monkeypatch.undo()
        assert store.get(KEY_A)["result"]["pulses"] == 7
        assert store.verify()["clean"]

    def test_clear_empties_entries_and_quarantine(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(KEY_A, PAYLOAD)
        path.write_bytes(b"xx")
        store.get(KEY_A)  # quarantines
        store.put(KEY_B, PAYLOAD)
        assert store.clear() == 1
        assert len(store) == 0
        assert list(store.quarantine_dir.glob("*")) == []

    def test_stats_shape(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY_A, PAYLOAD)
        stats = store.stats()
        assert set(stats) == {"root", "entries", "bytes", "corrupt", "leases"}
        assert stats["entries"] == 1 and stats["bytes"] > 0 and stats["corrupt"] == 0


# ----------------------------------------------------------------------
# ResultCache front
# ----------------------------------------------------------------------


class TestResultCacheFacade:
    def test_fresh_directory_opens_a_store(self, tmp_path):
        (tmp_path / "spec.json").write_text("{}", encoding="utf-8")  # not a cache entry
        ResultCache(tmp_path).put(KEY_A, PAYLOAD)
        assert is_store_dir(tmp_path)
        assert ResultCache(tmp_path).get(KEY_A)["result"]["pulses"] == 7

    def test_unknown_backend_rejected(self, tmp_path):
        for backend in ("parquet", "legacy", "auto"):
            with pytest.raises(CampaignError):
                ResultCache(tmp_path, backend=backend)

    def test_unusable_store_is_refused(self, tmp_path):
        (tmp_path / INDEX_FILENAME).mkdir()  # sqlite cannot open a directory
        with pytest.raises(StoreUnavailableError):
            ResultCache(tmp_path)

    def test_per_file_cache_directory_is_refused_untouched(self, tmp_path):
        write_legacy_entry(tmp_path, KEY_A, PAYLOAD)
        with pytest.raises(StoreUnavailableError, match=f"repro store migrate {tmp_path}"):
            ResultCache(tmp_path)
        assert [path.name for path in tmp_path.iterdir()] == [f"{KEY_A}.json"]

    def test_failed_publish_degrades_instead_of_crashing(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.store.store.os.replace", full_disk)
        with telemetry_capture(Telemetry()) as tel:
            report = CampaignRunner(small_spec(), cache=cache, job_fn=fake_job).run()
        assert report.counts()["ok"] == 3
        assert tel.snapshot()["counters"]["store.publish_failures"] == 3
        assert len(cache.store) == 0
        assert list(cache.store.payloads_dir.glob("*/*")) == []  # no temp files left

    def test_store_keys_are_validated_like_legacy_keys(self, tmp_path):
        cache = ResultCache(tmp_path, backend="store")
        with pytest.raises(CampaignError):
            cache.get("../escape")
        with pytest.raises(CampaignError):
            cache.put("not-hex!", PAYLOAD)

    def test_put_honours_process_umask(self, tmp_path):
        previous = os.umask(0o022)
        try:
            path = ResultCache(tmp_path).put(KEY_A, PAYLOAD)
            mode = stat.S_IMODE(path.stat().st_mode)
            # mkstemp's private 0600 must not leak through: group/other
            # keep read access so a shared cache stays shared.
            assert mode == 0o644, oct(mode)
        finally:
            os.umask(previous)


# ----------------------------------------------------------------------
# migration
# ----------------------------------------------------------------------


class TestMigrateLegacyCache:
    def test_migrates_entries_and_quarantine_in_place(self, tmp_path):
        write_legacy_entry(tmp_path, KEY_A, PAYLOAD)
        write_legacy_entry(tmp_path, KEY_B, {"status": "ok", "result": {"x": 1}})
        (tmp_path / "cc33.json").write_text("torn{", encoding="utf-8")
        (tmp_path / "dd44.corrupt").write_text("old evidence", encoding="utf-8")
        # JSON files that are not cache entries stay where they are.
        (tmp_path / "spec.json").write_text('{"name": "s"}', encoding="utf-8")
        (tmp_path / "results.json").write_text("[1, 2]", encoding="utf-8")
        report = migrate_legacy_cache(tmp_path)
        assert report["migrated"] == 2 and report["quarantined"] == 2
        assert report["skipped"] == 2 and report["entries"] == 2
        migrated = ResultCache(tmp_path)
        assert migrated.get(KEY_A)["result"]["pulses"] == 7
        assert migrated.store.keys() == [KEY_A, KEY_B]
        assert sorted(path.name for path in tmp_path.glob("*.json")) == ["results.json", "spec.json"]

    def test_migration_is_idempotent(self, tmp_path):
        write_legacy_entry(tmp_path, KEY_A, PAYLOAD)
        first = migrate_legacy_cache(tmp_path)
        second = migrate_legacy_cache(tmp_path)
        assert first["migrated"] == 1 and second["migrated"] == 0
        assert second["entries"] == 1


# ----------------------------------------------------------------------
# runner leasing
# ----------------------------------------------------------------------


class TestRunnerLeasing:
    def test_run_releases_every_lease(self, tmp_path):
        cache = ResultCache(tmp_path, backend="store")
        runner = CampaignRunner(small_spec(), cache=cache, job_fn=fake_job)
        report = runner.run()
        assert report.counts()["ok"] == 3
        assert cache.store.leases.active() == []
        assert runner.resilience["lease_steals"] == 0
        assert runner.resilience["claim_conflicts"] == 0

    def test_stale_lease_from_dead_process_is_stolen(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path, backend="store")
        point = next(iter(spec.iter_points()))
        # Manufacture the debris of a SIGKILLed campaign: a lease whose
        # owner pid no longer exists.
        other = LeaseManager(cache.store.leases.root, ttl_s=3600.0)
        other.acquire(point.key)
        state = other.read(point.key)
        payload = state.to_dict()
        payload["pid"] = dead_pid()
        other.path_for(point.key).write_text(json.dumps(payload), encoding="utf-8")

        runner = CampaignRunner(spec, cache=cache, job_fn=fake_job)
        report = runner.run()
        assert report.counts()["ok"] == 3 and report.cached_count == 0
        assert runner.resilience["lease_steals"] == 1
        assert cache.store.leases.active() == []

    def test_deferred_point_uses_result_published_by_holder(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path, backend="store")
        points = list(spec.iter_points())
        held = points[1]
        holder = LeaseManager(cache.store.leases.root)  # alive: this process
        assert holder.acquire(held.key)
        computed: list = []

        def counting_job(payload):
            computed.append(payload[0])
            return fake_job(payload)

        def publish_and_release():
            # A stand-in for the other process: its own store instance (sqlite
            # connections are per process/thread), publishing then releasing.
            time.sleep(0.2)
            other = ResultStore(tmp_path)
            other.put(held.key, {"status": "ok", "result": {"index": held.index}})
            other.close()
            holder.release(held.key)

        publisher = threading.Thread(target=publish_and_release)
        publisher.start()
        try:
            runner = CampaignRunner(spec, cache=cache, job_fn=counting_job)
            report = runner.run()
        finally:
            publisher.join()
        assert report.counts()["ok"] == 3
        assert held.index not in computed  # never duplicated the held point
        assert runner.resilience["claim_conflicts"] == 1
        by_index = {record.index: record for record in report.records}
        assert by_index[held.index].cached is True

    def test_deferred_point_is_reclaimed_when_holder_gives_up(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path, backend="store")
        held = list(spec.iter_points())[1]
        holder = LeaseManager(cache.store.leases.root)
        assert holder.acquire(held.key)

        def release_without_publishing():
            time.sleep(0.2)
            holder.release(held.key)  # the holder failed; nothing published

        quitter = threading.Thread(target=release_without_publishing)
        quitter.start()
        try:
            runner = CampaignRunner(spec, cache=cache, job_fn=fake_job)
            report = runner.run()
        finally:
            quitter.join()
        assert report.counts()["ok"] == 3 and report.cached_count == 0
        assert runner.resilience["claim_conflicts"] == 1
        assert runner.resilience["lease_steals"] == 0


# ----------------------------------------------------------------------
# store CLI
# ----------------------------------------------------------------------


class TestStoreCli:
    def test_verify_clean_then_damaged_then_repaired(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        store = ResultStore(store_dir)
        path = store.put(KEY_A, PAYLOAD)
        store.close()
        assert main(["store", "verify", str(store_dir)]) == 0
        assert "CLEAN" in capsys.readouterr().out
        path.write_bytes(b"torn")
        assert main(["store", "verify", str(store_dir), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["checksum_failures"] == 1
        assert main(["store", "verify", str(store_dir), "--repair"]) == 1
        capsys.readouterr()
        assert main(["store", "verify", str(store_dir)]) == 0

    def test_verify_rejects_non_store_directory(self, tmp_path, capsys):
        write_legacy_entry(tmp_path, KEY_A, PAYLOAD)  # per-file cache, no index
        assert main(["store", "verify", str(tmp_path)]) == 1
        assert "repro store migrate" in capsys.readouterr().err

    def test_gc_reports_sweep_counts(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        ResultStore(store_dir).close()
        assert main(["store", "gc", str(store_dir), "--json"]) == 0
        swept = json.loads(capsys.readouterr().out)
        assert swept["orphan_payloads"] == 0 and swept["stale_leases"] == 0

    def test_migrate_then_campaign_run_reuses_entries(self, tmp_path, capsys):
        spec = small_spec(name="migrate-spec")
        spec_path = tmp_path / "spec.json"
        spec.to_json(spec_path)
        cache_dir = tmp_path / "cache"
        for point in spec.iter_points():
            write_legacy_entry(
                cache_dir, point.key, {"status": "ok", "result": {"index": point.index}}
            )
        assert main(["store", "migrate", str(cache_dir)]) == 0
        capsys.readouterr()
        # The migrated store answers the same spec without recomputing.
        rerun = CampaignRunner(spec, cache=ResultCache(cache_dir), job_fn=fake_job)
        report = rerun.run()
        assert report.cached_count == 3

    def test_campaign_status_points_at_the_quarantine_dir(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        small_spec(name="status-spec").to_json(spec_path)
        cache_dir = tmp_path / "cache"
        store = ResultStore(cache_dir)
        store.put(KEY_A, PAYLOAD).write_bytes(b"torn")
        assert store.get(KEY_A) is None  # quarantined
        store.close()
        assert main(["campaign", "status", str(spec_path), "--cache", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert f"quarantined cache entries: 1 (*.corrupt files under {cache_dir / 'quarantine'})" in out

    @pytest.mark.parametrize("damage", ["per-file entries", "unusable index"])
    def test_campaign_run_without_a_usable_store_runs_uncached(
        self, tmp_path, capsys, caplog, damage
    ):
        spec_path = tmp_path / "spec.json"
        small_spec(name="uncached-spec").to_json(spec_path)
        cache_dir = tmp_path / "cache"
        if damage == "per-file entries":
            write_legacy_entry(cache_dir, KEY_A, PAYLOAD)
        else:
            (cache_dir / INDEX_FILENAME).mkdir(parents=True)  # sqlite cannot open a directory
        before = {path.name: path.read_bytes() for path in cache_dir.glob("*.json")}
        telemetry = tmp_path / "telemetry.json"
        with caplog.at_level("WARNING", logger="repro.campaign.cli"):
            code = main([
                "campaign", "run", str(spec_path), "--cache", str(cache_dir), "--no-obs",
                "--telemetry", str(telemetry),
            ])
        assert code == 0
        assert "3 points, 3 ok (0 cached)" in capsys.readouterr().out
        assert "running without a result cache" in caplog.text
        assert json.loads(telemetry.read_text())["counters"]["store.degraded"] == 1
        if damage == "per-file entries":
            assert f"repro store migrate {cache_dir}" in caplog.text
            assert [path.name for path in cache_dir.iterdir()] == [f"{KEY_A}.json"]
            assert {path.name: path.read_bytes() for path in cache_dir.glob("*.json")} == before


# ----------------------------------------------------------------------
# multi-process contention
# ----------------------------------------------------------------------


def _stress_writer(root: str, writer_id: int, keys: list) -> None:
    """One writer process: publish every key, then exit cleanly."""
    store = ResultStore(root)
    for position, key in enumerate(keys):
        store.put(key, {"status": "ok", "result": {"writer": writer_id, "n": position}})
    store.close()


class TestMultiProcessContention:
    def test_n_writers_no_lost_updates(self, tmp_path):
        """Acceptance: concurrent writers leave index and payloads consistent."""
        ResultStore(tmp_path).close()  # initialise WAL schema once, uncontended
        writers = 4
        private = 12  # keys unique to each writer
        shared = [f"{i:04x}" for i in range(8)]  # keys every writer fights over
        expected = set(shared)
        jobs = []
        for writer_id in range(writers):
            mine = [f"{writer_id + 1:02x}{i:02x}" for i in range(private)]
            expected.update(mine)
            jobs.append((writer_id, mine + shared))
        ctx = multiprocessing.get_context()
        procs = [
            ctx.Process(target=_stress_writer, args=(str(tmp_path), writer_id, keys))
            for writer_id, keys in jobs
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert all(proc.exitcode == 0 for proc in procs), [p.exitcode for p in procs]

        store = ResultStore(tmp_path)
        # No lost updates: every key every writer published is indexed...
        assert set(store.keys()) == expected
        # ...and the index matches the payload set exactly (no torn files,
        # no dangling rows, no orphans beyond replaced content).
        report = store.verify()
        assert report["clean"], report
        assert report["entries"] == len(expected)
        for key in expected:
            assert store.get(key) is not None

    def test_two_concurrent_campaign_runs_partition_the_sweep(self, tmp_path):
        """Acceptance: two `campaign run` processes share one store with zero
        duplicated point computations, bit-identical to a serial run."""
        spec = small_spec(n=6, name="two-proc")
        spec_path = tmp_path / "spec.json"
        spec.to_json(spec_path)
        store_dir = tmp_path / "store"
        ResultCache(store_dir, backend="store")  # pre-create the store

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [
            sys.executable, "-m", "repro", "campaign", "run", str(spec_path),
            "--cache", str(store_dir), "--no-obs", "--json",
        ]
        procs = [
            subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            for _ in range(2)
        ]
        outputs = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()
            outputs.append(json.loads(out))

        total = spec.point_count()
        computed = sum(
            payload["report"]["counts"]["total"] - payload["report"]["counts"]["cached"]
            for payload in outputs
        )
        steals = sum(payload["resilience"]["lease_steals"] for payload in outputs)
        # Zero duplicated computations beyond explicit stale-lease steals
        # (and with both processes alive there is nothing stale to steal).
        assert steals == 0
        assert computed == total
        for payload in outputs:
            assert payload["report"]["counts"]["ok"] == total

        # The shared store holds exactly one result per point, verified clean.
        store_cache = ResultCache(store_dir)
        assert len(store_cache.store) == total
        assert store_cache.store.verify()["clean"]

        # Bit-identical to a serial single-process run of the same spec.
        serial_dir = tmp_path / "serial"
        assert main(
            ["campaign", "run", str(spec_path), "--cache", str(serial_dir), "--no-obs"]
        ) == 0
        serial_cache = ResultCache(serial_dir)
        for point in spec.iter_points():
            concurrent = store_cache.get(point.key)
            serial = serial_cache.get(point.key)
            assert concurrent is not None and serial is not None
            assert concurrent["result"] == serial["result"]
