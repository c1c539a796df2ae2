"""Concurrent-safe shared result store: sqlite index over checksummed payloads.

A :class:`ResultStore` is a directory multiple processes can read, write and
*cooperatively compute into* at once::

    store-root/
        index.sqlite        crash-consistent key index (WAL, BEGIN IMMEDIATE)
        payloads/ab/<sha256>.json   content-addressed payload files
        leases/<key>.lease  advisory point leases (see repro.store.lease)
        quarantine/         checksum-failed payloads, kept for inspection

Every entry row records the SHA-256 of the exact payload bytes, so a torn
or bit-rotted payload is *detected* — not merely unparseable-JSON-detected —
quarantined, and read as a miss so the point is recomputed.  Publishing is
write-payload-then-index: a crash between the two leaves an orphan payload
(swept by :meth:`ResultStore.gc`), never an index row pointing at garbage; a
SIGKILL mid-index-commit is sqlite WAL's problem, which is exactly why the
index is sqlite.

Payloads are content-addressed: identical results share one file, and a
replaced entry simply re-points its row (the old payload becomes garbage for
:meth:`gc`).  :meth:`verify` re-hashes every live payload and reports
checksum failures, missing payloads, orphans and lease states;
:func:`migrate_legacy_cache` converts an old per-file cache directory in
place.  :class:`~repro.campaign.cache.ResultCache` is the campaign-facing
front of this class.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import string
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from ..errors import StoreError, StoreUnavailableError
from ..faults.retry import RetryPolicy
from ..obs import get_telemetry
from ..utils.logging import get_logger
from .index import INDEX_FILENAME, SqliteIndex
from .lease import DEFAULT_LEASE_TTL_S, LeaseManager

logger = get_logger("store")

#: Subdirectories of a store root.
PAYLOADS_DIRNAME = "payloads"
LEASES_DIRNAME = "leases"
QUARANTINE_DIRNAME = "quarantine"

_HEX_DIGITS = frozenset(string.hexdigits)


def is_store_dir(root: Union[str, Path]) -> bool:
    """Whether ``root`` looks like a :class:`ResultStore` directory."""
    return (Path(root) / INDEX_FILENAME).is_file()


def is_hex_key(text: str) -> bool:
    """Whether ``text`` is a non-empty run of hex digits, the point-key alphabet."""
    return bool(text) and set(text) <= _HEX_DIGITS


def _umask_mode(base: int = 0o666) -> int:
    """``base`` masked by the process umask (os.umask is read-by-set)."""
    mask = os.umask(0)
    os.umask(mask)
    return base & ~mask


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _modified_after(path: Path, cutoff_s: float) -> bool:
    """Whether ``path`` changed after ``cutoff_s`` (a vanished file counts as new)."""
    try:
        return path.stat().st_mtime > cutoff_s
    except OSError:
        return True


class ResultStore:
    """A shared, checksummed, leasable result store rooted at one directory.

    Reads and writes go through ``get``/``put``/``delete``/``clear``/
    ``keys``/``contains``/``stats``; on top of that it exposes the
    concurrency machinery: :attr:`leases` for cooperative point claiming,
    :meth:`verify`/:meth:`gc` for offline hygiene, and
    :meth:`hold_write_lock` for the chaos harness.

    Raises :class:`~repro.errors.StoreUnavailableError` from the constructor
    when the root cannot host a store (unwritable, index unusable); the CLI
    then warns and runs without a cache.
    """

    def __init__(
        self,
        root: Union[str, Path],
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        retry: Optional[RetryPolicy] = None,
    ):
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise StoreUnavailableError(f"store root {self.root} exists and is not a directory")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self.payloads_dir.mkdir(exist_ok=True)
            self.quarantine_dir.mkdir(exist_ok=True)
        except OSError as exc:
            raise StoreUnavailableError(f"cannot create store directories under {self.root}: {exc}") from exc
        self.index = SqliteIndex(self.root / INDEX_FILENAME, retry=retry)
        try:
            self.leases = LeaseManager(self.root / LEASES_DIRNAME, ttl_s=lease_ttl_s)
        except (StoreError, OSError) as exc:
            raise StoreUnavailableError(f"cannot create lease directory under {self.root}: {exc}") from exc

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    @property
    def payloads_dir(self) -> Path:
        return self.root / PAYLOADS_DIRNAME

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIRNAME

    def payload_path(self, sha256: str) -> Path:
        """Content-addressed location of one payload (two-level fan-out)."""
        return self.payloads_dir / sha256[:2] / f"{sha256}.json"

    # ------------------------------------------------------------------
    # read/write
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload for ``key``, or None on a miss.

        A checksum mismatch (torn write, bit rot) or a missing payload file
        quarantines the entry — the payload (if any) moves to
        ``quarantine/``, the index row is dropped, and the caller sees a
        plain miss so the point degrades to recomputation.
        """
        row = self.index.lookup(key)
        if row is None:
            return None
        path = self.payload_path(row["sha256"])
        try:
            data = path.read_bytes()
        except OSError:
            self._quarantine(key, row, None, reason="missing payload")
            return None
        if _sha256(data) != row["sha256"]:
            self._quarantine(key, row, data, reason="checksum mismatch")
            return None
        try:
            payload = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            payload = None
        if not isinstance(payload, dict):
            # Checksummed-but-unparseable means the *writer* published
            # garbage (it hashed what it wrote); keep the evidence too.
            self._quarantine(key, row, data, reason="unparseable payload")
            return None
        return payload

    def put(self, key: str, payload: Dict[str, Any], spec_name: Optional[str] = None) -> Path:
        """Publish ``payload`` under ``key``; returns the payload path.

        Payload first (atomic tmp → rename into the content-addressed slot,
        honouring the process umask so shared caches stay multi-user
        readable), index row second (``BEGIN IMMEDIATE`` upsert).  A crash
        between the two leaves only an orphan payload for :meth:`gc`.
        Filesystem errors (full disk, permissions, a vanished temp file)
        raise :class:`~repro.errors.StoreError`.
        """
        text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
        data = text.encode("utf-8")
        sha = _sha256(data)
        path = self.payload_path(sha)
        try:
            if not path.exists():
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp_name = tempfile.mkstemp(prefix=f"{sha[:12]}.", suffix=".tmp", dir=path.parent)
                try:
                    os.fchmod(fd, _umask_mode())
                    with os.fdopen(fd, "wb") as handle:
                        handle.write(data)
                    os.replace(tmp_name, path)
                except BaseException:
                    with contextlib.suppress(OSError):
                        os.unlink(tmp_name)
                    raise
        except OSError as exc:
            raise StoreError(f"cannot write the payload of {key} under {self.root}: {exc}") from exc
        self.index.upsert(key, sha, len(data), spec_name=spec_name)
        return path

    def delete(self, key: str) -> bool:
        """Drop one entry; unlinks its payload when no other key shares it."""
        row = self.index.lookup(key)
        existed = self.index.remove(key)
        if existed and row is not None and self.index.references(row["sha256"]) == 0:
            with contextlib.suppress(OSError):
                os.unlink(self.payload_path(row["sha256"]))
        return existed

    def clear(self) -> int:
        """Drop every entry (payloads and quarantine files included)."""
        keys = self.index.keys()
        removed = 0
        for key in keys:
            if self.delete(key):
                removed += 1
        for path in list(self.quarantine_dir.glob("*")):
            with contextlib.suppress(OSError):
                os.unlink(path)
        return removed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def keys(self) -> List[str]:
        return self.index.keys()

    def contains(self, key: str) -> bool:
        return self.index.lookup(key) is not None

    def stats(self) -> Dict[str, Any]:
        """Entry, byte, quarantined-entry and lease counts."""
        return {
            "root": str(self.root),
            "entries": self.index.count(),
            "bytes": self.index.total_bytes(),
            "corrupt": len(list(self.quarantine_dir.glob("*"))),
            "leases": len(self.leases.active()),
        }

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return self.index.count()

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r}, entries={len(self)})"

    def close(self) -> None:
        self.index.close()

    # ------------------------------------------------------------------
    # quarantine
    # ------------------------------------------------------------------

    def _quarantine(
        self, key: str, row: Dict[str, Any], data: Optional[bytes], reason: str
    ) -> None:
        """Move a damaged entry aside: evidence to ``quarantine/<key>.corrupt``, row out.

        Counted once as ``cache.corrupt_entries``, the counter the run
        ledger's resilience summary reads.
        """
        target = self.quarantine_dir / f"{key}.corrupt"
        if data is not None:
            with contextlib.suppress(OSError):
                target.write_bytes(data)
        path = self.payload_path(row["sha256"])
        with contextlib.suppress(OSError):
            os.unlink(path)
        with contextlib.suppress(StoreError):
            self.index.remove(key)
        tel = get_telemetry()
        if tel.enabled:
            tel.count("cache.corrupt_entries")
        logger.warning("store %s: quarantined entry %s (%s)", self.root, key, reason)

    # ------------------------------------------------------------------
    # verify / gc
    # ------------------------------------------------------------------

    def verify(self, repair: bool = False) -> Dict[str, Any]:
        """Re-hash every live payload; report (and optionally repair) damage.

        Returns a report with ``entries``, ``ok``, ``checksum_failures``,
        ``missing_payloads``, ``orphan_payloads``, ``quarantined`` and lease
        counts, plus the headline aliases ``checked`` (entries examined),
        ``corrupt`` (checksum failures + missing payloads) and ``orphaned``
        (orphan payload files) that ``repro store verify --json`` consumers
        key on.  With ``repair=True`` damaged entries are quarantined (same
        path a concurrent reader would take) instead of merely reported.
        """
        report: Dict[str, Any] = {
            "root": str(self.root),
            "entries": 0,
            "ok": 0,
            "checksum_failures": 0,
            "missing_payloads": 0,
            "orphan_payloads": 0,
            "quarantined": len(list(self.quarantine_dir.glob("*"))),
            "leases": {"active": 0, "stale": 0},
            "bad_keys": [],
        }
        referenced = set()
        for row in self.index.rows():
            report["entries"] += 1
            referenced.add(row["sha256"])
            path = self.payload_path(row["sha256"])
            try:
                data = path.read_bytes()
            except OSError:
                report["missing_payloads"] += 1
                report["bad_keys"].append(row["key"])
                if repair:
                    self._quarantine(row["key"], row, None, reason="missing payload")
                continue
            if _sha256(data) != row["sha256"]:
                report["checksum_failures"] += 1
                report["bad_keys"].append(row["key"])
                if repair:
                    self._quarantine(row["key"], row, data, reason="checksum mismatch")
                continue
            report["ok"] += 1
        for path in self.payloads_dir.glob("*/*.json"):
            if path.stem not in referenced:
                report["orphan_payloads"] += 1
        now = time.time()
        for state in self.leases.active():
            bucket = "stale" if self.leases.is_stale(state, now) else "active"
            report["leases"][bucket] += 1
        report["checked"] = report["entries"]
        report["corrupt"] = report["checksum_failures"] + report["missing_payloads"]
        report["orphaned"] = report["orphan_payloads"]
        report["clean"] = report["corrupt"] == 0
        return report

    def gc(self) -> Dict[str, int]:
        """Sweep garbage: orphan payloads, temp files, stale leases.

        Orphans are payload files no index row references — the debris of a
        crash between payload write and index commit, or of replaced
        entries.  Never touches live data, so it is safe to run while
        campaigns are active: temp files and unreferenced payloads younger
        than the lease TTL are left alone, because they may belong to a
        publish in flight (a runner publishes while it holds a lease, and a
        lease older than its TTL can be stolen anyway).
        """
        cutoff_s = time.time() - self.leases.ttl_s
        referenced = self.index.referenced_hashes()
        swept = {"orphan_payloads": 0, "tmp_files": 0, "stale_leases": 0}
        for path in list(self.payloads_dir.glob("*/*.json")):
            if path.stem in referenced or _modified_after(path, cutoff_s):
                continue
            if path.stem not in self.index.referenced_hashes():
                with contextlib.suppress(OSError):
                    os.unlink(path)
                    swept["orphan_payloads"] += 1
        for path in list(self.payloads_dir.glob("*/*.tmp")):
            if _modified_after(path, cutoff_s):
                continue
            with contextlib.suppress(OSError):
                os.unlink(path)
                swept["tmp_files"] += 1
        swept["stale_leases"] = self.leases.sweep()
        return swept

    # ------------------------------------------------------------------
    # chaos hook
    # ------------------------------------------------------------------

    def hold_write_lock(self, duration_s: float) -> None:
        """Hold the index write lock for ``duration_s`` (chaos harness).

        Used by the ``lock-hold`` injected fault to manufacture real
        ``database is locked`` contention for concurrent writers, proving
        the seeded retry path end to end.
        """
        with self.index.write("lock-hold"):
            time.sleep(duration_s)


# ----------------------------------------------------------------------
# migration
# ----------------------------------------------------------------------


def migrate_legacy_cache(
    root: Union[str, Path], lease_ttl_s: float = DEFAULT_LEASE_TTL_S
) -> Dict[str, Any]:
    """Convert a legacy per-file result cache directory in place.

    Every readable ``<key>.json`` entry is published into a fresh store at
    the same root (content-addressed payload + index row) and the legacy
    file removed; unparseable legacy entries move to ``quarantine/``; legacy
    ``<key>.corrupt`` quarantine files move along unchanged.  Only files
    whose stem is a hex key are legacy entries: any other ``*.json`` file
    (a spec, an export) stays in place and is counted as ``skipped``.
    Idempotent — re-running on a migrated (or partially migrated) directory
    only processes what is left.
    """
    root = Path(root)
    if not root.is_dir():
        raise StoreError(f"cannot migrate {root}: not a directory")
    store = ResultStore(root, lease_ttl_s=lease_ttl_s)
    report = {"root": str(root), "migrated": 0, "quarantined": 0, "skipped": 0}
    for path in sorted(root.glob("*.json")):
        key = path.stem
        if not is_hex_key(key):
            report["skipped"] += 1
            continue
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            payload = None
        if not isinstance(payload, dict):
            with contextlib.suppress(OSError):
                os.replace(path, store.quarantine_dir / f"{key}.corrupt")
            report["quarantined"] += 1
            continue
        store.put(key, payload, spec_name=payload.get("spec_name"))
        with contextlib.suppress(OSError):
            os.unlink(path)
        report["migrated"] += 1
    for path in sorted(root.glob("*.corrupt")):
        with contextlib.suppress(OSError):
            os.replace(path, store.quarantine_dir / path.name)
            report["quarantined"] += 1
    report["entries"] = len(store)
    store.close()
    return report
