"""Crash-consistent sqlite index over the shared result store.

One sqlite database (``index.sqlite`` under the store root) maps cache keys
to content-addressed payload files plus their SHA-256 checksums.  The index
is the store's source of truth: a key exists iff its row exists, and a
payload is live iff some row references its hash.

Crash consistency and concurrency come from sqlite itself, used carefully:

* **WAL mode** — readers never block writers and vice versa, and a torn
  process mid-commit leaves the database recoverable (the WAL replays or
  rolls back on the next open).
* **``BEGIN IMMEDIATE`` writes** — every mutation takes the write lock up
  front, so lock contention surfaces deterministically as
  ``sqlite3.OperationalError: database is locked`` at transaction start
  instead of as a mid-transaction upgrade deadlock.
* **Seeded contention retries** — ``busy_timeout`` is 0 and lock errors are
  retried under a :class:`~repro.faults.retry.RetryPolicy`, so backoff under
  contention is bit-reproducible like every other delay in the campaign
  stack.  ``sqlite3.OperationalError`` is registered retryable, so a lock
  error that escapes all the way to a campaign point still classifies as
  transient.

Connections are per-process: a :class:`SqliteIndex` inherited across
``fork()`` lazily reopens, because sharing one sqlite connection across
processes is undefined behaviour.
"""

from __future__ import annotations

import os
import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from ..errors import StoreError, StoreUnavailableError
from ..faults.retry import RetryPolicy, register_retryable
from ..obs import get_telemetry

# A campaign point that dies on a locked index is worth retrying: the lock
# holder finishes.  (Other OperationalErrors — unusable database file, disk
# I/O error — are rare enough that one extra retry round is harmless.)
register_retryable(sqlite3.OperationalError)

#: File name of the index database under a store root.
INDEX_FILENAME = "index.sqlite"

#: Current on-disk schema version (``meta.schema_version``).
SCHEMA_VERSION = 1

# Individual statements: sqlite3's executescript() would implicitly commit
# the surrounding BEGIN IMMEDIATE transaction, so the schema is applied
# statement by statement inside one write transaction instead.
_SCHEMA = (
    """CREATE TABLE IF NOT EXISTS entries (
           key        TEXT PRIMARY KEY,
           sha256     TEXT NOT NULL,
           size       INTEGER NOT NULL,
           created_s  REAL NOT NULL,
           spec_name  TEXT
       )""",
    "CREATE INDEX IF NOT EXISTS entries_by_sha ON entries(sha256)",
    """CREATE TABLE IF NOT EXISTS meta (
           name  TEXT PRIMARY KEY,
           value TEXT NOT NULL
       )""",
)


def _default_retry() -> RetryPolicy:
    """Contention-retry schedule: ~8 attempts spanning a few seconds.

    Cumulative worst-case wait is ~2.5 s plus jitter — comfortably longer
    than any sane index transaction (including the injected ``lock-hold``
    chaos fault), short enough that a truly wedged database surfaces fast.
    """
    return RetryPolicy(
        max_attempts=8, base_delay_s=0.02, backoff_factor=2.0, max_delay_s=0.75, jitter=0.5
    )


def _is_lock_error(exc: sqlite3.OperationalError) -> bool:
    text = str(exc).lower()
    return "locked" in text or "busy" in text


class SqliteIndex:
    """The store's key → (payload hash, checksum, metadata) table.

    All mutations go through :meth:`write`, a ``BEGIN IMMEDIATE`` transaction
    with seeded lock retries; reads are plain WAL-snapshot selects.  Raises
    :class:`~repro.errors.StoreUnavailableError` when the database cannot be
    opened or initialised at all, and :class:`~repro.errors.StoreError` when
    a write cannot acquire the lock within the retry budget.
    """

    def __init__(self, path: Union[str, Path], retry: Optional[RetryPolicy] = None):
        self.path = Path(path)
        self.retry = retry if retry is not None else _default_retry()
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        try:
            self._initialise()
        except (sqlite3.Error, OSError) as exc:
            raise StoreUnavailableError(
                f"cannot open store index {self.path}: {type(exc).__name__}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), timeout=0.0, isolation_level=None)
        conn.row_factory = sqlite3.Row
        # Contention is handled by our own seeded retries, not sqlite's
        # unseeded internal sleep loop.
        conn.execute("PRAGMA busy_timeout = 0")
        conn.execute("PRAGMA synchronous = NORMAL")
        return conn

    def connection(self) -> sqlite3.Connection:
        """The per-process connection, reopened after a ``fork()``."""
        pid = os.getpid()
        if self._conn is None or self._conn_pid != pid:
            if self._conn is not None and self._conn_pid == pid:
                self._conn.close()
            self._conn = self._connect()
            self._conn_pid = pid
        return self._conn

    def _initialise(self) -> None:
        """Enter WAL mode and apply the schema, retrying lock errors.

        Initialisation is idempotent, so a lock error at any statement (the
        journal-mode pragma, the schema, the ``COMMIT``) rolls back what is
        open and starts it over under the same seeded :class:`RetryPolicy`
        as :meth:`write`.
        """
        attempt = 0
        while True:
            try:
                self._initialise_once()
                return
            except sqlite3.OperationalError as exc:
                if not _is_lock_error(exc):
                    raise
                conn = self.connection()
                if conn.in_transaction:
                    conn.execute("ROLLBACK")
                attempt += 1
                if attempt >= self.retry.max_attempts:
                    raise
                self._wait_for_lock(attempt, "open")

    def _wait_for_lock(self, attempt: int, key: str) -> None:
        """Sleep the seeded backoff before lock retry ``attempt`` of ``key``."""
        delay = self.retry.delay_s(attempt, key=f"index-lock:{key}")
        tel = get_telemetry()
        if tel.enabled:
            tel.count("store.lock_waits")
            tel.observe("store.lock_wait_s", delay)
        time.sleep(delay)

    def _initialise_once(self) -> None:
        conn = self.connection()
        # Entering WAL needs a moment of exclusive access; a concurrent
        # opener mid-write is transient, so let sqlite's own busy loop ride
        # it out here (init only — determinism doesn't care about open time).
        conn.execute("PRAGMA busy_timeout = 5000")
        try:
            mode = conn.execute("PRAGMA journal_mode = WAL").fetchone()[0]
        finally:
            conn.execute("PRAGMA busy_timeout = 0")
        if str(mode).lower() != "wal":
            # Filesystems without shared-memory support (some network mounts)
            # refuse WAL; the store's crash-consistency story depends on it.
            raise StoreUnavailableError(
                f"store index {self.path} cannot enter WAL mode (got {mode!r})"
            )
        with self.write("schema") as cur:
            for statement in _SCHEMA:
                cur.execute(statement)
            row = cur.execute("SELECT value FROM meta WHERE name = 'schema_version'").fetchone()
            if row is None:
                cur.execute(
                    "INSERT INTO meta (name, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
            elif int(row[0]) > SCHEMA_VERSION:
                raise StoreUnavailableError(
                    f"store index {self.path} has schema version {row[0]} "
                    f"(this library understands <= {SCHEMA_VERSION})"
                )

    def close(self) -> None:
        """Close the per-process connection (reopened lazily on next use)."""
        if self._conn is not None and self._conn_pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._conn_pid = None

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    @contextmanager
    def write(self, key: str = "") -> Iterator[sqlite3.Cursor]:
        """A ``BEGIN IMMEDIATE`` write transaction with seeded lock retries.

        ``key`` decorrelates the backoff streams of concurrent writers (it
        feeds the :class:`RetryPolicy`'s jitter spawn key), so two processes
        colliding on the lock do not re-collide in lockstep.
        """
        conn = self.connection()
        attempt = 0
        while True:
            try:
                conn.execute("BEGIN IMMEDIATE")
                break
            except sqlite3.OperationalError as exc:
                if not _is_lock_error(exc):
                    raise StoreError(f"store index {self.path}: {exc}") from exc
                attempt += 1
                if attempt >= self.retry.max_attempts:
                    raise StoreError(
                        f"store index {self.path} is locked "
                        f"(gave up after {attempt} attempts)"
                    ) from exc
                self._wait_for_lock(attempt, key)
        cur = conn.cursor()
        try:
            yield cur
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        else:
            conn.execute("COMMIT")
        finally:
            cur.close()

    # ------------------------------------------------------------------
    # entry operations
    # ------------------------------------------------------------------

    def upsert(
        self,
        key: str,
        sha256: str,
        size: int,
        spec_name: Optional[str] = None,
        created_s: Optional[float] = None,
    ) -> None:
        """Insert or replace one entry row (last writer wins per key)."""
        if created_s is None:
            created_s = time.time()
        with self.write(key) as cur:
            cur.execute(
                "INSERT OR REPLACE INTO entries (key, sha256, size, created_s, spec_name) "
                "VALUES (?, ?, ?, ?, ?)",
                (key, sha256, int(size), float(created_s), spec_name),
            )

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The entry row for ``key`` as a plain dict, or None."""
        row = (
            self.connection()
            .execute("SELECT * FROM entries WHERE key = ?", (key,))
            .fetchone()
        )
        return dict(row) if row is not None else None

    def remove(self, key: str) -> bool:
        """Drop one entry row; True if it existed."""
        with self.write(key) as cur:
            cur.execute("DELETE FROM entries WHERE key = ?", (key,))
            return cur.rowcount > 0

    def keys(self) -> List[str]:
        """All keys, sorted (stable across processes for a given content)."""
        rows = self.connection().execute("SELECT key FROM entries ORDER BY key").fetchall()
        return [row[0] for row in rows]

    def rows(self) -> List[Dict[str, Any]]:
        """All entry rows as plain dicts, ordered by key."""
        rows = self.connection().execute("SELECT * FROM entries ORDER BY key").fetchall()
        return [dict(row) for row in rows]

    def count(self) -> int:
        return int(self.connection().execute("SELECT COUNT(*) FROM entries").fetchone()[0])

    def total_bytes(self) -> int:
        value = self.connection().execute("SELECT COALESCE(SUM(size), 0) FROM entries").fetchone()[0]
        return int(value)

    def references(self, sha256: str) -> int:
        """How many entries reference one content hash (payload liveness)."""
        return int(
            self.connection()
            .execute("SELECT COUNT(*) FROM entries WHERE sha256 = ?", (sha256,))
            .fetchone()[0]
        )

    def referenced_hashes(self) -> set:
        rows = self.connection().execute("SELECT DISTINCT sha256 FROM entries").fetchall()
        return {row[0] for row in rows}

    def __len__(self) -> int:
        return self.count()

    def __repr__(self) -> str:
        return f"SqliteIndex({str(self.path)!r})"
