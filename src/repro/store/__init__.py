"""Concurrent-safe shared result store.

This package is the shared-state substrate of the campaign stack: a
directory that multiple ``campaign run`` processes (and, ahead, the serving
layer's refinement workers) read, write and cooperatively compute into at
once.

* :class:`~repro.store.store.ResultStore` — crash-consistent sqlite index
  (WAL mode, ``BEGIN IMMEDIATE`` writes, seeded lock-contention retries)
  over content-addressed payload files with per-entry SHA-256 checksums, so
  torn payloads are detected and quarantined rather than trusted.
* :class:`~repro.store.lease.LeaseManager` — advisory point leases (pid +
  expiry lock files with stale-steal after a liveness probe) that let N
  concurrent campaigns partition one sweep instead of duplicating it.
* :meth:`~repro.store.store.ResultStore.verify` /
  :meth:`~repro.store.store.ResultStore.gc` — the operational pair behind
  ``repro store verify|gc``.

:class:`~repro.campaign.cache.ResultCache` is the campaign-facing front of
one :class:`~repro.store.store.ResultStore`; every result cache is a store.
The CLI turns a store that cannot be opened into a warning and a run without
a cache.
"""

from ..errors import StoreError, StoreUnavailableError
from .index import INDEX_FILENAME, SCHEMA_VERSION, SqliteIndex
from .lease import DEFAULT_LEASE_TTL_S, LeaseManager, LeaseState
from .store import (
    LEASES_DIRNAME,
    PAYLOADS_DIRNAME,
    QUARANTINE_DIRNAME,
    ResultStore,
    is_store_dir,
)

__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "INDEX_FILENAME",
    "LEASES_DIRNAME",
    "PAYLOADS_DIRNAME",
    "QUARANTINE_DIRNAME",
    "SCHEMA_VERSION",
    "LeaseManager",
    "LeaseState",
    "ResultStore",
    "SqliteIndex",
    "StoreError",
    "StoreUnavailableError",
    "is_store_dir",
]
