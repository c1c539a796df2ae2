"""Content-addressed on-disk cache for campaign job results.

Every campaign point hashes its materialised configuration together with the
library version (:func:`repro.campaign.spec.point_key`); the cache stores one
result payload per key in a :class:`~repro.store.ResultStore`: a
crash-consistent sqlite index over checksummed, content-addressed payload
files, safe for concurrent writer processes, with advisory point leases
(``cache.store.leases``) so concurrent campaigns partition a sweep instead of
duplicating it.  A damaged entry reads as a miss and is quarantined to
``quarantine/<key>.corrupt``, so the point is recomputed.

Opening a cache raises :class:`~repro.errors.StoreUnavailableError` when the
root cannot host a store, and when it still holds a per-file cache of
``<key>.json`` entries: ``repro store migrate DIR`` converts such a directory,
and no store is ever built on top of one.  The CLI turns either error into a
warning and runs without a cache.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..errors import CampaignError, StoreUnavailableError
from ..store import DEFAULT_LEASE_TTL_S, ResultStore, is_store_dir
from ..store.store import is_hex_key


def _checked(key: str) -> str:
    if not is_hex_key(key):
        raise CampaignError(f"invalid cache key {key!r}; expected a hex digest")
    return key


class ResultCache:
    """Campaign results keyed by content hash, held in one :class:`~repro.store.ResultStore`.

    ``backend`` only accepts ``"store"``, the one backend there is.
    """

    def __init__(
        self,
        root: Union[str, Path],
        backend: str = "store",
        lease_ttl_s: Optional[float] = None,
    ):
        if backend != "store":
            raise CampaignError(f"unknown cache backend {backend!r}; the result store is the only one")
        self.root = Path(root)
        if not is_store_dir(self.root) and any(is_hex_key(path.stem) for path in self.root.glob("*.json")):
            raise StoreUnavailableError(
                f"{self.root} holds a legacy per-file result cache; "
                f"convert it with `repro store migrate {self.root}`"
            )
        self.store = ResultStore(
            self.root, lease_ttl_s=lease_ttl_s if lease_ttl_s is not None else DEFAULT_LEASE_TTL_S
        )

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the cached payload for ``key``, or ``None`` on a miss.

        A damaged entry (checksum mismatch, missing or unparseable payload)
        counts as a miss, so a damaged cache degrades to recomputation
        instead of failing the campaign; the store quarantines it so the
        recomputed result can land cleanly and the evidence survives.
        """
        return self.store.get(_checked(key))

    def put(self, key: str, payload: Dict[str, Any]) -> Path:
        """Publish ``payload`` under ``key``; returns the payload path.

        Raises :class:`~repro.errors.StoreError` when the publish fails.
        """
        return self.store.put(_checked(key), payload, spec_name=payload.get("spec_name"))

    def stats(self) -> Dict[str, Any]:
        """Entry count, total size, quarantined-entry and lease counts."""
        return self.store.stats()
