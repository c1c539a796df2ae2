"""Determinism audit trail: order-stable fingerprints at stage boundaries.

Every layer since the campaign engine stakes its correctness on
bit-reproducibility — spawn-keyed RNG trees, bit-identical retries,
zero-duplicate shared-store sweeps — yet none of it *observes* that
invariant.  This module records SHA-256 fingerprints of the numerical
payloads crossing stage boundaries (per-solve operating points, transient
trace segments, Monte-Carlo population draws and batch estimates, per-point
campaign payloads) into an opt-in :class:`AuditTrail` that rides on the
active telemetry (``Telemetry(audit=trail)``), streams them next to the run
ledger, and diffs two runs' streams to pinpoint the first divergent stage.

Design rules that make the streams comparable across executions:

* **Canonical bytes.**  Arrays are fingerprinted as C-contiguous float64
  (or their native integer/bool dtype) bytes prefixed with dtype and shape,
  so layout and view differences cannot alias two distinct populations.
  Nested payload dicts are fingerprinted as sorted-key JSON with volatile
  timing/manifest keys stripped (:data:`VOLATILE_KEYS`) — wall-clock fields
  are real but meaningless for determinism.
* **Order-stable keys.**  Records carry a stable identity (point index,
  batch index, RNG spawn-key digest) rather than a completion order; the
  campaign runner emits its per-point records sorted by index after the
  sweep, so serial, pool and multi-process shared-store executions of one
  seeded spec produce byte-identical streams.
* **Opt-in through telemetry.**  Sites reach the trail as ``tel.audit``
  behind the one ``tel.enabled`` check; a job-local telemetry carries no
  trail, so in-process jobs never leak records into the parent's stream.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ReproError
from ..utils.rng import SpawnKey, _key_to_int

#: Payload keys stripped before fingerprinting: measured wall-clock times and
#: host-specific manifests differ between bit-identical runs by construction.
VOLATILE_KEYS = frozenset(
    {
        "duration_s",
        "engine_duration_s",
        "compute_duration_s",
        "cached_duration_s",
        "elapsed_s",
        "wall_clock_s",
        "manifest",
        "telemetry",
    }
)

AUDIT_STREAM_KIND = "repro-audit"
AUDIT_STREAM_VERSION = 1


# ----------------------------------------------------------------------
# canonicalization + fingerprints
# ----------------------------------------------------------------------


def canonical_array_bytes(values: Any) -> bytes:
    """Canonical bytes of one array: dtype + shape header, C-order data.

    Float arrays are normalized to float64 so float32 intermediates cannot
    masquerade as a distinct population; integer and bool arrays keep their
    native width (their bit patterns are already exact).
    """
    array = np.asarray(values)
    if array.dtype.kind == "f" and array.dtype != np.float64:
        array = array.astype(np.float64)
    elif array.dtype.kind == "c":
        array = array.astype(np.complex128)
    array = np.ascontiguousarray(array)
    header = f"{array.dtype.str}|{array.shape}|".encode("ascii")
    return header + array.tobytes()


def strip_volatile(payload: Any, volatile: frozenset = VOLATILE_KEYS) -> Any:
    """Recursively drop volatile keys from a JSON-able payload."""
    if isinstance(payload, dict):
        return {
            key: strip_volatile(value, volatile)
            for key, value in payload.items()
            if key not in volatile
        }
    if isinstance(payload, (list, tuple)):
        return [strip_volatile(item, volatile) for item in payload]
    return payload


def fingerprint(
    arrays: Optional[Dict[str, Any]] = None, payload: Any = None
) -> str:
    """SHA-256 hex digest over canonicalized arrays and/or a JSON payload."""
    digest = hashlib.sha256()
    if arrays:
        for name in sorted(arrays):
            digest.update(name.encode("utf-8") + b"\x00")
            digest.update(canonical_array_bytes(arrays[name]))
    if payload is not None:
        canonical = json.dumps(
            strip_volatile(payload), sort_keys=True, separators=(",", ":"), default=str
        )
        digest.update(b"payload\x00" + canonical.encode("utf-8"))
    return digest.hexdigest()


def spawn_digest(seed: int, *spawn_key: SpawnKey) -> str:
    """Stable hex digest of one RNG spawn-key path (seed included).

    Uses the same string-hashing rule as the RNG tree itself
    (:func:`repro.utils.rng._key_to_int`), so two hosts deriving the same
    stream always report the same digest.
    """
    ints = (int(seed),) + tuple(_key_to_int(key) for key in spawn_key)
    raw = b"".join(value.to_bytes(16, "big", signed=False) for value in ints)
    return hashlib.sha256(raw).hexdigest()[:16]


# ----------------------------------------------------------------------
# the trail
# ----------------------------------------------------------------------


class AuditTrail:
    """Accumulates order-stable stage fingerprints for one run."""

    def __init__(self) -> None:
        self._records: List[Dict[str, Any]] = []
        self._stage_counts: Dict[str, int] = {}

    def record(
        self,
        stage: str,
        key: Any = None,
        arrays: Optional[Dict[str, Any]] = None,
        payload: Any = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Fingerprint one stage boundary.

        ``key`` is the stage-stable identity (point index, batch index,
        spawn digest); when omitted, a per-stage sequence number is used —
        only order-stable within a single process, so keyed records are
        preferred wherever an execution can be parallel.
        """
        if key is None:
            key = self._stage_counts.get(stage, 0)
        self._stage_counts[stage] = self._stage_counts.get(stage, 0) + 1
        record = {
            "seq": len(self._records),
            "stage": stage,
            "key": key,
            "sha256": fingerprint(arrays=arrays, payload=payload),
        }
        if meta:
            record["meta"] = dict(meta)
        self._records.append(record)
        return record

    def records(self) -> List[Dict[str, Any]]:
        return list(self._records)


# ----------------------------------------------------------------------
# stream persistence (rides next to the run ledger)
# ----------------------------------------------------------------------


def write_audit_stream(
    path: Union[str, Path],
    records: Sequence[Dict[str, Any]],
    run_id: Optional[str] = None,
    label: Optional[str] = None,
) -> Path:
    """Write one fingerprint stream as JSONL (header line + one per record)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "kind": AUDIT_STREAM_KIND,
        "version": AUDIT_STREAM_VERSION,
        "records": len(records),
    }
    if run_id:
        header["run_id"] = run_id
    if label:
        header["label"] = label
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(record, sort_keys=True) for record in records)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    tmp.replace(path)
    return path


def read_audit_stream(path: Union[str, Path]) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read one fingerprint stream; returns ``(header, records)``."""
    path = Path(path)
    if not path.exists():
        raise ReproError(f"no audit stream at {path}")
    header: Dict[str, Any] = {}
    records: List[Dict[str, Any]] = []
    with path.open() as handle:
        for line_no, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            if line_no == 0 and entry.get("kind") == AUDIT_STREAM_KIND:
                header = entry
            else:
                records.append(entry)
    return header, records


# ----------------------------------------------------------------------
# the divergence differ
# ----------------------------------------------------------------------


def _identity(record: Dict[str, Any]) -> Tuple[str, str]:
    key = record.get("key")
    return str(record.get("stage")), json.dumps(key, sort_keys=True, default=str)


def diff_audit_streams(
    a_records: Sequence[Dict[str, Any]], b_records: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Walk two fingerprint streams and pinpoint the first divergence.

    Records are compared pairwise in stream order: a mismatched stage/key
    pair means the runs took different stage sequences; matching identities
    with different fingerprints mean the same stage produced different
    numbers (the interesting case — the record's key names the exact
    point/batch/solve).  Returns a JSON-able report with the first
    divergence and total mismatch count.
    """
    report: Dict[str, Any] = {
        "identical": True,
        "a_records": len(a_records),
        "b_records": len(b_records),
        "compared": min(len(a_records), len(b_records)),
        "divergent": 0,
        "first_divergence": None,
    }

    def note(position: int, reason: str, a: Optional[dict], b: Optional[dict]) -> None:
        report["identical"] = False
        report["divergent"] += 1
        if report["first_divergence"] is None:
            report["first_divergence"] = {
                "position": position,
                "reason": reason,
                "stage": (a or b or {}).get("stage"),
                "key": (a or b or {}).get("key"),
                "a": a,
                "b": b,
            }

    for position in range(report["compared"]):
        a, b = a_records[position], b_records[position]
        if _identity(a) != _identity(b):
            note(position, "stage-mismatch", a, b)
        elif a.get("sha256") != b.get("sha256"):
            note(position, "fingerprint", a, b)
    if len(a_records) != len(b_records):
        longer = a_records if len(a_records) > len(b_records) else b_records
        missing_in = "b" if len(a_records) > len(b_records) else "a"
        extra = longer[report["compared"]]
        note(report["compared"], f"missing-in-{missing_in}", dict(extra), None)
    return report


def payload_max_abs_diff(a: Any, b: Any, path: str = "") -> Optional[Tuple[float, str]]:
    """Largest absolute numeric difference between two parallel payloads.

    Walks dicts/lists in parallel; returns ``(max_abs_diff, dotted path)``
    or ``None`` when no comparable numeric leaf differs.  Structure
    mismatches count as an infinite difference at the mismatching path.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        best: Optional[Tuple[float, str]] = None
        for key in sorted(set(a) | set(b)):
            sub_path = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                return (float("inf"), sub_path)
            candidate = payload_max_abs_diff(a[key], b[key], sub_path)
            if candidate and (best is None or candidate[0] > best[0]):
                best = candidate
        return best
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return (float("inf"), f"{path}[len]")
        best = None
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            candidate = payload_max_abs_diff(item_a, item_b, f"{path}[{index}]")
            if candidate and (best is None or candidate[0] > best[0]):
                best = candidate
        return best
    numeric = (int, float)
    if isinstance(a, numeric) and isinstance(b, numeric) and not isinstance(a, bool) and not isinstance(b, bool):
        delta = abs(float(a) - float(b))
        return (delta, path) if delta > 0.0 else None
    if a != b:
        return (float("inf"), path)
    return None


def render_audit_diff(report: Dict[str, Any], a_name: str = "A", b_name: str = "B") -> str:
    """Human rendering of a :func:`diff_audit_streams` report."""
    lines = [
        f"audit streams: {a_name} ({report['a_records']} records) vs "
        f"{b_name} ({report['b_records']} records)"
    ]
    if report["identical"]:
        lines.append("IDENTICAL: every stage fingerprint matches")
        return "\n".join(lines)
    first = report["first_divergence"]
    lines.append(
        f"DIVERGENT: {report['divergent']} of {report['compared']} compared records differ"
    )
    lines.append(
        f"first divergence at position {first['position']}: "
        f"stage={first['stage']!r} key={first['key']!r} ({first['reason']})"
    )
    for name, record in (("a", first.get("a")), ("b", first.get("b"))):
        if record is None:
            lines.append(f"  {name}: (no record)")
            continue
        meta = record.get("meta")
        suffix = f" meta={json.dumps(meta, sort_keys=True, default=str)}" if meta else ""
        lines.append(f"  {name}: sha256={record.get('sha256', '')[:16]}…{suffix}")
    context = report.get("context")
    if context:
        lines.append(
            f"  payload max-abs-diff {context['max_abs_diff']:.6g} at {context['path']!r}"
        )
    return "\n".join(lines)
