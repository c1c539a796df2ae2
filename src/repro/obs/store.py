"""The run ledger: an append-only on-disk store of telemetry across runs.

One-shot telemetry (PR 6) dies with its process; the ledger is what makes it
an operational record.  Every ``campaign run`` / ``mc run`` / ``mc map`` /
``profile`` invocation appends one line to ``<obs dir>/ledger.jsonl`` — run
id, command, status, duration, headline counters — and writes the full
telemetry snapshot plus reproducibility manifest to
``<obs dir>/runs/<run id>.json``.  Both writes are atomic (single
``O_APPEND`` write for the index line, temp-file-plus-rename for the
snapshot), so concurrent runs sharing one obs dir cannot corrupt each other
and a crash mid-write never leaves a truncated entry.

The obs dir defaults to ``.repro-obs`` and is overridden by the
``REPRO_OBS_DIR`` environment variable or the CLI's ``--obs-dir`` flag.
``repro obs runs`` lists the ledger, ``repro obs show RUN`` renders one
entry's snapshot and ``repro obs diff RUN_A RUN_B`` reports counter, gauge
and span-aggregate deltas between two entries.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..errors import ReproError
from .export import write_snapshot
from .spans import aggregate_spans, spans_from_snapshot

#: Environment variable overriding the default obs directory.
OBS_DIR_ENV = "REPRO_OBS_DIR"

#: Default obs directory (relative to the working directory).
DEFAULT_OBS_DIR = ".repro-obs"

#: Counters promoted into the ledger index line so ``repro obs runs`` can
#: summarise work done without opening every snapshot file.
INDEX_COUNTERS = (
    "campaign.points",
    "campaign.cache.hits",
    "campaign.cache.misses",
    "mc.samples",
    "mc.arrays",
    "solver.solves",
    "adaptive.batches",
)


def default_obs_dir() -> Path:
    """The obs directory: ``$REPRO_OBS_DIR`` or ``.repro-obs``."""
    return Path(os.environ.get(OBS_DIR_ENV) or DEFAULT_OBS_DIR)


def new_run_id() -> str:
    """A sortable, collision-safe run id: UTC timestamp plus random suffix."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


@dataclass
class RunEntry:
    """One line of the ledger index."""

    run_id: str
    command: str
    label: str = ""
    spec_name: Optional[str] = None
    status: str = "ok"  # "ok" | "error" | "interrupted"
    started_unix_s: float = 0.0
    duration_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    snapshot_file: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "run_id": self.run_id,
            "command": self.command,
            "label": self.label,
            "status": self.status,
            "started_unix_s": self.started_unix_s,
            "duration_s": self.duration_s,
            "counters": dict(self.counters),
        }
        if self.spec_name is not None:
            payload["spec_name"] = self.spec_name
        if self.snapshot_file is not None:
            payload["snapshot_file"] = self.snapshot_file
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunEntry":
        return cls(
            run_id=str(payload["run_id"]),
            command=str(payload.get("command", "")),
            label=str(payload.get("label", "")),
            spec_name=payload.get("spec_name"),
            status=str(payload.get("status", "ok")),
            started_unix_s=float(payload.get("started_unix_s", 0.0)),
            duration_s=float(payload.get("duration_s", 0.0)),
            counters={k: float(v) for k, v in payload.get("counters", {}).items()},
            snapshot_file=payload.get("snapshot_file"),
        )


class RunLedger:
    """Append-only run store under one obs directory.

    Layout::

        <root>/ledger.jsonl         # one index line per recorded run
        <root>/runs/<run_id>.json   # full snapshot + manifest per run
        <root>/live/<run_id>.json   # heartbeat files (see repro.obs.live)
        <root>/audit/<run_id>.jsonl # fingerprint streams (see repro.obs.audit)
    """

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_obs_dir()
        if self.root.exists() and not self.root.is_dir():
            raise ReproError(f"obs directory {self.root} exists and is not a directory")

    @property
    def index_path(self) -> Path:
        return self.root / "ledger.jsonl"

    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    @property
    def live_dir(self) -> Path:
        return self.root / "live"

    @property
    def audit_dir(self) -> Path:
        return self.root / "audit"

    def audit_path(self, run_id: str) -> Path:
        """Where one run's determinism fingerprint stream lives (if recorded)."""
        return self.audit_dir / f"{run_id}.jsonl"

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record(
        self,
        command: str,
        snapshot: Dict[str, Any],
        run_id: Optional[str] = None,
        label: str = "",
        spec_name: Optional[str] = None,
        status: str = "ok",
        started_unix_s: Optional[float] = None,
        duration_s: Optional[float] = None,
        manifest: Optional[Dict[str, Any]] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> RunEntry:
        """Persist one run: full snapshot file plus one atomic index line."""
        run_id = run_id if run_id is not None else new_run_id()
        duration = float(
            duration_s if duration_s is not None else snapshot.get("elapsed_s", 0.0)
        )
        payload: Dict[str, Any] = {
            "run_id": run_id,
            "command": command,
            "label": label,
            "status": status,
            "started_unix_s": float(started_unix_s if started_unix_s is not None else time.time()),
            "duration_s": duration,
            **snapshot,
        }
        if spec_name is not None:
            payload["spec_name"] = spec_name
        if manifest is not None:
            payload["manifest"] = manifest
        if extra:
            payload.update(extra)
        snapshot_path = self.runs_dir / f"{run_id}.json"
        write_snapshot(snapshot_path, payload)

        counters = snapshot.get("counters", {})
        entry = RunEntry(
            run_id=run_id,
            command=command,
            label=label,
            spec_name=spec_name,
            status=status,
            started_unix_s=payload["started_unix_s"],
            duration_s=duration,
            counters={name: float(counters[name]) for name in INDEX_COUNTERS if name in counters},
            snapshot_file=os.path.relpath(snapshot_path, self.root),
        )
        self._append_line(entry.to_dict())
        return entry

    def _append_line(self, payload: Dict[str, Any]) -> None:
        """Append one JSON line with a single O_APPEND write (atomic for
        line-sized payloads on POSIX filesystems)."""
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(payload, sort_keys=True, default=str) + "\n"
        fd = os.open(self.index_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def entries(self) -> List[RunEntry]:
        """All index entries in append (chronological) order.

        Corrupt lines (a torn write from a killed process) are skipped so a
        damaged ledger degrades to a partial listing instead of failing.
        """
        try:
            text = self.index_path.read_text(encoding="utf-8")
        except OSError:
            return []
        entries: List[RunEntry] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                entries.append(RunEntry.from_dict(payload))
            except (ValueError, KeyError, TypeError):
                continue
        return entries

    def resolve(self, ref: str) -> RunEntry:
        """Resolve a run reference: exact id, unique prefix, or ``latest``.

        ``latest`` (and ``latest~N`` for the N-th most recent) address runs
        positionally; anything else matches on the run id.
        """
        entries = self.entries()
        if not entries:
            raise ReproError(f"obs ledger {self.index_path} has no recorded runs")
        if ref == "latest" or ref.startswith("latest~"):
            back = 0
            if ref.startswith("latest~"):
                try:
                    back = int(ref.split("~", 1)[1])
                except ValueError:
                    raise ReproError(f"bad run reference {ref!r}") from None
            if back < 0 or back >= len(entries):
                raise ReproError(
                    f"run reference {ref!r} is out of range ({len(entries)} runs recorded)"
                )
            return entries[-1 - back]
        exact = [entry for entry in entries if entry.run_id == ref]
        if exact:
            return exact[-1]
        matches = [entry for entry in entries if entry.run_id.startswith(ref)]
        if not matches:
            raise ReproError(f"no recorded run matches {ref!r} (try `repro obs runs`)")
        distinct = {entry.run_id for entry in matches}
        if len(distinct) > 1:
            raise ReproError(
                f"run reference {ref!r} is ambiguous: matches {sorted(distinct)[:5]}"
            )
        return matches[-1]

    def load_snapshot(self, ref: str) -> Dict[str, Any]:
        """The full persisted payload (snapshot + manifest) of one run."""
        entry = self.resolve(ref)
        path = self.runs_dir / f"{entry.run_id}.json"
        if entry.snapshot_file is not None:
            path = self.root / entry.snapshot_file
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ReproError(f"run {entry.run_id}: snapshot file {path} is unreadable: {exc}") from exc
        except ValueError as exc:
            raise ReproError(f"run {entry.run_id}: snapshot file {path} is corrupt: {exc}") from exc


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------


def _pct(before: float, after: float) -> Optional[float]:
    if before == 0.0:
        return None
    return 100.0 * (after - before) / abs(before)


def diff_snapshots(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Structured deltas between two telemetry snapshots.

    Counters and gauge values are compared name by name; span forests are
    folded into per-name aggregates first (calls / total / exclusive time),
    so two runs of different shapes still diff meaningfully.
    """
    counters: Dict[str, Dict[str, Any]] = {}
    for name in sorted(set(a.get("counters", {})) | set(b.get("counters", {}))):
        before = float(a.get("counters", {}).get(name, 0.0))
        after = float(b.get("counters", {}).get(name, 0.0))
        counters[name] = {"a": before, "b": after, "delta": after - before, "pct": _pct(before, after)}

    gauges: Dict[str, Dict[str, Any]] = {}
    gauges_a, gauges_b = a.get("gauges", {}), b.get("gauges", {})
    for name in sorted(set(gauges_a) | set(gauges_b)):
        before = float(gauges_a.get(name, {}).get("value", 0.0))
        after = float(gauges_b.get(name, {}).get("value", 0.0))
        gauges[name] = {"a": before, "b": after, "delta": after - before, "pct": _pct(before, after)}

    spans: Dict[str, Dict[str, Any]] = {}
    agg_a = {row.name: row for row in aggregate_spans(spans_from_snapshot(a))}
    agg_b = {row.name: row for row in aggregate_spans(spans_from_snapshot(b))}
    for name in sorted(set(agg_a) | set(agg_b)):
        row_a, row_b = agg_a.get(name), agg_b.get(name)
        total_a = row_a.total_s if row_a else 0.0
        total_b = row_b.total_s if row_b else 0.0
        excl_a = row_a.exclusive_s if row_a else 0.0
        excl_b = row_b.exclusive_s if row_b else 0.0
        spans[name] = {
            "calls_a": row_a.calls if row_a else 0,
            "calls_b": row_b.calls if row_b else 0,
            "total_a": total_a,
            "total_b": total_b,
            "total_pct": _pct(total_a, total_b),
            "exclusive_a": excl_a,
            "exclusive_b": excl_b,
            "exclusive_pct": _pct(excl_a, excl_b),
        }

    elapsed_a = float(a.get("elapsed_s", 0.0))
    elapsed_b = float(b.get("elapsed_s", 0.0))
    return {
        "elapsed_s": {
            "a": elapsed_a,
            "b": elapsed_b,
            "delta": elapsed_b - elapsed_a,
            "pct": _pct(elapsed_a, elapsed_b),
        },
        "counters": counters,
        "gauges": gauges,
        "spans": spans,
    }


def _fmt_pct(pct: Optional[float]) -> str:
    return f"{pct:+8.1f}%" if pct is not None else "      new"


def render_diff(diff: Dict[str, Any], run_a: str = "A", run_b: str = "B") -> str:
    """Human-readable rendering of :func:`diff_snapshots`."""
    lines: List[str] = []
    elapsed = diff["elapsed_s"]
    lines.append(
        f"elapsed: {elapsed['a']:.3f}s -> {elapsed['b']:.3f}s "
        f"({_fmt_pct(elapsed['pct']).strip()})   [{run_a} -> {run_b}]"
    )
    if diff["counters"]:
        lines.append("")
        lines.append(f"{'counter':<42} {'a':>12} {'b':>12} {'delta':>12} {'change':>9}")
        lines.append("-" * len(lines[-1]))
        for name, row in diff["counters"].items():
            lines.append(
                f"{name:<42} {row['a']:>12g} {row['b']:>12g} "
                f"{row['delta']:>+12g} {_fmt_pct(row['pct'])}"
            )
    if diff["gauges"]:
        lines.append("")
        lines.append(f"{'gauge':<42} {'a':>12} {'b':>12} {'delta':>12} {'change':>9}")
        lines.append("-" * len(lines[-1]))
        for name, row in diff["gauges"].items():
            lines.append(
                f"{name:<42} {row['a']:>12.6g} {row['b']:>12.6g} "
                f"{row['delta']:>+12.3g} {_fmt_pct(row['pct'])}"
            )
    if diff["spans"]:
        lines.append("")
        lines.append(f"{'span (by name)':<36} {'excl a':>10} {'excl b':>10} {'change':>9}  calls")
        lines.append("-" * len(lines[-1]))
        for name, row in diff["spans"].items():
            lines.append(
                f"{name:<36} {row['exclusive_a']:>9.4f}s {row['exclusive_b']:>9.4f}s "
                f"{_fmt_pct(row['exclusive_pct'])}  {row['calls_a']}->{row['calls_b']}"
            )
    return "\n".join(lines)


def resilience_counts(snapshot: Dict[str, Any]) -> Dict[str, int]:
    """Fault-tolerance counters of one run's telemetry snapshot.

    Collects the campaign resilience counters (retries, worker crashes,
    quarantined points, pool restarts), the cache-corruption quarantines, and
    the total number of injected chaos faults — zero for each when the run
    never touched that path, so callers can test ``any(...)`` to decide
    whether the run had a resilience story worth printing.
    """
    counters = snapshot.get("counters") or {}
    return {
        "retried": int(counters.get("campaign.retries", 0)),
        "crashed": int(counters.get("campaign.crashes", 0)),
        "quarantined": int(counters.get("campaign.quarantined", 0)),
        "pool_restarts": int(counters.get("campaign.pool_restarts", 0)),
        "cache_corrupt": int(counters.get("cache.corrupt_entries", 0)),
        "faults_injected": int(
            sum(value for name, value in counters.items() if name.startswith("faults.injected."))
        ),
    }


def numerics_counts(snapshot: Dict[str, Any]) -> Dict[str, int]:
    """Numerics-health counters of one run's telemetry snapshot.

    ``checks`` is how many arrays the watchdog inspected; the other four
    count what it found (non-finite arrays, anomalous residual
    trajectories, solves near their iteration ceiling, subnormal values).
    A run with checks and all-zero findings had healthy numerics.
    """
    counters = snapshot.get("counters") or {}
    return {
        name: int(counters.get(f"numerics.{name}", 0))
        for name in ("checks", "nonfinite", "residual_anomalies", "iteration_pressure", "underflow")
    }


def render_runs_table(entries: List[RunEntry], limit: Optional[int] = None) -> str:
    """The ``repro obs runs`` listing, most recent last."""
    if not entries:
        return "(no runs recorded)"
    if limit is not None and limit > 0:
        entries = entries[-limit:]
    lines = [f"{'run id':<23} {'when (utc)':<17} {'status':<7} {'duration':>10}  command"]
    lines.append("-" * len(lines[0]))
    for entry in entries:
        when = time.strftime("%Y-%m-%d %H:%M", time.gmtime(entry.started_unix_s))
        lines.append(
            f"{entry.run_id:<23} {when:<17} {entry.status:<7} "
            f"{entry.duration_s:>9.2f}s  {entry.command}"
        )
    return "\n".join(lines)
