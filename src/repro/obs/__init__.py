"""Opt-in observability: telemetry metrics, span tracing, run manifests.

The subsystem is disabled by default and has one observer context: the
process-wide :class:`Telemetry`.  Instrumented code asks for it and pays one
attribute check when it is off; the numerics watchdog, the determinism
audit trail and the live heartbeat are all reached through it::

    from repro.obs import get_telemetry

    tel = get_telemetry()
    if tel.enabled:
        tel.count("solver.solves")
        tel.numerics.check_array("solver.solve", "node_voltages_v", voltages)
        if tel.audit is not None:
            tel.audit.record("solver.operating_point", arrays={"v": voltages})

Enable it for a scope with :func:`telemetry_capture` (or globally with
:func:`enable_telemetry`), then export::

    from repro.obs import telemetry_capture, render_report

    with telemetry_capture() as tel:
        engine.run()
    print(render_report(tel.snapshot()))

Audit trail and heartbeat are optional attributes of the context,
``telemetry_capture(Telemetry(audit=AuditTrail(), heartbeat=writer))``; the
numerics watchdog is on whenever telemetry is.

The ``repro profile <cmd...>`` CLI wraps any subcommand in exactly this
pattern, and ``--telemetry out.json`` on ``mc run`` / ``mc map`` /
``campaign run`` writes the snapshot without changing the command's output.

On top of the in-process layer sit the cross-run surfaces: the run ledger
(:mod:`repro.obs.store` — every CLI run's snapshot persisted under the obs
dir, ``repro obs runs/show/diff``), live heartbeat monitoring
(:mod:`repro.obs.live` — ``campaign status --follow`` / ``repro obs top``)
and the benchmark regression gate (:mod:`repro.obs.regress` —
``repro obs check-bench``).
"""

from .audit import (
    VOLATILE_KEYS,
    AuditTrail,
    canonical_array_bytes,
    diff_audit_streams,
    fingerprint,
    payload_max_abs_diff,
    read_audit_stream,
    render_audit_diff,
    spawn_digest,
    strip_volatile,
    write_audit_stream,
)
from .live import (
    HeartbeatWriter,
    find_heartbeats,
    follow_heartbeat,
    read_heartbeat,
    render_heartbeat,
)
from .manifest import MANIFEST_SCHEMA_VERSION, build_manifest, telemetry_summary
from .regress import (
    BASELINES_FILENAME,
    HISTORY_FILENAME,
    CheckResult,
    append_history,
    check_bench,
    gate_passed,
    load_baselines,
    load_bench_records,
    load_history,
    render_check_report,
)
from .store import (
    DEFAULT_OBS_DIR,
    OBS_DIR_ENV,
    RunEntry,
    RunLedger,
    default_obs_dir,
    diff_snapshots,
    new_run_id,
    numerics_counts,
    render_diff,
    render_runs_table,
    resilience_counts,
)
from .spans import (
    SpanAggregate,
    SpanRecord,
    aggregate_spans,
    find_span,
    spans_from_snapshot,
    total_wall_s,
)
from .export import (
    render_aggregate_table,
    render_metrics,
    render_report,
    render_span_table,
    write_snapshot,
)
from .numerics import NumericsWatchdog
from .telemetry import (
    BINS_PER_DECADE,
    MAX_EVENTS_PER_NAME,
    NULL_TELEMETRY,
    LogHistogram,
    NullTelemetry,
    Telemetry,
    disable_telemetry,
    enable_telemetry,
    get_telemetry,
    telemetry_capture,
    telemetry_enabled,
)

__all__ = [
    "BASELINES_FILENAME",
    "BINS_PER_DECADE",
    "DEFAULT_OBS_DIR",
    "HISTORY_FILENAME",
    "MANIFEST_SCHEMA_VERSION",
    "MAX_EVENTS_PER_NAME",
    "NULL_TELEMETRY",
    "OBS_DIR_ENV",
    "VOLATILE_KEYS",
    "AuditTrail",
    "CheckResult",
    "HeartbeatWriter",
    "LogHistogram",
    "NullTelemetry",
    "NumericsWatchdog",
    "RunEntry",
    "RunLedger",
    "SpanAggregate",
    "SpanRecord",
    "Telemetry",
    "aggregate_spans",
    "append_history",
    "canonical_array_bytes",
    "build_manifest",
    "check_bench",
    "default_obs_dir",
    "diff_audit_streams",
    "diff_snapshots",
    "disable_telemetry",
    "enable_telemetry",
    "find_heartbeats",
    "fingerprint",
    "payload_max_abs_diff",
    "read_audit_stream",
    "render_audit_diff",
    "spawn_digest",
    "strip_volatile",
    "write_audit_stream",
    "find_span",
    "follow_heartbeat",
    "gate_passed",
    "get_telemetry",
    "load_baselines",
    "load_bench_records",
    "load_history",
    "new_run_id",
    "numerics_counts",
    "read_heartbeat",
    "render_aggregate_table",
    "render_check_report",
    "render_diff",
    "render_heartbeat",
    "render_metrics",
    "render_report",
    "render_runs_table",
    "render_span_table",
    "resilience_counts",
    "spans_from_snapshot",
    "telemetry_capture",
    "telemetry_enabled",
    "telemetry_summary",
    "total_wall_s",
    "write_snapshot",
]
