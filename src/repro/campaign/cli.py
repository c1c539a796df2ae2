"""`python -m repro` / `repro` — the unified reproduction command line.

Subcommands::

    repro run-fig {2a,3a,3b,3c,3d} [--save DIR] [--chart] [--workers N] [--cache DIR]
    repro campaign run SPEC.json [--workers N] [--cache DIR] [--no-cache]
                                 [--lease-ttl S] [--timeout S] [--shard-size N]
                                 [--retries N] [--retry-delay S] [--max-crashes N]
                                 [--inject-faults SPEC] [--save DIR] [--json]
    repro campaign status SPEC.json [--cache DIR]
    repro store verify [ROOT] [--repair] [--json]
    repro store gc [ROOT] [--json]
    repro mc run SPEC.json [--samples N] [--seed N] [--mode anchored|full_array]
                           [--scalar] [--rows N] [--export-cells OUT.npz]
                           [--show-distributions] [--save DIR] [--json]
    repro mc map SPEC.json [--workers N] [--cache DIR] [--save DIR] [--json]
                           [--adaptive] [--target-ci H] [--budget N]
                           [--threshold P] [--batch-size N] [--point-max N]
    repro profile [--output OUT.json] [--top N] [--sort total|excl] CMD...
    repro obs runs [--limit N] [--status STATUS] [--json]
    repro obs show RUN [--json]
    repro obs diff RUN_A RUN_B [--json]
    repro obs audit RUN_A [RUN_B] [--check GOLDEN.jsonl] [--export OUT.jsonl]
                    [--cache-a DIR] [--cache-b DIR] [--json]
    repro obs top RUN [--once] [--poll S] [--timeout S]
    repro obs check-bench [--bench-dir DIR] [--baselines FILE] [--json]
    repro version

``run-fig`` regenerates one paper figure and prints its table (figures 3a-3d
execute through the campaign engine and accept ``--workers``/``--cache``);
``campaign run`` executes an arbitrary sweep spec through the worker pool
with the result cache (``--shard-size`` streams very large sweeps through
the cache in bounded-memory shards), and ``campaign status`` reports how
much of a spec is already answered by the cache without computing anything
(``--follow`` instead tails the live heartbeat of a run executing in another
process).  ``campaign run`` is fault tolerant: transiently failing points are
retried with seeded backoff (``--retries``/``--retry-delay``), a point that
keeps killing its worker is quarantined after ``--max-crashes`` crashes, the
first SIGINT/SIGTERM drains bookkeeping and exits 130 with every finished
point cached, and ``--inject-faults`` arms the deterministic chaos harness
(:mod:`repro.faults.inject`) used to test all of the above.

Every result cache is a concurrent-safe shared result store
(:mod:`repro.store`): a crash-consistent sqlite index over checksummed
payloads plus advisory point leases, so N simultaneous runs of one spec
partition the sweep instead of duplicating it.  A cache directory that
cannot host a store costs the cache, not the command: the run warns and
proceeds without one.  The ``repro store`` group operates on a store
directory: ``verify`` re-hashes every entry (``--repair`` quarantines
damage) and ``gc`` sweeps orphan payloads / temp files / stale leases.

``mc run`` evaluates one Monte-Carlo cell population from a
``kind="montecarlo"`` spec (``--export-cells`` dumps the per-cell sampled
parameters and outcomes as npz for offline analysis; ``--show-distributions``
prints the provenance of the spec's variability sigmas instead of running);
``mc map`` sweeps a 2-D parameter plane of populations into a
flip-probability map — fixed-n through the campaign runner, or with
``--adaptive`` through CI-driven refinement that spends a global sample
budget where the interval still straddles the flip boundary.

``profile`` runs any other subcommand with telemetry enabled and prints a
flame-style span table plus counter/histogram report afterwards
(``--output`` also writes the raw snapshot and a reproducibility manifest
as JSON); ``campaign run``, ``mc run`` and ``mc map`` additionally accept
``--telemetry OUT.json`` to capture the same snapshot without the report.

Every ``campaign run`` / ``mc run`` / ``mc map`` / ``profile`` invocation is
additionally recorded in the run ledger under the obs dir (``--obs-dir``,
``$REPRO_OBS_DIR``, default ``.repro-obs``; ``--no-obs`` skips it) together
with a live heartbeat file a concurrent process can tail.  The ``repro obs``
group reads that ledger: ``runs`` lists recorded invocations, ``show``
renders one snapshot, ``diff`` reports counter/gauge/span deltas between two
runs, ``top`` tails a running job, and ``check-bench`` gates the benchmark
trajectory against committed baselines.

Recorded commands additionally accept ``--audit``: the run then collects a
determinism fingerprint stream (SHA-256 of the numerical payloads at stage
boundaries, keyed by point/batch/spawn identity — see :mod:`repro.obs.audit`)
next to the ledger entry.  ``repro obs audit RUN_A RUN_B`` diffs two streams
and pinpoints the first divergent stage; ``--check GOLDEN.jsonl`` compares a
run against a committed golden stream as a CI determinism gate, and
``--export`` writes a stream out to become that golden file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import CampaignInterrupted, ReproError, StoreError
from ..faults import FAULTS_ENV, FaultPlan, RetryPolicy
from ..obs import (
    BASELINES_FILENAME,
    DEFAULT_OBS_DIR,
    OBS_DIR_ENV,
    AuditTrail,
    HeartbeatWriter,
    RunLedger,
    Telemetry,
    build_manifest,
    diff_audit_streams,
    check_bench,
    diff_snapshots,
    find_heartbeats,
    follow_heartbeat,
    gate_passed,
    get_telemetry,
    load_baselines,
    load_bench_records,
    new_run_id,
    numerics_counts,
    payload_max_abs_diff,
    read_audit_stream,
    render_audit_diff,
    render_check_report,
    render_diff,
    render_heartbeat,
    render_report,
    render_runs_table,
    resilience_counts,
    strip_volatile,
    telemetry_capture,
    write_audit_stream,
    write_snapshot,
)
from ..utils.logging import get_logger
from .aggregate import summarise, to_experiment_result
from .cache import ResultCache
from .runner import CampaignRunner
from .spec import CampaignSpec

logger = get_logger("campaign.cli")

#: Default on-disk cache used by ``campaign run`` unless --no-cache is given.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Figures 3a-3d run through the campaign engine and accept workers/cache.
CAMPAIGN_FIGURES = ("3a", "3b", "3c", "3d")


def _figure_registry() -> Dict[str, Callable[..., Any]]:
    """Figure id -> experiment callable, imported lazily to keep startup light."""
    from ..experiments import fig2a_experiment, run_fig3a, run_fig3b, run_fig3c, run_fig3d

    return {
        "2a": fig2a_experiment,
        "3a": run_fig3a,
        "3b": run_fig3b,
        "3c": run_fig3c,
        "3d": run_fig3d,
    }


def build_parser() -> argparse.ArgumentParser:
    """The complete argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NeuroHammer reproduction: regenerate paper figures and run attack campaigns.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    fig = subparsers.add_parser("run-fig", help="regenerate one paper figure")
    fig.add_argument("figure", choices=sorted(_FIGURE_IDS), help="figure to regenerate")
    fig.add_argument("--save", metavar="DIR", help="also write CSV/JSON exports into DIR")
    fig.add_argument("--chart", action="store_true", help="print an ASCII chart next to the table")
    campaign_figures = f"figures {'/'.join(CAMPAIGN_FIGURES)} only"
    fig.add_argument("--workers", type=int, default=0, help=f"worker processes ({campaign_figures})")
    fig.add_argument("--cache", metavar="DIR", help=f"result cache directory ({campaign_figures})")
    fig.set_defaults(handler=_cmd_run_fig)

    campaign = subparsers.add_parser("campaign", help="run or inspect a sweep campaign")
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    run = campaign_sub.add_parser("run", help="execute a campaign spec through the worker pool")
    run.add_argument("spec", help="path to a CampaignSpec JSON file")
    run.add_argument("--workers", type=int, default=0, help="worker processes (0 = serial)")
    run.add_argument("--cache", metavar="DIR", default=None, help=f"cache directory (default {DEFAULT_CACHE_DIR})")
    run.add_argument("--no-cache", action="store_true", help="disable the result cache entirely")
    run.add_argument(
        "--lease-ttl", type=float, default=None, metavar="S",
        help="point-lease lifetime before other processes may steal it (default 600)",
    )
    run.add_argument("--timeout", type=float, default=None, metavar="S", help="per-job timeout in seconds")
    run.add_argument(
        "--shard-size", type=int, default=None, metavar="N",
        help="materialise and dispatch N points at a time (overrides the spec; 0 = all at once)",
    )
    run.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="re-execute a transiently failing point up to N times with seeded backoff (0 disables; default 2)",
    )
    run.add_argument(
        "--retry-delay", type=float, default=0.05, metavar="S",
        help="base backoff before the first retry; doubles per retry with seeded jitter (default 0.05s)",
    )
    run.add_argument(
        "--max-crashes", type=int, default=3, metavar="N",
        help="quarantine a point after it crashes its worker N times (default 3)",
    )
    run.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="chaos harness: seeded fault-injection spec, e.g. 'raise@1x2;kill@4x99;seed=7' "
        "(see repro.faults.inject; equivalent to setting $REPRO_FAULTS)",
    )
    run.add_argument("--save", metavar="DIR", help="write the aggregated CSV/JSON exports into DIR")
    run.add_argument("--json", action="store_true", help="print the full report as JSON instead of a table")
    _add_telemetry_flag(run)
    _add_obs_flags(run)
    run.set_defaults(handler=_cmd_campaign_run)

    status = campaign_sub.add_parser("status", help="report cache coverage of a spec")
    status.add_argument("spec", help="path to a CampaignSpec JSON file")
    status.add_argument("--cache", metavar="DIR", default=None, help=f"cache directory (default {DEFAULT_CACHE_DIR})")
    status.add_argument(
        "--shard-size", type=int, default=None, metavar="N",
        help="report per-shard coverage at N points per shard (overrides the spec)",
    )
    status.add_argument(
        "--follow", action="store_true",
        help="tail the live heartbeat of a run of this spec executing in another process",
    )
    status.add_argument("--poll", type=float, default=0.1, metavar="S", help="heartbeat poll interval (default 0.1s)")
    status.add_argument(
        "--timeout", type=float, default=60.0, metavar="S",
        help="give up after S seconds without a (new) heartbeat (default 60)",
    )
    _add_obs_dir_flag(status)
    status.set_defaults(handler=_cmd_campaign_status)

    mc = subparsers.add_parser("mc", help="Monte-Carlo variability studies")
    mc_sub = mc.add_subparsers(dest="mc_command", required=True)

    mc_run = mc_sub.add_parser("run", help="evaluate one sampled cell population")
    mc_run.add_argument("spec", help="path to a kind='montecarlo' CampaignSpec JSON file")
    mc_run.add_argument("--samples", type=int, default=None, help="override the population size")
    mc_run.add_argument("--seed", type=int, default=None, help="override the population seed")
    mc_run.add_argument(
        "--mode", choices=("anchored", "full_array"), default=None,
        help="override the evaluation mode: anchored per-victim lanes or whole-array re-solves",
    )
    mc_run.add_argument(
        "--scalar", action="store_true",
        help="use the scalar reference engine instead of the vectorized one (anchored mode only)",
    )
    mc_run.add_argument("--rows", type=int, default=16, metavar="N", help="per-cell table rows to print")
    mc_run.add_argument(
        "--export-cells", metavar="OUT.npz", default=None,
        help="dump per-cell sampled parameters and outcome arrays as a compressed npz",
    )
    mc_run.add_argument(
        "--show-distributions", action="store_true",
        help="print the provenance (placeholder vs literature) of the spec's sigmas and exit",
    )
    mc_run.add_argument("--save", metavar="DIR", help="write the population CSV/JSON exports into DIR")
    mc_run.add_argument("--json", action="store_true", help="print the summary as JSON instead of a table")
    _add_telemetry_flag(mc_run)
    _add_obs_flags(mc_run)
    mc_run.set_defaults(handler=_cmd_mc_run)

    mc_map = mc_sub.add_parser("map", help="flip-probability map over a 2-D parameter plane")
    mc_map.add_argument("spec", help="path to a kind='montecarlo' grid spec with exactly two axes")
    mc_map.add_argument("--workers", type=int, default=0, help="worker processes (0 = serial)")
    mc_map.add_argument("--cache", metavar="DIR", default=None, help="result cache directory")
    mc_map.add_argument(
        "--adaptive", action="store_true",
        help="CI-driven refinement: allocate samples where the interval straddles the flip boundary",
    )
    mc_map.add_argument(
        "--target-ci", type=float, default=0.02, metavar="H",
        help="target CI half-width per map point (adaptive mode; default 0.02)",
    )
    mc_map.add_argument(
        "--budget", type=int, default=0, metavar="N",
        help="global sample budget across the plane (adaptive mode; 0 = unbounded)",
    )
    mc_map.add_argument(
        "--threshold", type=float, default=0.5, metavar="P",
        help="decision threshold whose straddling points are refined first (default 0.5)",
    )
    mc_map.add_argument(
        "--batch-size", type=int, default=64, metavar="N",
        help="samples per refinement batch (adaptive mode; default 64)",
    )
    mc_map.add_argument(
        "--point-max", type=int, default=16384, metavar="N",
        help="hard per-point sample ceiling (adaptive mode; default 16384)",
    )
    mc_map.add_argument("--save", metavar="DIR", help="write the map CSV/JSON exports into DIR")
    mc_map.add_argument("--json", action="store_true", help="print the per-point records as JSON")
    _add_telemetry_flag(mc_map)
    _add_obs_flags(mc_map)
    mc_map.set_defaults(handler=_cmd_mc_map)

    profile = subparsers.add_parser(
        "profile",
        help="run any repro subcommand with telemetry enabled and print a span/metric report",
    )
    profile.add_argument(
        "--output", metavar="OUT.json", default=None,
        help="also write the raw telemetry snapshot plus a reproducibility manifest as JSON",
    )
    profile.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="keep only the N largest span groups per sibling level of the table",
    )
    profile.add_argument(
        "--sort", choices=("total", "excl"), default="total",
        help="span-table sibling order: total or exclusive time (default total)",
    )
    _add_obs_flags(profile)
    profile.add_argument(
        "cmd", nargs=argparse.REMAINDER,
        help="the repro command to profile, e.g. `repro profile mc run SPEC.json`",
    )
    profile.set_defaults(handler=_cmd_profile)

    obs = subparsers.add_parser(
        "obs",
        help="cross-run observability: run ledger, live monitoring, metrics export, bench gate",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_runs = obs_sub.add_parser("runs", help="list the recorded runs in the ledger")
    obs_runs.add_argument("--limit", type=int, default=20, metavar="N", help="show the N most recent runs (default 20)")
    obs_runs.add_argument(
        "--status", choices=("ok", "error", "interrupted"), default=None,
        help="only list runs with this recorded status",
    )
    obs_runs.add_argument("--json", action="store_true", help="print the index entries as JSON")
    _add_obs_dir_flag(obs_runs)
    obs_runs.set_defaults(handler=_cmd_obs_runs)

    obs_show = obs_sub.add_parser("show", help="render one recorded run's telemetry snapshot")
    obs_show.add_argument("run", help="run id, unique prefix, or `latest`/`latest~N`")
    obs_show.add_argument("--json", action="store_true", help="print the raw persisted payload as JSON")
    _add_obs_dir_flag(obs_show)
    obs_show.set_defaults(handler=_cmd_obs_show)

    obs_diff = obs_sub.add_parser("diff", help="counter/gauge/span deltas between two recorded runs")
    obs_diff.add_argument("run_a", help="baseline run reference")
    obs_diff.add_argument("run_b", help="comparison run reference")
    obs_diff.add_argument("--json", action="store_true", help="print the structured diff as JSON")
    _add_obs_dir_flag(obs_diff)
    obs_diff.set_defaults(handler=_cmd_obs_diff)

    obs_audit = obs_sub.add_parser(
        "audit", help="diff the determinism fingerprint streams of two recorded runs"
    )
    obs_audit.add_argument("run_a", help="run id, unique prefix, or `latest`/`latest~N`")
    obs_audit.add_argument(
        "run_b", nargs="?", default=None,
        help="second run to compare against (omit with --check or --export)",
    )
    obs_audit.add_argument(
        "--check", metavar="GOLDEN.jsonl", default=None,
        help="compare RUN_A's stream against a committed golden stream file (CI determinism gate)",
    )
    obs_audit.add_argument(
        "--export", metavar="OUT.jsonl", default=None,
        help="write RUN_A's stream to a file (e.g. to commit as the golden stream)",
    )
    obs_audit.add_argument(
        "--cache-a", metavar="DIR", default=None,
        help="result cache/store RUN_A computed into; with --cache-b, a divergent "
        "campaign point also reports the max-abs-diff between the cached payloads",
    )
    obs_audit.add_argument(
        "--cache-b", metavar="DIR", default=None,
        help="result cache/store the second stream's run computed into (see --cache-a)",
    )
    obs_audit.add_argument("--json", action="store_true", help="print the diff report as JSON")
    _add_obs_dir_flag(obs_audit)
    obs_audit.set_defaults(handler=_cmd_obs_audit)

    obs_top = obs_sub.add_parser("top", help="tail the live heartbeat of a running job")
    obs_top.add_argument("run", help="run id, unique prefix, or `latest`")
    obs_top.add_argument("--once", action="store_true", help="print the current state and exit")
    obs_top.add_argument("--poll", type=float, default=0.1, metavar="S", help="poll interval (default 0.1s)")
    obs_top.add_argument(
        "--timeout", type=float, default=60.0, metavar="S",
        help="give up after S seconds without a new heartbeat (default 60)",
    )
    _add_obs_dir_flag(obs_top)
    obs_top.set_defaults(handler=_cmd_obs_top)

    obs_check = obs_sub.add_parser(
        "check-bench", help="gate the benchmark trajectory against committed baselines"
    )
    obs_check.add_argument(
        "--bench-dir", metavar="DIR", default="benchmarks",
        help="directory holding BENCH_history.jsonl / BENCH_*.json (default benchmarks/)",
    )
    obs_check.add_argument(
        "--baselines", metavar="FILE", default=None,
        help=f"baselines file (default <bench-dir>/{BASELINES_FILENAME})",
    )
    obs_check.add_argument("--json", action="store_true", help="print the check report as JSON")
    obs_check.set_defaults(handler=_cmd_obs_check_bench)

    store = subparsers.add_parser(
        "store",
        help="operate on a concurrent-safe shared result store directory",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_verify = store_sub.add_parser(
        "verify", help="re-hash every entry against its indexed checksum"
    )
    store_verify.add_argument(
        "root", nargs="?", default=DEFAULT_CACHE_DIR,
        help=f"store directory (default {DEFAULT_CACHE_DIR})",
    )
    store_verify.add_argument(
        "--repair", action="store_true",
        help="quarantine damaged entries instead of only reporting them",
    )
    store_verify.add_argument("--json", action="store_true", help="print the report as JSON")
    store_verify.set_defaults(handler=_cmd_store_verify)

    store_gc = store_sub.add_parser(
        "gc", help="sweep orphan payloads, temp files, and stale leases"
    )
    store_gc.add_argument(
        "root", nargs="?", default=DEFAULT_CACHE_DIR,
        help=f"store directory (default {DEFAULT_CACHE_DIR})",
    )
    store_gc.add_argument("--json", action="store_true", help="print the sweep counts as JSON")
    store_gc.set_defaults(handler=_cmd_store_gc)

    version = subparsers.add_parser("version", help="print the library version")
    version.set_defaults(handler=_cmd_version)
    return parser


def _add_telemetry_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--telemetry", metavar="OUT.json", default=None,
        help="capture a telemetry snapshot of this run and write it (with a manifest) as JSON",
    )


def _add_obs_dir_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--obs-dir", metavar="DIR", default=None,
        help=f"obs directory (default ${OBS_DIR_ENV} or {DEFAULT_OBS_DIR})",
    )


def _add_obs_flags(subparser: argparse.ArgumentParser) -> None:
    _add_obs_dir_flag(subparser)
    subparser.add_argument(
        "--no-obs", action="store_true",
        help="skip run-ledger recording and the live heartbeat for this invocation",
    )
    subparser.add_argument(
        "--audit", action="store_true",
        help="record a determinism fingerprint stream for this run next to the ledger "
        "(compare runs with `repro obs audit`)",
    )


_FIGURE_IDS = ("2a", "3a", "3b", "3c", "3d")


def _load_spec(path: str) -> CampaignSpec:
    spec_path = Path(path)
    if not spec_path.exists():
        raise ReproError(f"campaign spec {path!r} does not exist")
    try:
        return CampaignSpec.from_json(spec_path)
    except ReproError:
        raise
    except (ValueError, TypeError) as exc:
        raise ReproError(f"campaign spec {path!r} is not a valid spec: {exc}") from exc


def _open_cache(
    cache_dir: Optional[str],
    disabled: bool = False,
    lease_ttl_s: Optional[float] = None,
) -> Optional[ResultCache]:
    """The result cache at ``cache_dir`` (default ``.repro-cache``), or None.

    A store that cannot be opened (unusable root or index) costs the cache,
    not the command: it logs a warning, counts ``store.degraded`` and
    returns None.
    """
    if disabled:
        return None
    try:
        return ResultCache(
            cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR, lease_ttl_s=lease_ttl_s
        )
    except StoreError as exc:
        logger.warning("running without a result cache: %s", exc)
        tel = get_telemetry()
        if tel.enabled:
            tel.count("store.degraded")
        return None


def _command_label(args: argparse.Namespace) -> str:
    """Dotted span label of a parsed command, e.g. ``mc.run``."""
    parts = [args.command]
    for attr in ("campaign_command", "mc_command", "obs_command"):
        sub = getattr(args, attr, None)
        if sub:
            parts.append(sub)
    return ".".join(parts)


def _snapshot_payload(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """A telemetry snapshot plus the reproducibility manifest, ready to write."""
    return {**snapshot, "manifest": build_manifest(telemetry_snapshot=snapshot)}


def _peek_spec_name(spec_path: Optional[str]) -> Optional[str]:
    """The spec's name without full validation (for heartbeat/ledger labels)."""
    if not spec_path:
        return None
    try:
        payload = json.loads(Path(spec_path).read_text(encoding="utf-8"))
        name = payload.get("name")
        return str(name) if name else None
    except (OSError, ValueError, AttributeError):
        return None


def _run_recorded(
    args: argparse.Namespace,
    label: str,
    command: str,
    spec_path: Optional[str],
    dispatch: Callable[[], int],
) -> Tuple[int, Dict[str, Any]]:
    """Run one CLI invocation under live telemetry, heartbeat, and the ledger.

    Telemetry is always captured (the snapshot is returned either way); the
    run ledger and the live heartbeat are skipped under ``--no-obs``.  Ledger
    recording is silent on stdout — failures to persist degrade to debug
    logging, never to breaking the command.  Errors are recorded too: the
    handler's exception propagates, but the ledger keeps the partial snapshot
    with status ``error`` and the heartbeat terminates as ``failed``.

    The dispatch runs under one observer context,
    ``Telemetry(audit=trail, heartbeat=writer)``: ``--audit`` adds a live
    :class:`~repro.obs.AuditTrail`, whose fingerprint stream is persisted under
    ``<obs dir>/audit/<run id>.jsonl`` even when the run errors or is
    interrupted, so a divergence can be localized post-mortem.
    """
    ledger: Optional[RunLedger] = None
    heartbeat: Optional[HeartbeatWriter] = None
    run_id = new_run_id()
    spec_name = _peek_spec_name(spec_path)
    trail: Optional[AuditTrail] = AuditTrail() if getattr(args, "audit", False) else None
    if trail is not None and getattr(args, "no_obs", False):
        print("note: --audit streams into the run ledger; ignored with --no-obs")
        trail = None
    if not getattr(args, "no_obs", False):
        try:
            ledger = RunLedger(getattr(args, "obs_dir", None))
            heartbeat = HeartbeatWriter(
                ledger.live_dir / f"{run_id}.json",
                run_id=run_id,
                label=label,
                spec_name=spec_name,
            )
        except OSError as exc:
            logger.debug("obs recording unavailable: %s", exc)
            ledger = heartbeat = None
    telemetry = Telemetry(audit=trail, heartbeat=heartbeat)
    started = time.time()
    code: Optional[int] = None
    interrupted = False
    try:
        with telemetry_capture(telemetry), telemetry.span(f"cli.{label}"):
            code = dispatch()
    except CampaignInterrupted:
        # A drained SIGINT/SIGTERM stop: completed work is cached, the run is
        # resumable — record that distinctly from a genuine failure.
        interrupted = True
        raise
    finally:
        snapshot = telemetry.snapshot()
        if interrupted:
            status = "interrupted"
        else:
            status = "ok" if code == 0 else "error"
        if heartbeat is not None:
            if interrupted:
                heartbeat.finish("interrupted")
            else:
                heartbeat.finish("done" if status == "ok" else "failed")
        if trail is not None and ledger is not None:
            try:
                path = write_audit_stream(
                    ledger.audit_path(run_id), trail.records(), run_id=run_id, label=label
                )
                print(f"wrote audit stream ({len(trail.records())} records) to {path}")
            except OSError as exc:
                logger.debug("audit stream recording failed: %s", exc)
        if ledger is not None:
            try:
                entry = ledger.record(
                    command,
                    snapshot,
                    run_id=run_id,
                    label=label,
                    spec_name=spec_name,
                    status=status,
                    started_unix_s=started,
                    manifest=build_manifest(telemetry_snapshot=snapshot),
                )
                logger.debug("recorded run %s in %s", entry.run_id, ledger.root)
            except OSError as exc:
                logger.debug("obs ledger recording failed: %s", exc)
    return code, snapshot


def _run_with_telemetry(args: argparse.Namespace, argv: Optional[List[str]] = None) -> int:
    """Dispatch a parsed command; recordable ones go through the run ledger.

    Commands carrying the ``--telemetry`` flag (``campaign run``, ``mc run``,
    ``mc map``) always run under live telemetry now that every invocation is
    ledger-recorded; the flag still controls whether the snapshot is *also*
    written to an explicit path.  ``profile`` does its own recording; every
    other command dispatches directly.
    """
    if not hasattr(args, "telemetry"):
        return args.handler(args)
    label = _command_label(args)
    command = "repro " + " ".join(str(arg) for arg in argv) if argv else "repro " + label.replace(".", " ")
    code, snapshot = _run_recorded(
        args, label, command, getattr(args, "spec", None), lambda: args.handler(args)
    )
    if args.telemetry:
        write_snapshot(args.telemetry, _snapshot_payload(snapshot))
        print(f"wrote telemetry snapshot to {args.telemetry}")
    return code


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------


def _cmd_run_fig(args: argparse.Namespace) -> int:
    registry = _figure_registry()
    experiment = registry[args.figure]
    kwargs: Dict[str, Any] = {}
    if args.figure in CAMPAIGN_FIGURES:
        kwargs["workers"] = args.workers
        if args.cache:
            kwargs["cache"] = _open_cache(args.cache)
    elif args.workers or args.cache:
        print(f"note: --workers/--cache only apply to figures {'/'.join(CAMPAIGN_FIGURES)}; ignored")
    result = experiment(**kwargs)
    print(result.to_table())
    if args.chart and result.rows:
        numeric = [
            column
            for column in result.columns[1:]
            if isinstance(result.rows[0].get(column), (int, float))
            and not isinstance(result.rows[0].get(column), bool)
        ]
        if numeric:
            print()
            print(result.to_chart(result.columns[0], numeric[0]))
    if args.save:
        path = result.save(args.save)
        print(f"saved {result.name} exports next to {path}")
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    if args.shard_size is not None:
        if args.shard_size < 0:
            raise ReproError("--shard-size must be non-negative (0 = all at once)")
        spec.shard_size = args.shard_size
    if args.retries < 0:
        raise ReproError("--retries must be non-negative (0 disables retrying)")
    retry = (
        RetryPolicy(max_attempts=args.retries + 1, base_delay_s=args.retry_delay)
        if args.retries
        else None
    )
    if args.inject_faults:
        FaultPlan.parse(args.inject_faults)  # reject a bad spec before any work runs
    if args.lease_ttl is not None and args.lease_ttl <= 0:
        raise ReproError("--lease-ttl must be positive")
    cache = _open_cache(args.cache, disabled=args.no_cache, lease_ttl_s=args.lease_ttl)
    runner = CampaignRunner(
        spec,
        cache=cache,
        workers=args.workers,
        timeout_s=args.timeout,
        retry=retry,
        max_crashes=args.max_crashes,
    )
    # The harness reads $REPRO_FAULTS so pool workers inherit the schedule;
    # scope the flag's value to this run and restore whatever was there.
    previous_faults = os.environ.get(FAULTS_ENV)
    if args.inject_faults:
        os.environ[FAULTS_ENV] = args.inject_faults
    try:
        report = runner.run()
    finally:
        if args.inject_faults:
            if previous_faults is None:
                os.environ.pop(FAULTS_ENV, None)
            else:
                os.environ[FAULTS_ENV] = previous_faults
    summary = summarise(report)
    result = to_experiment_result(spec, report) if not report.failed_records else None

    if args.json:
        manifest = build_manifest(extra={"kind": "campaign", "spec": spec.name, "experiment": spec.experiment})
        print(
            json.dumps(
                {
                    "summary": summary,
                    "report": report.to_dict(),
                    "resilience": runner.resilience,
                    "manifest": manifest,
                },
                indent=2,
                default=str,
            )
        )
    else:
        print(report.summary())
        if any(runner.resilience.values()):
            print(
                "resilience: "
                + " ".join(f"{key}={value}" for key, value in runner.resilience.items() if value)
            )
        if result is not None and result.rows:
            print()
            print(result.to_table())
        for record in report.failed_records:
            print(f"FAILED point {record.index} ({record.status}): {record.error}")
        rate = summary["success_rate"]
        print()
        print(
            f"success rate {rate:.0%}"
            + (
                f", min pulses to flip {summary['min_pulses_to_flip']}"
                if summary["min_pulses_to_flip"] is not None
                else ""
            )
        )
    if args.save and result is not None:
        path = result.save(args.save)
        print(f"saved campaign exports next to {path}")
    return 1 if report.failed_records else 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    if args.follow:
        return _follow_spec_heartbeat(args, spec)
    if args.shard_size is not None:
        if args.shard_size < 0:
            raise ReproError("--shard-size must be non-negative (0 = no sharding)")
        spec.shard_size = args.shard_size
    cache = _open_cache(args.cache)
    runner = CampaignRunner(spec, cache=cache)
    status = runner.status()
    print(
        f"campaign {status['spec_name']!r}: {status['cached']}/{status['total']} points cached, "
        f"{status['missing']} to compute"
    )
    if cache is not None:
        corrupt = cache.stats().get("corrupt", 0)
        if corrupt:
            print(
                f"  quarantined cache entries: {corrupt} "
                f"(*.corrupt files under {cache.store.quarantine_dir})"
            )
    state = _latest_spec_heartbeat(args, spec.name)
    if state is not None:
        parts = [
            f"{key}={int(state[key])}"
            for key in ("retried", "crashed", "quarantined")
            if state.get(key)
        ]
        if parts or state.get("status") == "interrupted":
            line = f"  last run [{state.get('run_id', '?')}] {state.get('status', '?')}"
            if parts:
                line += ": " + " ".join(parts)
            if state.get("status") == "interrupted":
                line += " (completed points are cached; rerun to resume)"
            print(line)
    if "shards" in status:
        print(f"  shards ({status['shard_size']} points each):")
        shards = status["shards"]
        for shard in shards[:20]:
            marker = "complete" if shard["cached"] == shard["total"] else "partial"
            print(
                f"    shard {shard['shard']:>4}: {shard['cached']}/{shard['total']} cached ({marker})"
            )
        if len(shards) > 20:
            print(f"    ... and {len(shards) - 20} more shards")
    for label in status["missing_points"][:10]:
        print(f"  missing: {label}")
    if status["missing"] > 10:
        print(f"  ... and {status['missing'] - 10} more")
    return 0


def _latest_spec_heartbeat(args: argparse.Namespace, spec_name: str) -> Optional[Dict[str, Any]]:
    """The most recent heartbeat of this spec under the obs live dir, if any."""
    try:
        live_dir = RunLedger(getattr(args, "obs_dir", None)).live_dir
    except (OSError, ReproError):
        return None
    states = [
        state for state in find_heartbeats(live_dir).values() if state.get("spec_name") == spec_name
    ]
    return max(states, key=lambda state: state.get("started_unix_s", 0.0), default=None)


def _follow_spec_heartbeat(args: argparse.Namespace, spec: CampaignSpec) -> int:
    """Tail the heartbeat of a run of ``spec`` executing in another process.

    Waits (up to ``--timeout``) for a heartbeat whose ``spec_name`` matches,
    preferring a currently-running one, then prints one progress line per new
    heartbeat sequence number until the run terminates.
    """
    live_dir = RunLedger(getattr(args, "obs_dir", None)).live_dir
    run_id: Optional[str] = None
    deadline = time.monotonic() + args.timeout
    while time.monotonic() < deadline:
        candidates = [
            (state.get("status") == "running", state.get("started_unix_s", 0.0), key)
            for key, state in find_heartbeats(live_dir).items()
            if state.get("spec_name") == spec.name
        ]
        if candidates:
            # Prefer a currently-running heartbeat; otherwise show the most
            # recent finished one (its terminal state prints once).
            running = [entry for entry in candidates if entry[0]]
            run_id = max(running or candidates, key=lambda entry: entry[1])[2]
            break
        time.sleep(args.poll)
    if run_id is None:
        print(f"no live run of spec {spec.name!r} found under {live_dir}")
        return 1
    path = live_dir / f"{run_id}.json"
    for state in follow_heartbeat(path, poll_s=args.poll, timeout_s=args.timeout):
        print(render_heartbeat(state), flush=True)
    return 0


def _load_montecarlo_spec(path: str) -> CampaignSpec:
    spec = _load_spec(path)
    if spec.kind != "montecarlo":
        raise ReproError(
            f"spec {path!r} has kind={spec.kind!r}; `repro mc` needs a kind='montecarlo' spec"
        )
    return spec


def _export_cells_npz(result, path: str) -> None:
    """Dump one population's per-cell draws and outcomes as compressed npz.

    Sampled parameters are stored under ``param.<path>`` (per-array attack
    environment draws under ``env.<path>``); outcome arrays keep their result
    field names.  Full-array populations additionally carry the victim
    coordinates, the per-array validity mask and ``n_arrays``, so the flat
    lane arrays can be reshaped to ``(n_arrays, victims)`` offline.
    """
    import numpy as np

    from ..montecarlo import FullArrayMonteCarloResult

    arrays = {
        "flipped": result.flipped,
        "pulses": result.pulses,
        "stress_time_s": result.stress_time_s,
        "wall_clock_s": result.wall_clock_s,
        "final_x": result.final_x,
        "victim_temperature_k": result.victim_temperature_k,
        "valid": result.valid,
    }
    if result.weights is not None:
        arrays["weights"] = result.weights
    if result.draw is not None:
        for param_path, values in result.draw.values.items():
            arrays[f"param.{param_path}"] = values
    if isinstance(result, FullArrayMonteCarloResult):
        arrays["victims"] = np.asarray(result.victims, dtype=np.int64)
        arrays["array_valid"] = result.array_valid
        arrays["n_arrays"] = np.asarray(result.n_arrays, dtype=np.int64)
        if result.environment_draw is not None:
            for env_path, values in result.environment_draw.values.items():
                arrays[f"env.{env_path}"] = values
    np.savez_compressed(path, **arrays)


def _cmd_mc_run(args: argparse.Namespace) -> int:
    from ..config import AttackConfig, SimulationConfig
    from ..montecarlo import MonteCarloConfig, MonteCarloEngine

    spec = _load_montecarlo_spec(args.spec)
    montecarlo = MonteCarloConfig.from_dict(spec.montecarlo)
    if args.samples is not None and montecarlo.adaptive is not None:
        # Adaptive stopping ignores n_samples; an explicit --samples N asks
        # for a fixed-size run, so honour it rather than silently running to
        # the adaptive ceiling.
        print(
            f"note: --samples {args.samples} requests a fixed-size run; "
            "disabling the spec's adaptive stopping rule"
        )
        montecarlo.adaptive = None
    if args.show_distributions:
        from ..experiments.calibration import distribution_provenance_report

        report = distribution_provenance_report(montecarlo.distributions or None)
        print(report.to_table())
        placeholders = sum(1 for row in report.rows if row["source"] == "placeholder")
        print()
        print(
            f"{len(report.rows)} distribution(s); {placeholders} placeholder sigma(s) "
            "pending literature calibration (see repro.experiments.calibration)"
        )
        return 0
    if args.samples is not None:
        montecarlo.n_samples = args.samples
    if args.seed is not None:
        montecarlo.seed = args.seed
    if args.mode is not None:
        montecarlo.mode = args.mode
    engine = MonteCarloEngine(
        montecarlo,
        simulation=SimulationConfig.from_dict(spec.simulation),
        attack=AttackConfig.from_dict(spec.attack),
    )
    result = engine.run(vectorized=not args.scalar)
    summary = result.summary()

    if args.json:
        print(
            json.dumps(
                {
                    "summary": summary,
                    "conditions": result.conditions.to_dict(),
                    "manifest": engine.manifest(),
                },
                indent=2,
            )
        )
    else:
        table = result.to_experiment_result(max_rows=args.rows)
        print(table.to_table())
        if result.n_samples > args.rows:
            print(f"... ({result.n_samples - args.rows} more cells)")
        print()
        print(
            f"population {spec.name!r}: {summary['flipped']}/{summary['valid']} cells flipped "
            f"(flip probability {summary['flip_probability']:.3f}, "
            f"{summary['failed']} failed) via the {summary['engine']} engine "
            f"in {summary['duration_s']:.2f}s"
        )
        print(
            f"{summary['ci_method']} interval: [{summary['ci_low']:.4f}, {summary['ci_high']:.4f}] "
            f"(half-width {summary['ci_half_width']:.4f})"
        )
        if "adaptive" in summary:
            adaptive = summary["adaptive"]
            print(
                f"adaptive sampling: {adaptive['n_drawn']} samples in {adaptive['batches']} "
                f"batch(es), stopped on {adaptive['stop_reason']}"
            )
        if "effective_sample_size" in summary:
            print(f"importance sampling: effective sample size {summary['effective_sample_size']:.1f}")
        if summary["min_pulses_to_flip"] is not None:
            print(
                f"pulses to flip: min {summary['min_pulses_to_flip']}, "
                f"p50 {summary['p50']:.0f}, p90 {summary['p90']:.0f}, "
                f"geomean {summary['geomean_pulses_to_flip']:.0f}"
            )
    if args.export_cells:
        _export_cells_npz(result, args.export_cells)
        print(f"exported per-cell arrays to {args.export_cells}")
    if args.save:
        path = result.to_experiment_result(max_rows=None).save(args.save)
        print(f"saved montecarlo exports next to {path}")
    return 0


def _cmd_mc_map(args: argparse.Namespace) -> int:
    from ..montecarlo import MapAxis, flip_probability_map, refine_flip_probability_map

    spec = _load_montecarlo_spec(args.spec)
    if spec.mode != "grid" or len(spec.axes) != 2:
        raise ReproError("`repro mc map` needs a grid spec with exactly two enumerated axes")
    x_axis, y_axis = spec.axes
    if args.adaptive:
        if args.workers or args.cache:
            print("note: --workers/--cache apply to the fixed-n map path; ignored with --adaptive")
        mc_map = refine_flip_probability_map(
            MapAxis(path=x_axis.path, values=list(x_axis.values)),
            MapAxis(path=y_axis.path, values=list(y_axis.values)),
            simulation=spec.simulation,
            attack=spec.attack,
            montecarlo=spec.montecarlo,
            name=spec.name,
            target_half_width=args.target_ci,
            budget=args.budget,
            threshold=args.threshold,
            batch_size=args.batch_size,
            point_n_max=args.point_max,
        )
        mc_map.result.metadata.setdefault(
            "manifest", build_manifest(extra={"kind": "mc_map", "spec": spec.name, "adaptive": True})
        )
        if args.json:
            print(mc_map.result.to_json())
        else:
            print(mc_map.to_heatmap())
            print()
            print(mc_map.allocation_heatmap())
            print()
            print(mc_map.result.to_table())
            print()
            print(
                f"map {spec.name!r}: target CI half-width {mc_map.target_half_width:g}, "
                f"{int(mc_map.converged.sum())}/{mc_map.converged.size} points converged, "
                f"{mc_map.total_samples} samples "
                f"({mc_map.solve_ratio:.1f}x fewer than the fixed-n equivalent)"
            )
    else:
        mc_map = flip_probability_map(
            MapAxis(path=x_axis.path, values=list(x_axis.values)),
            MapAxis(path=y_axis.path, values=list(y_axis.values)),
            simulation=spec.simulation,
            attack=spec.attack,
            montecarlo=spec.montecarlo,
            name=spec.name,
            workers=args.workers,
            cache=_open_cache(args.cache) if args.cache else None,
        )
        mc_map.result.metadata.setdefault(
            "manifest", build_manifest(extra={"kind": "mc_map", "spec": spec.name, "adaptive": False})
        )
        if args.json:
            print(mc_map.result.to_json())
        else:
            print(mc_map.to_heatmap())
            print()
            print(mc_map.result.to_table())
            print()
            print(
                f"map {spec.name!r}: {mc_map.n_samples} cells/point, "
                f"mean bit-error rate {mc_map.bit_error_rate():.3f}"
            )
    if args.save:
        path = mc_map.result.save(args.save)
        print(f"saved map exports next to {path}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    cmd = list(args.cmd)
    if cmd and cmd[0] == "--":
        # argparse.REMAINDER keeps an explicit separator; drop it.
        cmd = cmd[1:]
    if not cmd:
        raise ReproError("`repro profile` needs a command to run, e.g. `repro profile mc run SPEC.json`")
    if cmd[0] == "profile":
        raise ReproError("`repro profile` cannot profile itself")
    inner = build_parser().parse_args(cmd)
    if getattr(inner, "telemetry", None):
        print("note: --telemetry is redundant under `repro profile`; ignored")
        inner.telemetry = None
    # Recording happens here, at the invocation level; the inner handler is
    # dispatched directly so a profiled campaign is not double-recorded.
    code, snapshot = _run_recorded(
        args,
        _command_label(inner),
        "repro profile " + " ".join(cmd),
        getattr(inner, "spec", None),
        lambda: inner.handler(inner),
    )
    print()
    print(render_report(snapshot, sort=args.sort, top=args.top))
    if args.output:
        write_snapshot(args.output, _snapshot_payload(snapshot))
        print(f"wrote telemetry snapshot to {args.output}")
    return code


# ----------------------------------------------------------------------
# obs subcommands
# ----------------------------------------------------------------------


def _open_ledger(args: argparse.Namespace) -> RunLedger:
    return RunLedger(getattr(args, "obs_dir", None))


def _cmd_obs_runs(args: argparse.Namespace) -> int:
    ledger = _open_ledger(args)
    entries = ledger.entries()
    if args.status:
        entries = [entry for entry in entries if entry.status == args.status]
    if args.json:
        shown = entries[-args.limit:] if args.limit and args.limit > 0 else entries
        print(json.dumps([entry.to_dict() for entry in shown], indent=2, default=str))
    else:
        print(render_runs_table(entries, limit=args.limit))
    return 0


def _cmd_obs_show(args: argparse.Namespace) -> int:
    ledger = _open_ledger(args)
    payload = ledger.load_snapshot(args.run)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return 0
    print(
        f"run {payload.get('run_id', args.run)}: {payload.get('command', '?')} "
        f"[{payload.get('status', '?')}] in {float(payload.get('duration_s', 0.0)):.2f}s"
    )
    resilience = resilience_counts(payload)
    if any(resilience.values()):
        print(
            "resilience: "
            + " ".join(f"{key}={value}" for key, value in resilience.items() if value)
        )
    numerics = numerics_counts(payload)
    if numerics["checks"]:
        print("numerics: " + " ".join(f"{key}={value}" for key, value in numerics.items()))
    print()
    print(render_report(payload))
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    ledger = _open_ledger(args)
    entry_a = ledger.resolve(args.run_a)
    entry_b = ledger.resolve(args.run_b)
    diff = diff_snapshots(ledger.load_snapshot(entry_a.run_id), ledger.load_snapshot(entry_b.run_id))
    if args.json:
        print(json.dumps({"run_a": entry_a.run_id, "run_b": entry_b.run_id, "diff": diff},
                         indent=2, default=str))
    else:
        print(render_diff(diff, run_a=entry_a.run_id, run_b=entry_b.run_id))
    return 0


def _read_run_audit(ledger: RunLedger, ref: str) -> Tuple[str, List[Dict[str, Any]]]:
    """Resolve one run reference and read its persisted fingerprint stream."""
    entry = ledger.resolve(ref)
    path = ledger.audit_path(entry.run_id)
    if not path.exists():
        raise ReproError(
            f"run {entry.run_id} has no audit stream under {ledger.audit_dir} "
            "(rerun the command with --audit to record one)"
        )
    _header, records = read_audit_stream(path)
    return entry.run_id, records


def _audit_divergence_context(
    report: Dict[str, Any], cache_a: Optional[str], cache_b: Optional[str]
) -> None:
    """Attach max-abs-diff context to a divergent ``campaign.point`` record.

    Only possible when both runs' cached payloads are still recoverable: the
    divergent record's ``meta.key`` is the campaign cache key, so the two
    payloads are loaded from their respective caches and walked for the
    largest numeric difference.  Best-effort — any missing piece just leaves
    the report without context.
    """
    first = report.get("first_divergence")
    if not first or first.get("reason") != "fingerprint" or not (cache_a and cache_b):
        return
    if first.get("stage") != "campaign.point":
        return
    key = ((first.get("a") or {}).get("meta") or {}).get("key")
    if not key:
        return
    try:
        payload_a = _open_store(cache_a).get(key)
        payload_b = _open_store(cache_b).get(key)
    except ReproError:
        return
    if payload_a is None or payload_b is None:
        return
    context = payload_max_abs_diff(strip_volatile(payload_a), strip_volatile(payload_b))
    if context is not None:
        report["context"] = {"max_abs_diff": context[0], "path": context[1]}


def _cmd_obs_audit(args: argparse.Namespace) -> int:
    ledger = _open_ledger(args)
    run_a, records_a = _read_run_audit(ledger, args.run_a)
    if args.export:
        path = write_audit_stream(args.export, records_a, run_id=run_a)
        print(f"exported audit stream of {run_a} ({len(records_a)} records) to {path}")
        if not args.run_b and not args.check:
            return 0
    if args.run_b and args.check:
        raise ReproError("give either RUN_B or --check GOLDEN.jsonl, not both")
    if args.check:
        name_b = args.check
        _header, records_b = read_audit_stream(args.check)
    elif args.run_b:
        name_b, records_b = _read_run_audit(ledger, args.run_b)
    else:
        # Single-run mode: summarise the stream per stage.
        stages: Dict[str, int] = {}
        for record in records_a:
            stages[record.get("stage", "?")] = stages.get(record.get("stage", "?"), 0) + 1
        if args.json:
            print(json.dumps({"run": run_a, "records": len(records_a), "stages": stages},
                             indent=2, default=str))
        else:
            print(f"run {run_a}: {len(records_a)} audit records")
            for stage in sorted(stages):
                print(f"  {stage:<24} {stages[stage]:>6}")
        return 0
    report = diff_audit_streams(records_a, records_b)
    _audit_divergence_context(report, args.cache_a, args.cache_b)
    if args.json:
        print(json.dumps({"run_a": run_a, "run_b": name_b, **report}, indent=2, default=str))
    else:
        print(render_audit_diff(report, a_name=run_a, b_name=name_b))
    return 0 if report["identical"] else 1


def _cmd_obs_top(args: argparse.Namespace) -> int:
    live_dir = _open_ledger(args).live_dir
    heartbeats = find_heartbeats(live_dir)
    if not heartbeats:
        raise ReproError(f"no live heartbeats under {live_dir}")
    if args.run == "latest":
        run_id = max(heartbeats, key=lambda key: heartbeats[key].get("updated_unix_s", 0.0))
    else:
        matches = [args.run] if args.run in heartbeats else [
            key for key in heartbeats if key.startswith(args.run)
        ]
        if not matches:
            raise ReproError(f"no heartbeat matches {args.run!r} under {live_dir}")
        if len(matches) > 1:
            raise ReproError(
                f"heartbeat reference {args.run!r} is ambiguous: matches {sorted(matches)[:5]}"
            )
        run_id = matches[0]
    if args.once:
        print(render_heartbeat(heartbeats[run_id]))
        return 0
    path = live_dir / f"{run_id}.json"
    for state in follow_heartbeat(path, poll_s=args.poll, timeout_s=args.timeout):
        print(render_heartbeat(state), flush=True)
    return 0


def _cmd_obs_check_bench(args: argparse.Namespace) -> int:
    bench_dir = Path(args.bench_dir)
    baselines_path = Path(args.baselines) if args.baselines else bench_dir / BASELINES_FILENAME
    baselines = load_baselines(baselines_path)
    records = load_bench_records(bench_dir)
    results = check_bench(records, baselines)
    passed = gate_passed(results)
    if args.json:
        print(json.dumps({"passed": passed, "checks": [r.to_dict() for r in results]},
                         indent=2, default=str))
    else:
        print(render_check_report(results))
        print()
        print("bench gate: PASS" if passed else "bench gate: FAIL")
    return 0 if passed else 1


# ----------------------------------------------------------------------
# store subcommands
# ----------------------------------------------------------------------


def _open_store(root: str):
    """The existing result store at ``root``; never creates one."""
    from ..store import ResultStore, is_store_dir

    root_path = Path(root)
    if not is_store_dir(root_path):
        raise ReproError(f"{root} is not a result store (no index.sqlite)")
    return ResultStore(root_path)


def _cmd_store_verify(args: argparse.Namespace) -> int:
    store = _open_store(args.root)
    try:
        report = store.verify(repair=args.repair)
    finally:
        store.close()
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        print(
            f"store {report['root']}: {report['ok']}/{report['entries']} entries verified, "
            f"{report['checksum_failures']} checksum failure(s), "
            f"{report['missing_payloads']} missing payload(s), "
            f"{report['orphan_payloads']} orphan payload(s), "
            f"{report['quarantined']} quarantined"
        )
        leases = report["leases"]
        if leases["active"] or leases["stale"]:
            print(f"  leases: {leases['active']} active, {leases['stale']} stale")
        for key in report["bad_keys"][:10]:
            print(f"  damaged: {key}" + (" (quarantined)" if args.repair else ""))
        if len(report["bad_keys"]) > 10:
            print(f"  ... and {len(report['bad_keys']) - 10} more")
        print("store verify: CLEAN" if report["clean"] else "store verify: DAMAGED")
    return 0 if report["clean"] else 1


def _cmd_store_gc(args: argparse.Namespace) -> int:
    store = _open_store(args.root)
    try:
        swept = store.gc()
    finally:
        store.close()
    if args.json:
        print(json.dumps({"root": args.root, **swept}, indent=2))
    else:
        print(
            f"store {args.root}: swept {swept['orphan_payloads']} orphan payload(s), "
            f"{swept['tmp_files']} temp file(s), {swept['stale_leases']} stale lease(s)"
        )
    return 0


def _cmd_version(args: argparse.Namespace) -> int:
    from .. import __version__

    print(__version__)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro`` and ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_with_telemetry(args, list(argv) if argv is not None else sys.argv[1:])
    except CampaignInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130
    except KeyboardInterrupt:
        # Second signal (or an interrupt outside a graceful scope): the
        # classic 128+SIGINT exit without a traceback.
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); not an error of ours.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
