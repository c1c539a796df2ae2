"""Campaign execution: serial and multiprocessing fan-out with a result cache.

The unit of work is one :class:`~repro.campaign.spec.CampaignPoint`.  Every
point is executed by the same module-level :func:`run_campaign_job` function
whether the campaign runs serially or through a worker pool, so the two paths
are bit-identical by construction — the pool only changes *where* the function
runs, never *what* it computes.

Error handling happens inside the job function: an exception in one point is
captured into its :class:`JobRecord` instead of tearing down the campaign,
mirroring how hardware RowHammer harnesses keep a long sweep alive when a
single configuration misbehaves.  On top of that the runner is fault
tolerant (see :mod:`repro.faults`):

* transient failures are retried per point under a seeded
  :class:`~repro.faults.RetryPolicy` (exponential backoff + jitter);
* a worker that dies (OOM kill, segfault, injected ``kill`` fault) is
  detected through start sentinels plus pid liveness probes, the pool is
  respawned, unfinished points are re-dispatched, and a point that keeps
  killing its worker is quarantined with a ``status="crashed"`` record;
* SIGINT/SIGTERM drain in-flight bookkeeping and raise
  :class:`~repro.errors.CampaignInterrupted` — completed points are cached,
  so the next run resumes where the interrupted one stopped.
"""

from __future__ import annotations

import contextlib
import copy
import json
import multiprocessing
import multiprocessing.pool
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..attack.neurohammer import COUNT_FIELDS, AttackResult, NeuroHammer, SteadyState
from ..circuit.crossbar import CrossbarArray
from ..config import AttackConfig, SimulationConfig
from ..errors import CampaignError, CampaignInterrupted, StoreError
from ..faults import (
    RetryPolicy,
    ShutdownFlag,
    fire_point_faults,
    graceful_shutdown,
    hold_store_lock,
    is_retryable,
    perturb_result,
    set_current_attempt,
    should_hold_lock,
    should_perturb_result,
    should_tear_write,
    tear_payload,
)
from ..obs import Telemetry, enable_telemetry, get_telemetry, telemetry_capture, telemetry_enabled
from ..utils.logging import get_logger
from .cache import ResultCache
from .spec import CampaignPoint, CampaignSpec

#: Payload handed to a (possibly remote) job function.
JobPayload = Tuple[int, str, Dict[str, Any], Dict[str, Any]]

#: Poll interval of the pool wait loop (sentinels, results, deadlines, pids).
_POOL_POLL_S = 0.02

#: Poll interval while waiting on points another process holds a lease on.
_LEASE_POLL_S = 0.05

#: Fresh resilience-counter template for one runner execution.
_ZERO_RESILIENCE = {
    "retried": 0,
    "crashed": 0,
    "quarantined": 0,
    "pool_restarts": 0,
    "lease_steals": 0,
    "claim_conflicts": 0,
}

#: How long the parent waits for results that crossed the pipe before a
#: worker died to be delivered, before attributing the crash.
_CRASH_DRAIN_S = 0.5


def _latest_started_index(started: Dict[int, Tuple[int, float]], pid: int) -> Optional[int]:
    """The most recently announced job of one worker pid (its true victim)."""
    best: Optional[int] = None
    best_t = float("-inf")
    for index, (p, t_start) in started.items():
        if p == pid and t_start > best_t:
            best, best_t = index, t_start
    return best

logger = get_logger("campaign.runner")

#: Worker-side start-sentinel queue, armed by :func:`_init_worker`; ``None``
#: in the parent and on the serial path.
_worker_start_queue: Optional[Any] = None

#: Most steady states one share holds; a full share forgets its oldest.
STEADY_STATE_SHARE_SIZE = 256

#: The attack steady states of the running :meth:`CampaignRunner.run` (or
#: of this pool worker), keyed by :func:`_steady_state_key`; ``None``
#: outside a run, where every point solves its own.
_steady_states: Optional[Dict[str, SteadyState]] = None


@contextlib.contextmanager
def _steady_state_share() -> Iterator[None]:
    """An empty steady-state share for the enclosed run, dropped at its end."""
    global _steady_states
    enclosing, _steady_states = _steady_states, {}
    try:
        yield
    finally:
        _steady_states = enclosing


def _init_worker(telemetry_on: bool, start_queue: Optional[Any] = None) -> None:
    """Pool initializer: arm worker-local telemetry, the start sentinel and
    the worker's own steady-state share.

    The job payload tuple stays untouched (its content feeds the cache keys),
    so the telemetry flag and the sentinel queue travel through the pool
    initializer instead.  A forked worker inherits the parent's active
    telemetry, heartbeat and audit trail included; the fresh worker-local
    :class:`~repro.obs.Telemetry` drops both, so only the parent ever
    rewrites its heartbeat file or appends to its audit stream.

    Workers forked while the parent holds the graceful-shutdown scope inherit
    its cooperative signal handlers, under which a SIGTERM would merely set a
    flag and never kill the worker.  Reset SIGTERM to its default so the
    worker stays killable, and ignore SIGINT so a terminal Ctrl-C
    (delivered to the whole process group) interrupts only the parent, which
    then drains and tears the pool down deliberately.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if hasattr(signal, "SIGTERM"):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    global _worker_start_queue, _steady_states
    _worker_start_queue = start_queue
    _steady_states = {}
    if telemetry_on:
        enable_telemetry(Telemetry())


class _TeardownPool(multiprocessing.pool.Pool):
    """A process pool whose ``terminate()`` stops its workers with SIGKILL.

    ``Pool.terminate`` sends SIGTERM, which a worker forked just before the
    teardown can lose: CPython clears the signals that arrive before a
    forked child re-initialises its interpreter, and the teardown then joins
    that worker forever.  SIGKILL can be neither lost nor caught.  The pool
    sends it only after taking its task queue's read lock, so no worker dies
    holding that lock.
    """

    @staticmethod
    def Process(ctx: Any, *args: Any, **kwds: Any) -> Any:
        process = ctx.Process(*args, **kwds)
        process.terminate = process.kill
        return process


def _dispatch_job(job_fn: Callable[[JobPayload], "JobRecord"], payload: JobPayload, attempt: int) -> "JobRecord":
    """Execute one job attempt, announcing the start to the parent first.

    The start sentinel ``(point index, worker pid)`` is what lets the parent
    attribute a dead worker to the point it was running and start that job's
    timeout clock.  ``SimpleQueue.put`` is synchronous (no feeder thread), so
    the sentinel survives even a SIGKILL landing right after it.  The attempt
    number is parked in process-local fault-injection context so transient
    (``x1``) injected faults stop firing once the point is retried.
    """
    if _worker_start_queue is not None:
        _worker_start_queue.put((payload[0], os.getpid()))
    set_current_attempt(attempt)
    try:
        record = job_fn(payload)
    finally:
        set_current_attempt(0)
    record.attempts = attempt + 1
    return record


def attack_result_to_dict(result: AttackResult) -> Dict[str, Any]:
    """Flatten an :class:`AttackResult` into a JSON-serialisable record."""
    return {
        "pattern": result.pattern_name,
        "victim": list(result.victim),
        "aggressors": [list(cell) for cell in result.aggressors],
        "phases": len(result.phase_points),
        "flipped": bool(result.flipped),
        "pulses": int(result.pulses),
        "pulses_per_aggressor": float(result.pulses_per_aggressor),
        "stress_time_s": float(result.stress_time_s),
        "wall_clock_s": float(result.wall_clock_s),
        "victim_final_x": float(result.victim_final_x),
        "victim_temperature_k": float(result.victim_temperature_k),
        "pulse_length_s": float(result.pulse_length_s),
        "ambient_temperature_k": float(result.ambient_temperature_k),
        "hammer_energy_j": float(result.hammer_energy_j),
    }


def _steady_state_key(job: Dict[str, Any]) -> str:
    """``job`` as canonical JSON without the attack leaves only the count reads.

    Every other field stays in the key, so a field the steady state does not
    read can only make two points miss each other, never hit wrongly.
    """
    job = copy.deepcopy(job)
    for path in COUNT_FIELDS:
        *sections, leaf = path.split(".")
        node = job["attack"]
        for section in sections:
            node = node.get(section, {})
        node.pop(leaf, None)
    return json.dumps(job, sort_keys=True, default=str)


def execute_attack_point(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one attack point: the campaign equivalent of ``hammer_once``.

    The attack's steady state (:class:`~repro.attack.neurohammer.SteadyState`)
    does not depend on its pulse length, duty cycle or pulse budget, so
    within one :meth:`CampaignRunner.run` the points that differ only in
    those share it: the first solves it and the others only count from it
    (``attack.steady_state.shared`` counts them), building nothing.  A point
    that solves builds its own crossbar from its simulation config, at the
    attack's ambient temperature.  The nodal solver warm-starts from its
    last solve, so a shared crossbar would make a point's result depend on
    the points run before it.  Called outside a run, a point shares nothing.
    """
    attack = AttackConfig.from_dict(job["attack"])
    share = _steady_states
    key = steady = None
    if share is not None:
        key = _steady_state_key(job)
        steady = share.get(key)
    if steady is not None:
        tel = get_telemetry()
        if tel.enabled:
            tel.count("attack.steady_state.shared")
    else:
        simulation = SimulationConfig.from_dict(job["simulation"])
        crossbar = CrossbarArray(
            geometry=simulation.geometry,
            wires=simulation.wires,
            ambient_temperature_k=attack.ambient_temperature_k,
        )
        steady = NeuroHammer(crossbar).steady_state(config=attack)
        if share is not None:
            if len(share) >= STEADY_STATE_SHARE_SIZE:
                del share[next(iter(share))]
            share[key] = steady
    return attack_result_to_dict(steady.count(attack))


def execute_montecarlo_point(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one Monte-Carlo population point and return its summary record."""
    # Imported lazily: repro.montecarlo builds on the campaign package.
    from ..montecarlo.engine import MonteCarloConfig, MonteCarloEngine

    simulation = SimulationConfig.from_dict(job["simulation"])
    attack = AttackConfig.from_dict(job["attack"])
    montecarlo = MonteCarloConfig.from_dict(job.get("montecarlo", {}))
    result = MonteCarloEngine(montecarlo, simulation=simulation, attack=attack).run()
    record = result.summary()
    # The engine's own wall time survives in the result payload (the runner
    # tracks the job's total under the JobRecord's duration_s), so cached
    # replays can still report the original compute cost.
    record["engine_duration_s"] = record.pop("duration_s", 0.0)
    record["conditions"] = result.conditions.to_dict()
    record["pulse_length_s"] = float(attack.pulse.length_s)
    record["ambient_temperature_k"] = float(attack.ambient_temperature_k)
    return record


def execute_point(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one materialised campaign point according to its job kind."""
    if job.get("kind", "attack") == "montecarlo":
        return execute_montecarlo_point(job)
    return execute_attack_point(job)


@dataclass
class JobRecord:
    """Outcome of one campaign point: a result, an error, a timeout or a crash."""

    index: int
    key: str
    status: str  # "ok" | "error" | "timeout" | "crashed"
    overrides: Dict[str, Any] = field(default_factory=dict)
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    duration_s: float = 0.0
    cached: bool = False
    #: Telemetry snapshot of the job's own scope (when telemetry is active).
    telemetry: Optional[Dict[str, Any]] = None
    #: Executions of this point in this run (retries and crash re-dispatches
    #: included); 1 for a single clean execution.
    attempts: int = 1
    #: For error records: whether the captured exception classified as
    #: transient (see :func:`repro.faults.is_retryable`).
    retryable: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "index": self.index,
            "key": self.key,
            "status": self.status,
            "overrides": self.overrides,
            "result": self.result,
            "error": self.error,
            "duration_s": self.duration_s,
            "cached": self.cached,
            "attempts": self.attempts,
        }
        if self.status == "error":
            payload["retryable"] = self.retryable
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry
        return payload


def run_campaign_job(payload: JobPayload) -> JobRecord:
    """Execute one job payload, capturing any exception into the record.

    With telemetry active, the job runs under a fresh job-local
    :class:`~repro.obs.Telemetry` whose snapshot rides back on the record —
    uniformly for the serial and pool paths, so per-job span trees cross the
    multiprocessing boundary as plain dicts and the parent merges them.

    The job-local telemetry carries no audit trail and no heartbeat: stage
    records from a serial in-process job would otherwise leak into the
    parent's stream, which pool jobs (separate processes) could never mirror,
    breaking the serial-vs-pool stream identity.  The campaign's own
    fingerprints are emitted parent-side per point, ordered by index (see
    :meth:`CampaignRunner.run`), and the parent reports per-point progress.
    """
    if telemetry_enabled():
        with telemetry_capture(Telemetry()) as tel:
            with tel.span("campaign.job", index=payload[0]):
                record = _execute_campaign_job(payload)
            record.telemetry = tel.snapshot()
        return record
    return _execute_campaign_job(payload)


def _execute_campaign_job(payload: JobPayload) -> JobRecord:
    index, key, job, overrides = payload
    start = time.perf_counter()
    try:
        # Chaos harness hook: inert unless $REPRO_FAULTS is set.  Raised
        # faults land in the except-clause like any real point failure.
        fire_point_faults(index)
        result = execute_point(job)
        # Chaos harness hook: nudge one numeric leaf of the freshly computed
        # result *before* publication, so cache, report and audit fingerprint
        # all agree with each other yet diverge from a clean run — the
        # scenario `repro obs audit` must localize.  Inert without faults.
        if should_perturb_result(index):
            result = perturb_result(result)
    except Exception as exc:  # noqa: BLE001 — one bad point must not kill the sweep
        return JobRecord(
            index=index,
            key=key,
            status="error",
            overrides=overrides,
            error=f"{type(exc).__name__}: {exc}",
            duration_s=time.perf_counter() - start,
            retryable=is_retryable(exc),
        )
    return JobRecord(
        index=index,
        key=key,
        status="ok",
        overrides=overrides,
        result=result,
        duration_s=time.perf_counter() - start,
    )


@dataclass
class CampaignReport:
    """Aggregate outcome of one campaign run, ordered by point index."""

    spec_name: str
    experiment: str
    records: List[JobRecord] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def ok_records(self) -> List[JobRecord]:
        return [record for record in self.records if record.ok]

    @property
    def failed_records(self) -> List[JobRecord]:
        return [record for record in self.records if not record.ok]

    @property
    def cached_count(self) -> int:
        return sum(1 for record in self.records if record.cached)

    @property
    def computed_count(self) -> int:
        return sum(1 for record in self.records if not record.cached)

    @property
    def compute_duration_s(self) -> float:
        """Summed per-job compute time, including what cached records cost
        when they were originally computed (preserved through the cache)."""
        return sum(record.duration_s for record in self.records)

    def counts(self) -> Dict[str, int]:
        """Point counts per status plus cache hits and re-executions."""
        counts = {"total": len(self.records), "ok": 0, "error": 0, "timeout": 0, "crashed": 0}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        counts["cached"] = self.cached_count
        # Re-executions beyond the first attempt: retries of transient
        # failures plus crash re-dispatches.
        counts["retried"] = sum(
            max(0, record.attempts - 1) for record in self.records if not record.cached
        )
        return counts

    def summary(self) -> str:
        """One-line human-readable digest."""
        counts = self.counts()
        line = (
            f"campaign {self.spec_name!r}: {counts['total']} points, "
            f"{counts['ok']} ok ({counts['cached']} cached), "
            f"{counts['error']} errors, {counts['timeout']} timeouts"
        )
        if counts["crashed"]:
            line += f", {counts['crashed']} crashed"
        if counts["retried"]:
            line += f", {counts['retried']} retried"
        line += f" in {self.duration_s:.2f}s (compute {self.compute_duration_s:.2f}s)"
        return line

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec_name": self.spec_name,
            "experiment": self.experiment,
            "duration_s": self.duration_s,
            "compute_duration_s": self.compute_duration_s,
            "counts": self.counts(),
            "records": [record.to_dict() for record in self.records],
        }


class CampaignRunner:
    """Executes a :class:`CampaignSpec` serially or over a worker pool.

    ``workers=0`` (or 1) selects the serial path; ``workers >= 2`` fans the
    pending points out over a :mod:`multiprocessing` pool.  With a
    :class:`~repro.campaign.cache.ResultCache` attached, previously computed
    points are served from disk and only the missing ones are executed, which
    also makes interrupted campaigns resumable.

    ``timeout_s`` bounds the wall-clock compute per job (measured from the
    job's start sentinel); a point that exceeds it is recorded with status
    ``"timeout"`` and its pool is torn down so stragglers cannot outlive the
    campaign.  Because a timeout can only be enforced across a process
    boundary, setting ``timeout_s`` routes even a ``workers=0`` run through a
    single-process pool.

    ``retry`` applies a :class:`~repro.faults.RetryPolicy` to error records
    whose exception classified as transient (solver non-convergence,
    OS-level flakes, injected transient faults); retries re-dispatch after a
    seeded backoff.  Timeouts are never retried — a hang is presumed
    deterministic.  ``max_crashes`` bounds how many times a point may take a
    worker down with it before it is quarantined with a ``"crashed"`` record.

    With a cache (a :mod:`repro.store` result store), pending points are
    claimed through advisory leases before computing: N concurrent runs of
    one spec partition the sweep instead of duplicating it.  Points another
    process holds are deferred — this run polls for their published result,
    reclaims the lease if the holder releases without publishing, and steals
    it if the holder goes stale (dead pid or lapsed deadline).  Steals and
    claim conflicts are counted in :attr:`resilience`; runs without a cache
    skip leasing entirely.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        cache: Optional[ResultCache] = None,
        workers: Optional[int] = 0,
        timeout_s: Optional[float] = None,
        job_fn: Callable[[JobPayload], JobRecord] = run_campaign_job,
        retry: Optional[RetryPolicy] = None,
        max_crashes: int = 3,
    ):
        if workers is None:
            workers = 0
        if workers < 0:
            raise CampaignError("workers must be >= 0")
        if timeout_s is not None and timeout_s <= 0:
            raise CampaignError("timeout_s must be positive")
        if max_crashes < 1:
            raise CampaignError("max_crashes must be >= 1")
        self.spec = spec
        self.cache = cache
        self.workers = workers
        self.timeout_s = timeout_s
        self.job_fn = job_fn
        self.retry = retry
        self.max_crashes = max_crashes
        #: Resilience counters of the most recent :meth:`run`.
        self.resilience: Dict[str, int] = dict(_ZERO_RESILIENCE)
        self._shutdown: Optional[ShutdownFlag] = None
        self._used_pool = False
        #: Active lease manager of the cache's store; set per run.
        self._leases: Optional[Any] = None

    # ------------------------------------------------------------------

    def run(self) -> CampaignReport:
        """Execute the spec's missing points and return the report.

        Points stream through :meth:`~repro.campaign.spec.CampaignSpec.iter_shards`:
        with ``shard_size`` set, only one shard of validated jobs exists in
        memory at a time — each shard is looked up in the cache, its missing
        points executed and stored, then dropped before the next shard is
        materialised.  Without sharding there is exactly one shard, which is
        the original all-at-once behaviour.

        Attack points of one run share their steady states (see
        :func:`execute_attack_point`); the share is dropped when the run
        ends, and each pool worker keeps its own.

        On SIGINT/SIGTERM the run drains its bookkeeping (completed records
        are stored and cached) and raises
        :class:`~repro.errors.CampaignInterrupted`; a second signal aborts
        immediately.
        """
        start = time.perf_counter()
        tel = get_telemetry()
        hb = tel.heartbeat
        used_pool = self.workers >= 2 or self.timeout_s is not None
        self._used_pool = used_pool
        self.resilience = dict(_ZERO_RESILIENCE)
        self._leases = self.cache.store.leases if self.cache is not None else None
        records: Dict[int, JobRecord] = {}
        cache_hits = failed = 0
        if hb is not None:
            hb.update(spec_name=self.spec.name, total=self.spec.point_count(), workers=self.workers)

        def consume(record: JobRecord) -> None:
            """Fold one finished record into the run: cache, lease, counters."""
            nonlocal failed
            records[record.index] = record
            self._store(record)
            # Publish-then-release: the lease drops only once the result is
            # on disk (or the point finished non-ok and will be retried by a
            # later run — releasing lets another live process claim it now).
            self._release_point(record.key)
            if not record.ok:
                failed += 1
            if hb is not None:
                hb.advance(1, failed=failed)
            if tel.enabled and record.telemetry is not None:
                # Pool jobs ran concurrently with the parent span, so their
                # time must not be subtracted from its exclusive accounting;
                # serial jobs consumed it.
                tel.merge_snapshot(record.telemetry, remote=used_pool)
            logger.debug(
                "campaign %r: point %d finished with status %r in %.3fs",
                self.spec.name,
                record.index,
                record.status,
                record.duration_s,
            )

        with graceful_shutdown() as shutdown, _steady_state_share():
            self._shutdown = shutdown
            try:
                with tel.span("campaign.run", spec=self.spec.name, workers=self.workers):
                    for shard in self.spec.iter_shards():
                        pending: List[CampaignPoint] = []
                        for point in shard:
                            cached = self._lookup(point)
                            if cached is not None:
                                records[point.index] = cached
                            else:
                                pending.append(point)
                        cache_hits += len(shard) - len(pending)
                        if tel.enabled:
                            tel.count("campaign.cache.hits", len(shard) - len(pending))
                            tel.count("campaign.cache.misses", len(pending))
                        if hb is not None:
                            # Shard boundary: cached points count as done immediately.
                            hb.advance(len(shard) - len(pending), cached=cache_hits)
                        self._check_interrupted(records)

                        claimed, deferred, raced = self._claim_shard(pending)
                        for record in raced:
                            # Published by another process between our cache
                            # miss and the lease claim: a hit after all.
                            records[record.index] = record
                            cache_hits += 1
                            if hb is not None:
                                hb.advance(1, cached=cache_hits)
                        if claimed or deferred:
                            logger.debug(
                                "campaign %r: executing %d claimed point(s), "
                                "%d deferred to other holders (%s)",
                                self.spec.name,
                                len(claimed),
                                len(deferred),
                                "pool" if used_pool else "serial",
                            )
                        if claimed:
                            # Records are cached as they complete, so an interrupted
                            # campaign keeps every finished point and resumes from there.
                            for record in self._execute_points(claimed):
                                consume(record)
                            self._check_interrupted(records)
                        if deferred:
                            for record in self._await_deferred(deferred):
                                consume(record)
                        self._check_interrupted(records)
            finally:
                self._shutdown = None
                if self._leases is not None:
                    # Normal completion released per point; this catches the
                    # interrupt/error paths so other processes are not stuck
                    # waiting on leases a dead campaign still "holds".
                    self._leases.release_all()
                    self._leases = None

        wall = time.perf_counter() - start
        report = CampaignReport(
            spec_name=self.spec.name,
            experiment=self.spec.experiment,
            records=[records[index] for index in sorted(records)],
            duration_s=wall,
        )
        self._audit_report(report)
        utilization: Optional[float] = None
        if used_pool and wall > 0.0:
            busy = sum(r.duration_s for r in report.records if not r.cached)
            utilization = busy / (max(1, self.workers) * wall)
        if tel.enabled:
            tel.count("campaign.points", len(report.records))
            if utilization is not None:
                tel.gauge("campaign.worker_utilization", utilization)
        if hb is not None:
            if utilization is not None:
                hb.update(worker_utilization=utilization)
            else:
                hb.update()
        logger.debug("%s", report.summary())
        return report

    def _audit_report(self, report: CampaignReport) -> None:
        """Emit one ``campaign.point`` fingerprint per record, sorted by index.

        Runs parent-side after the sweep, over the same deterministic payload
        shape :meth:`_store` publishes (volatile wall-clock keys are stripped
        by the fingerprinter).  Because the records are keyed and ordered by
        point index — never by completion order — serial, pool and
        multi-process shared-store executions of one seeded spec produce
        byte-identical streams, and a cached replay matches the run that
        computed it.
        """
        audit = get_telemetry().audit
        if audit is None:
            return
        for record in report.records:  # already sorted by index
            audit.record(
                "campaign.point",
                key=record.index,
                payload={
                    "status": record.status,
                    "result": record.result,
                    "overrides": record.overrides,
                    "spec_name": report.spec_name,
                    "experiment": report.experiment,
                },
                meta={"key": record.key, "status": record.status, "cached": record.cached},
            )

    def status(self) -> Dict[str, Any]:
        """Cache coverage of the spec without executing anything.

        Streams over the points, so the status of an arbitrarily large
        sharded campaign is computed in constant memory (plus the labels of
        the missing points).
        """
        total = cached = 0
        cached_duration = 0.0
        missing_labels: List[str] = []
        shard_size = self.spec.shard_size
        shards: List[Dict[str, int]] = []
        for point in self.spec.iter_points():
            total += 1
            hit = self._lookup(point)
            if hit is not None:
                cached += 1
                cached_duration += hit.duration_s
            else:
                missing_labels.append(point.label())
            if shard_size:
                shard_index = point.index // shard_size
                while len(shards) <= shard_index:
                    shards.append({"shard": len(shards), "total": 0, "cached": 0})
                shards[shard_index]["total"] += 1
                if hit is not None:
                    shards[shard_index]["cached"] += 1
        status: Dict[str, Any] = {
            "spec_name": self.spec.name,
            "total": total,
            "cached": cached,
            "cached_duration_s": cached_duration,
            "missing": len(missing_labels),
            "missing_points": missing_labels,
        }
        if shard_size:
            status["shard_size"] = shard_size
            status["shards"] = shards
        return status

    # ------------------------------------------------------------------
    # execution paths
    # ------------------------------------------------------------------

    def _stop_requested(self) -> bool:
        return self._shutdown is not None and self._shutdown.requested

    def _check_interrupted(self, records: Dict[int, JobRecord]) -> None:
        if not self._stop_requested():
            return
        signal_name = self._shutdown.signal_name if self._shutdown else "signal"
        raise CampaignInterrupted(
            f"campaign {self.spec.name!r} interrupted by {signal_name}: "
            f"{len(records)} point(s) finished and cached; rerun the same spec to resume"
        )

    def _execute_points(self, points: Sequence[CampaignPoint]) -> Iterator[JobRecord]:
        """Run points through the pool or serial path, whichever is active."""
        payloads = [(p.index, p.key, p.job, p.overrides) for p in points]
        # A timeout can only be enforced on a job running in a separate
        # process, so timeout_s forces the pool path even at workers<=1.
        if self._used_pool:
            return self._iter_parallel(payloads)
        return self._iter_serial(payloads)

    # ------------------------------------------------------------------
    # point leasing
    # ------------------------------------------------------------------

    def _claim_shard(
        self, pending: Sequence[CampaignPoint]
    ) -> Tuple[List[CampaignPoint], List[CampaignPoint], List[JobRecord]]:
        """Partition pending points into claimed / deferred / raced-cached.

        *Claimed* points are ours to compute (lease acquired, or a stale one
        stolen).  *Deferred* points are validly held by another live process
        — each one counts a claim conflict and is resolved later by
        :meth:`_await_deferred`.  *Raced* records cover the window between
        our cache miss and the claim: the holder published in the meantime,
        so the point is a cache hit after all and the fresh lease is dropped.
        Without a cache there are no leases and everything is claimed.
        """
        if self._leases is None:
            return list(pending), [], []
        claimed: List[CampaignPoint] = []
        deferred: List[CampaignPoint] = []
        raced: List[JobRecord] = []
        for point in pending:
            if self._leases.acquire(point.key) or self._try_steal(point):
                hit = self._lookup(point)
                if hit is not None:
                    self._release_point(point.key)
                    raced.append(hit)
                else:
                    claimed.append(point)
            else:
                self._note_claim_conflict(point.index)
                deferred.append(point)
        hb = get_telemetry().heartbeat
        if hb is not None:
            hb.update(leases_held=len(self._leases.held))
        return claimed, deferred, raced

    def _try_steal(self, point: CampaignPoint) -> bool:
        """Steal the lease on one point iff its current holder is stale."""
        assert self._leases is not None
        state = self._leases.read(point.key)
        if state is None:
            # Released (or torn) between our failed acquire and this probe.
            return self._leases.acquire(point.key)
        if not self._leases.is_stale(state):
            return False
        if self._leases.steal(point.key):
            self._note_lease_steal(point.index, state)
            return True
        return False

    def _await_deferred(self, deferred: Sequence[CampaignPoint]) -> Iterator[JobRecord]:
        """Resolve points another process held when this shard was claimed.

        Each outstanding point settles one of three ways: the holder
        publishes (cache hit), the holder releases without publishing
        (reclaim and compute here), or the holder goes stale — dead pid or
        lapsed deadline — and its lease is stolen.  Liveness is guaranteed
        by the stale probe: a holder that stops refreshing loses the lease
        after at most one TTL, so this loop cannot wait forever.
        """
        outstanding: Dict[int, CampaignPoint] = {point.index: point for point in deferred}
        while outstanding:
            progressed = False
            claimed_now: List[CampaignPoint] = []
            for index in sorted(outstanding):
                point = outstanding[index]
                hit = self._lookup(point)
                if hit is not None:
                    del outstanding[index]
                    progressed = True
                    yield hit
                    continue
                assert self._leases is not None
                if self._leases.acquire(point.key) or self._try_steal(point):
                    del outstanding[index]
                    progressed = True
                    claimed_now.append(point)
            if claimed_now:
                for record in self._execute_points(claimed_now):
                    yield record
            if self._stop_requested():
                return
            if not progressed:
                self._refresh_leases()
                time.sleep(_LEASE_POLL_S)

    def _release_point(self, key: str) -> None:
        """Drop the lease on one key if this run holds it (best effort)."""
        if self._leases is not None and self._leases.holds(key):
            with contextlib.suppress(StoreError):
                self._leases.release(key)

    def _refresh_leases(self) -> None:
        """Opportunistically extend held leases past half-life (wait loops)."""
        if self._leases is None:
            return
        try:
            refreshed = self._leases.refresh_due()
        except StoreError as exc:
            logger.warning("campaign %r: lease refresh failed: %s", self.spec.name, exc)
            return
        if refreshed:
            tel = get_telemetry()
            if tel.enabled:
                tel.count("store.lease_refreshes", refreshed)

    def _iter_serial(self, payloads: Sequence[JobPayload]) -> Iterator[JobRecord]:
        """Serial fallback — same job function, same records, same bits."""
        for payload in payloads:
            self._refresh_leases()
            attempt = 0
            while True:
                record = _dispatch_job(self.job_fn, payload, attempt)
                if self._wants_retry(record, attempt):
                    attempt += 1
                    delay = self.retry.delay_s(attempt, key=record.key)  # type: ignore[union-attr]
                    self._note_retry(record, delay)
                    if delay > 0.0:
                        time.sleep(delay)
                    continue
                yield record
                break
            if self._stop_requested():
                return

    def _iter_parallel(self, payloads: Sequence[JobPayload]) -> Iterator[JobRecord]:
        """Fan out over a pool, yielding each record as it completes.

        The pool runs in *generations*: one pool serves dispatches until a
        fault forces a teardown — a job past its deadline (its worker is
        hung) or a dead worker (its in-flight job is lost).  Results that
        completed before the teardown are always harvested, never
        recomputed; everything unfinished is re-dispatched by the next
        generation.  A point whose worker died ``max_crashes`` times is
        quarantined with a ``"crashed"`` record instead of being
        re-dispatched forever.
        """
        pending: Dict[int, JobPayload] = {payload[0]: payload for payload in payloads}
        attempts: Dict[int, int] = {index: 0 for index in pending}
        crashes: Dict[int, int] = {index: 0 for index in pending}
        not_before: Dict[int, float] = {index: 0.0 for index in pending}
        ctx = multiprocessing.get_context()
        while pending:
            outcome = yield from self._run_pool_generation(ctx, pending, attempts, crashes, not_before)
            if outcome == "interrupted":
                return
            if outcome is not None:
                self._note_pool_restart(outcome)

    def _run_pool_generation(
        self,
        ctx: Any,
        pending: Dict[int, JobPayload],
        attempts: Dict[int, int],
        crashes: Dict[int, int],
        not_before: Dict[int, float],
    ) -> Iterator[JobRecord]:
        """One pool lifetime; returns the teardown reason (None = drained)."""
        start_queue = ctx.SimpleQueue()
        pool = _TeardownPool(
            processes=max(1, self.workers),
            initializer=_init_worker,
            initargs=(telemetry_enabled(), start_queue),
            context=ctx,
        )
        waiting = dict(pending)  # index -> payload, not yet dispatched
        handles: Dict[int, Any] = {}  # index -> AsyncResult
        started: Dict[int, Tuple[int, float]] = {}  # index -> (worker pid, t_start)
        workers_seen: Dict[int, Any] = {}  # pid -> Process snapshot
        outcome: Optional[str] = None

        def read_start_sentinels() -> None:
            while not start_queue.empty():
                s_index, s_pid = start_queue.get()
                if s_index in handles:
                    started[s_index] = (s_pid, time.monotonic())

        def snapshot_workers() -> None:
            # The pool replaces dead workers in place, so liveness must be
            # probed on the process objects we saw.
            for proc in getattr(pool, "_pool", []):
                if proc.pid is not None:
                    workers_seen.setdefault(proc.pid, proc)

        try:
            # The first workers are seen before any job is dispatched: one
            # that dies on its first job can be replaced before the loop
            # looks, and a death never seen would leave its job awaited
            # forever.  The first death of a generation is therefore always
            # seen, and it tears the generation down.
            snapshot_workers()
            while waiting or handles:
                self._refresh_leases()
                now = time.monotonic()
                for index in [i for i in waiting if not_before[i] <= now]:
                    handles[index] = pool.apply_async(
                        _dispatch_job, (self.job_fn, waiting.pop(index), attempts[index])
                    )
                read_start_sentinels()
                snapshot_workers()
                progressed = False
                for index in [i for i in handles if handles[i].ready()]:
                    progressed = True
                    record = self._harvest(handles.pop(index), pending[index], attempts[index])
                    started.pop(index, None)
                    final = self._settle(record, pending, attempts, not_before, waiting)
                    if final is not None:
                        yield final
                if self._stop_requested():
                    outcome = "interrupted"
                    break
                timed_out = self._expire_deadlines(handles, started, pending, attempts)
                if timed_out:
                    for record in timed_out:
                        yield record
                    outcome = "timeout"
                    break
                dead_pids = {pid for pid, proc in workers_seen.items() if proc.exitcode is not None}
                if dead_pids and (handles or waiting):
                    # A worker announces its job before running it, so the
                    # sentinel of the job it died on is already in the pipe,
                    # even if it arrived after this iteration's first read.
                    read_start_sentinels()
                    # A dead worker is only guilty of the job named by its
                    # *last* start sentinel.  Any earlier sentinel from the
                    # same pid means that job completed (the worker moved
                    # on) and its result is fully in the outqueue pipe —
                    # the result-handler thread delivers it independent of
                    # worker death, so drain before attributing blame.
                    drain_deadline = time.monotonic() + _CRASH_DRAIN_S
                    while True:
                        for index in [i for i in handles if handles[i].ready()]:
                            record = self._harvest(handles.pop(index), pending[index], attempts[index])
                            started.pop(index, None)
                            final = self._settle(record, pending, attempts, not_before, waiting)
                            if final is not None:
                                yield final
                        lagging = [
                            index
                            for index, (pid, _t0) in started.items()
                            if pid in dead_pids
                            and index in handles
                            and index != _latest_started_index(started, pid)
                        ]
                        if not lagging or time.monotonic() >= drain_deadline:
                            break
                        time.sleep(_POOL_POLL_S)
                    for record in self._attribute_crashes(
                        dead_pids, handles, started, pending, attempts, crashes
                    ):
                        yield record
                    outcome = "worker-crash"
                    break
                if not progressed:
                    time.sleep(_POOL_POLL_S)
            # Teardown harvest: whatever finished while we decided to restart
            # is collected here — completed results are never recomputed.
            for index in [i for i in handles if handles[i].ready()]:
                record = self._harvest(handles.pop(index), pending[index], attempts[index])
                final = self._settle(record, pending, attempts, not_before, waiting)
                if final is not None:
                    yield final
        finally:
            if outcome is not None:
                # A worker is hung or dead (or we are stopping): don't wait.
                pool.terminate()
            else:
                pool.close()
            pool.join()
        return outcome

    def _wants_retry(self, record: JobRecord, attempt: int) -> bool:
        return (
            self.retry is not None
            and record.status == "error"
            and record.retryable
            and attempt + 1 < self.retry.max_attempts
            and not self._stop_requested()
        )

    def _settle(
        self,
        record: JobRecord,
        pending: Dict[int, JobPayload],
        attempts: Dict[int, int],
        not_before: Dict[int, float],
        waiting: Dict[int, JobPayload],
    ) -> Optional[JobRecord]:
        """Decide a harvested record's fate: final (returned) or re-dispatch."""
        index = record.index
        if self._wants_retry(record, attempts[index]):
            attempts[index] += 1
            delay = self.retry.delay_s(attempts[index], key=record.key)  # type: ignore[union-attr]
            self._note_retry(record, delay)
            not_before[index] = time.monotonic() + delay
            waiting[index] = pending[index]
            return None
        del pending[index]
        return record

    def _harvest(self, handle: Any, payload: JobPayload, attempt: int) -> JobRecord:
        """Fetch one finished handle, degrading delivery failures to records.

        ``AsyncResult.get`` re-raises whatever crossed the pipe — typically a
        ``MaybeEncodingError`` for an unpicklable result, or an exception a
        custom ``job_fn`` let escape.  One bad delivery must not kill the
        campaign, so it becomes an ordinary error record.
        """
        index, key, _job, overrides = payload
        try:
            return handle.get()
        except Exception as exc:  # noqa: BLE001 — degrade, don't die
            logger.warning("campaign point %d failed in result delivery: %s", index, exc)
            tel = get_telemetry()
            if tel.enabled:
                tel.count("campaign.harvest_errors")
            return JobRecord(
                index=index,
                key=key,
                status="error",
                overrides=overrides,
                error=f"result delivery failed: {type(exc).__name__}: {exc}",
                retryable=is_retryable(exc),
                attempts=attempt + 1,
            )

    def _expire_deadlines(
        self,
        handles: Dict[int, Any],
        started: Dict[int, Tuple[int, float]],
        pending: Dict[int, JobPayload],
        attempts: Dict[int, int],
    ) -> List[JobRecord]:
        """Turn jobs past their per-job deadline into timeout records.

        The clock starts at the job's start sentinel, so queued jobs are not
        charged for time spent waiting behind a straggler.  Timeouts are
        terminal — a hang is presumed deterministic, so there is no retry.
        """
        if self.timeout_s is None:
            return []
        now = time.monotonic()
        expired: List[JobRecord] = []
        for index, (_pid, t_start) in list(started.items()):
            if index not in handles or now - t_start <= self.timeout_s:
                continue
            handles.pop(index)
            started.pop(index)
            payload = pending.pop(index)
            expired.append(
                JobRecord(
                    index=index,
                    key=payload[1],
                    status="timeout",
                    overrides=payload[3],
                    error=f"job exceeded timeout of {self.timeout_s}s",
                    duration_s=self.timeout_s,
                    attempts=attempts[index] + 1,
                )
            )
        return expired

    def _attribute_crashes(
        self,
        dead_pids: Sequence[int],
        handles: Dict[int, Any],
        started: Dict[int, Tuple[int, float]],
        pending: Dict[int, JobPayload],
        attempts: Dict[int, int],
        crashes: Dict[int, int],
    ) -> List[JobRecord]:
        """Map dead workers to the points they ran; quarantine repeat killers.

        A worker that died before announcing its job cannot be attributed;
        the pool restart alone re-dispatches everything unfinished, which is
        the conservative recovery (no crash is charged to any point).
        """
        dead = set(dead_pids)
        victims = [index for index, (pid, _t0) in started.items() if pid in dead and index in handles]
        if not victims:
            logger.warning(
                "campaign %r: worker died before announcing its job; restarting pool",
                self.spec.name,
            )
            return []
        records: List[JobRecord] = []
        for index in sorted(victims):
            handles.pop(index)
            started.pop(index)
            crashes[index] += 1
            self._note_crash(index, crashes[index])
            if crashes[index] >= self.max_crashes:
                payload = pending.pop(index)
                records.append(
                    JobRecord(
                        index=index,
                        key=payload[1],
                        status="crashed",
                        overrides=payload[3],
                        error=(
                            f"worker crashed {crashes[index]} time(s) running this point; "
                            f"quarantined at max_crashes={self.max_crashes}"
                        ),
                        attempts=crashes[index],
                    )
                )
                self._note_quarantine(index)
            # else: the point stays pending and the next generation retries it.
        return records

    # ------------------------------------------------------------------
    # resilience bookkeeping
    # ------------------------------------------------------------------

    def _note_resilience(self, name: str, counter: str) -> Any:
        """Tally one resilience event in the report, telemetry and heartbeat."""
        self.resilience[name] += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.count(counter)
            if tel.heartbeat is not None:
                tel.heartbeat.update(**{name: self.resilience[name]})
        return tel

    def _note_retry(self, record: JobRecord, delay: float) -> None:
        tel = self._note_resilience("retried", "campaign.retries")
        if tel.enabled and record.telemetry is not None:
            # The failed attempt's spans would otherwise be lost: only the
            # final record flows through the run loop's merge.
            tel.merge_snapshot(record.telemetry, remote=self._used_pool)
        logger.debug(
            "campaign %r: point %d attempt %d failed (%s); retrying in %.3fs",
            self.spec.name,
            record.index,
            record.attempts,
            record.error,
            delay,
        )

    def _note_crash(self, index: int, count: int) -> None:
        self._note_resilience("crashed", "campaign.crashes")
        logger.warning(
            "campaign %r: worker crashed running point %d (crash %d/%d)",
            self.spec.name,
            index,
            count,
            self.max_crashes,
        )

    def _note_quarantine(self, index: int) -> None:
        self._note_resilience("quarantined", "campaign.quarantined")
        logger.warning("campaign %r: point %d quarantined", self.spec.name, index)

    def _note_pool_restart(self, reason: str) -> None:
        self._note_resilience("pool_restarts", "campaign.pool_restarts")
        logger.warning("campaign %r: worker pool restarted (%s)", self.spec.name, reason)

    def _note_lease_steal(self, index: int, state: Any) -> None:
        self._note_resilience("lease_steals", "store.lease_steals")
        logger.warning(
            "campaign %r: stole stale lease on point %d (holder pid %d on %s)",
            self.spec.name,
            index,
            state.pid,
            state.host or "?",
        )

    def _note_claim_conflict(self, index: int) -> None:
        self._note_resilience("claim_conflicts", "store.claim_conflicts")
        logger.debug(
            "campaign %r: point %d is leased by another process; deferring",
            self.spec.name,
            index,
        )

    # ------------------------------------------------------------------
    # cache glue
    # ------------------------------------------------------------------

    def _lookup(self, point: CampaignPoint) -> Optional[JobRecord]:
        if self.cache is None:
            return None
        payload = self.cache.get(point.key)
        if payload is None or payload.get("status") != "ok" or "result" not in payload:
            return None
        return JobRecord(
            index=point.index,
            key=point.key,
            status="ok",
            overrides=dict(point.overrides),
            result=payload["result"],
            duration_s=float(payload.get("duration_s", 0.0)),
            cached=True,
        )

    def _store(self, record: JobRecord) -> None:
        # Only successes are cached: errors and timeouts should be retried
        # by the next run instead of being replayed from disk.  Cached
        # records came *from* the store; re-publishing them is pure churn.
        if self.cache is None or not record.ok or record.cached:
            return
        # Chaos harness hook: stall the store's index write lock right
        # before this point publishes, so concurrent writers exercise the
        # seeded "database is locked" retries.  Inert without $REPRO_FAULTS.
        if should_hold_lock(record.index):
            hold_store_lock(self.cache.store)
        try:
            path = self.cache.put(
                record.key,
                {
                    "status": record.status,
                    "result": record.result,
                    "overrides": record.overrides,
                    "duration_s": record.duration_s,
                    "spec_name": self.spec.name,
                    "experiment": self.spec.experiment,
                },
            )
        except StoreError as exc:
            # Publishing is best-effort: a store that went read-only or
            # locked-out mid-run costs the cache entry, never the computed
            # record or the campaign.
            logger.warning(
                "campaign %r: could not publish point %d to the result store: %s",
                self.spec.name,
                record.index,
                exc,
            )
            tel = get_telemetry()
            if tel.enabled:
                tel.count("store.publish_failures")
            return
        # Chaos harness hook: damage the freshly written entry so the next
        # reader exercises the quarantine path.  Inert without $REPRO_FAULTS.
        if should_tear_write(record.index):
            tear_payload(path)
