"""The telemetry core: metric registry, span tracing, and the active switch.

Design constraints (see the module docstring of :mod:`repro.obs`):

* **Opt-in.**  The process-wide active telemetry defaults to
  :data:`NULL_TELEMETRY`, whose every operation is a no-op.  Hot paths guard
  their instrumentation with one attribute check (``if tel.enabled:``), so a
  disabled run pays a handful of nanoseconds per solve, not per metric.
* **One context.**  A live telemetry also carries the run's optional
  determinism audit trail (``tel.audit``), live heartbeat (``tel.heartbeat``)
  and its numerics watchdog (``tel.numerics``), so a hot path reaches every
  observer through the one ``tel.enabled`` check.
* **Plain snapshots.**  Snapshots are JSON-serialisable dicts, so they cross
  process boundaries (the campaign worker pool) through pickle or JSON
  without custom reducers.
* **Mergeable.**  Two telemetry states combine bin-by-bin / counter-by-
  counter (:meth:`Telemetry.merge_snapshot`), which is how per-job span trees
  measured inside pool workers are folded back into the parent campaign span.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from .numerics import NumericsWatchdog
from .spans import SpanRecord

if TYPE_CHECKING:  # pragma: no cover
    from .audit import AuditTrail
    from .live import HeartbeatWriter

#: Events kept per event name; older entries are dropped first so a long
#: adaptive run cannot grow the registry without bound.
MAX_EVENTS_PER_NAME = 2048

#: Log-histogram resolution: bins per decade of the observed value.
BINS_PER_DECADE = 4


class LogHistogram:
    """A log-binned histogram of positive-ish samples.

    Bin ``i`` covers ``[10**(i/BINS_PER_DECADE), 10**((i+1)/BINS_PER_DECADE))``;
    non-positive samples are tallied separately in :attr:`nonpositive`.  The
    binning is exact, stable across merges, and needs no a-priori range —
    the right shape for quantities spanning decades (time steps, residuals).
    """

    __slots__ = ("count", "total", "min", "max", "nonpositive", "bins")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.nonpositive = 0
        self.bins: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.nonpositive += 1
            return
        index = math.floor(math.log10(value) * BINS_PER_DECADE)
        self.bins[index] = self.bins.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """An estimate of the ``q``-quantile from the log bins.

        The rank-``ceil(q*count)`` sample is located in its bin and reported
        as the bin's geometric midpoint, clamped to the observed min/max —
        exact to within one bin width (~78% at 4 bins/decade), which is the
        resolution the histogram stores in the first place.  Returns None on
        an empty histogram.
        """
        if self.count == 0:
            return None
        q = min(max(float(q), 0.0), 1.0)
        rank = max(1, math.ceil(q * self.count))
        if self.nonpositive and rank <= self.nonpositive:
            # All we know about non-positive samples is that they exist;
            # the observed minimum bounds them.
            return min(self.min, 0.0)
        cumulative = self.nonpositive
        for index in sorted(self.bins):
            cumulative += self.bins[index]
            if cumulative >= rank:
                low = 10 ** (index / BINS_PER_DECADE)
                high = 10 ** ((index + 1) / BINS_PER_DECADE)
                value = math.sqrt(low * high)
                if self.min > 0.0:
                    value = max(value, self.min)
                return min(value, self.max)
        return self.max  # pragma: no cover - counts always sum to count

    def to_dict(self) -> Dict[str, Any]:
        edges = sorted(self.bins)
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "nonpositive": self.nonpositive,
            "bins": [
                [10 ** (index / BINS_PER_DECADE), 10 ** ((index + 1) / BINS_PER_DECADE), self.bins[index]]
                for index in edges
            ],
        }

    def merge_dict(self, payload: Dict[str, Any]) -> None:
        """Fold a serialised histogram into this one (bin-by-bin addition)."""
        self.count += int(payload.get("count", 0))
        self.total += float(payload.get("sum", 0.0))
        self.nonpositive += int(payload.get("nonpositive", 0))
        if payload.get("min") is not None:
            self.min = min(self.min, float(payload["min"]))
        if payload.get("max") is not None:
            self.max = max(self.max, float(payload["max"]))
        for low, _high, count in payload.get("bins", []):
            index = round(math.log10(low) * BINS_PER_DECADE)
            self.bins[index] = self.bins.get(index, 0) + int(count)


class _NullSpan:
    """The shared no-op span context manager of the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Disabled telemetry: every operation is a no-op.

    Instrumented code holds one of these when telemetry is off; the contract
    is that ``tel.enabled`` is the *only* check a hot path needs — every
    method is still callable (and free) so cold paths need no guards at all.
    There is no audit trail or heartbeat to reach without a live telemetry.
    """

    __slots__ = ()
    enabled = False
    audit = None
    heartbeat = None

    def count(self, name: str, n: float = 1.0) -> None:
        return None

    def counter_value(self, name: str, default: float = 0.0) -> float:
        return default

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def event(self, name: str, **fields: Any) -> None:
        return None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN


NULL_TELEMETRY = NullTelemetry()


class _SpanContext:
    """Context manager that opens a span on enter and seals it on exit."""

    __slots__ = ("_telemetry", "_record", "_t0")

    def __init__(self, telemetry: "Telemetry", record: SpanRecord):
        self._telemetry = telemetry
        self._record = record
        self._t0 = 0.0

    def __enter__(self) -> SpanRecord:
        telemetry = self._telemetry
        record = self._record
        self._t0 = time.perf_counter()
        record.start_s = self._t0 - telemetry.epoch
        if telemetry._stack:
            telemetry._stack[-1].children.append(record)
        else:
            telemetry.spans.append(record)
        telemetry._stack.append(record)
        return record

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        record = self._record
        record.duration_s = time.perf_counter() - self._t0
        if exc_type is not None:
            record.attrs["error"] = exc_type.__name__
        stack = self._telemetry._stack
        # Tolerate a foreign unwound stack instead of corrupting the tree.
        if stack and stack[-1] is record:
            stack.pop()
        elif record in stack:  # pragma: no cover - malformed nesting
            while stack and stack[-1] is not record:
                stack.pop()
            stack.pop()


class Telemetry:
    """A live telemetry registry: counters, gauges, histograms, events, spans.

    One instance is one observation scope — typically the whole process (the
    module-level active instance) or one campaign job (the runner swaps a
    fresh instance in around each job so its spans serialise independently).
    Not thread-safe by design: the simulation stack is single-threaded per
    process, and pool workers each carry their own instance.

    The instance is also the run's one observer context: ``audit`` (an
    :class:`~repro.obs.audit.AuditTrail`) and ``heartbeat`` (a
    :class:`~repro.obs.live.HeartbeatWriter`) are optional and ``None`` by
    default, while ``numerics`` (a
    :class:`~repro.obs.numerics.NumericsWatchdog`) is always on.  A fresh
    job-local instance carries neither audit nor heartbeat, which is what
    keeps in-process jobs out of the parent's audit stream and progress file.
    """

    enabled = True

    def __init__(
        self,
        audit: Optional[AuditTrail] = None,
        heartbeat: Optional[HeartbeatWriter] = None,
    ) -> None:
        self.audit = audit
        self.heartbeat = heartbeat
        self.numerics = NumericsWatchdog(self)
        self.epoch = time.perf_counter()
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, Dict[str, float]] = {}
        self.histograms: Dict[str, LogHistogram] = {}
        self.events: Dict[str, List[Dict[str, Any]]] = {}
        #: Completed root spans, in completion order.
        self.spans: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []

    # -- metrics ------------------------------------------------------------

    def count(self, name: str, n: float = 1.0) -> None:
        """Add ``n`` to the named monotonic counter."""
        self.counters[name] = self.counters.get(name, 0.0) + n

    def counter_value(self, name: str, default: float = 0.0) -> float:
        """Current value of one counter (``default`` when never counted)."""
        return self.counters.get(name, default)

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge (last value wins; min/max/n are tracked)."""
        value = float(value)
        gauge = self.gauges.get(name)
        if gauge is None:
            self.gauges[name] = {"value": value, "min": value, "max": value, "n": 1}
            return
        gauge["value"] = value
        gauge["n"] += 1
        if value < gauge["min"]:
            gauge["min"] = value
        if value > gauge["max"]:
            gauge["max"] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named log-binned histogram."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = LogHistogram()
        histogram.observe(value)

    def event(self, name: str, **fields: Any) -> None:
        """Append a structured event (e.g. one adaptive stopping decision)."""
        series = self.events.setdefault(name, [])
        series.append(fields)
        if len(series) > MAX_EVENTS_PER_NAME:
            del series[: len(series) - MAX_EVENTS_PER_NAME]

    # -- spans --------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a nested wall-time span: ``with tel.span("mc.run"): ...``."""
        return _SpanContext(self, SpanRecord(name=name, attrs=attrs))

    @property
    def open_span_count(self) -> int:
        """Spans currently entered but not yet exited."""
        return len(self._stack)

    # -- snapshot / merge ---------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The registry as one JSON-serialisable dict.

        The snapshot is a value: mutating the telemetry afterwards does not
        change it, and it can cross a process boundary and be merged into
        another instance with :meth:`merge_snapshot`.
        """
        return {
            "elapsed_s": time.perf_counter() - self.epoch,
            "counters": dict(self.counters),
            "gauges": {name: dict(gauge) for name, gauge in self.gauges.items()},
            "histograms": {name: hist.to_dict() for name, hist in self.histograms.items()},
            "events": {name: [dict(event) for event in series] for name, series in self.events.items()},
            "open_spans": len(self._stack),
            "spans": [span.to_dict() for span in self.spans],
        }

    def merge_snapshot(self, snapshot: Dict[str, Any], remote: bool = False) -> None:
        """Fold another telemetry's snapshot into this registry.

        Counters and histograms add; gauges keep their latest value but widen
        min/max; events append.  Span trees attach under the currently open
        span (or as new roots).  ``remote=True`` marks the attached roots as
        measured in another process running concurrently, so their durations
        are *not* subtracted from the host span's exclusive time — a parallel
        child does not consume its parent's wall clock.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)
        for name, gauge in snapshot.get("gauges", {}).items():
            mine = self.gauges.get(name)
            if mine is None:
                self.gauges[name] = dict(gauge)
            else:
                mine["value"] = gauge["value"]
                mine["n"] += gauge.get("n", 1)
                mine["min"] = min(mine["min"], gauge["min"])
                mine["max"] = max(mine["max"], gauge["max"])
        for name, payload in snapshot.get("histograms", {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = LogHistogram()
            histogram.merge_dict(payload)
        for name, series in snapshot.get("events", {}).items():
            mine = self.events.setdefault(name, [])
            mine.extend(dict(event) for event in series)
            if len(mine) > MAX_EVENTS_PER_NAME:
                del mine[: len(mine) - MAX_EVENTS_PER_NAME]
        for span_dict in snapshot.get("spans", []):
            record = SpanRecord.from_dict(span_dict)
            record.remote = remote
            if self._stack:
                self._stack[-1].children.append(record)
            else:
                self.spans.append(record)


# ----------------------------------------------------------------------
# the process-wide active instance
# ----------------------------------------------------------------------

_active: Any = NULL_TELEMETRY


def get_telemetry() -> Any:
    """The process-wide active telemetry (a no-op singleton when disabled)."""
    return _active


def telemetry_enabled() -> bool:
    """True when a live (non-null) telemetry is active."""
    return _active.enabled


def enable_telemetry(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Install (and return) a live telemetry as the process-wide instance."""
    global _active
    _active = telemetry if telemetry is not None else Telemetry()
    return _active


def disable_telemetry() -> None:
    """Restore the disabled no-op singleton."""
    global _active
    _active = NULL_TELEMETRY


@contextmanager
def telemetry_capture(telemetry: Optional[Telemetry] = None) -> Iterator[Telemetry]:
    """Activate a fresh telemetry for the duration of the block.

    The previously active instance (live or null) is restored on exit, so
    captures nest: the campaign runner wraps each job in one to obtain the
    job's isolated span tree and metric deltas.
    """
    global _active
    previous = _active
    telemetry = enable_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        _active = previous
