"""Live monitoring: atomic heartbeat files a second process can tail.

While a campaign or Monte-Carlo run executes, the active
:class:`HeartbeatWriter` rewrites one small JSON file (temp file plus
``os.replace``, so readers never see a torn write) at shard, array, and
adaptive-batch boundaries.  The file carries a monotonically increasing
``seq`` plus progress fields — points done, cache hits, samples drawn,
current CI half-width, worker utilization, ETA — which is exactly what
``repro campaign status --follow`` and ``repro obs top RUN`` poll from
another process, without touching the worker pool.

The writer rides on the active telemetry (``Telemetry(heartbeat=writer)``);
instrumented code reaches it through the one observer context::

    from repro.obs import get_telemetry

    hb = get_telemetry().heartbeat
    if hb is not None:
        hb.update(done=done, cached=hits)

With telemetry off, or under a job-local telemetry (campaign jobs, pool
workers), ``heartbeat`` is None: only the process that owns the file writes
it, and the hot path pays one attribute check.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

#: Progress fields readers understand; anything else passed to ``update`` is
#: carried through verbatim.
TERMINAL_STATUSES = ("done", "failed", "interrupted")


class HeartbeatWriter:
    """Writes an atomically-replaced progress file for concurrent readers.

    Writes are throttled to one per ``min_interval_s`` except for the first
    write and :meth:`finish`, so per-point updates in a tight loop cost a
    clock read, not a filesystem write.
    """

    def __init__(
        self,
        path: Union[str, Path],
        run_id: str = "",
        label: str = "",
        spec_name: Optional[str] = None,
        total: Optional[int] = None,
        min_interval_s: float = 0.05,
    ):
        self.path = Path(path)
        self.min_interval_s = float(min_interval_s)
        self._seq = 0
        self._last_write_monotonic: Optional[float] = None
        self._started_monotonic = time.monotonic()
        self._state: Dict[str, Any] = {
            "run_id": run_id,
            "label": label,
            "spec_name": spec_name,
            "pid": os.getpid(),
            "started_unix_s": time.time(),
            "status": "running",
            "total": total,
            "done": 0,
        }
        self._write(force=True)

    # ------------------------------------------------------------------

    def update(self, **fields: Any) -> None:
        """Merge progress fields and (throttled) rewrite the file."""
        self._state.update(fields)
        self._write()

    def advance(self, n: int = 1, **fields: Any) -> None:
        """Increment ``done`` by ``n`` and merge any extra fields."""
        self._state["done"] = int(self._state.get("done") or 0) + int(n)
        self.update(**fields)

    def finish(self, status: str = "done", **fields: Any) -> None:
        """Write the terminal state, bypassing the throttle."""
        self._state.update(fields)
        self._state["status"] = status
        self._write(force=True)

    # ------------------------------------------------------------------

    def _write(self, force: bool = False) -> None:
        now = time.monotonic()
        if (
            not force
            and self._last_write_monotonic is not None
            and now - self._last_write_monotonic < self.min_interval_s
        ):
            return
        self._last_write_monotonic = now
        self._seq += 1
        elapsed = now - self._started_monotonic
        payload = dict(self._state)
        payload["seq"] = self._seq
        payload["updated_unix_s"] = time.time()
        payload["elapsed_s"] = elapsed
        payload["eta_s"] = self._eta(elapsed)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True, default=str)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _eta(self, elapsed_s: float) -> Optional[float]:
        total = self._state.get("total")
        done = self._state.get("done")
        if not total or not done or done <= 0:
            return None
        # No observed rate yet: a resume that served every point from the
        # cache reports done=total with ~zero elapsed — extrapolating a rate
        # from that (or from a first write landing at elapsed=0) is
        # meaningless, so report "no estimate" instead of 0 or inf.
        if elapsed_s <= 0.0:
            return None
        remaining = max(0, int(total) - int(done))
        return elapsed_s / int(done) * remaining


# ----------------------------------------------------------------------
# readers
# ----------------------------------------------------------------------


def read_heartbeat(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The current heartbeat state, or None if absent/not yet readable.

    A file mid-replace can never be seen torn (``os.replace`` is atomic),
    but it may not exist yet; both cases return None so pollers just retry.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def follow_heartbeat(
    path: Union[str, Path],
    poll_s: float = 0.1,
    timeout_s: float = 60.0,
) -> Iterator[Dict[str, Any]]:
    """Yield each new heartbeat state (by ``seq``) until it terminates.

    Stops after a terminal status (``done``/``failed``/``interrupted``) is
    yielded, or when ``timeout_s`` elapses with no new state — whichever
    comes first.
    The timeout clock resets on every new ``seq``, so a slow-but-alive run
    is followed indefinitely while a dead one is abandoned promptly.
    """
    last_seq = -1
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        state = read_heartbeat(path)
        if state is not None and int(state.get("seq", 0)) != last_seq:
            last_seq = int(state.get("seq", 0))
            deadline = time.monotonic() + timeout_s
            yield state
            if state.get("status") in TERMINAL_STATUSES:
                return
        time.sleep(poll_s)


def find_heartbeats(live_dir: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """All readable heartbeat files in a live dir, keyed by run id."""
    result: Dict[str, Dict[str, Any]] = {}
    directory = Path(live_dir)
    if not directory.is_dir():
        return result
    for path in sorted(directory.glob("*.json")):
        state = read_heartbeat(path)
        if state is not None:
            result[str(state.get("run_id") or path.stem)] = state
    return result


def render_heartbeat(state: Dict[str, Any]) -> str:
    """One-line progress rendering used by ``--follow`` and ``obs top``."""
    done = state.get("done")
    total = state.get("total")
    parts = []
    if total:
        parts.append(f"{done or 0}/{total} points")
    elif done:
        parts.append(f"{done} done")
    for key, fmt in (
        ("cached", "cached={}"),
        ("failed", "failed={}"),
        ("retried", "retried={}"),
        ("crashed", "crashed={}"),
        ("quarantined", "quarantined={}"),
        ("samples", "samples={}"),
        ("batches", "batches={}"),
        ("arrays_done", "arrays={}"),
    ):
        value = state.get(key)
        if value:
            parts.append(fmt.format(value))
    ci = state.get("ci_half_width")
    if ci is not None:
        parts.append(f"ci_half_width={float(ci):.4g}")
    estimate = state.get("estimate")
    if estimate is not None:
        parts.append(f"estimate={float(estimate):.4g}")
    util = state.get("worker_utilization")
    if util is not None:
        parts.append(f"util={float(util):.0%}")
    eta = state.get("eta_s")
    if eta is not None:
        parts.append(f"eta={float(eta):.1f}s")
    elapsed = state.get("elapsed_s")
    if elapsed is not None:
        parts.append(f"elapsed={float(elapsed):.1f}s")
    status = state.get("status", "running")
    label = state.get("spec_name") or state.get("label") or state.get("run_id") or "?"
    return f"[{label}] {status}: " + " ".join(parts)
