"""Deterministic, seeded fault injection for chaos-testing campaigns.

The harness is activated by a compact spec string carried in the
``REPRO_FAULTS`` environment variable (the ``--inject-faults`` CLI flag sets
it, and pool workers inherit it), so the *same* schedule is visible to the
campaign parent and to every worker process without touching job payloads —
point keys, and therefore the result cache, are unaffected by injection.

Spec grammar (rules separated by ``;``)::

    ACTION@I1,I2,...[xT]     fire at the listed point indices
    ACTION~RATE[xT]          fire with probability RATE per point (seeded)
    seed=N                   seed for rate draws and anything stochastic
    hang=S                   how long the "hang" action sleeps (default 3600)

``xT`` repeats the fault for the first ``T`` execution attempts of the point
(default 1: the fault is transient and a retry succeeds; a large ``T`` makes
it effectively permanent).  Actions:

``raise``
    Raise :class:`InjectedFault` — registered retryable, so the campaign's
    :class:`~repro.faults.retry.RetryPolicy` should absorb it.
``fatal``
    Raise :class:`InjectedFatalFault` — *not* retryable; exercises the
    transient-vs-deterministic classification path.
``hang``
    Sleep past any sane deadline; exercises the timeout/straggler path.
``kill``
    SIGKILL the current process — in a pool worker this simulates the OOM
    killer; exercises crash detection, re-dispatch and quarantine.
``torn-write``
    Tear the point's just-published payload file in half (the index row and
    its checksum stay intact); exercises the result store's checksum
    detection and quarantine path on the next read.
``lock-hold``
    Hold the shared store's index write lock for ``lock=S`` seconds (default
    0.25) right before the point publishes; exercises the seeded
    ``database is locked`` contention retries of concurrent writers.
``perturb``
    Nudge the first numeric leaf of the point's freshly computed result by
    one part in 2**40 *before* it is published — the payload stays fully
    self-consistent (caches, checksums and reports all agree on the
    perturbed value), but a determinism-audit fingerprint of the point must
    diverge; exercises ``repro obs audit``'s divergence localization.

Rate-based rules draw a Bernoulli decision from a child stream of the shared
RNG tree keyed by ``(seed, action, point index, attempt)`` — the decision
depends only on the schedule and the point, never on worker scheduling, so
two runs of the same seeded spec inject bit-identically.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Tuple, Union

from ..errors import FaultInjectionError
from ..obs import get_telemetry
from ..utils.rng import child_rng
from .retry import register_retryable

#: Environment variable the harness reads its spec from.
FAULTS_ENV = "REPRO_FAULTS"

#: Actions understood by the spec grammar.
FAULT_ACTIONS = (
    "raise",
    "fatal",
    "hang",
    "kill",
    "torn-write",
    "lock-hold",
    "perturb",
)

#: Relative bump applied by the "perturb" action: one ulp-scale nudge, far
#: below any physical tolerance but fatal to a bitwise fingerprint.
PERTURB_RELATIVE = 2.0**-40

#: Default sleep of the "hang" action — far past any sane job timeout.
DEFAULT_HANG_S = 3600.0

#: Default duration of the "lock-hold" action — long enough that concurrent
#: writers reliably collide, short enough that their seeded retries absorb it.
DEFAULT_LOCK_HOLD_S = 0.25


@register_retryable
class InjectedFault(RuntimeError):
    """A deliberately injected *transient* failure (retry should succeed)."""


class InjectedFatalFault(RuntimeError):
    """A deliberately injected *deterministic* failure (never retried)."""


@dataclass(frozen=True)
class FaultRule:
    """One parsed injection rule: an action plus where/how often it fires."""

    action: str
    indices: Optional[Tuple[int, ...]] = None  # None => rate-based
    rate: float = 0.0
    times: int = 1  # fire on execution attempts 0 .. times-1

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise FaultInjectionError(
                f"unknown fault action {self.action!r}; expected one of {FAULT_ACTIONS}"
            )
        if self.times < 1:
            raise FaultInjectionError(f"fault rule {self.action!r}: xT repeat must be >= 1")
        if self.indices is None and not 0.0 < self.rate <= 1.0:
            raise FaultInjectionError(f"fault rule {self.action!r}: rate must be in (0, 1]")

    def fires(self, index: int, attempt: int, seed: int) -> bool:
        """Whether this rule injects at ``(point index, execution attempt)``."""
        if attempt >= self.times:
            return False
        if self.indices is not None:
            return index in self.indices
        rng = child_rng(seed, "faults", "inject", self.action, index, attempt)
        return float(rng.random()) < self.rate

    def to_spec(self) -> str:
        where = (
            ",".join(str(i) for i in self.indices)
            if self.indices is not None
            else f"{self.rate:g}"
        )
        sep = "@" if self.indices is not None else "~"
        tail = f"x{self.times}" if self.times != 1 else ""
        return f"{self.action}{sep}{where}{tail}"


@dataclass(frozen=True)
class FaultPlan:
    """A full injection schedule: rules plus the seed for rate-based draws."""

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0
    hang_s: float = DEFAULT_HANG_S
    lock_s: float = DEFAULT_LOCK_HOLD_S

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see module docstring)."""
        rules = []
        seed = 0
        hang_s = DEFAULT_HANG_S
        lock_s = DEFAULT_LOCK_HOLD_S
        for token in (part.strip() for part in spec.split(";")):
            if not token:
                continue
            if token.startswith("seed="):
                seed = _parse_int(token[5:], f"seed in {token!r}")
                continue
            if token.startswith("hang="):
                hang_s = _parse_float(token[5:], f"hang duration in {token!r}")
                continue
            if token.startswith("lock="):
                lock_s = _parse_float(token[5:], f"lock-hold duration in {token!r}")
                continue
            rules.append(_parse_rule(token))
        return cls(rules=tuple(rules), seed=seed, hang_s=hang_s, lock_s=lock_s)

    def to_spec(self) -> str:
        """Round-trippable spec string (what the CLI exports to workers)."""
        parts = [rule.to_spec() for rule in self.rules]
        if self.seed:
            parts.append(f"seed={self.seed}")
        if self.hang_s != DEFAULT_HANG_S:
            parts.append(f"hang={self.hang_s:g}")
        if self.lock_s != DEFAULT_LOCK_HOLD_S:
            parts.append(f"lock={self.lock_s:g}")
        return ";".join(parts)

    def should(self, action: str, index: int, attempt: int = 0) -> bool:
        """Whether any rule injects ``action`` at this point/attempt."""
        return any(
            rule.action == action and rule.fires(index, attempt, self.seed)
            for rule in self.rules
        )


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise FaultInjectionError(f"invalid {what}: {text!r}") from exc


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise FaultInjectionError(f"invalid {what}: {text!r}") from exc


def _parse_rule(token: str) -> FaultRule:
    for sep in ("@", "~"):
        if sep in token:
            action, _, rest = token.partition(sep)
            times = 1
            if "x" in rest:
                rest, _, times_text = rest.rpartition("x")
                times = _parse_int(times_text, f"repeat count in {token!r}")
            if sep == "@":
                indices = tuple(
                    _parse_int(part, f"point index in {token!r}")
                    for part in rest.split(",")
                    if part != ""
                )
                if not indices:
                    raise FaultInjectionError(f"fault rule {token!r} lists no point indices")
                return FaultRule(action=action, indices=indices, times=times)
            return FaultRule(
                action=action, rate=_parse_float(rest, f"rate in {token!r}"), times=times
            )
    raise FaultInjectionError(
        f"fault rule {token!r} is not ACTION@indices or ACTION~rate (see repro.faults.inject)"
    )


# ----------------------------------------------------------------------
# active plan (env-driven so pool workers see the same schedule)
# ----------------------------------------------------------------------

_cached_env: Optional[str] = None
_cached_plan: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The plan parsed from ``$REPRO_FAULTS``, or None when unset/empty.

    Parsed lazily and cached per raw value, so the per-job cost of a
    disabled harness is one ``os.environ`` lookup and a string compare.
    """
    global _cached_env, _cached_plan
    raw = os.environ.get(FAULTS_ENV) or ""
    if raw != _cached_env:
        _cached_env = raw
        _cached_plan = FaultPlan.parse(raw) if raw.strip() else None
    return _cached_plan


# ----------------------------------------------------------------------
# injection sites
# ----------------------------------------------------------------------

#: Execution attempt of the job currently running in this process; the
#: campaign dispatch wrapper sets it so transient (``x1``) faults stop firing
#: once the point is retried.
_current_attempt = 0


def set_current_attempt(attempt: int) -> None:
    """Record the execution attempt of the job about to run in this process."""
    global _current_attempt
    _current_attempt = int(attempt)


def _count(action: str) -> None:
    tel = get_telemetry()
    if tel.enabled:
        tel.count(f"faults.injected.{action}")


def fire_point_faults(index: int, attempt: Optional[int] = None) -> None:
    """Run the in-job injection sites for one campaign point.

    Called from the job execution path *inside* the error-capture boundary,
    so a raised fault becomes an ordinary error record.  Order matters:
    ``hang`` and ``kill`` pre-empt the raising actions, mirroring how a real
    wedged or OOM-killed worker never gets to raise anything.
    """
    plan = active_plan()
    if plan is None:
        return
    if attempt is None:
        attempt = _current_attempt
    if plan.should("hang", index, attempt):
        _count("hang")
        time.sleep(plan.hang_s)
    if plan.should("kill", index, attempt):
        _count("kill")
        os.kill(os.getpid(), signal.SIGKILL)
    if plan.should("fatal", index, attempt):
        _count("fatal")
        raise InjectedFatalFault(f"injected deterministic fault at point {index}")
    if plan.should("raise", index, attempt):
        _count("raise")
        raise InjectedFault(f"injected transient fault at point {index} (attempt {attempt})")


def should_tear_write(index: int) -> bool:
    """Whether the ``torn-write`` action fires for this point's payload."""
    plan = active_plan()
    return plan is not None and plan.should("torn-write", index)


def tear_payload(path: Union[str, Path]) -> None:
    """Truncate a just-published payload file to half its bytes.

    This leaves an index row whose checksum no longer matches the payload
    — the torn write a crash mid-``write()`` could produce on a non-atomic
    filesystem — so the next reader must *detect* (not merely
    fail-to-parse) and quarantine it.
    """
    _count("torn-write")
    path = Path(path)
    data = path.read_bytes()
    with open(path, "wb") as handle:
        handle.write(data[: max(1, len(data) // 2)])


def should_perturb_result(index: int) -> bool:
    """Whether the ``perturb`` action fires for this point's result."""
    plan = active_plan()
    return plan is not None and plan.should("perturb", index, _current_attempt)


def perturb_result(result: Any) -> Any:
    """Perform the ``perturb`` action: nudge the first numeric leaf in place.

    Walks dicts (sorted keys) and lists depth-first and multiplies the first
    finite float found by ``1 + PERTURB_RELATIVE`` (or adds the epsilon when
    the value is zero).  The walk is deterministic, so two perturbed runs of
    the same point diverge *identically* — the differ localizes the point,
    not the noise.
    """
    _count("perturb")

    def nudge(value: float) -> float:
        return value * (1.0 + PERTURB_RELATIVE) if value else PERTURB_RELATIVE

    def walk(node: Any) -> bool:
        if isinstance(node, dict):
            for key in sorted(node):
                value = node[key]
                if isinstance(value, float):
                    node[key] = nudge(value)
                    return True
                if walk(value):
                    return True
            return False
        if isinstance(node, list):
            for position, value in enumerate(node):
                if isinstance(value, float):
                    node[position] = nudge(value)
                    return True
                if walk(value):
                    return True
            return False
        return False

    walk(result)
    return result


def should_hold_lock(index: int) -> bool:
    """Whether the ``lock-hold`` action fires before this point publishes."""
    plan = active_plan()
    return plan is not None and plan.should("lock-hold", index)


def hold_store_lock(store: Any) -> None:
    """Perform the ``lock-hold`` action against one shared result store.

    Holds the store's index write lock for the plan's ``lock=S`` duration so
    every concurrent writer hits ``database is locked`` and must ride it out
    through the seeded retry schedule.
    """
    _count("lock-hold")
    plan = active_plan()
    store.hold_write_lock(plan.lock_s if plan is not None else DEFAULT_LOCK_HOLD_S)
