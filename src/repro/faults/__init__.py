"""Fault tolerance: retry policies, fault injection, graceful shutdown.

This package is the resilience layer of the campaign/Monte-Carlo stack.  It
answers three questions a multi-hour sweep inevitably raises:

* *Was that failure worth retrying?* — :class:`~repro.faults.retry.RetryPolicy`
  plus the retryable-exception registry
  (:func:`~repro.faults.retry.register_retryable` /
  :func:`~repro.faults.retry.is_retryable`), which solver non-convergence and
  OS-level flakes register into.  The campaign runner applies the policy per
  point with seeded exponential backoff.
* *What happens when a worker dies?* — the runner's crash recovery (pid
  liveness probes + start sentinels) re-dispatches unfinished points and
  quarantines a poison point with a ``status="crashed"`` record; this package
  provides the deterministic chaos harness (:mod:`repro.faults.inject`,
  activated via ``$REPRO_FAULTS`` / ``--inject-faults``) that proves it.
* *What does Ctrl-C mean?* — :func:`~repro.faults.shutdown.graceful_shutdown`
  turns the first SIGINT/SIGTERM into a drained, cached, resumable stop
  (:class:`~repro.errors.CampaignInterrupted`), and the second into an
  immediate exit.

Everything is seeded through the shared RNG tree (:mod:`repro.utils.rng`):
backoff jitter and rate-based fault draws are bit-reproducible, so chaos
tests can assert exact retry/crash/quarantine counts across runs.
"""

from ..errors import CampaignInterrupted, FaultInjectionError
from .inject import (
    DEFAULT_HANG_S,
    DEFAULT_LOCK_HOLD_S,
    FAULT_ACTIONS,
    FAULTS_ENV,
    PERTURB_RELATIVE,
    FaultPlan,
    FaultRule,
    InjectedFatalFault,
    InjectedFault,
    active_plan,
    fire_point_faults,
    hold_store_lock,
    perturb_result,
    set_current_attempt,
    should_hold_lock,
    should_perturb_result,
    should_tear_write,
    tear_payload,
)
from .retry import RetryPolicy, is_retryable, register_retryable, retryable_types
from .shutdown import SHUTDOWN_SIGNALS, ShutdownFlag, graceful_shutdown

__all__ = [
    "DEFAULT_HANG_S",
    "DEFAULT_LOCK_HOLD_S",
    "FAULT_ACTIONS",
    "FAULTS_ENV",
    "PERTURB_RELATIVE",
    "SHUTDOWN_SIGNALS",
    "CampaignInterrupted",
    "FaultInjectionError",
    "FaultPlan",
    "FaultRule",
    "InjectedFatalFault",
    "InjectedFault",
    "RetryPolicy",
    "ShutdownFlag",
    "active_plan",
    "fire_point_faults",
    "graceful_shutdown",
    "hold_store_lock",
    "is_retryable",
    "perturb_result",
    "register_retryable",
    "retryable_types",
    "set_current_attempt",
    "should_hold_lock",
    "should_perturb_result",
    "should_tear_write",
    "tear_payload",
]
