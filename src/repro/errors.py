"""Exception hierarchy for the NeuroHammer reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """A configuration value is missing, inconsistent or out of range."""


class DeviceModelError(ReproError):
    """A device compact model was driven outside its validity range."""


class ConvergenceError(ReproError):
    """An iterative solver (Newton, linear system) failed to converge."""


class GeometryError(ReproError):
    """A crossbar or thermal geometry definition is invalid."""


class AttackError(ReproError):
    """An attack definition is inconsistent (e.g. aggressor equals victim)."""


class AddressingError(ReproError):
    """A memory address is outside the mapped range or otherwise invalid."""


class EccError(ReproError):
    """An ECC codec was used with inconsistent word sizes or invalid input."""


class ExperimentError(ReproError):
    """An experiment/benchmark harness was configured inconsistently."""


class CampaignError(ReproError):
    """A campaign spec, cache or runner was used inconsistently."""


class CampaignInterrupted(CampaignError):
    """A campaign was stopped by SIGINT/SIGTERM after draining bookkeeping.

    Completed points were stored in the result cache before this was raised,
    so the next run of the same spec resumes where the interrupted one left
    off.  The CLI maps this to heartbeat/ledger status ``interrupted`` and a
    130 exit code.
    """


class StoreError(CampaignError):
    """The shared result store was used inconsistently or is damaged."""


class StoreUnavailableError(StoreError):
    """The shared result store cannot be opened (read-only root, locked-out
    index, unusable sqlite), or a result cache directory still holds per-file
    entries awaiting ``repro store migrate``.  The CLI turns it into a warning
    and runs the command without a cache instead of failing it."""


class FaultInjectionError(ReproError):
    """A fault-injection spec (``REPRO_FAULTS`` / ``--inject-faults``) is invalid."""


class MonteCarloError(ReproError):
    """A Monte-Carlo population spec or engine was used inconsistently."""
