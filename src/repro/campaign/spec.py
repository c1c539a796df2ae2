"""Declarative sweep specifications for NeuroHammer attack campaigns.

A campaign is a set of simulation points derived from one base configuration
(a :class:`~repro.config.SimulationConfig` plus an
:class:`~repro.config.AttackConfig`, and — for ``kind="montecarlo"``
campaigns — a :class:`~repro.montecarlo.engine.MonteCarloConfig`) and a list
of sweep axes.  Each axis addresses one configuration field through a dotted
path rooted at ``simulation``, ``attack`` or ``montecarlo`` (e.g.
``attack.pulse.length_s`` or ``simulation.geometry.electrode_spacing_m``)
and either enumerates explicit values or describes a range to sample from.
The ``kind`` selects what every point computes: one deterministic attack run
(``"attack"``, the default) or one sampled-population evaluation through the
Monte-Carlo engine (``"montecarlo"``).

Three sweep modes are supported:

``grid``
    The cartesian product of all axis values; the first axis varies slowest
    (outer loop), matching the nested ``for`` loops the figure experiments
    historically used.
``zip``
    Axes are iterated in lockstep; all axes must have the same length.
``random``
    ``samples`` points are drawn from a seeded child stream of the shared RNG
    tree (:mod:`repro.utils.rng`), so a spec with the same seed always
    materialises the same campaign — and the same root-seed convention
    governs the Monte-Carlo population sampler.

:meth:`CampaignSpec.materialise` turns the spec into a list of
:class:`CampaignPoint` objects.  Every point carries the fully validated,
canonicalised job configuration and a content-addressed key — a SHA-256 hash
over the job plus the code version — which the result cache and the runner
use to identify work across processes and across interrupted runs.

Points are keyed from one validated base.  The base configuration is
validated and canonicalised once; each point rebuilds through its config
class only the sections (``simulation``, ``attack``, ``montecarlo``) that its
axis paths touch, and every other section is a fresh copy of the canonical
base section.  The jobs, keys and errors are those a rebuild of every section
at every point would give, at a fraction of the cost.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Type

import numpy as np

from ..config import AttackConfig, JsonConfig, SimulationConfig
from ..errors import CampaignError, ReproError
from ..utils.rng import child_rng

#: Bump when the job layout changes so stale cache entries are never reused.
SPEC_FORMAT_VERSION = 3

#: Sweep modes understood by :class:`CampaignSpec`.
SWEEP_MODES = ("grid", "zip", "random")

#: Job kinds the runner can execute per point.
JOB_KINDS = ("attack", "montecarlo")

#: Root sections a sweep path may address.
PATH_ROOTS = ("simulation", "attack", "montecarlo")

#: Path prefixes the attack job actually consumes.  Sweeping anything else
#: (e.g. ``montecarlo.*``, which an attack job does not read) would
#: materialise a full-looking campaign whose points all compute the same
#: thing, so such axes are rejected up front.
CONSUMED_PATH_PREFIXES = ("attack.", "simulation.geometry.", "simulation.wires.")

#: Additional prefixes consumed by Monte-Carlo jobs.
MONTECARLO_PATH_PREFIXES = CONSUMED_PATH_PREFIXES + ("montecarlo.",)


def code_version() -> str:
    """Version string mixed into every point key.

    Results cached by one release are invalidated by the next, because the
    simulation output may legitimately change between versions.
    """
    from .. import __version__

    return __version__


@dataclass
class SweepAxis(JsonConfig):
    """One swept configuration field.

    Either ``values`` (an explicit list, usable in every mode) or a
    ``low``/``high`` range (random mode only; ``log=True`` samples uniformly
    in log-space) must be given.
    """

    path: str
    values: Optional[List[Any]] = None
    low: Optional[float] = None
    high: Optional[float] = None
    log: bool = False

    def __post_init__(self) -> None:
        root = self.path.split(".", 1)[0] if self.path else ""
        if root not in PATH_ROOTS or "." not in self.path:
            raise CampaignError(
                f"axis path {self.path!r} must be a dotted path rooted at one of {PATH_ROOTS}"
            )
        has_range = self.low is not None or self.high is not None
        if self.values is not None:
            if has_range:
                raise CampaignError(f"axis {self.path!r}: give either values or a low/high range, not both")
            if not isinstance(self.values, (list, tuple)) or len(self.values) == 0:
                raise CampaignError(f"axis {self.path!r}: values must be a non-empty list")
            self.values = list(self.values)
        else:
            if self.low is None or self.high is None:
                raise CampaignError(f"axis {self.path!r}: needs explicit values or both low and high")
            if not self.high > self.low:
                raise CampaignError(f"axis {self.path!r}: high must exceed low")
            if self.log and self.low <= 0:
                raise CampaignError(f"axis {self.path!r}: log-space sampling needs a positive low bound")

    @property
    def is_enumerated(self) -> bool:
        """True when the axis lists explicit values (required outside random mode)."""
        return self.values is not None

    def sample(self, rng: np.random.Generator) -> Any:
        """Draw one value for random-mode sweeps.

        Values are returned as plain Python objects (never NumPy scalars) so
        the materialised jobs stay JSON-canonical and hash stably.
        """
        if self.values is not None:
            return self.values[int(rng.integers(len(self.values)))]
        assert self.low is not None and self.high is not None
        if self.log:
            return math.exp(float(rng.uniform(math.log(self.low), math.log(self.high))))
        return float(rng.uniform(self.low, self.high))


@dataclass(frozen=True)
class CampaignPoint:
    """One materialised campaign job.

    ``job`` is the canonical, fully validated configuration tree
    (``{"simulation": {...}, "attack": {...}}``); ``overrides`` records just
    the swept values that produced it, keyed by axis path; ``key`` is the
    content hash used for caching and resume.
    """

    index: int
    overrides: Dict[str, Any]
    job: Dict[str, Any]
    key: str

    def label(self) -> str:
        """Compact human-readable description of the swept values."""
        if not self.overrides:
            return f"point {self.index}"
        parts = [f"{path.rsplit('.', 1)[-1]}={value!r}" for path, value in self.overrides.items()]
        return ", ".join(parts)


def point_key(job: Mapping[str, Any], version: Optional[str] = None) -> str:
    """Stable content hash of one job configuration plus the code version."""
    blob = json.dumps(
        {
            "format": SPEC_FORMAT_VERSION,
            "code": version if version is not None else code_version(),
            "job": job,
        },
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _canonical(tree: Mapping[str, Any]) -> Dict[str, Any]:
    """``tree`` through a sorted JSON round-trip.

    Tuples become lists and keys sort, so equal configurations hash equally.
    """
    return json.loads(json.dumps(tree, sort_keys=True))


def _set_by_path(tree: Dict[str, Any], path: str, value: Any) -> None:
    """Assign ``value`` at a dotted ``path`` inside a nested config dict.

    Dict and list values are spliced in as deep copies, so a later override
    beneath the same path (axes ``attack.pulse`` and
    ``attack.pulse.length_s``) writes into the job, never into the axis's
    own value.
    """
    parts = path.split(".")
    node = tree
    for depth, part in enumerate(parts[:-1]):
        if not isinstance(node, dict) or part not in node:
            raise CampaignError(f"sweep path {path!r}: unknown section {'.'.join(parts[: depth + 1])!r}")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise CampaignError(f"sweep path {path!r}: unknown configuration field {leaf!r}")
    node[leaf] = copy.deepcopy(value) if isinstance(value, (dict, list)) else value


@dataclass
class CampaignSpec(JsonConfig):
    """Declarative description of a parameter-sweep campaign.

    The spec is a plain JSON-serialisable object (see
    :meth:`~repro.config.JsonConfig.to_json` /
    :meth:`~repro.config.JsonConfig.from_json`), so campaigns can be launched,
    resumed and audited from a single file.
    """

    name: str = "campaign"
    #: Aggregation preset; ``fig3a``..``fig3d`` reproduce the paper figures,
    #: anything else aggregates generically.
    experiment: str = "attack"
    #: What each point computes: a single ``"attack"`` run or a
    #: ``"montecarlo"`` population evaluation.
    kind: str = "attack"
    mode: str = "grid"
    #: Base overrides for :class:`~repro.config.SimulationConfig`.
    simulation: Dict[str, Any] = field(default_factory=dict)
    #: Base overrides for :class:`~repro.config.AttackConfig`.
    attack: Dict[str, Any] = field(default_factory=dict)
    #: Base overrides for :class:`~repro.montecarlo.engine.MonteCarloConfig`
    #: (``montecarlo`` kind only).
    montecarlo: Dict[str, Any] = field(default_factory=dict)
    axes: List[SweepAxis] = field(default_factory=list)
    #: Number of points drawn in ``random`` mode.
    samples: int = 0
    #: Seed for ``random`` mode; identical seeds materialise identical campaigns.
    seed: int = 0
    #: Points materialised (and dispatched) at a time; 0 materialises the
    #: whole campaign up front.  Large (10^5+ point) sweeps should set this
    #: so the runner streams the campaign through the cache shard by shard
    #: instead of holding every validated job in memory.
    shard_size: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("campaign name must be non-empty")
        if self.shard_size < 0:
            raise CampaignError("shard_size must be non-negative (0 = no sharding)")
        if self.kind not in JOB_KINDS:
            raise CampaignError(f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}")
        if self.mode not in SWEEP_MODES:
            raise CampaignError(f"unknown sweep mode {self.mode!r}; expected one of {SWEEP_MODES}")
        if self.montecarlo and self.kind != "montecarlo":
            raise CampaignError("the montecarlo section is only meaningful with kind='montecarlo'")
        self.axes = [
            axis if isinstance(axis, SweepAxis) else SweepAxis.from_dict(axis) for axis in self.axes
        ]
        consumed = MONTECARLO_PATH_PREFIXES if self.kind == "montecarlo" else CONSUMED_PATH_PREFIXES
        seen = set()
        for axis in self.axes:
            if not axis.path.startswith(consumed):
                raise CampaignError(
                    f"axis path {axis.path!r} is not consumed by a {self.kind} job; "
                    f"sweepable paths start with one of {consumed}"
                )
            if axis.path in seen:
                raise CampaignError(f"duplicate sweep axis {axis.path!r}")
            seen.add(axis.path)
        if self.mode == "random":
            if self.samples < 1:
                raise CampaignError("random mode needs samples >= 1")
        else:
            if self.samples:
                raise CampaignError(f"samples is only meaningful in random mode, not {self.mode!r}")
            for axis in self.axes:
                if not axis.is_enumerated:
                    raise CampaignError(
                        f"axis {axis.path!r}: {self.mode} mode needs explicit values, not a range"
                    )
            if self.mode == "zip" and self.axes:
                lengths = {len(axis.values) for axis in self.axes}  # type: ignore[arg-type]
                if len(lengths) > 1:
                    raise CampaignError(f"zip mode needs equal-length axes, got lengths {sorted(lengths)}")

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------

    def point_count(self) -> int:
        """Number of points the spec will materialise (without materialising)."""
        if self.mode == "random":
            return self.samples
        if not self.axes:
            return 1
        if self.mode == "zip":
            return len(self.axes[0].values)  # type: ignore[arg-type]
        count = 1
        for axis in self.axes:
            count *= len(axis.values)  # type: ignore[arg-type]
        return count

    def _override_sets(self) -> Iterator[Dict[str, Any]]:
        """Per-point ``{path: value}`` override mappings, generated lazily.

        Laziness is what makes :attr:`shard_size` effective: a 10^6-point
        grid never exists as a list — the runner pulls one shard of points at
        a time.  Random mode draws sequentially from one child stream, so the
        streamed campaign is identical to the materialised one.
        """
        if self.mode == "random":
            # One spawn-key child stream of the shared RNG tree (see
            # repro.utils.rng), so campaign draws and Monte-Carlo populations
            # are reproducible from the same root-seed convention.
            rng = child_rng(self.seed, "campaign", "random-sweep")
            for _ in range(self.samples):
                yield {axis.path: axis.sample(rng) for axis in self.axes}
            return
        if not self.axes:
            yield {}
            return
        paths = [axis.path for axis in self.axes]
        if self.mode == "zip":
            combos = zip(*[axis.values for axis in self.axes])  # type: ignore[arg-type]
        else:
            combos = itertools.product(*[axis.values for axis in self.axes])  # type: ignore[arg-type]
        for combo in combos:
            yield dict(zip(paths, combo))

    def _section_configs(self) -> Dict[str, Type[JsonConfig]]:
        """The config class of each job section, in validation order."""
        configs: Dict[str, Type[JsonConfig]] = {"simulation": SimulationConfig, "attack": AttackConfig}
        if self.kind == "montecarlo":
            # Imported lazily: repro.montecarlo builds on the campaign package.
            from ..montecarlo.engine import MonteCarloConfig

            configs["montecarlo"] = MonteCarloConfig
        return configs

    def base_job(self) -> Dict[str, Any]:
        """The validated, canonical base configuration tree before any axis override."""
        job: Dict[str, Any] = {"kind": self.kind}
        try:
            for section, config in self._section_configs().items():
                job[section] = config.from_dict(getattr(self, section)).to_dict()
        except ReproError as exc:
            raise CampaignError(f"campaign {self.name!r}: invalid base configuration: {exc}") from exc
        return _canonical(job)

    def iter_points(self) -> Iterator[CampaignPoint]:
        """Validated, content-addressed campaign points, generated lazily.

        Equivalent to :meth:`materialise` point for point, but never holds
        more than one point in memory — the streaming entry point behind
        :attr:`shard_size`.

        The base is validated and canonicalised once and kept as one JSON
        text per section.  Every point starts each section as a fresh
        ``json.loads`` of that text, so no two points share a sub-tree,
        splices its overrides in, and rebuilds only the sections its axis
        paths touch.  An untouched section is a fresh copy of the canonical
        base section, which rebuilding would reproduce unchanged.
        """
        base = {name: json.dumps(value) for name, value in self.base_job().items()}
        touched = {axis.path.split(".", 1)[0] for axis in self.axes}
        configs = {name: config for name, config in self._section_configs().items() if name in touched}
        version = code_version()
        for index, overrides in enumerate(self._override_sets()):
            job = {name: json.loads(text) for name, text in base.items()}
            for path, value in overrides.items():
                _set_by_path(job, path, value)
            try:
                rebuilt = {name: config.from_dict(job[name]).to_dict() for name, config in configs.items()}
            except ReproError as exc:
                raise CampaignError(
                    f"campaign {self.name!r}: point {index} ({overrides!r}) is invalid: {exc}"
                ) from exc
            job.update(_canonical(rebuilt))
            yield CampaignPoint(
                index=index, overrides=dict(overrides), job=job, key=point_key(job, version)
            )

    def iter_shards(self) -> Iterator[List[CampaignPoint]]:
        """Points grouped into :attr:`shard_size` chunks (one chunk if 0)."""
        if self.shard_size <= 0:
            yield list(self.iter_points())
            return
        shard: List[CampaignPoint] = []
        for point in self.iter_points():
            shard.append(point)
            if len(shard) >= self.shard_size:
                yield shard
                shard = []
        if shard:
            yield shard

    def materialise(self) -> List[CampaignPoint]:
        """Expand the spec into validated, content-addressed campaign points."""
        return list(self.iter_points())
