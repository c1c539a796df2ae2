"""Seeded parameter distributions for Monte-Carlo cell populations.

Device-to-device and cycle-to-cycle variation is described as a list of
:class:`ParameterDistribution` objects.  Each distribution addresses one
scalar through a dotted path — the same addressing scheme the campaign
engine's sweep axes use — rooted at one of:

``device``
    A field of :class:`~repro.devices.jart_vcm.JartVcmParameters`
    (e.g. ``device.activation_energy_ev``, ``device.series_resistance_ohm``).
``attack``
    A numeric field of :class:`~repro.config.AttackConfig`
    (e.g. ``attack.pulse.length_s``, ``attack.ambient_temperature_k``).
``operating``
    A victim operating-point input normally derived from the circuit solve
    (``operating.victim_voltage_v``, ``operating.crosstalk_temperature_k``),
    for studies that perturb the electrical environment directly.

Distributions draw either absolute values or, with ``relative=True``,
multiplicative factors applied to the nominal value — the natural idiom for
"±5 % sigma around nominal" process variation.  Every distribution owns an
independent child stream of the population seed (see :mod:`repro.utils.rng`),
so adding or removing one distribution never changes the draws of the others.

For rare-event studies the sampler can draw from *tilted* proposals instead:
:class:`ImportanceSettings` shifts the mean (in sigmas) and/or inflates the
sigma of selected normal/lognormal distributions, and every sample carries
the summed log likelihood ratio of nominal over proposal densities
(:attr:`PopulationDraw.log_weights`).  Truncation bounds are preserved on the
proposal, and because the downstream estimator is self-normalized, the
truncation normalisation constants — like every other constant factor —
cancel out of the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..config import JsonConfig
from ..devices.jart_vcm import JartVcmParameters
from ..errors import MonteCarloError
from ..obs import get_telemetry, spawn_digest
from ..utils.rng import child_rng

#: Distribution families understood by the sampler.
DISTRIBUTION_KINDS = ("normal", "lognormal", "uniform")

#: Path roots a distribution may address.
PATH_ROOTS = ("device", "attack", "operating")

#: Device-model fields that may vary per cell (every float field of the
#: JART parameter set).
DEVICE_FIELDS = tuple(
    f.name for f in fields(JartVcmParameters) if f.name != "charge_number"
)

#: Attack-config paths the engine consumes per cell.
ATTACK_PATHS = (
    "attack.pulse.length_s",
    "attack.pulse.amplitude_v",
    "attack.pulse.duty_cycle",
    "attack.ambient_temperature_k",
    "attack.flip_threshold",
)

#: Operating-point inputs that may be perturbed directly.
OPERATING_PATHS = (
    "operating.victim_voltage_v",
    "operating.crosstalk_temperature_k",
)

#: Number of truncation resampling rounds before giving up.
_MAX_TRUNCATION_ROUNDS = 64


def known_paths() -> List[str]:
    """Every dotted path the sampler accepts, for error messages and docs."""
    return [f"device.{name}" for name in DEVICE_FIELDS] + list(ATTACK_PATHS) + list(OPERATING_PATHS)


@dataclass
class ParameterDistribution(JsonConfig):
    """One sampled parameter of the cell population.

    ``normal`` draws from N(``mean``, ``sigma``); ``lognormal`` draws
    ``exp(N(log(mean), sigma))`` so ``mean`` is the median of the samples;
    ``uniform`` draws from [``low``, ``high``].  ``truncate_low`` /
    ``truncate_high`` clip the support by resampling (not clamping, which
    would pile probability mass onto the bounds).  With ``relative=True`` the
    draws multiply the nominal value instead of replacing it.
    """

    path: str
    kind: str = "normal"
    mean: Optional[float] = None
    sigma: Optional[float] = None
    low: Optional[float] = None
    high: Optional[float] = None
    relative: bool = False
    truncate_low: Optional[float] = None
    truncate_high: Optional[float] = None
    #: Fraction of the (log-)normal variance shared by every cell of one die
    #: (full-array mode): 0 = fully independent cells, 1 = every cell of an
    #: array draws the same value.  Only consumed by per-cell draws.
    within_die: float = 0.0

    def __post_init__(self) -> None:
        root = self.path.split(".", 1)[0] if "." in self.path else ""
        if root not in PATH_ROOTS:
            raise MonteCarloError(
                f"distribution path {self.path!r} must be a dotted path rooted at one of {PATH_ROOTS}"
            )
        if self.path not in known_paths():
            raise MonteCarloError(
                f"distribution path {self.path!r} is not a sampleable parameter; "
                f"known paths: {', '.join(known_paths())}"
            )
        if self.kind not in DISTRIBUTION_KINDS:
            raise MonteCarloError(
                f"distribution {self.path!r}: unknown kind {self.kind!r}; expected one of {DISTRIBUTION_KINDS}"
            )
        if self.kind in ("normal", "lognormal"):
            if self.mean is None or self.sigma is None:
                raise MonteCarloError(f"distribution {self.path!r}: {self.kind} needs mean and sigma")
            if self.sigma < 0:
                raise MonteCarloError(f"distribution {self.path!r}: sigma must be non-negative")
            if self.kind == "lognormal" and self.mean <= 0:
                raise MonteCarloError(f"distribution {self.path!r}: lognormal needs a positive mean")
            if self.low is not None or self.high is not None:
                raise MonteCarloError(
                    f"distribution {self.path!r}: low/high belong to uniform; use truncate_low/high"
                )
        else:
            if self.low is None or self.high is None:
                raise MonteCarloError(f"distribution {self.path!r}: uniform needs low and high")
            if not self.high > self.low:
                raise MonteCarloError(f"distribution {self.path!r}: high must exceed low")
            if self.mean is not None or self.sigma is not None:
                raise MonteCarloError(f"distribution {self.path!r}: mean/sigma belong to normal/lognormal")
        if (
            self.truncate_low is not None
            and self.truncate_high is not None
            and not self.truncate_high > self.truncate_low
        ):
            raise MonteCarloError(f"distribution {self.path!r}: truncate_high must exceed truncate_low")
        if not 0.0 <= self.within_die <= 1.0:
            raise MonteCarloError(f"distribution {self.path!r}: within_die must lie in [0, 1]")
        if self.within_die > 0.0 and self.kind == "uniform":
            raise MonteCarloError(
                f"distribution {self.path!r}: within_die correlation is only defined for "
                "normal/lognormal distributions"
            )

    # ------------------------------------------------------------------

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "normal":
            return rng.normal(self.mean, self.sigma, size=n)
        if self.kind == "lognormal":
            return np.exp(rng.normal(np.log(self.mean), self.sigma, size=n))
        return rng.uniform(self.low, self.high, size=n)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` values, resampling any that violate the truncation."""
        values = self._draw(rng, n)
        if self.truncate_low is None and self.truncate_high is None:
            return values
        for _ in range(_MAX_TRUNCATION_ROUNDS):
            bad = np.zeros(n, dtype=bool)
            if self.truncate_low is not None:
                bad |= values < self.truncate_low
            if self.truncate_high is not None:
                bad |= values > self.truncate_high
            count = int(bad.sum())
            if count == 0:
                return values
            values[bad] = self._draw(rng, count)
        raise MonteCarloError(
            f"distribution {self.path!r}: truncation bounds reject nearly all samples "
            f"({count}/{n} still outside after {_MAX_TRUNCATION_ROUNDS} resampling rounds)"
        )

    # ------------------------------------------------------------------
    # importance tilts
    # ------------------------------------------------------------------

    def tilted(self, shift_sigmas: float = 0.0, scale: float = 1.0) -> "ParameterDistribution":
        """The importance-sampling proposal: mean shifted by ``shift_sigmas``
        standard deviations and/or sigma inflated by ``scale``.

        For ``lognormal`` the tilt acts in log space (the median moves by
        ``exp(shift * sigma)``), keeping the proposal in the same family.
        Truncation bounds carry over unchanged so the proposal's support never
        exceeds the nominal one.
        """
        if self.kind == "uniform":
            raise MonteCarloError(
                f"distribution {self.path!r}: importance tilts are only defined for "
                "normal/lognormal distributions"
            )
        if self.sigma <= 0.0:
            raise MonteCarloError(
                f"distribution {self.path!r}: importance tilts need a positive sigma"
            )
        if scale <= 0.0:
            raise MonteCarloError(f"distribution {self.path!r}: tilt scale must be positive")
        if self.kind == "normal":
            mean = self.mean + shift_sigmas * self.sigma
        else:
            mean = float(np.exp(np.log(self.mean) + shift_sigmas * self.sigma))
        return replace(self, mean=mean, sigma=self.sigma * scale)

    def log_density(self, values: np.ndarray) -> np.ndarray:
        """Log density of raw draws, up to an additive constant.

        Defined for the tiltable families only (uniform cannot be tilted, so
        its density is never needed in a likelihood ratio).  Truncation
        renormalisation is deliberately omitted: likelihood-ratio weights are
        consumed by a self-normalized estimator, where constant factors
        cancel (the proposal keeps the same truncation region).
        """
        values = np.asarray(values, dtype=np.float64)
        if self.kind == "normal":
            z = (values - self.mean) / self.sigma
            return -0.5 * z * z - np.log(self.sigma)
        if self.kind == "lognormal":
            z = (np.log(values) - np.log(self.mean)) / self.sigma
            return -0.5 * z * z - np.log(self.sigma) - np.log(values)
        raise MonteCarloError(
            f"distribution {self.path!r}: log_density is only defined for "
            "normal/lognormal distributions"
        )

    # ------------------------------------------------------------------
    # per-cell (full-array) draws
    # ------------------------------------------------------------------

    def _outside_truncation(self, values: np.ndarray) -> np.ndarray:
        bad = np.zeros(values.shape, dtype=bool)
        if self.truncate_low is not None:
            bad |= values < self.truncate_low
        if self.truncate_high is not None:
            bad |= values > self.truncate_high
        return bad

    def sample_cells(self, rng: np.random.Generator, n_arrays: int, cells: int) -> np.ndarray:
        """Per-cell draws for ``n_arrays`` sampled arrays, shape (n_arrays, cells).

        For normal/lognormal the (log-)variance splits into a within-die
        component shared by every cell of one array (fraction
        :attr:`within_die`) and an independent cell-to-cell component — the
        standard separation of die-to-die and local process variation.
        Truncation resamples the cell component only (the die keeps its
        shared draw); with ``within_die == 1`` the shared draw itself is
        resampled for offending arrays.
        """
        if self.kind == "uniform":
            values = rng.uniform(self.low, self.high, size=(n_arrays, cells))
            for _ in range(_MAX_TRUNCATION_ROUNDS):
                bad = self._outside_truncation(values)
                count = int(bad.sum())
                if count == 0:
                    return values
                values[bad] = rng.uniform(self.low, self.high, size=count)
            raise MonteCarloError(
                f"distribution {self.path!r}: truncation bounds reject nearly all samples"
            )

        location = self.mean if self.kind == "normal" else np.log(self.mean)
        die_scale = float(np.sqrt(self.within_die))
        cell_scale = float(np.sqrt(1.0 - self.within_die))

        def realise(z: np.ndarray) -> np.ndarray:
            if self.kind == "normal":
                return location + self.sigma * z
            return np.exp(location + self.sigma * z)

        z_die = rng.normal(0.0, 1.0, size=(n_arrays, 1))
        z_cell = rng.normal(0.0, 1.0, size=(n_arrays, cells))
        values = realise(die_scale * z_die + cell_scale * z_cell)
        if self.truncate_low is None and self.truncate_high is None:
            return values
        for _ in range(_MAX_TRUNCATION_ROUNDS):
            bad = self._outside_truncation(values)
            count = int(bad.sum())
            if count == 0:
                return values
            if cell_scale > 0.0:
                z_cell[bad] = rng.normal(0.0, 1.0, size=count)
            else:
                bad_arrays = bad.any(axis=1)
                z_die[bad_arrays] = rng.normal(0.0, 1.0, size=(int(bad_arrays.sum()), 1))
            values = realise(die_scale * z_die + cell_scale * z_cell)
        raise MonteCarloError(
            f"distribution {self.path!r}: truncation bounds reject nearly all samples "
            f"({count}/{n_arrays * cells} still outside after {_MAX_TRUNCATION_ROUNDS} rounds)"
        )


@dataclass
class ImportanceSettings(JsonConfig):
    """Importance-sampling tilt of a population's distributions.

    ``shift_sigmas`` moves the mean of the named path's distribution by the
    given number of standard deviations (towards the flip boundary, in a rare
    flip study); ``scale`` inflates its sigma.  Paths not named keep their
    nominal distribution (and contribute nothing to the weights).  Only
    normal/lognormal distributions can be tilted.
    """

    #: path -> mean shift in units of the distribution's sigma.
    shift_sigmas: Dict[str, float] = field(default_factory=dict)
    #: path -> multiplicative sigma inflation (> 0).
    scale: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for path, factor in self.scale.items():
            if factor <= 0.0:
                raise MonteCarloError(
                    f"importance scale for {path!r} must be positive, got {factor}"
                )
        if not self.shift_sigmas and not self.scale:
            raise MonteCarloError("importance settings need at least one shift or scale tilt")

    def paths(self) -> List[str]:
        """Every path this tilt touches."""
        return sorted(set(self.shift_sigmas) | set(self.scale))

    def tilts(self, path: str) -> Tuple[float, float]:
        """(shift_sigmas, scale) applied to one path (identity if untouched)."""
        return float(self.shift_sigmas.get(path, 0.0)), float(self.scale.get(path, 1.0))

    def proposal_for(self, dist: ParameterDistribution) -> ParameterDistribution:
        """The tilted proposal distribution for one nominal distribution."""
        shift, scale = self.tilts(dist.path)
        return dist.tilted(shift_sigmas=shift, scale=scale)

    def validate_against(self, distributions: Sequence[ParameterDistribution]) -> None:
        """Reject tilts that address paths the population does not sample."""
        known = {dist.path for dist in distributions}
        for path in self.paths():
            if path not in known:
                raise MonteCarloError(
                    f"importance tilt addresses {path!r}, which is not among the sampled "
                    f"distributions ({sorted(known) or 'none'})"
                )


@dataclass
class PopulationDraw:
    """The sampled population: one value array per addressed path."""

    n_samples: int
    seed: int
    #: path -> float64 array of shape (n_samples,).
    values: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Summed log likelihood ratios (nominal over proposal) per sample when
    #: the draw came from tilted proposals; ``None`` for plain draws.
    log_weights: Optional[np.ndarray] = None

    def weights(self) -> Optional[np.ndarray]:
        """Likelihood-ratio weights (un-normalised), or ``None`` if untilted."""
        if self.log_weights is None:
            return None
        return np.exp(self.log_weights)

    def get(self, path: str, nominal: float) -> np.ndarray:
        """Values for ``path``, falling back to the broadcast nominal value."""
        if path in self.values:
            return self.values[path]
        return np.full(self.n_samples, float(nominal))

    def scalar(self, path: str, index: int, nominal: float) -> float:
        """The value one cell sees — the scalar-path counterpart of :meth:`get`."""
        if path in self.values:
            return float(self.values[path][index])
        return float(nominal)


@dataclass
class ArrayPopulationDraw:
    """A full-array population: one value per path per cell per sampled array."""

    n_arrays: int
    cells: int
    seed: int
    #: path -> float64 array of shape (n_arrays, cells).
    values: Dict[str, np.ndarray] = field(default_factory=dict)

    def get(self, path: str, nominal: float) -> np.ndarray:
        """Values for ``path``, falling back to the broadcast nominal value."""
        if path in self.values:
            return self.values[path]
        return np.full((self.n_arrays, self.cells), float(nominal))

    def array_overrides(self, index) -> Dict[str, np.ndarray]:
        """``{field: 1-D array}`` device overrides of the draws at ``index``.

        ``index`` is any numpy index into the ``(n_arrays, cells)`` draws: an
        array number gives that array's ``(cells,)`` overrides, and
        ``np.ix_(arrays, cells)`` the listed cells of the listed arrays,
        array-major.
        """
        return {
            path.split(".", 1)[1]: values[index].ravel()
            for path, values in self.values.items()
            if path.startswith("device.")
        }


class PopulationSampler:
    """Draws seeded cell populations from a list of distributions.

    Each distribution samples from its own spawn-key child stream
    (``child_rng(seed, "montecarlo", path)``), so the draw for a given
    ``(seed, path)`` pair is independent of which other parameters are
    sampled — populations stay comparable across studies.
    """

    def __init__(self, distributions: Sequence[ParameterDistribution], seed: int = 0):
        self.distributions = [
            dist if isinstance(dist, ParameterDistribution) else ParameterDistribution.from_dict(dist)
            for dist in distributions
        ]
        seen = set()
        for dist in self.distributions:
            if dist.path in seen:
                raise MonteCarloError(f"duplicate distribution for path {dist.path!r}")
            seen.add(dist.path)
        self.seed = int(seed)

    def sample(
        self,
        n_samples: int,
        nominals: Mapping[str, float],
        spawn: Sequence = (),
        paths: Optional[Sequence[str]] = None,
        importance: Optional[ImportanceSettings] = None,
    ) -> PopulationDraw:
        """Draw a population of ``n_samples`` cells.

        ``nominals`` provides the nominal value per path, consumed by
        ``relative`` distributions (absolute ones ignore it).  ``spawn``
        inserts extra spawn-key elements into each distribution's child
        stream (``child_rng(seed, "montecarlo", *spawn, path)``) — the
        adaptive engine keys its batches this way, so batch ``i`` draws the
        same values regardless of how many batches preceded it.  ``paths``
        restricts the draw to a subset of the sampled paths (used to split
        per-cell device draws from per-array environment draws).  With
        ``importance`` set, the named distributions draw from their tilted
        proposals and the draw carries per-sample log likelihood ratios.
        """
        if n_samples < 1:
            raise MonteCarloError("n_samples must be at least 1")
        selected = self.distributions
        if paths is not None:
            wanted = set(paths)
            selected = [dist for dist in self.distributions if dist.path in wanted]
        if importance is not None:
            importance.validate_against(selected)
        draw = PopulationDraw(n_samples=n_samples, seed=self.seed)
        log_weights: Optional[np.ndarray] = None
        for dist in selected:
            rng = child_rng(self.seed, "montecarlo", *spawn, dist.path)
            tilt = (
                importance is not None
                and dist.path in importance.paths()
            )
            proposal = importance.proposal_for(dist) if tilt else dist
            values = proposal.sample(rng, n_samples)
            if tilt:
                if log_weights is None:
                    log_weights = np.zeros(n_samples)
                log_weights += dist.log_density(values) - proposal.log_density(values)
            if dist.relative:
                if dist.path not in nominals:
                    raise MonteCarloError(
                        f"distribution {dist.path!r} is relative but no nominal value is available"
                    )
                values = values * float(nominals[dist.path])
            draw.values[dist.path] = np.asarray(values, dtype=np.float64)
        draw.log_weights = log_weights
        tel = get_telemetry()
        if tel.enabled:
            for path, values in draw.values.items():
                tel.numerics.check_array("mc.population_draw", path, values)
            if tel.audit is not None:
                tel.audit.record(
                    "mc.population_draw",
                    key=spawn_digest(self.seed, "montecarlo", *spawn),
                    arrays=draw.values,
                    meta={"n_samples": n_samples, "spawn": [str(s) for s in spawn]},
                )
        return draw

    def sample_cells(
        self,
        n_arrays: int,
        cells: int,
        nominals: Mapping[str, float],
        spawn: Sequence = (),
        paths: Optional[Sequence[str]] = None,
    ) -> ArrayPopulationDraw:
        """Draw ``n_arrays`` whole-array populations of ``cells`` cells each.

        The per-cell mode behind ``MonteCarloEngine(mode="full_array")``: every
        cell of every sampled array carries its own draw, with the optional
        :attr:`ParameterDistribution.within_die` fraction of the variance
        shared across one array's cells (correlated within-die variation).
        Each distribution samples from its own spawn-key child stream
        (``child_rng(seed, "montecarlo", "full-array", path)``), independent
        of the anchored per-victim streams.
        """
        if n_arrays < 1:
            raise MonteCarloError("n_arrays must be at least 1")
        if cells < 1:
            raise MonteCarloError("cells must be at least 1")
        selected = self.distributions
        if paths is not None:
            wanted = set(paths)
            selected = [dist for dist in self.distributions if dist.path in wanted]
        draw = ArrayPopulationDraw(n_arrays=n_arrays, cells=cells, seed=self.seed)
        for dist in selected:
            rng = child_rng(self.seed, "montecarlo", *spawn, "full-array", dist.path)
            values = dist.sample_cells(rng, n_arrays, cells)
            if dist.relative:
                if dist.path not in nominals:
                    raise MonteCarloError(
                        f"distribution {dist.path!r} is relative but no nominal value is available"
                    )
                values = values * float(nominals[dist.path])
            draw.values[dist.path] = np.asarray(values, dtype=np.float64)
        audit = get_telemetry().audit
        if audit is not None:
            audit.record(
                "mc.population_draw",
                key=spawn_digest(self.seed, "montecarlo", *spawn, "full-array"),
                arrays=draw.values,
                meta={
                    "n_arrays": n_arrays,
                    "cells": cells,
                    "spawn": [str(s) for s in spawn],
                },
            )
        return draw
