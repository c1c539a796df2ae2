"""Streaming statistical estimators for Monte-Carlo flip probabilities.

The Monte-Carlo engine reports flip probabilities — Bernoulli proportions
estimated from sampled populations.  This module provides the estimator layer
every statistical workload shares:

* :class:`StreamingBinomialEstimator` — a streaming success/trial counter with
  Wilson-score and Jeffreys (Beta posterior) confidence intervals.  Batched
  updates are exact: feeding one stream in any batching yields identical
  state, which is what makes adaptive (sequential) sampling reproducible.
* :class:`StreamingMeanEstimator` — a numerically stable (Welford/Chan)
  streaming mean/variance with a normal-approximation interval, used for
  pulses-to-flip statistics accumulated across batches.
* :class:`ImportanceEstimator` — the self-normalized likelihood-ratio
  estimator for populations drawn from a tilted proposal distribution, with
  a delta-method interval and the effective-sample-size diagnostic.

The intervals take their quantiles from :mod:`scipy.special`: the inverse
normal CDF (``ndtri``) and the inverse regularized incomplete beta
(``betaincinv``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import special

from ..errors import MonteCarloError

#: Interval methods understood by :class:`StreamingBinomialEstimator`.
INTERVAL_METHODS = ("wilson", "jeffreys")


def _z(confidence: float) -> float:
    """Two-sided standard-normal quantile of a confidence level."""
    if not 0.0 < confidence < 1.0:
        raise MonteCarloError(f"confidence must be in (0, 1), got {confidence}")
    return float(special.ndtri(0.5 + 0.5 * confidence))


def wilson_interval(successes: float, trials: float, confidence: float = 0.95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    z = _z(confidence)
    if trials <= 0:
        return 0.0, 1.0
    p = successes / trials
    z2 = z * z
    denominator = 1.0 + z2 / trials
    centre = (p + z2 / (2.0 * trials)) / denominator
    margin = (z / denominator) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return max(0.0, centre - margin), min(1.0, centre + margin)


def jeffreys_interval(successes: float, trials: float, confidence: float = 0.95) -> Tuple[float, float]:
    """Jeffreys (Beta(1/2, 1/2) posterior) equal-tailed credible interval.

    Follows the standard convention: the lower bound is 0 when no successes
    were observed and the upper bound is 1 when no failures were, so the
    interval never excludes a boundary the data cannot rule out.
    """
    if not 0.0 < confidence < 1.0:
        raise MonteCarloError(f"confidence must be in (0, 1), got {confidence}")
    if trials <= 0:
        return 0.0, 1.0
    alpha = 1.0 - confidence
    a = successes + 0.5
    b = trials - successes + 0.5
    low = 0.0 if successes <= 0 else float(special.betaincinv(a, b, alpha / 2.0))
    high = 1.0 if successes >= trials else float(special.betaincinv(a, b, 1.0 - alpha / 2.0))
    return low, high


def fixed_sample_size(target_half_width: float, confidence: float = 0.95) -> int:
    """Samples a fixed-n run needs so the worst-case (p = 1/2) Wilson interval
    half-width meets ``target_half_width``.

    At p = 1/2 the Wilson half-width is exactly ``z / (2 sqrt(n + z^2))``, so
    the bound inverts in closed form.  This is the fixed-n comparator the
    adaptive benchmarks measure against.
    """
    if target_half_width <= 0.0:
        raise MonteCarloError("target_half_width must be positive")
    z = _z(confidence)
    n = z * z / (4.0 * target_half_width * target_half_width) - z * z
    return max(1, int(math.ceil(n)))


# ----------------------------------------------------------------------
# streaming estimators
# ----------------------------------------------------------------------


class StreamingBinomialEstimator:
    """Streaming Bernoulli-proportion estimator with Wilson/Jeffreys intervals.

    Updates are batched and associative: any partition of the same outcome
    stream produces the identical (successes, trials) state, so sequential
    (adaptive) runs match their one-shot equivalents exactly.
    """

    def __init__(self, confidence: float = 0.95, method: str = "wilson"):
        if not 0.0 < confidence < 1.0:
            raise MonteCarloError("confidence must be in (0, 1)")
        if method not in INTERVAL_METHODS:
            raise MonteCarloError(
                f"unknown interval method {method!r}; expected one of {INTERVAL_METHODS}"
            )
        self.confidence = float(confidence)
        self.method = method
        self.trials = 0
        self.successes = 0

    def update(self, outcomes: np.ndarray) -> None:
        """Fold one batch of boolean outcomes into the stream."""
        outcomes = np.asarray(outcomes)
        self.trials += int(outcomes.size)
        self.successes += int(np.count_nonzero(outcomes))

    def update_counts(self, successes: int, trials: int) -> None:
        """Fold pre-counted successes/trials (e.g. from a cached record)."""
        if trials < 0 or successes < 0 or successes > trials:
            raise MonteCarloError("need 0 <= successes <= trials")
        self.trials += int(trials)
        self.successes += int(successes)

    @property
    def estimate(self) -> float:
        """The point estimate p-hat (0 while the stream is empty)."""
        return self.successes / self.trials if self.trials else 0.0

    def interval(self) -> Tuple[float, float]:
        """The configured confidence interval at the current state."""
        if self.method == "jeffreys":
            return jeffreys_interval(self.successes, self.trials, self.confidence)
        return wilson_interval(self.successes, self.trials, self.confidence)

    def half_width(self) -> float:
        """Half the current interval width (inf while the stream is empty)."""
        if not self.trials:
            return float("inf")
        low, high = self.interval()
        return 0.5 * (high - low)

    @property
    def effective_sample_size(self) -> float:
        """Trials seen (uniform weights); mirrors :class:`ImportanceEstimator`."""
        return float(self.trials)


class ClusteredBinomialEstimator:
    """Streaming proportion estimator for cluster-sampled Bernoulli lanes.

    Full-array Monte-Carlo draws whole arrays: the victim lanes of one array
    share its per-cell draws, environment draw and nodal solve, so they are
    one *cluster*, not independent trials.  The point estimate is still the
    pooled lane fraction ``sum(x_a) / sum(m_a)``, but the interval uses the
    cluster-robust (ratio-estimator) variance over arrays::

        se^2 = A/(A-1) * sum_a (x_a - p m_a)^2 / (sum_a m_a)^2

    which is exact for any within-cluster correlation structure and reduces
    to the iid width when lanes are actually independent.  Updates stream
    per batch of clusters via sufficient statistics, so batching is exact.
    """

    method = "cluster"

    def __init__(self, confidence: float = 0.95):
        if not 0.0 < confidence < 1.0:
            raise MonteCarloError("confidence must be in (0, 1)")
        self.confidence = float(confidence)
        self.clusters = 0
        self.trials = 0
        self.successes = 0
        self._sum_x2 = 0.0
        self._sum_xm = 0.0
        self._sum_m2 = 0.0

    def update(self, outcomes) -> None:
        """Fold a batch of clusters.

        Accepts either a 2-D bool array (one row per cluster, every lane
        counted) or a ``(successes, sizes)`` pair of per-cluster arrays for
        clusters with excluded lanes.
        """
        if isinstance(outcomes, tuple):
            successes, sizes = outcomes
            self.update_counts(successes, sizes)
            return
        outcomes = np.asarray(outcomes, dtype=bool)
        if outcomes.ndim != 2:
            raise MonteCarloError("clustered updates need a (clusters, lanes) bool array")
        sizes = np.full(outcomes.shape[0], outcomes.shape[1], dtype=np.float64)
        self.update_counts(outcomes.sum(axis=1).astype(np.float64), sizes)

    def update_counts(self, successes: np.ndarray, sizes: np.ndarray) -> None:
        """Fold per-cluster (successes, lane count) pairs; empty clusters are
        dropped (an array whose every lane was excluded carries no data)."""
        successes = np.asarray(successes, dtype=np.float64).ravel()
        sizes = np.asarray(sizes, dtype=np.float64).ravel()
        if successes.shape != sizes.shape:
            raise MonteCarloError("successes and sizes must have the same length")
        keep = sizes > 0
        successes, sizes = successes[keep], sizes[keep]
        self.clusters += int(successes.size)
        self.trials += int(sizes.sum())
        self.successes += int(successes.sum())
        self._sum_x2 += float((successes * successes).sum())
        self._sum_xm += float((successes * sizes).sum())
        self._sum_m2 += float((sizes * sizes).sum())

    @property
    def estimate(self) -> float:
        """Pooled lane-level proportion."""
        return self.successes / self.trials if self.trials else 0.0

    @property
    def effective_sample_size(self) -> float:
        """Number of independent clusters behind the interval."""
        return float(self.clusters)

    def standard_error(self) -> float:
        if self.clusters < 2 or self.trials <= 0:
            return float("inf")
        p = self.estimate
        # sum (x_a - p m_a)^2 expanded into the streaming accumulators.
        spread = self._sum_x2 - 2.0 * p * self._sum_xm + p * p * self._sum_m2
        factor = self.clusters / (self.clusters - 1.0)
        return math.sqrt(max(factor * spread, 0.0)) / self.trials

    def interval(self) -> Tuple[float, float]:
        """Cluster-robust normal interval, clipped to [0, 1].

        At the all-zero / all-one boundaries the spread (and thus the normal
        width) degenerates; those states fall back to a Wilson bound at the
        cluster count, the number of genuinely independent observations.
        """
        if not self.clusters:
            return 0.0, 1.0
        if self.successes <= 0 or self.successes >= self.trials:
            boundary = 0 if self.successes <= 0 else self.clusters
            return wilson_interval(boundary, self.clusters, self.confidence)
        se = self.standard_error()
        if not math.isfinite(se):
            return 0.0, 1.0
        z = _z(self.confidence)
        p = self.estimate
        return max(0.0, p - z * se), min(1.0, p + z * se)

    def half_width(self) -> float:
        if not self.clusters:
            return float("inf")
        low, high = self.interval()
        return 0.5 * (high - low)


class StreamingMeanEstimator:
    """Streaming mean/variance (Chan's parallel Welford) with a normal CI."""

    def __init__(self, confidence: float = 0.95):
        if not 0.0 < confidence < 1.0:
            raise MonteCarloError("confidence must be in (0, 1)")
        self.confidence = float(confidence)
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def update(self, values: np.ndarray) -> None:
        """Fold one batch of values into the stream."""
        values = np.asarray(values, dtype=np.float64).ravel()
        n = int(values.size)
        if n == 0:
            return
        batch_mean = float(values.mean())
        batch_m2 = float(((values - batch_mean) ** 2).sum())
        total = self.count + n
        delta = batch_mean - self._mean
        self._m2 += batch_m2 + delta * delta * self.count * n / total
        self._mean += delta * n / total
        self.count = total

    @property
    def mean(self) -> float:
        return self._mean if self.count else float("nan")

    @property
    def variance(self) -> float:
        """Unbiased sample variance of the stream."""
        return self._m2 / (self.count - 1) if self.count > 1 else float("nan")

    def interval(self) -> Tuple[float, float]:
        """Normal-approximation interval on the mean."""
        if self.count < 2:
            return float("-inf"), float("inf")
        z = _z(self.confidence)
        half = z * math.sqrt(self.variance / self.count)
        return self._mean - half, self._mean + half

    def half_width(self) -> float:
        low, high = self.interval()
        return 0.5 * (high - low)


class ImportanceEstimator:
    """Self-normalized importance-sampling estimator of a Bernoulli mean.

    The population is drawn from a tilted proposal ``g``; each sample carries
    the likelihood ratio ``w = f/g`` against the nominal distribution ``f``
    (any constant factor cancels).  The estimate is the ratio estimator
    ``p = sum(w f) / sum(w)`` with the standard delta-method variance, and
    :attr:`effective_sample_size` quantifies how much of the sample budget the
    weight spread wastes — an ESS far below the sample count means the tilt
    overshot the important region.
    """

    def __init__(self, confidence: float = 0.95):
        if not 0.0 < confidence < 1.0:
            raise MonteCarloError("confidence must be in (0, 1)")
        self.confidence = float(confidence)
        self.trials = 0
        self._sum_w = 0.0
        self._sum_w2 = 0.0
        self._sum_wf = 0.0
        self._sum_w2f = 0.0

    def update(self, outcomes: np.ndarray, weights: np.ndarray) -> None:
        """Fold one batch of boolean outcomes and their likelihood ratios."""
        outcomes = np.asarray(outcomes, dtype=bool).ravel()
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if outcomes.shape != weights.shape:
            raise MonteCarloError("outcomes and weights must have the same length")
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise MonteCarloError("importance weights must be finite and non-negative")
        self.trials += int(outcomes.size)
        self._sum_w += float(weights.sum())
        self._sum_w2 += float((weights * weights).sum())
        flipped = weights[outcomes]
        self._sum_wf += float(flipped.sum())
        self._sum_w2f += float((flipped * flipped).sum())

    @property
    def estimate(self) -> float:
        """The self-normalized estimate sum(w f)/sum(w)."""
        return self._sum_wf / self._sum_w if self._sum_w > 0.0 else 0.0

    @property
    def effective_sample_size(self) -> float:
        """Kish effective sample size ``(sum w)^2 / sum w^2``."""
        return self._sum_w * self._sum_w / self._sum_w2 if self._sum_w2 > 0.0 else 0.0

    def standard_error(self) -> float:
        """Delta-method standard error of the ratio estimate."""
        if self.trials < 2 or self._sum_w <= 0.0:
            return float("inf")
        p = self.estimate
        # sum of w^2 (f - p)^2 with boolean f: f^2 = f.
        numerator = (1.0 - 2.0 * p) * self._sum_w2f + p * p * self._sum_w2
        return math.sqrt(max(numerator, 0.0)) / self._sum_w

    def interval(self) -> Tuple[float, float]:
        """Normal-approximation interval, clipped to [0, 1].

        With no observed successes (or no failures) the delta-method variance
        degenerates to zero, which would collapse the interval and fool a
        sequential stopping rule into instant "convergence"; those boundary
        states fall back to a Wilson bound at the Kish effective sample size,
        mirroring how the plain binomial estimator keeps nonzero width at
        k = 0 and k = n.
        """
        se = self.standard_error()
        if not math.isfinite(se):
            return 0.0, 1.0
        if self._sum_wf <= 0.0 or self._sum_wf >= self._sum_w:
            ess = self.effective_sample_size
            successes = 0.0 if self._sum_wf <= 0.0 else ess
            return wilson_interval(successes, ess, self.confidence)
        z = _z(self.confidence)
        p = self.estimate
        return max(0.0, p - z * se), min(1.0, p + z * se)

    def half_width(self) -> float:
        if not self.trials:
            return float("inf")
        low, high = self.interval()
        return 0.5 * (high - low)


@dataclass
class EstimatorState:
    """Snapshot of an estimator, serialisable into result summaries."""

    estimate: float
    ci_low: float
    ci_high: float
    half_width: float
    confidence: float
    method: str
    trials: int
    effective_sample_size: Optional[float] = None

    @classmethod
    def capture(cls, estimator) -> "EstimatorState":
        low, high = estimator.interval()
        method = getattr(estimator, "method", "importance")
        ess = estimator.effective_sample_size
        return cls(
            estimate=float(estimator.estimate),
            ci_low=float(low),
            ci_high=float(high),
            half_width=float(estimator.half_width()),
            confidence=float(estimator.confidence),
            method=method,
            trials=int(estimator.trials),
            effective_sample_size=float(ess) if ess is not None else None,
        )

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "half_width": self.half_width,
            "confidence": self.confidence,
            "method": self.method,
            "trials": self.trials,
            "effective_sample_size": self.effective_sample_size,
        }
