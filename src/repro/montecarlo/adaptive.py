"""Sequential (CI-driven) sample allocation for Monte-Carlo populations.

A fixed-n Monte-Carlo run spends the same budget on every question, whether
the answer is an obvious plateau (flip probability pinned at 0 or 1, where a
handful of samples already yields a tight interval) or sits right on the flip
threshold (where the binomial variance peaks).  :class:`AdaptiveSampler`
replaces the fixed budget with a stopping rule: draw samples in batches and
stop as soon as the confidence interval on the flip probability is tighter
than a target half-width, with a hard ``n_max`` ceiling.

Reproducibility: the sampler never draws randomness itself — it asks its
``evaluate`` callback for one batch at a time, identified by a deterministic
batch index.  The Monte-Carlo engine maps that index into the spawn-key RNG
tree (``child_rng(seed, "montecarlo", "batch", index, path)``), so an
adaptive run is bit-reproducible from the root seed alone: the stopping
decisions are a pure function of the draws, and the draws are a pure function
of ``(seed, batch index, path)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from ..config import JsonConfig
from ..errors import MonteCarloError
from ..obs import get_telemetry
from .estimators import (
    INTERVAL_METHODS,
    EstimatorState,
    ImportanceEstimator,
    StreamingBinomialEstimator,
)

#: A batch evaluation: ``evaluate(batch_index, n)`` returns the boolean flip
#: outcomes of the batch's valid lanes plus their importance weights (or
#: ``None`` for plain Monte-Carlo).
BatchEvaluator = Callable[[int, int], Tuple[np.ndarray, Optional[np.ndarray]]]


@dataclass
class AdaptiveConfig(JsonConfig):
    """Stopping rule of a sequential Monte-Carlo run."""

    #: Samples (anchored: victim cells; full-array: whole arrays) per batch.
    batch_size: int = 64
    #: Hard ceiling on drawn samples; the run stops here even unconverged.
    n_max: int = 16384
    #: Target confidence-interval half-width on the flip probability.
    target_half_width: float = 0.02
    #: Interpret ``target_half_width`` relative to the current estimate
    #: (``half_width <= target * p_hat``) instead of absolutely.  A stream
    #: with no observed flips then runs to ``n_max``.
    relative: bool = False
    #: Confidence level of the interval.
    confidence: float = 0.95
    #: Interval method: ``"wilson"`` or ``"jeffreys"`` (ignored under
    #: importance sampling, which uses the delta-method interval).
    method: str = "wilson"

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise MonteCarloError("adaptive batch_size must be at least 1")
        if self.n_max < self.batch_size:
            raise MonteCarloError("adaptive n_max must be at least one batch")
        if self.target_half_width <= 0.0:
            raise MonteCarloError("adaptive target_half_width must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise MonteCarloError("adaptive confidence must be in (0, 1)")
        if self.method not in INTERVAL_METHODS:
            raise MonteCarloError(
                f"unknown adaptive interval method {self.method!r}; "
                f"expected one of {INTERVAL_METHODS}"
            )

    def make_estimator(
        self, weighted: bool = False
    ) -> Union[StreamingBinomialEstimator, ImportanceEstimator]:
        """The estimator matching this rule (importance or plain binomial)."""
        if weighted:
            return ImportanceEstimator(confidence=self.confidence)
        return StreamingBinomialEstimator(confidence=self.confidence, method=self.method)

    def target_for(self, estimate: float) -> float:
        """The effective half-width target at the current estimate."""
        if self.relative:
            return self.target_half_width * estimate
        return self.target_half_width


@dataclass
class AdaptiveBatchRecord:
    """Per-batch trace of one adaptive run (for audits and tests)."""

    index: int
    n_drawn: int
    estimate: float
    half_width: float


@dataclass
class AdaptiveOutcome:
    """Result of one adaptive run: final estimator state plus the trace."""

    state: EstimatorState
    #: Samples drawn (including lanes later excluded as invalid).
    n_drawn: int
    batches: List[AdaptiveBatchRecord] = field(default_factory=list)
    #: ``"target"`` when the CI converged, ``"n_max"`` at the ceiling.
    stop_reason: str = "target"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "target"

    def to_dict(self) -> dict:
        return {
            **self.state.to_dict(),
            "n_drawn": self.n_drawn,
            "batches": len(self.batches),
            "stop_reason": self.stop_reason,
            "converged": self.converged,
        }


class AdaptiveSampler:
    """Drives batched sampling until the CI meets the target (or ``n_max``).

    The sampler owns the stopping logic only; drawing and evaluating samples
    belongs to the ``evaluate`` callback, which receives ``(batch_index, n)``
    and returns the batch's outcomes plus optional importance weights — a
    boolean lane array for iid populations, or whatever the injected
    estimator's ``update`` accepts (the engine's full-array mode passes
    per-array cluster counts to a cluster-robust estimator this way).  By
    default an estimator is built from the config on the first batch.
    """

    def __init__(
        self,
        config: AdaptiveConfig,
        evaluate: BatchEvaluator,
        estimator: Optional[Union[StreamingBinomialEstimator, ImportanceEstimator]] = None,
    ):
        self.config = config
        self.evaluate = evaluate
        self.estimator = estimator
        self.next_batch_index = 0
        self.n_drawn = 0

    # ------------------------------------------------------------------

    def step(self) -> AdaptiveBatchRecord:
        """Draw and fold exactly one batch, returning its trace record."""
        n = min(self.config.batch_size, self.config.n_max - self.n_drawn)
        if n <= 0:
            raise MonteCarloError("adaptive sampler has exhausted n_max")
        index = self.next_batch_index
        outcomes, weights = self.evaluate(index, n)
        if self.estimator is None:
            self.estimator = self.config.make_estimator(weighted=weights is not None)
        if weights is not None:
            if not isinstance(self.estimator, ImportanceEstimator):
                raise MonteCarloError("weighted batches need an ImportanceEstimator")
            self.estimator.update(outcomes, weights)
        else:
            if isinstance(self.estimator, ImportanceEstimator):
                raise MonteCarloError("ImportanceEstimator batches must carry weights")
            self.estimator.update(outcomes)
        self.next_batch_index = index + 1
        self.n_drawn += n
        record = AdaptiveBatchRecord(
            index=index,
            n_drawn=n,
            estimate=float(self.estimator.estimate),
            half_width=float(self.estimator.half_width()),
        )
        tel = get_telemetry()
        if tel.enabled:
            tel.count("adaptive.batches")
            tel.count("adaptive.samples", n)
            tel.event(
                "adaptive.batch",
                index=record.index,
                n=record.n_drawn,
                estimate=record.estimate,
                half_width=record.half_width,
            )
            tel.numerics.check_array(
                "adaptive.batch", "estimate", [record.estimate, record.half_width]
            )
            if tel.audit is not None:
                # Batch i's estimate is a pure function of (seed, batch index),
                # so keying by index keeps the stream identical however many
                # batches the stopping rule ends up drawing before it.
                tel.audit.record(
                    "mc.batch_estimate",
                    key=record.index,
                    arrays={"estimate": [record.estimate, record.half_width]},
                    meta={"n": record.n_drawn, "n_total": self.n_drawn},
                )
            if tel.heartbeat is not None:
                # Batch boundary: enough for a concurrent `status --follow` /
                # `obs top` reader to see convergence progress live.
                tel.heartbeat.update(
                    samples=self.n_drawn,
                    batches=self.next_batch_index,
                    estimate=record.estimate,
                    ci_half_width=record.half_width,
                )
        return record

    @property
    def satisfied(self) -> bool:
        """True once the interval meets the (possibly relative) target."""
        if self.estimator is None or self.n_drawn == 0:
            return False
        return self.estimator.half_width() <= self.config.target_for(self.estimator.estimate)

    @property
    def exhausted(self) -> bool:
        return self.n_drawn >= self.config.n_max

    def run(self) -> AdaptiveOutcome:
        """Loop :meth:`step` until the target or the ``n_max`` ceiling."""
        batches: List[AdaptiveBatchRecord] = []
        while True:
            batches.append(self.step())
            if self.satisfied:
                reason = "target"
                break
            if self.exhausted:
                reason = "n_max"
                break
        tel = get_telemetry()
        if tel.enabled:
            tel.count(f"adaptive.stops.{reason}")
        return AdaptiveOutcome(
            state=EstimatorState.capture(self.estimator),
            n_drawn=self.n_drawn,
            batches=batches,
            stop_reason=reason,
        )
