"""The two-stage autotuner (Section 6.3).

Stage 1 ranks every surviving configuration with the analytic model (this is
the part the paper describes as "searched in a few seconds").  Stage 2 takes
the top ``k`` (5 in the paper) candidates, tries each with the candidate
register limits, "runs" them on the timing simulator — the stand-in for the
actual GPU measurements — and returns the configuration with the best
simulated performance.

Both stages run on the batched model engine (:mod:`repro.model.batch`):
stage 1 prunes and predicts the whole space as a handful of array
operations, and stage 2 simulates the top ``k`` x register-limit cross
product in one call.  The scalar model walks the same procedure one
configuration at a time in :mod:`repro.tuning.reference`, the oracle the
tests hold this module to bit for bit (identical predictions, measurements
and tie order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import BlockingConfig
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.batch import BatchModelEngine, ConfigBatch, prune_mask
from repro.model.gpu_specs import GpuSpec, get_gpu
from repro.model.roofline import PerformancePrediction
from repro.sim.timing import SimulatedMeasurement
from repro.tuning.search_space import (
    REGISTER_LIMITS,
    SearchSpace,
    default_search_space,
    validate_register_limits,
)


@dataclass(frozen=True)
class TuningCandidate:
    """One configuration with its model prediction and simulated measurement."""

    config: BlockingConfig
    predicted: PerformancePrediction
    measured: Optional[SimulatedMeasurement] = None

    @property
    def predicted_gflops(self) -> float:
        return self.predicted.gflops

    @property
    def measured_gflops(self) -> float:
        return self.measured.gflops if self.measured is not None else 0.0


@dataclass(frozen=True)
class TuningResult:
    """Outcome of tuning one stencil for one GPU and data type."""

    pattern_name: str
    gpu_name: str
    dtype: str
    best: TuningCandidate
    top_candidates: List[TuningCandidate]
    explored: int
    pruned_to: int

    @property
    def best_config(self) -> BlockingConfig:
        return self.best.config

    @property
    def model_accuracy(self) -> float:
        """Measured-to-predicted ratio (the paper's model accuracy metric)."""
        if self.best.predicted_gflops == 0:
            return 0.0
        return self.best.measured_gflops / self.best.predicted_gflops

    def as_row(self) -> dict[str, object]:
        config = self.best_config
        return {
            "pattern": self.pattern_name,
            "gpu": self.gpu_name,
            "dtype": self.dtype,
            "bT": config.bT,
            "bS": "x".join(str(v) for v in config.bS),
            "hS": config.hS if config.hS is not None else "-",
            "regs": config.register_limit if config.register_limit is not None else "-",
            "tuned_gflops": round(self.best.measured_gflops, 1),
            "model_gflops": round(self.best.predicted_gflops, 1),
        }


class AutoTuner:
    """Model-guided tuner for one device."""

    def __init__(self, gpu: GpuSpec | str, top_k: int = 5) -> None:
        self.gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
        self.top_k = top_k

    # -- stage 1: model ranking -------------------------------------------------
    def rank(
        self,
        pattern: StencilPattern,
        grid: GridSpec,
        space: SearchSpace | None = None,
    ) -> List[TuningCandidate]:
        """Rank all pruned configurations by predicted performance.

        Prune + predict the whole space in arrays, then sort stably: a
        stable sort on the negated predictions orders candidates descending
        by predicted GFLOPS, enumeration order on ties.
        """
        space = space or default_search_space(pattern)
        candidates = ConfigBatch.from_space(space)
        survivors = candidates.select(prune_mask(pattern, candidates, self.gpu))
        if survivors.size == 0:
            return []
        model = BatchModelEngine(pattern, grid, self.gpu)
        predicted = model.predict(survivors)
        order = np.argsort(-predicted.gflops, kind="stable")
        return [
            TuningCandidate(survivors.config(i), model.prediction(predicted, i))
            for i in order
        ]

    # -- stage 2: simulated measurement -----------------------------------------
    def tune_ranked(
        self,
        pattern: StencilPattern,
        grid: GridSpec,
        ranked: Sequence[TuningCandidate],
        explored: int,
        register_limits: Sequence[Optional[int]] = REGISTER_LIMITS,
    ) -> TuningResult:
        """Stage 2 only: simulate the top candidates of a precomputed ranking.

        One batched simulation covers every (candidate, register limit)
        pair.  The first maximum wins, within a candidate's limits and
        across candidates, so ties go to the earlier limit and the
        better-ranked candidate.  Callers that cache the stage-1 ranking
        (the service's hot model-batch cache) re-enter tuning here; the
        result is exactly what :meth:`tune` returns for the ranking it would
        have computed itself.
        """
        limits = validate_register_limits(register_limits)
        if not ranked:
            raise ValueError(
                f"no valid configuration for stencil {pattern.name!r} on {self.gpu.name}"
            )
        top = list(ranked[: self.top_k])
        engine = BatchModelEngine(pattern, grid, self.gpu)
        _, measured = engine.simulate_register_limits(
            ConfigBatch.from_configs([candidate.config for candidate in top]), limits
        )
        picks = np.argmax(measured.gflops.reshape(len(top), len(limits)), axis=1)
        finalists = [
            TuningCandidate(
                candidate.config.with_register_limit(limits[pick]),
                candidate.predicted,
                engine.measurement(measured, row * len(limits) + int(pick)),
            )
            for row, (candidate, pick) in enumerate(zip(top, picks))
        ]
        best = max(finalists, key=lambda c: c.measured_gflops)
        return TuningResult(
            pattern_name=pattern.name,
            gpu_name=self.gpu.name,
            dtype=pattern.dtype,
            best=best,
            top_candidates=finalists,
            explored=explored,
            pruned_to=len(ranked),
        )

    def tune(
        self,
        pattern: StencilPattern,
        grid: GridSpec,
        space: SearchSpace | None = None,
        register_limits: Sequence[Optional[int]] = REGISTER_LIMITS,
    ) -> TuningResult:
        """Full tuning: prune, rank, simulate the top candidates, pick the best."""
        space = space or default_search_space(pattern)
        ranked = self.rank(pattern, grid, space)
        return self.tune_ranked(
            pattern, grid, ranked, explored=space.size(), register_limits=register_limits
        )


def tune(
    pattern: StencilPattern,
    grid: GridSpec,
    gpu: GpuSpec | str,
    top_k: int = 5,
) -> TuningResult:
    """Convenience wrapper: tune ``pattern`` for ``gpu`` over ``grid``."""
    return AutoTuner(gpu, top_k).tune(pattern, grid)
