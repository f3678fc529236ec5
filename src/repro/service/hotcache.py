"""Hot in-process model cache behind the synchronous ``/predict``/``/tune`` path.

The campaign queue is the right place for matrix sweeps, but a model-only
prediction the batch engine answers in about a millisecond should not pay
job-submission latency.  This module keeps one :class:`_HotEntry` per
(pattern, grid, GPU, dtype, code-version): the loaded pattern, the
:class:`~repro.model.batch.BatchModelEngine`, and the pruned search space as
ConfigBatch columns with its traffic/prediction/simulation arrays already
evaluated — the whole stage-1 tuning state, resident in memory.

On top of the entry sit two payload caches:

* ``hot_predict`` — one payload per requested blocking configuration,
  served straight from the entry's columns when the configuration is in the
  pruned space and from a single-row batch evaluation otherwise;
* ``hot_tune`` — one payload per ``top_k``, produced by re-entering the
  autotuner's stage 2 (:meth:`~repro.tuning.autotuner.AutoTuner.tune_ranked`)
  over the entry's cached ranking.

All three caches are :class:`~repro.obs.SingleFlightCache` instances, so a
stampede of identical concurrent requests runs one build and shares it, and
every hit/miss/eviction lands in the metrics registry.

Payloads are **identical** to what the campaign path stores for the same
:class:`~repro.campaign.jobs.JobSpec` (the batch engine is bit-identical to
the scalar model, and the same ``_json_safe`` canonicalisation is applied),
so a caller may mix the fast path and the store freely — the numbers agree.
The fast path never writes the store: its answers are ephemeral by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

import repro
from repro.campaign.jobs import JobSpec, predict_config, predict_payload, tune_payload
from repro.core.config import BlockingConfig
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.batch import (
    BatchMeasurement,
    BatchModelEngine,
    BatchPrediction,
    ConfigBatch,
    prune_mask,
)
from repro.model.gpu_specs import GpuSpec, get_gpu
from repro.obs import MetricsRegistry, SingleFlightCache, get_registry
from repro.stencils.library import load_pattern
from repro.tuning.autotuner import AutoTuner, TuningCandidate
from repro.tuning.search_space import default_search_space

#: Distinct (pattern, grid, GPU, dtype) combinations kept hot.  The paper's
#: full Table-5 matrix is 7 stencils x 2 GPUs x 2 dtypes = 28 entries.
ENTRY_CAPACITY = 32


def _config_key(config: BlockingConfig) -> Tuple[object, ...]:
    return (config.bT, tuple(config.bS), config.hS, config.register_limit)


@dataclass(frozen=True)
class _HotEntry:
    """One (pattern, grid, GPU)'s resident model state."""

    pattern: StencilPattern
    grid: GridSpec
    gpu: GpuSpec
    space_size: int
    engine: BatchModelEngine
    survivors: ConfigBatch
    predicted: BatchPrediction
    simulated: BatchMeasurement
    index: Dict[Tuple[object, ...], int]
    rank_order: Tuple[int, ...]

    def candidates(self) -> list:
        """The stage-1 ranking, materialised from the cached columns.

        Exactly :meth:`AutoTuner.rank`: stable descending sort over
        the predicted GFLOPS already held in ``predicted``.
        """
        return [
            TuningCandidate(
                self.survivors.config(i), self.engine.prediction(self.predicted, i)
            )
            for i in self.rank_order
        ]


class HotModelCache:
    """Synchronous predict/tune answers from resident ConfigBatch columns."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else get_registry()
        self._entries = SingleFlightCache(
            "hot_batch", capacity=ENTRY_CAPACITY, metrics=self.metrics
        )
        self._predicts = SingleFlightCache(
            "hot_predict", capacity=4096, metrics=self.metrics
        )
        self._tunes = SingleFlightCache("hot_tune", capacity=256, metrics=self.metrics)

    # -- the resident entry ----------------------------------------------------
    @staticmethod
    def _entry_key(spec: JobSpec) -> Tuple[object, ...]:
        return (
            spec.pattern,
            spec.gpu,
            spec.dtype,
            spec.interior,
            spec.time_steps,
            repro.__version__,
        )

    def _entry(self, spec: JobSpec) -> _HotEntry:
        key = self._entry_key(spec)
        entry, _ = self._entries.get_or_build(key, lambda: self._build_entry(spec))
        return entry

    @staticmethod
    def _build_entry(spec: JobSpec) -> _HotEntry:
        pattern = load_pattern(spec.pattern, spec.dtype)
        grid = spec.grid()
        gpu = get_gpu(spec.gpu)
        space = default_search_space(pattern)
        candidates = ConfigBatch.from_space(space)
        survivors = candidates.select(prune_mask(pattern, candidates, gpu))
        engine = BatchModelEngine(pattern, grid, gpu)
        traffic = engine.traffic(survivors)
        predicted = engine.predict(survivors, traffic)
        simulated = engine.simulate(survivors, traffic)
        order = tuple(int(i) for i in np.argsort(-predicted.gflops, kind="stable"))
        index = {
            _config_key(survivors.config(i)): i for i in range(survivors.size)
        }
        return _HotEntry(
            pattern=pattern, grid=grid, gpu=gpu, space_size=space.size(),
            engine=engine, survivors=survivors, predicted=predicted,
            simulated=simulated, index=index, rank_order=order,
        )

    # -- predict ---------------------------------------------------------------
    def predict(self, spec: JobSpec) -> Tuple[Dict[str, object], bool]:
        """``(payload, cache_hit)`` for one predict job spec.

        The payload is field-for-field what the campaign path would store
        for the same spec.  Invalid configurations surface as the model
        layer's :class:`~repro.core.config.ConfigurationError` (the HTTP
        handler maps it to a 400).
        """
        if spec.kind != "predict":
            raise ValueError(f"expected a predict spec, got kind {spec.kind!r}")
        key = ("predict", spec.key())
        return self._predicts.get_or_build(key, lambda: self._build_predict(spec))

    def _build_predict(self, spec: JobSpec) -> Dict[str, object]:
        entry = self._entry(spec)
        config = predict_config(spec, entry.pattern.ndim)
        config.validate(entry.pattern)
        row = entry.index.get(_config_key(config))
        if row is not None:
            predicted, simulated = entry.predicted, entry.simulated
        else:
            # Outside the pruned space (explicit register cap, exotic block
            # shape): one-row batch evaluation on the resident engine.
            batch = ConfigBatch.from_configs([config])
            traffic = entry.engine.traffic(batch)
            predicted = entry.engine.predict(batch, traffic)
            simulated = entry.engine.simulate(batch, traffic)
            row = 0
        return predict_payload(
            config,
            predicted.gflops[row],
            simulated.gflops[row],
            predicted.bottleneck_name(row),
            simulated.bottleneck_name(row),
        )

    # -- tune ------------------------------------------------------------------
    def tune(self, spec: JobSpec) -> Tuple[Dict[str, object], bool]:
        """``(payload, cache_hit)`` for one tune job spec (stage 2 on demand)."""
        if spec.kind != "tune":
            raise ValueError(f"expected a tune spec, got kind {spec.kind!r}")
        key = ("tune", spec.key())
        return self._tunes.get_or_build(key, lambda: self._build_tune(spec))

    def _build_tune(self, spec: JobSpec) -> Dict[str, object]:
        entry = self._entry(spec)
        top_k = int(spec.params_dict().get("top_k", 5))
        tuner = AutoTuner(entry.gpu, top_k=top_k)
        return tune_payload(
            tuner.tune_ranked(
                entry.pattern, entry.grid, entry.candidates(), explored=entry.space_size
            )
        )


__all__ = ["HotModelCache"]
