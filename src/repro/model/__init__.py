"""Roofline-based performance model (Section 5 of the paper).

The model predicts kernel runtime from first principles: it classifies the
threads of the N.5D execution model, converts the counts into global-memory,
shared-memory and compute totals, discounts peak throughputs by the ALU and
SM utilisation efficiencies, and takes the maximum of the three bottleneck
times.  It is intentionally optimistic — the paper reports 49–67 % average
accuracy — and the gap to "measured" performance is reproduced by the
separate timing simulator in :mod:`repro.sim`.
"""

from repro.model.batch import (
    BatchMeasurement,
    BatchModelEngine,
    BatchPrediction,
    ConfigBatch,
    prune_mask,
    register_mask,
    validity_mask,
)
from repro.model.gpu_specs import GPUS, GpuSpec, get_gpu
from repro.model.threads import ThreadWorkCounts, count_thread_work
from repro.model.traffic import (
    TrafficTotals,
    clear_traffic_cache,
    compute_traffic,
    shared_memory_access_per_thread,
)
from repro.model.registers import estimate_registers, register_pressure_ok, stencilgen_registers
from repro.model.occupancy import OccupancyResult, clear_occupancy_cache, occupancy_for
from repro.model.roofline import PerformancePrediction, predict_performance


def clear_model_caches() -> None:
    """Drop every model-layer memo (used by benchmarks to time cold paths)."""
    clear_traffic_cache()
    clear_occupancy_cache()


__all__ = [
    "clear_model_caches",
    "clear_occupancy_cache",
    "clear_traffic_cache",
    "BatchMeasurement",
    "BatchModelEngine",
    "BatchPrediction",
    "ConfigBatch",
    "GPUS",
    "GpuSpec",
    "OccupancyResult",
    "PerformancePrediction",
    "ThreadWorkCounts",
    "TrafficTotals",
    "compute_traffic",
    "count_thread_work",
    "estimate_registers",
    "get_gpu",
    "occupancy_for",
    "predict_performance",
    "prune_mask",
    "register_mask",
    "register_pressure_ok",
    "shared_memory_access_per_thread",
    "stencilgen_registers",
    "validity_mask",
]
