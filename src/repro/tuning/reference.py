"""Scalar reference for the tuner's searches.

Production search (:mod:`repro.tuning.autotuner`,
:mod:`repro.tuning.exhaustive`) evaluates the model on the batched engine
only.  This module walks the same three procedures — stage-1 ranking,
stage-2 measurement over the register limits, the exhaustive sweep — one
configuration at a time through the scalar model
(:func:`~repro.model.roofline.predict_performance`) and the scalar
:class:`~repro.sim.timing.TimingSimulator`, in the paper's loop order.

It is the oracle the batched searches are held to, bit for bit: identical
predictions, identical measurements, identical tie order.  Nothing on a
production path imports it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.gpu_specs import GpuSpec, get_gpu
from repro.model.roofline import predict_performance
from repro.sim.timing import TimingSimulator
from repro.tuning.autotuner import TuningCandidate, TuningResult
from repro.tuning.exhaustive import ExhaustiveResult
from repro.tuning.pruning import prune_configurations
from repro.tuning.search_space import (
    REGISTER_LIMITS,
    SearchSpace,
    default_search_space,
    validate_register_limits,
)


def rank(
    pattern: StencilPattern,
    grid: GridSpec,
    gpu: GpuSpec | str,
    space: SearchSpace | None = None,
) -> List[TuningCandidate]:
    """Stage 1: every pruned configuration, descending by predicted GFLOPS
    (enumeration order on ties)."""
    spec = get_gpu(gpu) if isinstance(gpu, str) else gpu
    space = space or default_search_space(pattern)
    candidates = [
        TuningCandidate(config, predict_performance(pattern, grid, config, spec))
        for config in prune_configurations(pattern, space.configurations(), spec)
    ]
    candidates.sort(key=lambda c: c.predicted_gflops, reverse=True)
    return candidates


def tune(
    pattern: StencilPattern,
    grid: GridSpec,
    gpu: GpuSpec | str,
    top_k: int = 5,
    space: SearchSpace | None = None,
    register_limits: Sequence[Optional[int]] = REGISTER_LIMITS,
) -> TuningResult:
    """Both stages: simulate each of the top ``k`` candidates under every
    register limit; the first maximum wins."""
    spec = get_gpu(gpu) if isinstance(gpu, str) else gpu
    space = space or default_search_space(pattern)
    limits = validate_register_limits(register_limits)
    ranked = rank(pattern, grid, spec, space)
    if not ranked:
        raise ValueError(f"no valid configuration for stencil {pattern.name!r} on {spec.name}")
    simulator = TimingSimulator(spec)
    finalists = []
    for candidate in ranked[:top_k]:
        best: Optional[TuningCandidate] = None
        for limit in limits:
            config = candidate.config.with_register_limit(limit)
            measured = simulator.simulate(pattern, grid, config)
            if best is None or measured.gflops > best.measured_gflops:
                best = TuningCandidate(config, candidate.predicted, measured)
        finalists.append(best)
    return TuningResult(
        pattern_name=pattern.name,
        gpu_name=spec.name,
        dtype=pattern.dtype,
        best=max(finalists, key=lambda c: c.measured_gflops),
        top_candidates=finalists,
        explored=space.size(),
        pruned_to=len(ranked),
    )


def exhaustive_search(
    pattern: StencilPattern,
    grid: GridSpec,
    gpu: GpuSpec | str,
    space: SearchSpace | None = None,
    register_limits: Sequence[Optional[int]] = REGISTER_LIMITS,
) -> ExhaustiveResult:
    """Simulate every pruned configuration under every register limit; the
    first best wins."""
    spec = get_gpu(gpu) if isinstance(gpu, str) else gpu
    space = space or default_search_space(pattern)
    limits = validate_register_limits(register_limits)
    simulator = TimingSimulator(spec)
    best_config = None
    best_gflops = 0.0
    evaluated = 0
    for config in prune_configurations(pattern, space.configurations(), spec):
        for limit in limits:
            candidate = config.with_register_limit(limit)
            gflops = simulator.simulate(pattern, grid, candidate).gflops
            evaluated += 1
            if gflops > best_gflops:
                best_gflops = gflops
                best_config = candidate
    if best_config is None:
        raise ValueError(f"no valid configuration for stencil {pattern.name!r}")
    return ExhaustiveResult(best_config=best_config, best_gflops=best_gflops, evaluated=evaluated)
