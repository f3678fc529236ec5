"""Exhaustive simulated search — the yardstick for the model-guided tuner.

The paper argues that the analytic model prunes the parameter space well
enough that simulating/running only the top five candidates finds a
configuration close to the best one.  This module provides the comparison:
an exhaustive sweep that simulates *every* valid configuration, and a helper
that quantifies how much performance the model-guided two-stage procedure
leaves on the table (the "tuning efficiency").

The sweep evaluates the whole pruned space x register-limit cross product in
one vectorized pass over the structure-of-arrays layout of
:mod:`repro.model.batch` — no worker processes, no per-config Python
objects.  :func:`repro.tuning.reference.exhaustive_search` walks the same
sweep one configuration at a time through the scalar simulator; the tests
hold the two to identical results down to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.config import BlockingConfig
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.batch import BatchModelEngine, ConfigBatch, prune_mask
from repro.model.gpu_specs import GpuSpec, get_gpu
from repro.tuning.autotuner import AutoTuner, TuningResult
from repro.tuning.search_space import (
    REGISTER_LIMITS,
    SearchSpace,
    default_search_space,
    validate_register_limits,
)


@dataclass(frozen=True)
class ExhaustiveResult:
    """Best configuration found by simulating the entire (pruned) space."""

    best_config: BlockingConfig
    best_gflops: float
    evaluated: int

    def as_row(self) -> dict[str, object]:
        return {
            "bT": self.best_config.bT,
            "bS": "x".join(str(v) for v in self.best_config.bS),
            "hS": self.best_config.hS,
            "regs": self.best_config.register_limit,
            "gflops": round(self.best_gflops, 1),
            "evaluated": self.evaluated,
        }


def exhaustive_search(
    pattern: StencilPattern,
    grid: GridSpec,
    gpu: GpuSpec | str,
    space: SearchSpace | None = None,
    register_limits: Sequence[Optional[int]] = REGISTER_LIMITS,
) -> ExhaustiveResult:
    """Simulate every valid configuration and return the best one.

    Candidates are laid out configuration-major, limit-minor — the order a
    serial sweep visits them in — and the first maximum wins, so ties
    resolve to the configuration a serial scan would keep.
    """
    spec = get_gpu(gpu) if isinstance(gpu, str) else gpu
    space = space or default_search_space(pattern)
    limits = validate_register_limits(register_limits)
    candidates = ConfigBatch.from_space(space)
    survivors = candidates.select(prune_mask(pattern, candidates, spec))
    if survivors.size == 0:
        raise ValueError(f"no valid configuration for stencil {pattern.name!r}")
    sweep, measured = BatchModelEngine(pattern, grid, spec).simulate_register_limits(
        survivors, limits
    )
    best = int(np.argmax(measured.gflops))
    if not measured.gflops[best] > 0.0:
        raise ValueError(f"no valid configuration for stencil {pattern.name!r}")
    return ExhaustiveResult(
        best_config=sweep.config(best),
        best_gflops=float(measured.gflops[best]),
        evaluated=sweep.size,
    )


@dataclass(frozen=True)
class TuningEfficiency:
    """How close the model-guided tuner gets to the exhaustive optimum."""

    guided: TuningResult
    exhaustive: ExhaustiveResult

    @property
    def efficiency(self) -> float:
        """Guided-to-exhaustive performance ratio (1.0 = found the optimum)."""
        if self.exhaustive.best_gflops == 0:
            return 0.0
        return self.guided.best.measured_gflops / self.exhaustive.best_gflops

    @property
    def evaluations_saved(self) -> int:
        """Simulated-run budget saved by model guidance."""
        guided_runs = len(self.guided.top_candidates) * len(REGISTER_LIMITS)
        return self.exhaustive.evaluated - guided_runs


def compare_guided_vs_exhaustive(
    pattern: StencilPattern,
    grid: GridSpec,
    gpu: GpuSpec | str,
    top_k: int = 5,
    space: SearchSpace | None = None,
) -> TuningEfficiency:
    """Run both procedures on the same space and report the efficiency."""
    spec = get_gpu(gpu) if isinstance(gpu, str) else gpu
    guided = AutoTuner(spec, top_k=top_k).tune(pattern, grid, space)
    exhaustive = exhaustive_search(pattern, grid, spec, space)
    return TuningEfficiency(guided=guided, exhaustive=exhaustive)
