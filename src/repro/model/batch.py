"""Batched (structure-of-arrays) evaluation of the analytic model.

The scalar model walks one :class:`~repro.core.config.BlockingConfig` at a
time: per-config Python objects, per-position classification loops, dict
lookups.  That is fine for a single prediction but dominates cold tuning
sweeps, where the whole search space (bT x bS x hS x register-limit axes) is
evaluated before anything is measured.

This module evaluates *all* configurations at once.  A :class:`ConfigBatch`
holds the space as one ``int64`` column per blocking axis; the
:class:`BatchModelEngine` turns those columns into thread-category counts,
traffic totals, register pressure, occupancy, and finally the roofline
prediction (Section 5) and the timing-simulator measurement, each as a
handful of NumPy array operations.  Pruning (Section 6.3) becomes boolean
masks over the same arrays.

Exactness contract
------------------
The scalar model remains the oracle: for every configuration the batch
engine reproduces its results *bit for bit* — identical integers and
identical float64 values, not merely values within a tolerance.  Two things
make that possible:

* every intermediate that is an integer in the scalar path stays ``int64``
  here (the per-dimension thread-category counts are closed-form sums of
  clipped arithmetic sequences instead of per-position loops), and
* every float operation mirrors the scalar code's operand order and type
  promotions, so each step performs the same IEEE-754 operation.

``ceil``/``floor`` of integer ratios use exact integer division; the scalar
path's ``math.ceil(a / b)`` agrees because every such ratio in the model is
far below 2**53, where float division cannot cross an integer boundary.

Every search path (stage-1 ranking, stage-2 measurement, the exhaustive
sweep) runs on this engine only; the scalar model stays behind the tests as
the oracle.  Search only produces configurations with the default
optimisation switches, which is all the layout represents
(:meth:`ConfigBatch.from_configs` refuses anything else).  1-D patterns have
no valid configuration at all — the pruning masks empty their space before
an engine is built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_registry

from repro.core.config import (
    MAX_THREADS_PER_BLOCK,
    BlockingConfig,
    ConfigurationError,
)
from repro.ir.flops import alu_efficiency, count_flops
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.gpu_specs import GpuSpec
from repro.model.traffic import shared_memory_access_per_thread

_GIGA = 1.0e9

#: Column value standing in for ``None`` (undivided stream / no register cap).
UNSET = -1

#: Bottleneck names in the scalar model's dict-iteration order; the batch
#: arrays store indices into this tuple (3 = unlaunchable, simulator only).
BOTTLENECKS: Tuple[str, ...] = ("compute", "global_memory", "shared_memory", "unlaunchable")

#: Occupancy limiter names in the scalar ``occupancy_for`` dict order.
LIMITING_FACTORS: Tuple[str, ...] = ("threads", "blocks", "shared_memory", "registers")

#: Occupancy saturation points of :mod:`repro.sim.memory`.
_GLOBAL_SATURATION_OCCUPANCY = 0.25
_SHARED_SATURATION_OCCUPANCY = 0.45


class BatchUnsupportedError(ValueError):
    """The configurations cannot be represented in the batch layout."""


def is_standard_config(config: BlockingConfig) -> bool:
    """Default optimisation switches — the only ones the engine evaluates."""
    return (
        config.double_buffer
        and config.star_opt is None
        and config.associative_opt is None
        and not config.vectorized_smem
    )


# ---------------------------------------------------------------------------
# The structure-of-arrays configuration batch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigBatch:
    """N blocking configurations as one ``int64`` column per axis.

    ``hS`` and ``regs`` use :data:`UNSET` where the scalar configuration
    holds ``None``.  All configurations share the default optimisation
    switches (see :func:`is_standard_config`).
    """

    bT: np.ndarray  # (N,)
    bS: np.ndarray  # (N, blocked_dims)
    hS: np.ndarray  # (N,)
    regs: np.ndarray  # (N,)

    @property
    def size(self) -> int:
        return int(self.bT.shape[0])

    @property
    def blocked_dims(self) -> int:
        return int(self.bS.shape[1])

    @property
    def nthr(self) -> np.ndarray:
        """Threads per block (product of the spatial block sizes)."""
        return np.prod(self.bS, axis=1, dtype=np.int64)

    # -- construction --------------------------------------------------------
    @classmethod
    def from_space(cls, space: "SearchSpace", include_register_limits: bool = False) -> "ConfigBatch":
        """Materialise a search space in its enumeration order.

        Rows follow ``itertools.product(time_blocks, spatial_blocks,
        stream_blocks[, register_limits])`` exactly, so row ``i`` corresponds
        to the ``i``-th configuration of ``space.configurations()``.
        """
        time_blocks = np.asarray(space.time_blocks, dtype=np.int64).reshape(-1)
        spatial = np.asarray(space.spatial_blocks, dtype=np.int64)
        if spatial.size == 0:
            spatial = spatial.reshape(0, 1)
        stream = np.asarray(
            [UNSET if v is None else v for v in space.stream_blocks], dtype=np.int64
        ).reshape(-1)
        limits = (
            np.asarray(
                [UNSET if v is None else v for v in space.register_limits], dtype=np.int64
            ).reshape(-1)
            if include_register_limits
            else np.asarray([UNSET], dtype=np.int64)
        )
        nt, ns, nh, nl = len(time_blocks), spatial.shape[0], len(stream), len(limits)
        return cls(
            bT=np.repeat(time_blocks, ns * nh * nl),
            bS=np.tile(np.repeat(spatial, nh * nl, axis=0), (nt, 1)),
            hS=np.tile(np.repeat(stream, nl), nt * ns),
            regs=np.tile(limits, nt * ns * nh),
        )

    @classmethod
    def from_configs(
        cls, configs: Sequence[BlockingConfig], check_switches: bool = True
    ) -> "ConfigBatch":
        """Pack explicit configurations; order is preserved.

        Raises :class:`BatchUnsupportedError` for ragged spatial-block
        lengths or (unless ``check_switches`` is disabled — the pruning
        masks do not depend on them) non-default optimisation switches.
        """
        configs = list(configs)
        if not configs:
            raise BatchUnsupportedError("empty configuration list")
        blocked = len(configs[0].bS)
        for config in configs:
            if len(config.bS) != blocked:
                raise BatchUnsupportedError("mixed spatial-block dimensionalities")
            if check_switches and not is_standard_config(config):
                raise BatchUnsupportedError("non-default optimisation switches")
        return cls(
            bT=np.asarray([c.bT for c in configs], dtype=np.int64),
            bS=np.asarray([c.bS for c in configs], dtype=np.int64),
            hS=np.asarray(
                [UNSET if c.hS is None else c.hS for c in configs], dtype=np.int64
            ),
            regs=np.asarray(
                [UNSET if c.register_limit is None else c.register_limit for c in configs],
                dtype=np.int64,
            ),
        )

    # -- derived batches -----------------------------------------------------
    def select(self, mask: np.ndarray) -> "ConfigBatch":
        """Rows where ``mask`` holds (boolean or index array), order kept."""
        return ConfigBatch(self.bT[mask], self.bS[mask], self.hS[mask], self.regs[mask])

    def with_register_limits(self, limits: Sequence[Optional[int]]) -> "ConfigBatch":
        """Cross every row with the register-limit axis.

        The result is configuration-major, limit-minor — the exact order the
        scalar exhaustive sweep visits candidates in.
        """
        values = np.asarray([UNSET if v is None else v for v in limits], dtype=np.int64)
        n = len(values)
        return ConfigBatch(
            bT=np.repeat(self.bT, n),
            bS=np.repeat(self.bS, n, axis=0),
            hS=np.repeat(self.hS, n),
            regs=np.tile(values, self.size),
        )

    # -- scalar views --------------------------------------------------------
    def config(self, index: int) -> BlockingConfig:
        """Materialise row ``index`` as a scalar configuration."""
        hs = int(self.hS[index])
        regs = int(self.regs[index])
        return BlockingConfig(
            bT=int(self.bT[index]),
            bS=tuple(int(v) for v in self.bS[index]),
            hS=None if hs == UNSET else hs,
            register_limit=None if regs == UNSET else regs,
        )

    def configs(self) -> Iterator[BlockingConfig]:
        return (self.config(i) for i in range(self.size))


# ---------------------------------------------------------------------------
# Pruning masks (Section 6.3)
# ---------------------------------------------------------------------------


def register_demand(pattern: StencilPattern, bT: np.ndarray) -> np.ndarray:
    """Vectorised :func:`repro.model.registers.estimate_registers`."""
    column = 2 * pattern.radius + 1
    if pattern.dtype == "float":
        return bT * column + bT + 20
    return 2 * bT * column + bT + 30


def validity_mask(pattern: StencilPattern, batch: ConfigBatch) -> np.ndarray:
    """``BlockingConfig.is_valid`` for every row at once."""
    if batch.blocked_dims != max(pattern.ndim - 1, 1):
        return np.zeros(batch.size, dtype=bool)
    if pattern.ndim == 1:
        # 1-D stencils have zero blocked dimensions; no batch row (which
        # always carries at least one spatial block) can be valid.
        return np.zeros(batch.size, dtype=bool)
    compute = batch.bS - (2 * pattern.radius) * batch.bT[:, None]
    return (batch.nthr <= MAX_THREADS_PER_BLOCK) & np.all(compute > 0, axis=1)


def register_mask(pattern: StencilPattern, batch: ConfigBatch, gpu: GpuSpec) -> np.ndarray:
    """``register_pressure_ok`` for every row at once."""
    demand = register_demand(pattern, batch.bT)
    return (demand <= gpu.max_registers_per_thread) & (
        demand * batch.nthr <= gpu.registers_per_sm
    )


def prune_mask(pattern: StencilPattern, batch: ConfigBatch, gpu: GpuSpec) -> np.ndarray:
    """Rows that survive both pruning rules (validity and registers)."""
    return validity_mask(pattern, batch) & register_mask(pattern, batch, gpu)


# ---------------------------------------------------------------------------
# Closed-form thread-category counts
# ---------------------------------------------------------------------------


def _sum_clipped(a: np.ndarray, step: np.ndarray, n: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """``sum_{b=0}^{n-1} clip(a - b*step, 0, cap)`` for int64 arrays.

    This is the kernel of the coverage computation: every per-dimension
    category count is the sum of a clipped arithmetic sequence over the
    blocks of that dimension.  ``step >= 1``; terms saturate at ``cap`` for
    the first ``nf`` blocks, decay linearly over the next ``m`` blocks and
    are zero afterwards.
    """
    nf = np.clip((a - cap) // step + 1, 0, n)
    npos = np.clip((a - 1) // step + 1, 0, n)
    m = npos - nf
    return nf * cap + m * a - step * ((m * (nf + npos - 1)) // 2)


def _dimension_counts(
    extent: int, block: np.ndarray, bT: np.ndarray, radius: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-dimension (valid, redundant, boundary, out-of-bound, total) counts.

    Equivalent to summing ``ExecutionModel.dimension_coverage`` over all
    blocks, but in closed form: block ``b`` covers coordinates
    ``[b*C - H, b*C + C + H)``; counting coordinates below a threshold per
    block is a clipped arithmetic sequence in ``b``, so each category is a
    difference of two :func:`_sum_clipped` sums.
    """
    halo = bT * radius
    compute = block - 2 * halo
    compute = np.maximum(compute, 1)  # guard; only masked-valid rows are used
    nblocks = -(-extent // compute)
    total = nblocks * block

    oob_low = _sum_clipped(halo - radius, compute, nblocks, block)
    below_zero = _sum_clipped(halo, compute, nblocks, block)
    # High-side counts ascend with b; reversing the block order turns them
    # into the same descending form anchored at the last block.
    high_anchor = compute + halo - extent + (nblocks - 1) * compute
    oob_high = _sum_clipped(high_anchor - radius, compute, nblocks, block)
    at_or_above_extent = _sum_clipped(high_anchor, compute, nblocks, block)

    valid = np.full_like(block, extent)
    out_of_bound = oob_low + oob_high
    boundary = (below_zero - oob_low) + (at_or_above_extent - oob_high)
    redundant = total - valid - boundary - out_of_bound
    return valid, redundant, boundary, out_of_bound, total


# ---------------------------------------------------------------------------
# Batched traffic, prediction, measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchTraffic:
    """Array analogue of ``TrafficTotals`` + ``ThreadWorkCounts``."""

    compute: np.ndarray
    gm_read: np.ndarray
    gm_write: np.ndarray
    sm_read: np.ndarray
    sm_write: np.ndarray
    launches: np.ndarray
    valid: np.ndarray
    redundant: np.ndarray
    boundary: np.ndarray
    out_of_bound: np.ndarray
    total_flops: np.ndarray
    global_bytes: np.ndarray
    shared_bytes: np.ndarray

    def repeat(self, repeats: int) -> "BatchTraffic":
        """Each row repeated ``repeats`` times, matching the row order of
        ``ConfigBatch.with_register_limits``.

        Traffic does not depend on the register limit (the scalar path
        memoizes on the limit-stripped configuration for the same reason), so
        a sweep over the register-limit axis can reuse one traffic pass.
        """
        return BatchTraffic(
            **{
                name: np.repeat(getattr(self, name), repeats)
                for name in self.__dataclass_fields__
            }
        )


@dataclass(frozen=True)
class BatchPrediction:
    """Array analogue of ``PerformancePrediction`` for a whole batch."""

    time_compute_s: np.ndarray
    time_global_s: np.ndarray
    time_shared_s: np.ndarray
    sm_efficiency: np.ndarray
    time_s: np.ndarray
    gflops: np.ndarray
    gcells: np.ndarray
    bottleneck: np.ndarray  # indices into BOTTLENECKS
    traffic: BatchTraffic

    @property
    def size(self) -> int:
        return int(self.gflops.shape[0])

    def bottleneck_name(self, index: int) -> str:
        return BOTTLENECKS[int(self.bottleneck[index])]


@dataclass(frozen=True)
class BatchMeasurement:
    """Array analogue of ``SimulatedMeasurement`` for a whole batch."""

    time_s: np.ndarray
    gflops: np.ndarray
    gcells: np.ndarray
    occupancy: np.ndarray
    registers_per_thread: np.ndarray
    limiting_factor: np.ndarray  # indices into LIMITING_FACTORS
    bottleneck: np.ndarray  # indices into BOTTLENECKS (3 = unlaunchable)
    time_compute_s: np.ndarray
    time_global_s: np.ndarray
    time_shared_s: np.ndarray
    overhead_s: np.ndarray

    @property
    def size(self) -> int:
        return int(self.gflops.shape[0])

    def bottleneck_name(self, index: int) -> str:
        return BOTTLENECKS[int(self.bottleneck[index])]

    def limiting_factor_name(self, index: int) -> str:
        return LIMITING_FACTORS[int(self.limiting_factor[index])]


class BatchModelEngine:
    """Evaluate the analytic model and the timing simulator over a batch.

    One engine is bound to (pattern, grid, GPU); per-pattern scalars (FLOP
    mix, shared-memory accesses, register formulas) are computed once in the
    constructor, so evaluating a batch touches only array operations.

    Results are only meaningful for rows that survive :func:`prune_mask`;
    invalid rows are computed with guarded denominators and must be masked
    by the caller.
    """

    def __init__(self, pattern: StencilPattern, grid: GridSpec, gpu: GpuSpec) -> None:
        if pattern.ndim not in (2, 3):
            raise BatchUnsupportedError(
                f"batch engine supports 2-D/3-D patterns, got {pattern.ndim}-D"
            )
        if grid.ndim != pattern.ndim:
            raise ConfigurationError("grid dimensionality does not match the stencil")
        self.pattern = pattern
        self.grid = grid
        self.gpu = gpu
        self.radius = pattern.radius
        self.blocked_extents = grid.interior[1:]
        self.streaming_extent = grid.interior[0]

        flop_mix = count_flops(pattern.expr)
        self.flops_per_cell = flop_mix.total
        self.alu_efficiency = alu_efficiency(flop_mix)
        access = shared_memory_access_per_thread(pattern)
        self.smem_reads_per_thread = access.reads_practical
        self.smem_writes_per_thread = access.writes
        self.word_bytes = pattern.word_bytes
        self.useful_flops = float(grid.cells * grid.time_steps * self.flops_per_cell)
        self.cells = grid.cells * grid.time_steps
        # AN5D shared-memory plan for default switches: star/associative
        # stencils keep a single exchange plane, everything else 1 + 2*rad.
        single_plane = pattern.diagonal_access_free or pattern.associative
        self.smem_planes = 1 if single_plane else 1 + 2 * pattern.radius

    # -- geometry ------------------------------------------------------------
    def _stream_blocks(self, batch: ConfigBatch) -> np.ndarray:
        """``num_stream_blocks`` per row (1 where the stream is undivided)."""
        divided = batch.hS != UNSET
        safe_hs = np.where(divided, batch.hS, 1)
        return np.where(divided, -(-self.streaming_extent // safe_hs), 1)

    def _blocks_per_dimension(self, batch: ConfigBatch) -> np.ndarray:
        """(N, D) thread-block counts along each blocked dimension."""
        compute = np.maximum(batch.bS - (2 * self.radius) * batch.bT[:, None], 1)
        extents = np.asarray(self.blocked_extents, dtype=np.int64)
        return -(-extents // compute)

    def thread_counts(
        self, batch: ConfigBatch
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(valid, redundant, boundary, out_of_bound) threads per sub-plane.

        Per-dimension categories combine multiplicatively; a thread's overall
        category is its most severe per-dimension category, which in terms of
        cumulative ("at most this severe") counts is a per-severity product.
        """
        per_dim = [
            _dimension_counts(extent, batch.bS[:, d], batch.bT, self.radius)
            for d, extent in enumerate(self.blocked_extents)
        ]
        if len(per_dim) == 1:
            valid, redundant, boundary, out_of_bound, _ = per_dim[0]
            return valid, redundant, boundary, out_of_bound
        cumulative = []
        for severity in range(4):
            product = np.ones(batch.size, dtype=np.int64)
            for valid, redundant, boundary, _, total in per_dim:
                at_most = (valid, valid + redundant, valid + redundant + boundary, total)
                product = product * at_most[severity]
            cumulative.append(product)
        return (
            cumulative[0],
            cumulative[1] - cumulative[0],
            cumulative[2] - cumulative[1],
            cumulative[3] - cumulative[2],
        )

    # -- traffic (Section 5, first steps) ------------------------------------
    def traffic(self, batch: ConfigBatch) -> BatchTraffic:
        """Vectorised ``count_thread_work`` + ``compute_traffic``."""
        valid, redundant, boundary, out_of_bound = self.thread_counts(batch)
        stream = self.streaming_extent
        rad = self.radius
        bT = batch.bT
        time_steps = self.grid.time_steps

        launches = -(-time_steps // bT) if time_steps else np.zeros_like(bT)
        launch_span = np.maximum(launches * bT, 1)
        step_fraction = np.where(launches > 0, time_steps / launch_span, 0.0)

        stream_blocks = self._stream_blocks(batch)
        extra_blocks = stream_blocks - 1
        divided = stream_blocks > 1
        planes_loaded = stream + 2 * rad + np.where(divided, extra_blocks * (2 * rad * bT), 0)
        plane_steps = bT * (stream + 2 * rad) + np.where(
            divided, extra_blocks * (rad * bT * (bT - 1)), 0
        )

        in_grid = valid + redundant + boundary
        compute_threads = valid + redundant
        all_threads = in_grid + out_of_bound

        per_launch_compute = (compute_threads * plane_steps) * step_fraction
        compute = (per_launch_compute * launches).astype(np.int64)
        gm_read = in_grid * planes_loaded * launches
        gm_write = valid * stream * launches
        sm_write = ((all_threads * plane_steps) * step_fraction * launches).astype(np.int64)
        sm_read = compute  # same expression as the compute total

        total_flops = (compute * self.flops_per_cell).astype(np.float64)
        global_bytes = ((gm_read + gm_write) * self.word_bytes).astype(np.float64)
        shared_bytes = (
            (sm_read * self.smem_reads_per_thread + sm_write * self.smem_writes_per_thread)
            * self.word_bytes
        ).astype(np.float64)

        return BatchTraffic(
            compute=compute,
            gm_read=gm_read,
            gm_write=gm_write,
            sm_read=sm_read,
            sm_write=sm_write,
            launches=launches,
            valid=valid,
            redundant=redundant,
            boundary=boundary,
            out_of_bound=out_of_bound,
            total_flops=total_flops,
            global_bytes=global_bytes,
            shared_bytes=shared_bytes,
        )

    # -- the analytic roofline (Section 5, final step) ------------------------
    def predict(self, batch: ConfigBatch, traffic: Optional[BatchTraffic] = None) -> BatchPrediction:
        """Vectorised ``predict_performance`` over every row."""
        traffic = traffic if traffic is not None else self.traffic(batch)
        gpu = self.gpu
        dtype = self.pattern.dtype

        peak_comp = gpu.peak_gflops(dtype) * _GIGA * self.alu_efficiency
        peak_gm = gpu.measured_membw(dtype) * _GIGA
        peak_sm = gpu.measured_smembw(dtype) * _GIGA

        time_compute = traffic.total_flops / peak_comp
        time_global = traffic.global_bytes / peak_gm
        time_shared = traffic.shared_bytes / peak_sm

        total_blocks = self._stream_blocks(batch) * np.prod(
            self._blocks_per_dimension(batch), axis=1, dtype=np.int64
        )
        eff_sm = np.maximum(self._paper_sm_efficiency(total_blocks, batch.nthr), 1.0e-6)

        times = np.stack([time_compute, time_global, time_shared])
        bottleneck = times.argmax(axis=0)
        time_total = times[bottleneck, np.arange(batch.size)] / eff_sm

        positive = time_total > 0
        safe_total = np.where(positive, time_total, 1.0)
        gflops = np.where(positive, self.useful_flops / safe_total / _GIGA, 0.0)
        gcells = np.where(positive, self.cells / safe_total / _GIGA, 0.0)

        return BatchPrediction(
            time_compute_s=time_compute,
            time_global_s=time_global,
            time_shared_s=time_shared,
            sm_efficiency=eff_sm,
            time_s=time_total,
            gflops=gflops,
            gcells=gcells,
            bottleneck=bottleneck,
            traffic=traffic,
        )

    def _paper_sm_efficiency(self, total_blocks: np.ndarray, nthr: np.ndarray) -> np.ndarray:
        """Vectorised ``paper_sm_efficiency`` (wave quantisation)."""
        blocks_per_group = np.maximum(self.gpu.max_threads_per_sm // nthr, 1)
        filled = total_blocks / blocks_per_group
        full = np.floor(filled)
        partial = np.ceil(filled)
        safe_partial = np.where(partial > 0, partial, 1.0)
        quantised = np.where(full == 0, filled, full / safe_partial)
        return np.where(partial == 0, 1.0, quantised)

    # -- the timing simulator ------------------------------------------------
    def simulate(self, batch: ConfigBatch, traffic: Optional[BatchTraffic] = None) -> BatchMeasurement:
        """Vectorised ``TimingSimulator.simulate`` over every row."""
        # One gauge write per vectorised *call* (thousands of configs), so
        # the sweep throughput readout costs nothing measurable.
        sweep_start = time.perf_counter()
        try:
            return self._simulate(batch, traffic)
        finally:
            elapsed = time.perf_counter() - sweep_start
            if elapsed > 0:
                get_registry().gauge(
                    "model_configs_per_second",
                    "Configurations the batched model evaluated per second",
                ).set(batch.size / elapsed)

    def _simulate(self, batch: ConfigBatch, traffic: Optional[BatchTraffic] = None) -> BatchMeasurement:
        traffic = traffic if traffic is not None else self.traffic(batch)
        gpu = self.gpu
        pattern = self.pattern
        dtype = pattern.dtype
        nthr = batch.nthr
        bT = batch.bT

        # -- registers and occupancy ------------------------------------------
        demand = register_demand(pattern, bT)
        capped = batch.regs != UNSET
        per_thread = np.where(capped, np.minimum(demand, batch.regs), demand)
        per_block = per_thread * nthr
        smem_bytes = 2 * self.smem_planes * nthr * (self.word_bytes // 4) * 4

        limits = np.stack(
            [
                gpu.max_threads_per_sm // nthr,
                np.full(batch.size, gpu.max_blocks_per_sm, dtype=np.int64),
                gpu.shared_memory_per_sm_bytes // smem_bytes,
                gpu.registers_per_sm // per_block,
            ]
        )
        limiting_factor = limits.argmin(axis=0)
        blocks_per_sm = np.maximum(limits.min(axis=0), 0)
        launchable = blocks_per_sm > 0
        safe_bpsm = np.maximum(blocks_per_sm, 1)

        total_blocks = self._stream_blocks(batch) * np.prod(
            self._blocks_per_dimension(batch), axis=1, dtype=np.int64
        )
        occupancy = np.minimum(blocks_per_sm * nthr / gpu.max_threads_per_sm, 1.0)
        concurrent = safe_bpsm * gpu.sm_count
        waves = total_blocks / concurrent
        wave_efficiency = waves / np.maximum(np.ceil(waves), 1.0)
        effective_occupancy = occupancy * np.minimum(wave_efficiency, 1.0)

        # -- the three pipeline times -----------------------------------------
        compute_gflops = gpu.peak_gflops(dtype) * self.alu_efficiency
        division_penalty = (
            gpu.fp64_division_penalty
            if pattern.has_division and dtype == "double"
            else 1.0
        )
        time_compute = traffic.total_flops / (compute_gflops * _GIGA) * division_penalty

        fraction_global = np.where(
            effective_occupancy <= 0.0,
            0.0,
            np.minimum(1.0, effective_occupancy / _GLOBAL_SATURATION_OCCUPANCY),
        )
        fraction_shared = np.where(
            effective_occupancy <= 0.0,
            0.0,
            np.minimum(1.0, effective_occupancy / _SHARED_SATURATION_OCCUPANCY),
        )
        global_gbs = gpu.measured_membw(dtype) * fraction_global
        shared_gbs = (gpu.measured_smembw(dtype) * gpu.shared_efficiency(dtype)) * fraction_shared
        launchable = launchable & (global_gbs > 0.0) & (shared_gbs > 0.0)

        safe_global = np.where(global_gbs > 0.0, global_gbs * _GIGA, 1.0)
        safe_shared = np.where(shared_gbs > 0.0, shared_gbs * _GIGA, 1.0)
        time_global = traffic.global_bytes / safe_global
        time_shared = traffic.shared_bytes / safe_shared

        # -- register spilling -------------------------------------------------
        width = 2 if dtype == "double" else 1
        minimum_live = width * (2 * pattern.radius + 1) + bT + 16
        spilled = capped & (minimum_live > batch.regs)
        overflow = demand - batch.regs
        penalty = np.where(spilled, 1.0 + np.minimum(0.08 * overflow, 0.9), 1.0)
        time_compute = time_compute * penalty
        time_global = time_global * penalty

        # -- fixed overheads ---------------------------------------------------
        stream_blocks = self._stream_blocks(batch)
        span = np.where(
            batch.hS != UNSET,
            np.minimum(batch.hS, self.streaming_extent),
            self.streaming_extent,
        )
        overlap = np.where(stream_blocks > 1, self.radius * bT * (bT + 1), 0)
        subplanes = span + 2 * self.radius + overlap
        syncs_per_block = subplanes * bT  # double buffering: one barrier per step
        launch_blocks = total_blocks * traffic.launches
        sync_waves = np.ceil(launch_blocks / (safe_bpsm * gpu.sm_count))
        sync_cost = np.where(
            (launch_blocks == 0) | ~(blocks_per_sm > 0),
            0.0,
            (syncs_per_block * 2.0e-8) * sync_waves,
        )
        overhead = 5.0e-6 * traffic.launches + sync_cost

        # -- bottleneck and totals ---------------------------------------------
        times = np.stack([time_compute, time_global, time_shared])
        bottleneck = times.argmax(axis=0)
        rows = np.arange(batch.size)
        leading = times[bottleneck, rows]
        others = np.where(
            bottleneck == 0,
            time_global + time_shared,
            np.where(bottleneck == 1, time_compute + time_shared, time_compute + time_global),
        )
        total = leading + 0.12 * others + overhead
        safe_total = np.where(total > 0, total, 1.0)
        gflops = self.useful_flops / safe_total / _GIGA
        gcells = self.cells / safe_total / _GIGA

        # -- unlaunchable rows mirror TimingSimulator._unlaunchable ------------
        inf = np.float64(np.inf)
        return BatchMeasurement(
            time_s=np.where(launchable, total, inf),
            gflops=np.where(launchable, gflops, 0.0),
            gcells=np.where(launchable, gcells, 0.0),
            occupancy=np.where(launchable, occupancy, 0.0),
            registers_per_thread=per_thread,
            limiting_factor=limiting_factor,
            bottleneck=np.where(launchable, bottleneck, 3),
            time_compute_s=np.where(launchable, time_compute, inf),
            time_global_s=np.where(launchable, time_global, inf),
            time_shared_s=np.where(launchable, time_shared, inf),
            overhead_s=np.where(launchable, overhead, 0.0),
        )

    def simulate_register_limits(
        self, batch: ConfigBatch, limits: Sequence[Optional[int]]
    ) -> Tuple[ConfigBatch, BatchMeasurement]:
        """Simulate every row under every register limit.

        The returned sweep is configuration-major, limit-minor
        (:meth:`ConfigBatch.with_register_limits`).  Traffic does not depend
        on the register limit, so one traffic pass over ``batch`` feeds the
        whole sweep.
        """
        sweep = batch.with_register_limits(limits)
        return sweep, self.simulate(sweep, self.traffic(batch).repeat(len(limits)))

    # -- scalar materialisation ----------------------------------------------
    def prediction(self, result: BatchPrediction, index: int) -> "PerformancePrediction":
        """Row ``index`` as the scalar model's ``PerformancePrediction``.

        Field-for-field identical to ``predict_performance`` on the same
        configuration (the equivalence tests compare with ``==``).
        """
        from repro.model.roofline import PerformancePrediction
        from repro.model.threads import ThreadWorkCounts
        from repro.model.traffic import TrafficTotals

        t = result.traffic
        work = ThreadWorkCounts(
            compute=int(t.compute[index]),
            gm_read=int(t.gm_read[index]),
            gm_write=int(t.gm_write[index]),
            sm_read=int(t.sm_read[index]),
            sm_write=int(t.sm_write[index]),
            launches=int(t.launches[index]),
            threads_per_subplane_valid=int(t.valid[index]),
            threads_per_subplane_redundant=int(t.redundant[index]),
            threads_per_subplane_boundary=int(t.boundary[index]),
            threads_per_subplane_out_of_bound=int(t.out_of_bound[index]),
        )
        totals = TrafficTotals(
            total_flops=float(t.total_flops[index]),
            useful_flops=self.useful_flops,
            global_bytes=float(t.global_bytes[index]),
            shared_bytes=float(t.shared_bytes[index]),
            alu_efficiency=self.alu_efficiency,
            thread_work=work,
        )
        return PerformancePrediction(
            time_compute_s=float(result.time_compute_s[index]),
            time_global_s=float(result.time_global_s[index]),
            time_shared_s=float(result.time_shared_s[index]),
            sm_efficiency=float(result.sm_efficiency[index]),
            time_s=float(result.time_s[index]),
            gflops=float(result.gflops[index]),
            gcells=float(result.gcells[index]),
            bottleneck=result.bottleneck_name(index),
            traffic=totals,
        )

    def measurement(self, result: BatchMeasurement, index: int) -> "SimulatedMeasurement":
        """Row ``index`` as the simulator's ``SimulatedMeasurement``."""
        from repro.sim.timing import SimulatedMeasurement

        return SimulatedMeasurement(
            time_s=float(result.time_s[index]),
            gflops=float(result.gflops[index]),
            gcells=float(result.gcells[index]),
            occupancy=float(result.occupancy[index]),
            registers_per_thread=int(result.registers_per_thread[index]),
            limiting_factor=result.limiting_factor_name(index),
            bottleneck=result.bottleneck_name(index),
            time_compute_s=float(result.time_compute_s[index]),
            time_global_s=float(result.time_global_s[index]),
            time_shared_s=float(result.time_shared_s[index]),
            overhead_s=float(result.overhead_s[index]),
        )
