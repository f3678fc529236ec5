"""High-level public API of the AN5D reproduction.

Typical use::

    from repro import api

    compiled = api.compile_stencil(C_SOURCE, name="heat2d", bT=4, bS=(256,))
    print(compiled.cuda.kernel_source)

    result = api.tune("j2d5pt", gpu="V100")           # model-guided tuning
    print(result.as_row())

    check = api.verify("j2d5pt", bT=4, bS=(32,), grid=(96, 96), time_steps=12)
    assert check.matches
"""

from __future__ import annotations

from pathlib import Path
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines import (
    BaselineResult,
    HybridTilingBaseline,
    LoopTilingBaseline,
    StencilGenBaseline,
)
from repro.codegen import CudaSourcePackage, generate_cuda
from repro.core.config import BlockingConfig, sconf_configuration
from repro.core.execution_model import ExecutionModel
from repro.core.plan import KernelPlan
from repro.core.transform import an5d_transform
from repro.frontend.stencil_detect import DetectedStencil, parse_stencil
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.gpu_specs import GpuSpec, get_gpu
from repro.model.roofline import PerformancePrediction, predict_performance
from repro.sim.executor import BlockedStencilExecutor, VerificationResult, verify_blocking
from repro.sim.timing import SimulatedMeasurement, simulate_performance
from repro.stencils.library import BENCHMARKS, get_benchmark, load_pattern
from repro.stencils.reference import make_initial_grid, run_reference
from repro.tuning.autotuner import AutoTuner, TuningResult
from repro.tuning.exhaustive import ExhaustiveResult, exhaustive_search

PatternLike = Union[str, StencilPattern]


def _resolve_pattern(pattern: PatternLike, dtype: str = "float") -> StencilPattern:
    """Accept either a benchmark name or an already-built pattern."""
    if isinstance(pattern, StencilPattern):
        return pattern
    return load_pattern(pattern, dtype)


def _resolve_grid(
    pattern: StencilPattern,
    grid: Union[GridSpec, Sequence[int], None],
    time_steps: int,
) -> GridSpec:
    if isinstance(grid, GridSpec):
        return grid
    if grid is None:
        name = pattern.name
        if name in BENCHMARKS:
            return get_benchmark(name).default_grid(time_steps)
        interior = (512, 512) if pattern.ndim == 2 else (256, 256, 256)
        return GridSpec(interior, time_steps)
    return GridSpec(tuple(grid), time_steps)


@dataclass(frozen=True)
class CompiledStencil:
    """The result of compiling one stencil with one configuration."""

    pattern: StencilPattern
    config: BlockingConfig
    plan: KernelPlan
    cuda: CudaSourcePackage

    @property
    def kernel_source(self) -> str:
        return self.cuda.kernel_source

    @property
    def host_source(self) -> str:
        return self.cuda.host_source


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def parse(source: str, name: str = "stencil", dtype: Optional[str] = None) -> DetectedStencil:
    """Parse C stencil source and detect its pattern."""
    return parse_stencil(source, name=name, dtype=dtype)


def compile_stencil(
    source_or_pattern: Union[str, StencilPattern],
    name: str = "stencil",
    dtype: Optional[str] = None,
    bT: int = 4,
    bS: Sequence[int] = (256,),
    hS: Optional[int] = None,
    register_limit: Optional[int] = None,
    config: Optional[BlockingConfig] = None,
) -> CompiledStencil:
    """Compile a stencil (C source, benchmark name or pattern) to CUDA.

    ``config`` overrides the individual blocking parameters when given.
    """
    if isinstance(source_or_pattern, StencilPattern):
        pattern = source_or_pattern
    elif source_or_pattern in BENCHMARKS:
        pattern = load_pattern(source_or_pattern, dtype or "float")
    else:
        pattern = parse_stencil(source_or_pattern, name=name, dtype=dtype).pattern
    if config is None:
        config = BlockingConfig(bT=bT, bS=tuple(bS), hS=hS, register_limit=register_limit)
    plan = an5d_transform(pattern, config)
    return CompiledStencil(pattern=pattern, config=config, plan=plan, cuda=generate_cuda(plan))


# ---------------------------------------------------------------------------
# Performance model / simulation / tuning
# ---------------------------------------------------------------------------


def predict(
    pattern: PatternLike,
    config: BlockingConfig,
    gpu: Union[str, GpuSpec] = "V100",
    dtype: str = "float",
    grid: Union[GridSpec, Sequence[int], None] = None,
    time_steps: int = 1000,
) -> PerformancePrediction:
    """Analytic performance prediction (Section 5 model)."""
    resolved = _resolve_pattern(pattern, dtype)
    spec = get_gpu(gpu) if isinstance(gpu, str) else gpu
    return predict_performance(resolved, _resolve_grid(resolved, grid, time_steps), config, spec)


def simulate(
    pattern: PatternLike,
    config: BlockingConfig,
    gpu: Union[str, GpuSpec] = "V100",
    dtype: str = "float",
    grid: Union[GridSpec, Sequence[int], None] = None,
    time_steps: int = 1000,
) -> SimulatedMeasurement:
    """Simulated "measured" performance (timing simulator)."""
    resolved = _resolve_pattern(pattern, dtype)
    return simulate_performance(
        resolved, _resolve_grid(resolved, grid, time_steps), config, gpu
    )


def tune(
    pattern: PatternLike,
    gpu: Union[str, GpuSpec] = "V100",
    dtype: str = "float",
    grid: Union[GridSpec, Sequence[int], None] = None,
    time_steps: int = 1000,
    top_k: int = 5,
) -> TuningResult:
    """Model-guided autotuning (Section 6.3)."""
    resolved = _resolve_pattern(pattern, dtype)
    tuner = AutoTuner(gpu, top_k=top_k)
    return tuner.tune(resolved, _resolve_grid(resolved, grid, time_steps))


def exhaustive(
    pattern: PatternLike,
    gpu: Union[str, GpuSpec] = "V100",
    dtype: str = "float",
    grid: Union[GridSpec, Sequence[int], None] = None,
    time_steps: int = 1000,
) -> ExhaustiveResult:
    """Exhaustive simulated sweep of the full (pruned) search space, in one
    vectorized pass of the batched model engine."""
    resolved = _resolve_pattern(pattern, dtype)
    return exhaustive_search(resolved, _resolve_grid(resolved, grid, time_steps), gpu)


def sconf(pattern: PatternLike, dtype: str = "float") -> BlockingConfig:
    """The paper's Sconf configuration (STENCILGEN-compatible parameters)."""
    return sconf_configuration(_resolve_pattern(pattern, dtype))


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def run(
    pattern: PatternLike,
    config: BlockingConfig,
    grid: Union[GridSpec, Sequence[int]],
    time_steps: int = 8,
    dtype: str = "float",
    initial: Optional[np.ndarray] = None,
    seed: int = 0,
) -> np.ndarray:
    """Run the blocked (N.5D) execution functionally on NumPy arrays."""
    resolved = _resolve_pattern(pattern, dtype)
    spec = _resolve_grid(resolved, grid, time_steps)
    if initial is None:
        initial = make_initial_grid(resolved, spec, seed)
    return BlockedStencilExecutor(resolved, spec, config).run(initial)


def reference(
    pattern: PatternLike,
    grid: Union[GridSpec, Sequence[int]],
    time_steps: int = 8,
    dtype: str = "float",
    initial: Optional[np.ndarray] = None,
    seed: int = 0,
) -> np.ndarray:
    """Run the naive reference executor."""
    resolved = _resolve_pattern(pattern, dtype)
    spec = _resolve_grid(resolved, grid, time_steps)
    return run_reference(resolved, spec, initial=initial, seed=seed)


def verify(
    pattern: PatternLike,
    bT: int = 4,
    bS: Sequence[int] = (32,),
    hS: Optional[int] = None,
    grid: Union[GridSpec, Sequence[int], None] = None,
    time_steps: int = 8,
    dtype: str = "float",
    seed: int = 0,
) -> VerificationResult:
    """Verify the blocked schedule against the reference executor."""
    resolved = _resolve_pattern(pattern, dtype)
    if grid is None:
        grid = (96, 96) if resolved.ndim == 2 else (32, 48, 48)
    spec = _resolve_grid(resolved, grid, time_steps)
    config = BlockingConfig(bT=bT, bS=tuple(bS), hS=hS)
    return verify_blocking(resolved, spec, config, seed=seed)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def baseline(
    framework: str,
    pattern: PatternLike,
    gpu: Union[str, GpuSpec] = "V100",
    dtype: str = "float",
    grid: Union[GridSpec, Sequence[int], None] = None,
    time_steps: int = 1000,
) -> BaselineResult:
    """Simulate one of the comparison frameworks on a stencil."""
    resolved = _resolve_pattern(pattern, dtype)
    spec = get_gpu(gpu) if isinstance(gpu, str) else gpu
    grid_spec = _resolve_grid(resolved, grid, time_steps)
    key = framework.strip().lower().replace(" ", "_").replace("-", "_")
    if key in ("stencilgen", "sg"):
        return StencilGenBaseline(spec).simulate(resolved, grid_spec)
    if key in ("hybrid", "hybrid_tiling", "hexagonal"):
        return HybridTilingBaseline(spec).simulate(resolved, grid_spec)
    if key in ("loop", "loop_tiling", "ppcg"):
        return LoopTilingBaseline(spec).simulate(resolved, grid_spec)
    raise ValueError(f"unknown baseline framework {framework!r}")


# ---------------------------------------------------------------------------
# Campaigns (batch service over the benchmark x GPU matrix)
# ---------------------------------------------------------------------------


def campaign(
    benchmarks: Optional[Sequence[str]] = None,
    gpus: Sequence[str] = ("V100",),
    dtypes: Sequence[str] = ("float",),
    kinds: Sequence[str] = ("tune",),
    store: Union[str, Path, "ResultStore"] = "campaign.sqlite",
    workers: int = 1,
    time_steps: int = 1000,
    timeout: Optional[float] = None,
    retries: int = 1,
    shards: int = 1,
    shard_index: int = 0,
    shard_indices: Optional[Sequence[int]] = None,
    top_k: int = 5,
    interior_2d: Optional[Sequence[int]] = None,
    interior_3d: Optional[Sequence[int]] = None,
    progress=None,
) -> "CampaignOutcome":
    """Run (or resume) a campaign over the benchmark x GPU x dtype matrix.

    Jobs whose results are already in the ``store`` are not re-run; each new
    result is committed the moment it finishes, so an interrupted campaign
    resumes where it stopped.  ``benchmarks=None`` means all of Table 3;
    ``interior_2d``/``interior_3d`` override the paper's evaluation grids
    (``None`` keeps them).  ``shard_indices`` lets one invocation own
    several shards of the ``shards``-way partition (the cluster
    coordinator's re-assignment shape); it overrides ``shard_index``.
    """
    from repro.campaign import CampaignScheduler, CampaignSpec, ResultStore
    from repro.campaign.scheduler import ShardPlan

    interiors = {}
    if interior_2d is not None:
        interiors["interior_2d"] = tuple(interior_2d)
    if interior_3d is not None:
        interiors["interior_3d"] = tuple(interior_3d)
    spec = CampaignSpec(
        benchmarks=tuple(benchmarks or ()),
        gpus=tuple(gpus),
        dtypes=tuple(dtypes),
        kinds=tuple(kinds),
        time_steps=time_steps,
        top_k=top_k,
        **interiors,
    )
    if shard_indices is not None:
        plan = ShardPlan(shards, tuple(shard_indices))
    else:
        plan = ShardPlan(shards, (shard_index,))
    owns_store = not isinstance(store, ResultStore)
    result_store = ResultStore(store) if owns_store else store
    try:
        scheduler = CampaignScheduler(
            spec,
            result_store,
            workers=workers,
            timeout=timeout,
            retries=retries,
            plan=plan,
        )
        return scheduler.run(progress=progress)
    finally:
        if owns_store:
            result_store.close()


def fuzz(
    seed: int = 0,
    count: int = 20,
    gpus: Sequence[str] = ("V100",),
    store: Union[str, Path, "ResultStore"] = "campaign.sqlite",
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    progress=None,
) -> Tuple["CampaignOutcome", List[Dict[str, object]]]:
    """Run a standing differential-fuzzing campaign over generated stencils.

    ``count`` seeded random stencils are drawn from ``seed`` (each program is
    reproducible from its ``fuzz-{seed}-{index}`` name alone) and every one
    is run through the differential oracles: frontend round trip, compiled
    kernel vs. interpreter, blocked executor vs. reference, batch model vs.
    scalar model.  Pass/divergence records are committed to the
    content-addressed ``store`` — re-running the same seed is answered
    entirely warm, and exports stay byte-identical across cold runs.

    Returns the campaign outcome plus the deterministic export records of
    every fuzz job, in seed order.
    """
    from repro.campaign import CampaignScheduler, CampaignSpec, ResultStore

    spec = CampaignSpec(
        gpus=tuple(gpus), kinds=("fuzz",), fuzz_seed=seed, fuzz_count=count
    )
    owns_store = not isinstance(store, ResultStore)
    result_store = ResultStore(store) if owns_store else store
    try:
        scheduler = CampaignScheduler(
            spec, result_store, workers=workers, timeout=timeout, retries=retries
        )
        outcome = scheduler.run(progress=progress)
        records = []
        for job in spec.expand():
            stored = result_store.lookup(job)
            if stored is not None:
                records.append(stored.export_record())
        # Refresh the per-family/per-check coverage counters from the rows
        # now in the store (idempotent: warm re-runs rewrite the same
        # numbers, and the write never touches the exported namespace).
        fuzz_coverage(result_store)
        return outcome, records
    finally:
        if owns_store:
            result_store.close()


def fuzz_coverage(
    store: Union[str, Path, "ResultStore"],
) -> List[Dict[str, object]]:
    """Recompute and persist per-family/per-check fuzz coverage counters.

    The counters are a *derived aggregate*: recomputed wholesale from the
    store's fuzz rows (the stencil family is re-derived from each job's
    reproducible ``fuzz-{seed}-{index}`` name), then written with
    :meth:`~repro.campaign.store.ResultStore.replace_coverage` — so the
    numbers never drift from the results they summarise, and re-running a
    warm seed is a no-op.  Returns the refreshed coverage rows.
    """
    from repro.campaign import ResultStore
    from repro.stencils.generators import fuzz_stencil, parse_fuzz_name

    owns_store = not isinstance(store, ResultStore)
    result_store = ResultStore(store) if owns_store else store
    try:
        entries: Dict[Tuple[str, str], Tuple[int, int]] = {}
        for record in result_store.export_records(ok_only=False, kind="fuzz"):
            parsed = parse_fuzz_name(str(record["pattern"]))
            if parsed is None:
                continue
            family = fuzz_stencil(*parsed).family
            payload = record.get("payload") or {}
            for check in payload.get("checks", ()):
                key = (family, str(check.get("check", "?")))
                runs, passed = entries.get(key, (0, 0))
                entries[key] = (runs + 1, passed + (1 if check.get("passed") else 0))
        result_store.replace_coverage(entries)
        return result_store.coverage_rows()
    finally:
        if owns_store:
            result_store.close()


def campaign_report(
    store: Union[str, Path, "ResultStore"],
    report: str = "table5",
    **options,
) -> "ResultTable":
    """Render a report (``table5``/``leaderboard``/``accuracy``/``summary``)
    from a campaign store."""
    from repro.campaign import ResultStore
    from repro.campaign.report import REPORTS

    try:
        builder = REPORTS[report]
    except KeyError:
        raise ValueError(
            f"unknown report {report!r}; available: {', '.join(REPORTS)}"
        ) from None
    owns_store = not isinstance(store, ResultStore)
    result_store = ResultStore(store) if owns_store else store
    try:
        return builder(result_store, **options)
    finally:
        if owns_store:
            result_store.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 8000,
    store: Union[str, Path, "ResultStore"] = "campaign.sqlite",
    workers: int = 1,
    concurrency: int = 2,
    timeout: Optional[float] = None,
    retries: int = 1,
    block: bool = True,
    quiet: bool = True,
    cluster: Optional["ClusterConfig"] = None,
    advertise_host: Optional[str] = None,
    coordinator_url: Optional[str] = None,
    journal: Optional[Union[str, Path]] = None,
    max_queued: Optional[int] = None,
    reserve_interactive: int = 0,
    telemetry_interval: Optional[float] = None,
    telemetry_keep: int = 1000,
) -> "CampaignServer":
    """Serve the campaign layer over HTTP (the ``an5d serve`` entry point).

    Submit :class:`~repro.campaign.jobs.CampaignSpec` JSON to
    ``POST /campaigns``, poll ``GET /campaigns/{id}``, and fetch reports and
    deterministic JSONL exports — all against one shared result store, so
    the service resumes warm after a restart.  ``POST /predict`` and
    ``POST /tune`` answer single jobs synchronously from the hot model
    cache, bypassing the campaign queue entirely.

    ``workers`` is the multiprocessing fan-out for scalar-simulator jobs;
    ``concurrency`` is how many campaigns the async worker overlaps.
    ``max_queued`` enables admission control (campaign submissions beyond
    that many queued-or-running campaigns get 429 + ``Retry-After``);
    ``reserve_interactive`` holds that many concurrency slots back from
    heavy campaigns so small interactive ones never wait behind a sweep.
    With ``block=False`` the server runs in a background thread and is
    returned (callers stop it with
    :meth:`~repro.service.CampaignServer.stop`); ``port=0`` picks an
    ephemeral port.

    Pass a :class:`~repro.cluster.registry.ClusterConfig` to make the
    instance a cluster member: it registers itself (with heartbeats) in the
    store's instance registry and accepts coordinator shard assignments; in
    the coordinator role it also accepts whole campaigns on
    ``POST /cluster/campaigns`` and supervises shard re-assignment.

    ``coordinator_url`` makes the instance **wire-native**: instead of
    opening the store it commits results to that coordinator over HTTP
    (``POST /results/commit``), spilling to the local ``journal`` file
    whenever the coordinator is unreachable and draining it on reconnect.
    Requires a worker-role ``cluster`` config; ``store`` is ignored.

    ``telemetry_interval`` (seconds) turns on telemetry history: the
    instance periodically persists its metrics snapshot into the store's
    timestamped telemetry table (pruned to the newest ``telemetry_keep``
    rows), surfaced by ``GET /telemetry/history`` and ``an5d top --history``.
    """
    from repro.service import CampaignServer, WorkerSettings

    if coordinator_url is not None:
        from repro.cluster.remote import RemoteStore

        store = RemoteStore(coordinator_url, journal=journal)
    server = CampaignServer(
        host=host,
        port=port,
        store=store,
        settings=WorkerSettings(
            workers=workers,
            concurrency=concurrency,
            timeout=timeout,
            retries=retries,
            max_queued=max_queued,
            reserve_interactive=reserve_interactive,
        ),
        quiet=quiet,
        cluster=cluster,
        advertise_host=advertise_host,
        telemetry_interval=telemetry_interval,
        telemetry_keep=telemetry_keep,
    )
    if not block:
        server.start()
        return server
    try:
        server.run()
    finally:
        server.stop()
    return server


def cluster_up(
    store: Union[str, Path, "ResultStore"] = "campaign.sqlite",
    instances: int = 2,
    host: str = "127.0.0.1",
    workers: int = 1,
    concurrency: int = 2,
    timeout: Optional[float] = None,
    retries: int = 1,
    standbys: int = 0,
    wire_workers: bool = False,
    workdir: Optional[Union[str, Path]] = None,
) -> "LocalCluster":
    """Boot N worker instances plus a coordinator on one store, in-process.

    Returns the started :class:`~repro.cluster.local.LocalCluster`; submit
    campaigns to ``cluster.url`` (``POST /cluster/campaigns``) and stop it
    with ``cluster.stop()``.  Every member is a real HTTP server on an
    ephemeral port, so the topology matches a multi-process deployment —
    minus the process isolation (this is the ``an5d cluster up`` fast path;
    CI's cluster smoke boots separate processes).

    ``standbys`` adds lease-contending coordinator instances (failover);
    ``wire_workers=True`` gives workers no store access at all — they commit
    over HTTP with journals under ``workdir`` (defaults to the store's
    directory).
    """
    from repro.cluster import LocalCluster
    from repro.service import WorkerSettings

    if wire_workers and workdir is None:
        store_path = store if not hasattr(store, "path") else store.path
        workdir = Path(str(store_path)).parent if str(store_path) != ":memory:" else Path(".")
    return LocalCluster(
        store=store,
        instances=instances,
        host=host,
        settings=WorkerSettings(
            workers=workers, concurrency=concurrency, timeout=timeout, retries=retries
        ),
        standbys=standbys,
        wire_workers=wire_workers,
        workdir=workdir,
    ).start()


def execution_summary(
    pattern: PatternLike,
    config: BlockingConfig,
    grid: Union[GridSpec, Sequence[int], None] = None,
    time_steps: int = 1000,
    dtype: str = "float",
) -> dict:
    """Geometry summary of one kernel launch (threads, blocks, halo, ...)."""
    resolved = _resolve_pattern(pattern, dtype)
    spec = _resolve_grid(resolved, grid, time_steps)
    return ExecutionModel(resolved, spec, config).summary()
