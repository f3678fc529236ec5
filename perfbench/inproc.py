"""One fresh-interpreter pass of an in-process workload.

``run.py`` starts this file once per pass, so every cold number comes from a
new interpreter, a new temp store and a new native build dir (``TMPDIR`` is
per pass): in-process memo caches never carry over between passes.

Usage (normally only ``run.py`` calls it)::

    python3 perfbench/inproc.py --workload table5_cold --seed 1 --trace 0 \
        --t0 <time.monotonic() at spawn> --warm-seconds 1.0

It prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import draws  # noqa: E402  (benchmark-local module)

#: The paper's Table-5 matrix: every Table-3 stencil on both GPUs, both dtypes.
TABLE5_GPUS = ("V100", "P100")
TABLE5_DTYPES = ("float", "double")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _warm_loop(step, min_seconds: float, min_iterations: int = 5):
    """Repeat ``step`` until both limits are met; returns per-call seconds.

    Callers report the median call: a garbage-collection pause or a noisy
    neighbour lands in a few calls and would drag a mean.
    """
    times = []
    spent = 0.0
    while spent < min_seconds or len(times) < min_iterations:
        start = time.perf_counter()
        step()
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        spent += elapsed
    return times


# ---------------------------------------------------------------------------
# table5_cold
# ---------------------------------------------------------------------------


def table5_cold(args, t0: float) -> dict:
    from repro import api
    from repro.campaign import ResultStore
    from repro.stencils.library import benchmark_names

    workdir = Path(tempfile.mkdtemp(prefix="table5-"))
    store = ResultStore(workdir / "campaign.sqlite")
    setup_s = time.monotonic() - t0
    tracer = _tracer(args)

    # The matrix is the paper's; the seed only permutes the GPU and dtype
    # order inside each stencil, which leaves the work per stencil unchanged.
    rng = random.Random(f"perfbench-table5:{args.seed}")
    benchmarks = benchmark_names()
    gpus = list(TABLE5_GPUS)
    dtypes = list(TABLE5_DTYPES)
    rng.shuffle(gpus)
    rng.shuffle(dtypes)
    if args.quick:
        benchmarks = benchmarks[:2]
    matrix = dict(benchmarks=benchmarks, gpus=gpus, dtypes=dtypes, kinds=("tune",), workers=1)

    stamps = []
    start = time.perf_counter()
    outcome = api.campaign(
        store=store, progress=lambda job, status: stamps.append(time.perf_counter()), **matrix
    )
    wall_s = time.perf_counter() - start
    job_ms = [1000.0 * (b - a) for a, b in zip([start] + stamps[:-1], stamps)]

    jobs = outcome.total
    ok_jobs = store.count("ok")
    cold_export = workdir / "cold.jsonl"
    store.export_jsonl(cold_export)
    cold_bytes = cold_export.read_bytes()

    warm_export = workdir / "warm.jsonl"
    warm_outcomes = []

    def regenerate() -> None:
        warm_outcomes.append(api.campaign(store=store, **matrix))
        with _span(tracer, "campaign.report_s"):
            api.campaign_report(store, "table5").to_text()
        with _span(tracer, "campaign.export_s"):
            store.export_jsonl(warm_export)

    warm = _warm_loop(regenerate, args.warm_seconds)
    warm_ok = sum(1 for o in warm_outcomes if o.cached == jobs and o.failed == 0)
    export_equal = warm_export.read_bytes() == cold_bytes
    store.close()

    passed = ok_jobs + (warm_ok if export_equal else 0)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "warm_ms": 1000.0 * statistics.median(warm),
        # Every job is queued at submission, so a job's latency is its
        # completion time: run.py accumulates op_ms into completion times.
        "op_ms": job_ms,
        "op_latency": "completion",
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": jobs + len(warm),
        "passed": passed,
        "probe_attempted": 0,
        "probe_passed": 0,
        "samples": len(job_ms),
        "checks": {
            "jobs": jobs,
            "ok_jobs": ok_jobs,
            "warm_iterations": len(warm),
            "export_equal": export_equal,
        },
    }
    if tracer is not None:
        result["layers"] = _per_warm_iteration(tracer.totals, len(warm))
        result["missing_hooks"] = tracer.missing
    return result


def _per_warm_iteration(totals: dict, iterations: int) -> dict:
    """Warm-loop layers as seconds per regeneration; plan splits the same way."""
    layers = dict(totals)
    # CampaignScheduler.plan runs once cold and once per warm regeneration;
    # the cold call is a negligible share, so report the per-regeneration mean.
    for name in ("campaign.plan_s", "campaign.report_s", "campaign.export_s"):
        if name in layers:
            layers[name] = layers[name] / max(1, iterations)
    return layers


# ---------------------------------------------------------------------------
# compile_verify
# ---------------------------------------------------------------------------


def compile_verify(args, t0: float) -> dict:
    from repro import api

    draw = draws.compile_verify_draw(args.seed, quick=args.quick)
    probe = draws.limits_probe(quick=args.quick)
    setup_s = time.monotonic() - t0
    tracer = _tracer(args)

    def one(item) -> tuple:
        """parse -> compile_stencil -> verify; returns (passed, cuda bytes)."""
        detected = api.parse(item.source, name=item.name, dtype=item.dtype)
        pattern = detected.pattern
        config = draws.verify_blocking_config(pattern)
        if config is None:
            return False, 0
        compiled = api.compile_stencil(pattern, config=config)
        cuda = len(compiled.kernel_source.encode()) + len(compiled.host_source.encode())
        check = api.verify(
            pattern,
            bT=config.bT,
            bS=config.bS,
            grid=draws.verify_grid(pattern.ndim),
            time_steps=draws.verify_steps(config),
            seed=args.seed,
        )
        return bool(check.matches) and bool(compiled.kernel_source.strip()), cuda

    latencies = []
    passed = 0
    cuda_bytes = 0
    start = time.perf_counter()
    for item in draw:
        began = time.perf_counter()
        ok, size = one(item)
        latencies.append(1000.0 * (time.perf_counter() - began))
        passed += ok
        cuda_bytes += size
    wall_s = time.perf_counter() - start

    # Untimed limits probe: sources beyond radius 4.  A crash counts as a
    # failed operation in ok_fraction but never as wall time.
    probe_passed = 0
    probe_errors = []
    layers_before_probe = dict(tracer.totals) if tracer is not None else None
    for item in probe:
        try:
            ok, _ = one(item)
        except Exception as error:  # noqa: BLE001 — the probe records any crash
            probe_errors.append(f"{item.name}: {type(error).__name__}")
            continue
        probe_passed += ok

    warm_ms = [[] for _ in draw]

    def recompile() -> None:
        for index, item in enumerate(draw):
            began = time.perf_counter()
            pattern = api.parse(item.source, name=item.name, dtype=item.dtype).pattern
            api.compile_stencil(pattern, config=draws.verify_blocking_config(pattern))
            warm_ms[index].append(1000.0 * (time.perf_counter() - began))

    _warm_loop(recompile, args.warm_seconds, min_iterations=1)
    warm_op_ms = [statistics.median(samples) for samples in warm_ms]
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "warm_ms": statistics.fmean(warm_op_ms),
        "warm_op_ms": warm_op_ms,
        "op_ms": latencies,
        "op_latency": "individual",
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": len(draw),
        "passed": passed,
        "probe_attempted": len(probe),
        "probe_passed": probe_passed,
        "samples": len(latencies),
        "cuda_kb": cuda_bytes / 1024.0,
        "checks": {"sources": len(draw), "probe_errors": probe_errors},
    }
    if tracer is not None:
        layers = layers_before_probe
        layers["codegen.cuda_kb"] = cuda_bytes / 1024.0
        result["layers"] = layers
        result["missing_hooks"] = tracer.missing
    return result


# ---------------------------------------------------------------------------


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _tracer(args):
    if not args.trace:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


WORKLOADS = {"table5_cold": table5_cold, "compile_verify": compile_verify}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--warm-seconds", type=float, default=1.0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    result = WORKLOADS[args.workload](args, args.t0)
    if args.trace:
        result["layers"]["trace.missing_hooks"] = len(result.pop("missing_hooks"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
