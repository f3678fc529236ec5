"""What the benchmark measures: workloads, metrics, bounds and the layer map.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 perfbench/run.py --write-benchmark-json``) and the self-test
checks that the two agree.  ``LAYER_MAP`` records, before any optimisation
is measured, which end-to-end metric each per-layer metric should move on
which workload, so a later change can name its claim as
``<workload>/<metric>``.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 40

WORKLOADS = [
    ("table5_cold",
     "cold 84-job Table-5 tuning campaign in a fresh process, then warm regeneration: "
     "stage-1 rank, stage-2 measure, pattern load and store commit carry the time"),
    ("compile_verify",
     "34 seeded C stencils (star/box/astar/vstar r1-4, FDTD) through parse, CUDA codegen "
     "and blocked-vs-reference verify; tuning, campaign and service do no work"),
    ("service_mixed",
     "an5d serve, one keep-alive client, open loop at 200 req/s over all Table-3 stencils: "
     "80% predict, 10% tune, 8% report reads, 2% writes invalidating the report cache"),
]

# (name, unit, better, bound).  Every workload reports every metric; the
# per-workload meaning of each is in END_TO_END_MEANING.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.20),
    ("warm_ms", "ms", "lower", 0.25),
    ("p50_ms", "ms", "lower", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("ok_fraction", "fraction", "higher", 0.01),
]

END_TO_END_MEANING = {
    "setup_s": {
        "table5_cold": "interpreter start + import repro + open the empty store (median of passes)",
        "compile_verify": "interpreter start + import repro + build the seeded draw",
        "service_mixed": "server process start to /healthz, plus the untimed cache-fill pass",
    },
    "wall_s": {
        "table5_cold": "cold api.campaign over the 84-job matrix, workers=1, fresh process",
        "compile_verify": "parse -> compile_stencil -> verify of the 34-source draw, fresh process",
        "service_mixed": "time to send and answer the fixed open-loop schedule",
    },
    "warm_ms": {
        "table5_cold": "one warm regeneration: campaign at 100% cache + table5 report + export "
                       "(median call of a >=1 s loop)",
        "compile_verify": "one warm parse -> compile_stencil of a source (median draw of a >=1 s "
                          "loop, per source)",
        "service_mixed": "one warm read on a closed keep-alive loop (1000 / single-connection "
                         "capacity): mean over 24 slices of 0.3 s, spread over the run, of each "
                         "slice's median",
    },
    "p50_ms": {
        "table5_cold": "median job latency from submission: every job is queued at t=0, so "
                       "this is when half the Table-5 rows are committed",
        "compile_verify": "median latency of one source's parse -> compile -> verify",
        "service_mixed": "median client latency from each request's due time, over every "
                         "open-loop sample of the run",
    },
    "peak_rss_mb": {
        "table5_cold": "peak RSS of the campaign process",
        "compile_verify": "peak RSS of the compile/verify process",
        "service_mixed": "server process VmHWM",
    },
    "ok_fraction": {
        "table5_cold": "ok jobs plus warm regenerations whose export equals the cold export, over attempts",
        "compile_verify": "sources whose blocked run matches the reference and emit CUDA, "
                          "counting the untimed radius>4 limits probe",
        "service_mixed": "2xx answers (429s and connection errors fail) plus /predict answers "
                         "equal to run_job, over attempts",
    },
}

# (name, unit, better).
PER_LAYER = [
    ("stencils.load_pattern_s", "s", "lower"),
    ("frontend.parse_s", "s", "lower"),
    ("frontend.source_kb", "KiB", "lower"),
    ("tuning.rank_s", "s", "lower"),
    ("tuning.rank_configs", "count", "lower"),
    ("tuning.measure_s", "s", "lower"),
    ("tuning.measure_sims", "count", "lower"),
    ("campaign.commit_s", "s", "lower"),
    ("campaign.plan_s", "s", "lower"),
    ("campaign.report_s", "s", "lower"),
    ("campaign.export_s", "s", "lower"),
    ("core.transform_s", "s", "lower"),
    ("codegen.emit_s", "s", "lower"),
    ("codegen.cuda_kb", "KiB", "lower"),
    ("ir.compile_s.auto", "s", "lower"),
    ("ir.compile_s.native", "s", "lower"),
    ("sim.blocked_run_s", "s", "lower"),
    ("stencils.reference_s", "s", "lower"),
    ("service.server_request_ms.predict", "ms", "lower"),
    ("service.server_request_ms.tune", "ms", "lower"),
    ("service.server_request_ms.report", "ms", "lower"),
    ("service.server_request_ms.submit", "ms", "lower"),
    ("service.client_minus_server_ms", "ms", "lower"),
    ("service.p50_ms.predict", "ms", "lower"),
    ("service.p50_ms.tune", "ms", "lower"),
    ("service.p50_ms.report", "ms", "lower"),
    ("service.p50_ms.submit", "ms", "lower"),
    ("service.p99_ms", "ms", "lower"),
    ("service.hot_hit_ratio.hot_predict", "ratio", "higher"),
    ("service.hot_hit_ratio.hot_tune", "ratio", "higher"),
    ("service.report_cache_hit_ratio", "ratio", "higher"),
    ("service.generator_lag_ms", "ms", "lower"),
    ("latency_samples", "count", "higher"),
    ("limits.probe_passed", "count", "higher"),
    ("trace.layer_share", "fraction", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.missing_hooks", "count", "lower"),
]

#: per-layer metric -> (end-to-end metrics it should move, workloads where it does).
#: A layer reads 0 on a workload that never calls it; that is the prediction.
LAYER_MAP = {
    "tuning.measure_s": ("wall_s; service setup_s (tune misses in the cache fill)",
                         "table5_cold, service_mixed; no effect on compile_verify"),
    "tuning.measure_sims": ("wall_s", "table5_cold, service_mixed"),
    "stencils.load_pattern_s": ("wall_s", "table5_cold (includes frontend.parse_s), service_mixed"),
    "frontend.parse_s": ("wall_s", "table5_cold, compile_verify"),
    "frontend.source_kb": ("wall_s", "table5_cold, compile_verify"),
    "tuning.rank_s": ("wall_s; service setup_s (hot_batch entry builds)", "table5_cold, service_mixed"),
    "tuning.rank_configs": ("wall_s; service setup_s", "table5_cold, service_mixed"),
    "campaign.commit_s": ("predicted NOT to move cold wall_s (under 1% of it); the warm loop "
                          "commits nothing", "table5_cold"),
    "campaign.plan_s": ("warm_ms (seconds per warm regeneration)", "table5_cold"),
    "campaign.report_s": ("warm_ms (seconds per warm regeneration)", "table5_cold"),
    "campaign.export_s": ("warm_ms (seconds per warm regeneration)", "table5_cold"),
    "core.transform_s": ("wall_s, warm_ms", "compile_verify"),
    "codegen.emit_s": ("wall_s, warm_ms", "compile_verify"),
    "codegen.cuda_kb": ("CUDA bytes emitted for the whole draw (deterministic count)", "compile_verify"),
    "ir.compile_s.auto": ("wall_s", "compile_verify"),
    "ir.compile_s.native": ("wall_s (tiered promotion to the C kernel, inside sim.blocked_run_s)",
                            "compile_verify"),
    "sim.blocked_run_s": ("wall_s, p50_ms", "compile_verify"),
    "stencils.reference_s": ("wall_s, p50_ms", "compile_verify"),
    "service.server_request_ms.predict": ("p50_ms, service.p99_ms", "service_mixed"),
    "service.server_request_ms.tune": ("p50_ms, service.p99_ms", "service_mixed"),
    "service.server_request_ms.report": ("p50_ms, service.p99_ms", "service_mixed"),
    "service.server_request_ms.submit": ("p50_ms, service.p99_ms", "service_mixed"),
    "service.client_minus_server_ms": ("p50_ms, warm_ms (HTTP parse/write and socket time)",
                                       "service_mixed"),
    "service.p50_ms.predict": ("p50_ms", "service_mixed"),
    "service.p50_ms.tune": ("p50_ms", "service_mixed"),
    "service.p50_ms.report": ("p50_ms", "service_mixed"),
    "service.p50_ms.submit": ("p50_ms", "service_mixed"),
    "service.p99_ms": ("ungated: too noisy to bound (see CHANGES.md)", "service_mixed"),
    "service.hot_hit_ratio.hot_predict": ("p50_ms", "service_mixed"),
    "service.hot_hit_ratio.hot_tune": ("p50_ms", "service_mixed"),
    "service.report_cache_hit_ratio": ("p50_ms (writes invalidate it)", "service_mixed"),
    "service.generator_lag_ms": ("p50_ms (how late the open-loop sender ran)", "service_mixed"),
    "latency_samples": ("the sample count behind p50_ms / service.p99_ms", "all"),
    "limits.probe_passed": ("ok_fraction (radius>4 sources that compile and verify)",
                            "compile_verify"),
    "trace.layer_share": ("top-level layer time / untraced wall_s (client time on service)", "all"),
    "trace.overhead_s": ("traced wall_s minus untraced wall_s", "all"),
    "trace.missing_hooks": ("hook targets not found (a renamed public function)", "all"),
}

#: Layers whose times are summed into ``trace.layer_share``, per workload.
SHARE_LAYERS = {
    "table5_cold": ("tuning.measure_s", "stencils.load_pattern_s", "tuning.rank_s",
                    "campaign.commit_s"),
    "compile_verify": ("frontend.parse_s", "core.transform_s", "codegen.emit_s",
                       "sim.blocked_run_s", "stencils.reference_s"),
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }
