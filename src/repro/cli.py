"""Command-line interface: the ``an5d`` tool.

Subcommands
-----------

``an5d list``
    List the benchmark stencils of Table 3.
``an5d compile <benchmark-or-file> [--bT 4 --bS 256 --hS 512]``
    Generate CUDA kernel + host code and print (or save) it.
``an5d tune <benchmark> [--gpu V100 --dtype float]``
    Run the model-guided autotuner and report the chosen configuration.
``an5d exhaustive <benchmark> [--gpu V100]``
    Sweep the entire pruned search space in one vectorized pass.
``an5d predict <benchmark> --bT 8 --bS 256``
    Print the analytic model's prediction for one configuration.
``an5d verify <benchmark> [--bT 4 --bS 32]``
    Verify the blocked execution against the NumPy reference.
``an5d compare <benchmark> [--gpu V100]``
    Compare AN5D against the baseline frameworks (one Fig. 6 group).
``an5d campaign run|status|report|export|prune``
    Batch service: run (or resume) a campaign over the benchmark x GPU
    matrix against a persistent result store, inspect its progress, render
    leaderboards/Table-5 matrices, export diff-able JSONL/CSV artifacts,
    and prune results left behind by stale code versions.
``an5d serve [--host 127.0.0.1 --port 8000 --store campaign.sqlite]``
    Long-running HTTP front-end over the same campaign layer: submit specs
    with ``POST /campaigns``, poll ``GET /campaigns/{id}``, stream reports
    and exports.  ``POST /predict``/``POST /tune`` answer single jobs
    synchronously from a hot model cache; ``--max-queued`` and
    ``--reserve-interactive`` add admission control so sweeps cannot starve
    interactive traffic.  Results land in the shared store, so the service
    and the CLI subcommands above are interchangeable.  ``--cluster`` (plus
    ``--instance-id``/``--role``) joins the store's cluster: the instance
    registers itself, heartbeats, and accepts coordinator shard assignments.
``an5d top [--watch N | --follow | --history]``
    Cluster-wide throughput/latency view scraped from ``/metrics``;
    ``--follow`` tails the server's push event stream instead of polling,
    ``--history`` renders the store's telemetry snapshots plus the
    regression-delta report across runs and code versions.
``an5d campaign watch <id>``
    Tail one campaign's push stream: every per-job completion as it lands,
    ending with the terminal run summary.
``an5d profile [--url ... --seconds 2]``
    Sampling profiler: folded stacks (flamegraph collapse format) from a
    running service's ``GET /profile`` (or this process with ``--url ''``).
``an5d cluster up|coordinator|status|submit``
    Horizontal scale-out: boot N workers + a coordinator in one process
    (``up``), run a dedicated coordinator (``coordinator``), inspect
    membership/liveness/progress (``status``), and submit campaigns that the
    coordinator shards over live instances (``submit``).

Failures exit non-zero: ``1`` for work that ran and failed (verification
mismatch, failed campaign jobs), ``2`` for requests that could not be
carried out at all (unknown benchmarks/GPUs/reports, invalid parameters,
missing files/stores).  Error text goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

import repro
from repro import api
from repro.core.config import BlockingConfig, ConfigurationError
from repro.stencils.library import BENCHMARKS, get_benchmark


def _parse_bs(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.replace("x", ",").split(",") if part)


def _add_blocking_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bT", type=int, default=4, help="temporal blocking degree")
    parser.add_argument(
        "--bS", type=_parse_bs, default=(256,), help="spatial block sizes, e.g. 256 or 32x32"
    )
    parser.add_argument("--hS", type=int, default=None, help="stream block length (optional)")
    parser.add_argument(
        "--regs", type=int, default=None, help="register limit per thread (-maxrregcount)"
    )


def _blocking_config(args: argparse.Namespace) -> BlockingConfig:
    return BlockingConfig(bT=args.bT, bS=args.bS, hS=args.hS, register_limit=args.regs)


def _cmd_list(_: argparse.Namespace) -> int:
    print(f"{'name':<14} {'dims':>4} {'radius':>6} {'FLOP/cell':>10}  description")
    for name, benchmark in BENCHMARKS.items():
        print(
            f"{name:<14} {benchmark.ndim:>4} {benchmark.radius:>6} "
            f"{benchmark.paper_flops_per_cell:>10}  {benchmark.description}"
        )
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    target = args.stencil
    if target in BENCHMARKS:
        source_or_pattern: str = target
        name = target
    else:
        path = Path(target)
        if not path.exists():
            print(f"error: {target!r} is neither a benchmark name nor a file", file=sys.stderr)
            return 2
        source_or_pattern = path.read_text()
        name = path.stem
    compiled = api.compile_stencil(
        source_or_pattern,
        name=name,
        dtype=args.dtype,
        config=_blocking_config(args),
    )
    output = compiled.cuda.full_source
    if args.output:
        Path(args.output).write_text(output)
        print(f"wrote {len(output.splitlines())} lines to {args.output}")
    else:
        print(output)
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    result = api.tune(
        args.stencil,
        gpu=args.gpu,
        dtype=args.dtype,
        time_steps=args.time_steps,
    )
    row = result.as_row()
    print(f"best configuration for {args.stencil} on {args.gpu} ({args.dtype}):")
    for key, value in row.items():
        print(f"  {key:>14}: {value}")
    print(f"  model accuracy: {result.model_accuracy:.2f}")
    return 0


def _cmd_exhaustive(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    result = api.exhaustive(
        args.stencil,
        gpu=args.gpu,
        dtype=args.dtype,
        time_steps=args.time_steps,
    )
    elapsed = time.perf_counter() - start
    print(
        f"exhaustive optimum for {args.stencil} on {args.gpu} ({args.dtype}), "
        f"{result.evaluated} simulated runs:"
    )
    for key, value in result.as_row().items():
        print(f"  {key:>14}: {value}")
    rate = result.evaluated / elapsed if elapsed > 0 else float("inf")
    print(
        f"evaluated {result.evaluated} configs in {elapsed:.3f}s "
        f"({rate:.0f} configs/s)"
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    config = _blocking_config(args)
    prediction = api.predict(args.stencil, config, gpu=args.gpu, dtype=args.dtype)
    measured = api.simulate(args.stencil, config, gpu=args.gpu, dtype=args.dtype)
    print(f"{args.stencil} on {args.gpu} ({args.dtype}), {config.describe()}:")
    print(f"  model:     {prediction.gflops:9.1f} GFLOP/s  (bottleneck: {prediction.bottleneck})")
    print(f"  simulated: {measured.gflops:9.1f} GFLOP/s  (bottleneck: {measured.bottleneck})")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    result = api.verify(
        args.stencil,
        bT=args.bT,
        bS=args.bS,
        hS=args.hS,
        time_steps=args.time_steps,
        dtype=args.dtype,
    )
    message = (
        f"{'OK' if result.matches else 'MISMATCH'}: blocked execution vs reference, "
        f"max relative error {result.max_relative_error:.3e}"
    )
    if result.matches:
        print(message)
        return 0
    print(message, file=sys.stderr)
    return 1


def _cmd_compare(args: argparse.Namespace) -> int:
    config = api.sconf(args.stencil, args.dtype)
    rows = [
        ("Loop Tiling", api.baseline("loop", args.stencil, args.gpu, args.dtype).gflops),
        ("Hybrid Tiling", api.baseline("hybrid", args.stencil, args.gpu, args.dtype).gflops),
        ("STENCILGEN", api.baseline("stencilgen", args.stencil, args.gpu, args.dtype).gflops),
        ("AN5D (Sconf)", api.simulate(args.stencil, config, args.gpu, args.dtype).gflops),
    ]
    tuned = api.tune(args.stencil, gpu=args.gpu, dtype=args.dtype)
    rows.append(("AN5D (Tuned)", tuned.best.measured_gflops))
    rows.append(("AN5D (Model)", tuned.best.predicted_gflops))
    print(f"{args.stencil} on {args.gpu} ({args.dtype}):")
    for framework, gflops in rows:
        print(f"  {framework:<14} {gflops:9.1f} GFLOP/s")
    return 0


# -- campaign subcommands ---------------------------------------------------------


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_indices(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


def _campaign_benchmarks(text: str) -> tuple[str, ...]:
    names = _parse_names(text)
    return () if names in ((), ("all",)) else names


def _add_matrix_arguments(parser: argparse.ArgumentParser) -> None:
    """The campaign-matrix flags shared by ``campaign run`` and ``cluster submit``."""
    parser.add_argument(
        "--benchmarks",
        type=_campaign_benchmarks,
        default=(),
        help="comma-separated benchmark names ('all' or omit for every Table 3 stencil)",
    )
    parser.add_argument("--gpus", type=_parse_names, default=("V100",))
    parser.add_argument("--dtypes", type=_parse_names, default=("float",))
    parser.add_argument(
        "--kinds",
        type=_parse_names,
        default=("tune",),
        help="job kinds: tune,exhaustive,verify,baseline,predict",
    )
    parser.add_argument("--time-steps", type=int, default=1000)
    parser.add_argument(
        "--interior-2d", type=_parse_bs, default=None,
        help="2-D interior grid, e.g. 512x512 (default: the paper's 16384x16384)",
    )
    parser.add_argument(
        "--interior-3d", type=_parse_bs, default=None,
        help="3-D interior grid, e.g. 48x48x48 (default: the paper's 512^3)",
    )
    parser.add_argument("--top-k", type=int, default=5)


def _campaign_spec(args: argparse.Namespace):
    from repro.campaign import CampaignSpec

    interiors = {}
    if args.interior_2d is not None:
        interiors["interior_2d"] = args.interior_2d
    if args.interior_3d is not None:
        interiors["interior_3d"] = args.interior_3d
    return CampaignSpec(
        benchmarks=args.benchmarks,
        gpus=args.gpus,
        dtypes=args.dtypes,
        kinds=args.kinds,
        time_steps=args.time_steps,
        top_k=args.top_k,
        **interiors,
    )


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    def progress(job, status):
        stream = sys.stdout if status == "ok" else sys.stderr
        print(f"  [{status}] {job.describe()}", file=stream)

    outcome = api.campaign(
        benchmarks=args.benchmarks,
        gpus=args.gpus,
        dtypes=args.dtypes,
        kinds=args.kinds,
        store=args.store,
        workers=args.workers,
        time_steps=args.time_steps,
        timeout=args.timeout,
        retries=args.retries,
        shards=args.shards,
        shard_index=args.shard,
        shard_indices=args.shard_indices,
        top_k=args.top_k,
        interior_2d=args.interior_2d,
        interior_3d=args.interior_3d,
        progress=progress if args.verbose else None,
    )
    for key, value in outcome.as_row().items():
        print(f"  {key:>14}: {value}")
    if outcome.failed:
        for failure in outcome.failures:
            print(f"error: job failed: {failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Run a standing differential-fuzzing campaign over generated stencils."""
    from repro.stencils.generators import fuzz_stencil, parse_fuzz_name

    if args.show is not None:
        parsed = parse_fuzz_name(args.show)
        if parsed is None:
            print(
                f"error: {args.show!r} is not a fuzz stencil name "
                "(expected fuzz-SEED-INDEX)",
                file=sys.stderr,
            )
            return 2
        stencil = fuzz_stencil(*parsed)
        print(stencil.describe())
        print()
        print(stencil.source)
        return 0

    def progress(job, status):
        stream = sys.stdout if status == "ok" else sys.stderr
        print(f"  [{status}] {job.describe()}", file=stream)

    outcome, records = api.fuzz(
        seed=args.seed,
        count=args.count,
        gpus=args.gpus,
        store=args.store,
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        progress=progress if args.verbose else None,
    )
    diverged = 0
    for record in records:
        payload = record["payload"]
        passed = record["status"] == "ok" and payload.get("passed", False)
        if not passed:
            diverged += 1
        checks = payload.get("checks", [])
        verdict = "pass" if passed else ("DIVERGED" if checks else "ERROR")
        print(
            f"  {record['pattern']:<14} {record['dtype']:<6} {record['grid']:<10}"
            f" {len(checks)} checks  {verdict}"
        )
        if args.verbose or not passed:
            for check in checks:
                status = "ok" if check["passed"] else "FAIL"
                detail = f"  ({check['detail']})" if check.get("detail") else ""
                print(f"      [{status}] {check['check']}{detail}")
            if record["status"] != "ok":
                print(f"      error: {payload.get('error', record['status'])}")
    coverage = api.fuzz_coverage(args.store)
    if coverage:
        print("  coverage (family x check, from the store's fuzz rows):")
        for row in coverage:
            print(
                f"    {row['family']:<8} {row['check']:<26} "
                f"{row['passed']}/{row['runs']} passed"
            )
    for key, value in outcome.as_row().items():
        print(f"  {key:>14}: {value}")
    if outcome.failed:
        for failure in outcome.failures:
            print(f"error: job failed: {failure}", file=sys.stderr)
        return 1
    if diverged:
        print(
            f"error: {diverged} stencil(s) diverged; reproduce any of them with "
            f"'an5d fuzz --show fuzz-{args.seed}-INDEX'",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_campaign_watch(args: argparse.Namespace) -> int:
    """Consume one campaign's push stream: per-job lines as they land."""
    from repro.obs.top import stream_records

    query = f"?timeout={args.timeout}"
    if args.wait:
        query += "&wait=1"
    url = f"{args.url.rstrip('/')}/campaigns/{args.id}/stream{query}"
    finished = False
    failed = False
    for record in stream_records(url, timeout=max(args.timeout, 30.0)):
        event = record.get("event")
        if event == "stream_open":
            print(
                f"streaming campaign {record.get('campaign')} "
                f"(state: {record.get('state')})"
            )
            if record.get("state") in ("done", "failed"):
                finished = True
                failed = record.get("state") == "failed"
        elif event == "campaign_run_started":
            print(
                f"  run started: {record.get('pending')} pending of "
                f"{record.get('total')} ({record.get('cached')} cached)"
            )
        elif event == "job_finished":
            status = record.get("status")
            stream = sys.stdout if status == "ok" else sys.stderr
            print(
                f"  [{status}] {record.get('job')} ({record.get('elapsed_s')}s)",
                file=stream,
            )
        elif event == "campaign_run_finished":
            finished = True
            failed = not record.get("ok", False)
            print(
                f"run finished: ok={record.get('ok')} "
                f"executed={record.get('executed')} cached={record.get('cached')} "
                f"failed={record.get('failed')} in {record.get('duration_s')}s"
            )
        elif event == "campaign_failed":
            finished = True
            failed = True
            print(
                f"error: campaign failed: "
                f"{record.get('detail') or record.get('error_class')}",
                file=sys.stderr,
            )
        sys.stdout.flush()
    if not finished:
        print("error: stream ended before the campaign finished", file=sys.stderr)
        return 1
    return 1 if failed else 0


def _cmd_campaign_prune(args: argparse.Namespace) -> int:
    """List or drop results recorded under stale code versions."""
    from repro.campaign import ResultStore

    if not Path(args.store).exists():
        print(f"error: no campaign store at {args.store!r}", file=sys.stderr)
        return 2
    current = repro.__version__
    with ResultStore(args.store) as store:
        versions = store.code_versions()
        if args.code_version is None and not args.stale:
            # Pure listing: what is in the store, and what prune would drop.
            print(f"{'code version':<16} {'results':>8}  note")
            for version, count in versions.items():
                note = "current" if version == current else "stale"
                print(f"{version:<16} {count:>8}  {note}")
            return 0
        targets = list(args.code_version or [])
        if args.stale:
            targets.extend(v for v in versions if v != current)
        targets = [v for i, v in enumerate(targets) if v not in targets[:i]]
        if not targets:
            print("nothing to prune: every result is from the current code version")
            return 0
        # Validate every target before dropping anything: a guard tripping
        # mid-loop must not leave a partial, irreversible purge behind.
        if current in targets and not args.force:
            print(
                f"error: {current!r} is the current code version; "
                "pass --force to drop current results",
                file=sys.stderr,
            )
            return 2
        for version in targets:
            if version not in versions:
                print(f"  {version}: no results")
                continue
            if args.dry_run:
                print(f"  {version}: would drop {versions[version]} result(s)")
            else:
                dropped = store.purge_code_version(version)
                print(f"  {version}: dropped {dropped} result(s)")
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import ResultStore, campaign_summary

    if not Path(args.store).exists():
        print(f"error: no campaign store at {args.store!r}", file=sys.stderr)
        return 2
    with ResultStore(args.store) as store:
        print(campaign_summary(store).to_text())
        failed = store.count("failed")
    return 1 if failed else 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    if not Path(args.store).exists():
        print(f"error: no campaign store at {args.store!r}", file=sys.stderr)
        return 2
    options = {}
    if args.report == "leaderboard":
        options = {"gpu": args.gpu, "dtype": args.dtype, "top": args.top}
    elif args.report == "table5":
        options = {"value": args.value}
    table = api.campaign_report(args.store, report=args.report, **options)
    if args.output:
        path = table.save(args.output)
        print(f"wrote {len(table.rows)} rows to {path}")
    else:
        print(table.to_text())
    return 0


def _cmd_campaign_export(args: argparse.Namespace) -> int:
    from repro.campaign import ResultStore

    if not Path(args.store).exists():
        print(f"error: no campaign store at {args.store!r}", file=sys.stderr)
        return 2
    with ResultStore(args.store) as store:
        filters = {"kind": args.kind, "ok_only": not args.all}
        destination = Path(args.output)
        if destination.suffix in (".jsonl", ".json"):
            records = store.export_records(**filters)
            exporter = store.export_jsonl if destination.suffix == ".jsonl" else store.export_json
            path = exporter(destination, records=records)
            count = len(records)
        else:
            table = store.to_table(**filters)
            path = table.save(destination)
            count = len(table.rows)
    print(f"exported {count} result(s) to {path}")
    return 0


def _add_campaign_parsers(sub: argparse._SubParsersAction) -> None:
    campaign = sub.add_parser(
        "campaign", help="batch campaigns over the benchmark x GPU matrix"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    run_parser = campaign_sub.add_parser("run", help="run or resume a campaign")
    _add_matrix_arguments(run_parser)
    run_parser.add_argument("--store", default="campaign.sqlite")
    run_parser.add_argument("--workers", type=int, default=1)
    run_parser.add_argument("--timeout", type=float, default=None, help="per-job seconds")
    run_parser.add_argument("--retries", type=int, default=1)
    run_parser.add_argument("--shards", type=int, default=1)
    run_parser.add_argument("--shard", type=int, default=0, help="this worker's shard index")
    run_parser.add_argument(
        "--shard-indices", type=_parse_indices, default=None,
        help="own several shard indices of the partition, e.g. 0,2 (overrides --shard)",
    )
    run_parser.add_argument("--verbose", "-v", action="store_true")
    run_parser.set_defaults(func=_cmd_campaign_run)

    status_parser = campaign_sub.add_parser("status", help="summarise the result store")
    status_parser.add_argument("--store", default="campaign.sqlite")
    status_parser.set_defaults(func=_cmd_campaign_status)

    report_parser = campaign_sub.add_parser("report", help="render a report from the store")
    report_parser.add_argument("--store", default="campaign.sqlite")
    report_parser.add_argument(
        "--report", choices=("table5", "leaderboard", "accuracy", "summary"), default="table5"
    )
    report_parser.add_argument("--value", default="tuned_gflops", help="table5 cell field")
    report_parser.add_argument("--gpu", default=None)
    report_parser.add_argument("--dtype", default=None)
    report_parser.add_argument("--top", type=int, default=10)
    report_parser.add_argument("--output", "-o", help="save as .csv/.json/.jsonl/.md/.txt")
    report_parser.set_defaults(func=_cmd_campaign_report)

    export_parser = campaign_sub.add_parser("export", help="export raw results")
    export_parser.add_argument("--store", default="campaign.sqlite")
    export_parser.add_argument("--output", "-o", required=True)
    export_parser.add_argument("--kind", default=None, help="only one job kind")
    export_parser.add_argument(
        "--all", action="store_true", help="include failed results, not just ok"
    )
    export_parser.set_defaults(func=_cmd_campaign_export)

    watch_parser = campaign_sub.add_parser(
        "watch", help="tail one campaign's push stream (per-job completions)"
    )
    watch_parser.add_argument("id", help="campaign id (from POST /campaigns)")
    watch_parser.add_argument(
        "--url", default="http://127.0.0.1:8000", help="the serving instance"
    )
    watch_parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="stream lifetime cap in seconds (server-side)",
    )
    watch_parser.add_argument(
        "--wait", action="store_true",
        help="subscribe even before the id is known (stream ahead of submission)",
    )
    watch_parser.set_defaults(func=_cmd_campaign_watch)

    prune_parser = campaign_sub.add_parser(
        "prune", help="list or drop results from stale code versions"
    )
    prune_parser.add_argument("--store", default="campaign.sqlite")
    prune_parser.add_argument(
        "--code-version", action="append", default=None,
        help="drop results recorded under this code version (repeatable)",
    )
    prune_parser.add_argument(
        "--stale", action="store_true",
        help="drop results from every version except the current one",
    )
    prune_parser.add_argument(
        "--dry-run", action="store_true", help="report what would be dropped"
    )
    prune_parser.add_argument(
        "--force", action="store_true",
        help="allow dropping results of the current code version",
    )
    prune_parser.set_defaults(func=_cmd_campaign_prune)


def _cluster_config(args: argparse.Namespace, role: str):
    from repro.cluster import ClusterConfig, generate_instance_id

    return ClusterConfig(
        instance_id=args.instance_id or generate_instance_id(),
        role=role,
        heartbeat_interval=args.heartbeat_interval,
        liveness_timeout=args.liveness_timeout,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import CampaignServer, WorkerSettings

    event_log = getattr(args, "event_log", None)
    if event_log:
        from repro.obs import EVENTS

        EVENTS.configure(
            event_log,
            max_bytes=getattr(args, "event_log_max_bytes", None),
            keep_rotated=getattr(args, "event_log_keep", 3),
        )
    if getattr(args, "profile", False):
        from repro.obs import arm_profiler

        arm_profiler(hz=getattr(args, "profile_hz", None))
    role = getattr(args, "role", "worker")
    coordinator_url = getattr(args, "coordinator_url", None)
    cluster = None
    if coordinator_url is not None:
        # Wire-native worker: no filesystem access to the store — results
        # commit to the coordinator over HTTP, journaled locally while it
        # is unreachable.  Implies cluster membership in the worker role.
        if role != "worker":
            print(
                "error: --coordinator-url is a worker-only mode "
                "(coordinators need direct store access)",
                file=sys.stderr,
            )
            return 2
        cluster = _cluster_config(args, "worker")
        store = _wire_store(args, coordinator_url)
    else:
        if getattr(args, "cluster", False) or role != "worker":
            cluster = _cluster_config(args, role)
        store = args.store
    server = CampaignServer(
        host=args.host,
        port=args.port,
        store=store,
        settings=WorkerSettings(
            workers=args.workers,
            concurrency=args.concurrency,
            timeout=args.timeout,
            retries=args.retries,
            max_queued=getattr(args, "max_queued", None),
            reserve_interactive=getattr(args, "reserve_interactive", 0),
        ),
        quiet=not args.verbose,
        cluster=cluster,
        advertise_host=getattr(args, "advertise_host", None),
        telemetry_interval=getattr(args, "telemetry_interval", None),
        telemetry_keep=getattr(args, "telemetry_keep", 1000),
    )
    shown_store = server.app.store.path if coordinator_url is not None else args.store
    print(f"an5d campaign service on {server.url} (store: {shown_store})")
    if cluster is not None:
        print(f"cluster member {cluster.instance_id} (role: {cluster.role})")
    print("endpoints: POST /campaigns  GET /campaigns/{id}[/report|/export]  GET /healthz")
    print("fast path: POST /predict  POST /tune  (synchronous, hot-cached)")
    if cluster is not None and cluster.coordinates:
        print("cluster:   POST /cluster/campaigns  GET /cluster/status|/cluster/instances")
    sys.stdout.flush()
    try:
        server.run()
    finally:
        server.stop()
    return 0


def _wire_store(args: argparse.Namespace, coordinator_url: str):
    """Build the wire-native store an ``an5d serve --coordinator-url`` uses."""
    from repro.cluster.remote import RemoteStore

    journal = getattr(args, "journal", None)
    if journal is None:
        journal = f"an5d-worker-{os.getpid()}.journal.jsonl"
    return RemoteStore(
        coordinator_url,
        journal=journal,
        flush_interval=getattr(args, "flush_interval", 0.2),
        backoff_cap_s=getattr(args, "backoff_cap", 2.0),
    )


def _add_cluster_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--instance-id", default=None,
        help="stable cluster instance id (default: generated)",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=2.0,
        help="seconds between registry heartbeats",
    )
    parser.add_argument(
        "--liveness-timeout", type=float, default=10.0,
        help="heartbeat age beyond which an instance counts as dead",
    )
    parser.add_argument(
        "--advertise-host", default=None,
        help="address peers should dial (required sense when binding 0.0.0.0)",
    )


def _add_serve_parser(sub: argparse._SubParsersAction) -> None:
    serve_parser = sub.add_parser(
        "serve", help="serve campaigns over HTTP against a shared result store"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8000, help="0 = ephemeral port")
    serve_parser.add_argument("--store", default="campaign.sqlite")
    serve_parser.add_argument(
        "--workers", type=int, default=1,
        help="multiprocessing fan-out for scalar-simulator jobs",
    )
    serve_parser.add_argument(
        "--concurrency", type=int, default=2,
        help="campaigns the async worker overlaps",
    )
    serve_parser.add_argument("--timeout", type=float, default=None, help="per-job seconds")
    serve_parser.add_argument("--retries", type=int, default=1)
    serve_parser.add_argument(
        "--max-queued", type=int, default=None,
        help="admission control: reject campaign submissions beyond this "
        "many queued-or-running campaigns with 429 + Retry-After",
    )
    serve_parser.add_argument(
        "--reserve-interactive", type=int, default=0,
        help="concurrency slots reserved for small campaigns so an "
        "exhaustive sweep cannot monopolize the worker",
    )
    serve_parser.add_argument(
        "--cluster", action="store_true",
        help="join the store's cluster: register, heartbeat, accept shard assignments",
    )
    serve_parser.add_argument(
        "--role", choices=("worker", "coordinator", "both"), default="worker",
        help="cluster role (a non-worker role implies --cluster)",
    )
    serve_parser.add_argument(
        "--coordinator-url", default=None,
        help="wire-native worker: commit results to this coordinator over "
        "HTTP instead of opening --store (implies --cluster, worker role)",
    )
    serve_parser.add_argument(
        "--journal", default=None,
        help="wire-native spill journal path (default: an5d-worker-<pid>."
        "journal.jsonl); drained on reconnect, replayed after a crash",
    )
    serve_parser.add_argument(
        "--flush-interval", type=float, default=0.2,
        help="seconds between wire-commit journal flushes",
    )
    serve_parser.add_argument(
        "--backoff-cap", type=float, default=2.0,
        help="max seconds between flush retries while the coordinator is down",
    )
    serve_parser.add_argument(
        "--event-log", default=None,
        help="append structured JSONL events to this file (also honours the "
        "AN5D_EVENT_LOG environment variable)",
    )
    serve_parser.add_argument(
        "--event-log-max-bytes", type=int, default=None, metavar="BYTES",
        help="rotate the event-log file once it exceeds BYTES "
        "(<path>.1 ... <path>.N, oldest deleted)",
    )
    serve_parser.add_argument(
        "--event-log-keep", type=int, default=3, metavar="N",
        help="rotated event-log generations to keep (default: 3)",
    )
    serve_parser.add_argument(
        "--telemetry-interval", type=float, default=None, metavar="SECS",
        help="persist a metrics snapshot into the store's telemetry table "
        "every SECS seconds (surfaced by GET /telemetry/history and "
        "'an5d top --history')",
    )
    serve_parser.add_argument(
        "--telemetry-keep", type=int, default=1000, metavar="N",
        help="telemetry snapshots to retain (default: 1000)",
    )
    serve_parser.add_argument(
        "--profile", action="store_true",
        help="arm the sampling profiler: scheduler/engine hot paths record "
        "folded stacks, ready for GET /profile and 'an5d profile'",
    )
    serve_parser.add_argument(
        "--profile-hz", type=float, default=None,
        help="profiler sampling rate when armed (default: 97 Hz)",
    )
    _add_cluster_serve_arguments(serve_parser)
    serve_parser.add_argument("--verbose", "-v", action="store_true", help="log requests")
    serve_parser.set_defaults(func=_cmd_serve)


def _cmd_top_history(args: argparse.Namespace) -> int:
    import json

    from repro.obs.top import render_history

    store_path = getattr(args, "store", None)
    if store_path:
        # Offline mode: read the telemetry table straight from the store —
        # the post-run regression view needs no live server.
        from repro.campaign import ResultStore

        store = ResultStore(store_path)
        try:
            rows = store.telemetry_rows(limit=args.limit)
        finally:
            store.close()
        print(render_history(rows))
        return 0
    import urllib.request

    url = f"{args.url.rstrip('/')}/telemetry/history?limit={args.limit}"
    with urllib.request.urlopen(url, timeout=args.timeout) as response:
        payload = json.loads(response.read())
    print(
        render_history(
            payload.get("snapshots", []),
            payload.get("deltas"),
            payload.get("code_versions"),
        )
    )
    return 0


def _cmd_top_follow(args: argparse.Namespace) -> int:
    from repro.obs.top import collect, render, stream_records

    url = args.url.rstrip("/")
    rows = collect(url, timeout=args.timeout)
    print(render(rows))
    kinds = "job_finished,campaign_run_started,campaign_run_finished,campaign_failed"
    stream_url = f"{url}/events/stream?event={kinds}"
    print(f"following {stream_url} (ctrl-c to stop)")
    sys.stdout.flush()
    try:
        for record in stream_records(stream_url, timeout=max(args.timeout, 30.0)):
            event = record.get("event")
            if event == "job_finished":
                print(
                    f"  [{record.get('status')}] {record.get('job')} "
                    f"({record.get('elapsed_s')}s)"
                )
            elif event == "campaign_run_started":
                print(
                    f"  campaign {record.get('campaign', '?')}: "
                    f"{record.get('pending')} pending of {record.get('total')} "
                    f"({record.get('cached')} cached)"
                )
            else:  # terminal campaign events: refresh the cluster table
                print(f"  {event}: {record.get('campaign', '?')}")
                previous, rows = rows, collect(url, timeout=args.timeout)
                print(render(rows, previous=previous))
            sys.stdout.flush()
    except KeyboardInterrupt:  # pragma: no cover — interactive only
        pass
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.top import collect, render

    if args.history:
        return _cmd_top_history(args)
    if args.follow:
        return _cmd_top_follow(args)
    url = args.url.rstrip("/")
    rows = collect(url, timeout=args.timeout)
    print(render(rows))
    if not args.watch:
        return 0
    refreshed = 0
    try:
        while args.iterations <= 0 or refreshed < args.iterations:
            refreshed += 1
            _time.sleep(args.watch)
            previous, rows = rows, collect(url, timeout=args.timeout)
            # Clear + home, like top(1); rates come from the scrape deltas.
            print("\033[2J\033[H", end="")
            print(render(rows, previous=previous, interval_s=args.watch))
            sys.stdout.flush()
    except KeyboardInterrupt:  # pragma: no cover — interactive only
        pass
    return 0


def _add_top_parser(sub: argparse._SubParsersAction) -> None:
    top_parser = sub.add_parser(
        "top",
        help="cluster-wide throughput/queue/latency view scraped from /metrics",
    )
    top_parser.add_argument(
        "--url", default="http://127.0.0.1:8000",
        help="any cluster member (or solo server); instances are discovered "
        "from its /cluster/instances",
    )
    top_parser.add_argument(
        "--watch", type=float, default=0.0, metavar="SECS",
        help="refresh every SECS seconds (0 = one-shot)",
    )
    top_parser.add_argument(
        "--iterations", type=int, default=0,
        help="stop after N refreshes in --watch mode (0 = until interrupted)",
    )
    top_parser.add_argument("--timeout", type=float, default=5.0, help="scrape timeout")
    top_parser.add_argument(
        "--follow", action="store_true",
        help="push mode: render once, then tail the server's event stream "
        "(per-job completions as they land) instead of polling",
    )
    top_parser.add_argument(
        "--history", action="store_true",
        help="render the persisted telemetry snapshots and the "
        "regression-delta report across runs and code versions",
    )
    top_parser.add_argument(
        "--store", default=None,
        help="with --history: read the telemetry table from this store "
        "file directly instead of a live server",
    )
    top_parser.add_argument(
        "--limit", type=int, default=50,
        help="with --history: newest snapshots to show (default: 50)",
    )
    top_parser.set_defaults(func=_cmd_top)


def _cmd_profile(args: argparse.Namespace) -> int:
    """Sample a running service (or this process) into folded stacks."""
    if args.url:
        import urllib.request

        url = (
            f"{args.url.rstrip('/')}/profile?seconds={args.seconds}"
            + (f"&hz={args.hz}" if args.hz else "")
        )
        with urllib.request.urlopen(url, timeout=args.seconds + 30.0) as response:
            body = response.read().decode("utf-8")
            samples = response.headers.get("X-Profile-Samples", "?")
    else:
        from repro.obs import profile_for

        body, samples = profile_for(
            args.seconds, **({"hz": args.hz} if args.hz else {})
        )
        if body and not body.endswith("\n"):
            body += "\n"
    if args.output:
        Path(args.output).write_text(body, encoding="utf-8")
        print(f"{samples} samples over {args.seconds}s -> {args.output}")
    else:
        sys.stdout.write(body)
        print(f"# {samples} samples over {args.seconds}s", file=sys.stderr)
    return 0


def _add_profile_parser(sub: argparse._SubParsersAction) -> None:
    profile_parser = sub.add_parser(
        "profile",
        help="sampling profiler: folded stacks (flamegraph collapse format)",
    )
    profile_parser.add_argument(
        "--url", default="http://127.0.0.1:8000",
        help="service to sample via GET /profile ('' samples this process)",
    )
    profile_parser.add_argument(
        "--seconds", type=float, default=2.0, help="sampling window length"
    )
    profile_parser.add_argument(
        "--hz", type=float, default=None, help="sampling rate (default: 97 Hz)"
    )
    profile_parser.add_argument(
        "--output", "-o", default=None,
        help="write folded stacks here (pipe into flamegraph.pl)",
    )
    profile_parser.set_defaults(func=_cmd_profile)


# -- cluster subcommands ----------------------------------------------------------


def _cmd_cluster_up(args: argparse.Namespace) -> int:
    import time as _time

    cluster = api.cluster_up(
        store=args.store,
        instances=args.instances,
        host=args.host,
        workers=args.workers,
        concurrency=args.concurrency,
        timeout=args.timeout,
        retries=args.retries,
        standbys=args.standbys,
        wire_workers=args.wire_workers,
        workdir=args.workdir,
    )
    try:
        print(f"an5d cluster on {cluster.url} (store: {args.store})")
        for standby in cluster.standbys:
            print(f"  standby {standby.app.cluster.instance_id} on {standby.url}")
        for worker in cluster.workers:
            kind = "wire worker" if args.wire_workers else "worker"
            print(f"  {kind} {worker.app.cluster.instance_id} on {worker.url}")
        print(
            f"submit: an5d cluster submit --url {cluster.url} ...   "
            f"status: an5d cluster status --url {cluster.url}"
        )
        sys.stdout.flush()
        try:
            while True:
                _time.sleep(1.0)
        except KeyboardInterrupt:  # pragma: no cover — interactive only
            pass
    finally:
        cluster.stop()
    return 0


def _print_cluster_status(payload: dict) -> None:
    print(f"{'instance':<28} {'role':<12} {'live':<5} {'age_s':>7}  url")
    for instance in payload.get("instances", ()):
        print(
            f"{instance['instance_id']:<28} {instance['role']:<12} "
            f"{str(instance['live']).lower():<5} {instance['heartbeat_age_s']:>7}  "
            f"{instance['url']}"
        )
    submissions = payload.get("submissions", ())
    if not submissions:
        print("no submissions")
        return
    for submission in submissions:
        jobs = submission["jobs"]
        print(
            f"submission {submission['id']}: {submission['state']} "
            f"({jobs['done']}/{jobs['total']} done, {jobs['failed']} failed, "
            f"{jobs['pending']} pending; {submission['shards']} shard(s))"
        )
        for iid, slice_ in submission.get("instances", {}).items():
            progress = slice_["progress"]
            indices = "+".join(str(i) for i in slice_["shard_indices"])
            print(
                f"  {iid:<26} shards {indices:<8} "
                f"{progress['done']}/{progress['total']} done, "
                f"{progress['failed']} failed, {progress['pending']} pending"
            )


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterClient, ClusterError

    if args.url:
        try:
            payload = ClusterClient().cluster_status(args.url.rstrip("/"))
        except ClusterError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        from repro.campaign import ResultStore
        from repro.cluster import ClusterCoordinator, InstanceRegistry

        if not Path(args.store).exists():
            print(f"error: no campaign store at {args.store!r}", file=sys.stderr)
            return 2
        with ResultStore(args.store) as store:
            registry = InstanceRegistry(store, liveness_timeout=args.liveness_timeout)
            payload = ClusterCoordinator(store, registry).status()
    _print_cluster_status(payload)
    return 0


def _cmd_cluster_submit(args: argparse.Namespace) -> int:
    import time as _time

    from repro.cluster import ClusterClient, ClusterError

    spec = _campaign_spec(args)
    # The coordinator forwards shards inline before answering, and each
    # wedged peer may cost it several seconds — be patient, not transient.
    client = ClusterClient(timeout=60.0)
    base = args.url.rstrip("/")
    try:
        submitted = client.submit(base, spec)
    except ClusterError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"submitted {submitted['id']}: {submitted['describe']}")
    jobs = submitted["jobs"]
    print(f"  state: {submitted['state']}  jobs: {jobs['total']}  shards: {submitted['shards']}")
    if not args.wait:
        return 0
    deadline = _time.monotonic() + args.poll_timeout
    status = submitted
    while _time.monotonic() < deadline:
        try:
            status = client.submission_status(base, submitted["id"])
        except ClusterError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if status["state"] in ("done", "failed"):
            break
        _time.sleep(0.2)
    jobs = status["jobs"]
    print(
        f"  final: {status['state']}  done: {jobs['done']}/{jobs['total']}  "
        f"failed: {jobs['failed']}  pending: {jobs['pending']}"
    )
    if status["state"] != "done":
        return 1
    return 0


def _add_cluster_parsers(sub: argparse._SubParsersAction) -> None:
    cluster = sub.add_parser(
        "cluster", help="many serve instances cooperating on one store"
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    up_parser = cluster_sub.add_parser(
        "up", help="boot N workers + a coordinator in one process"
    )
    up_parser.add_argument("--instances", type=int, default=2)
    up_parser.add_argument("--host", default="127.0.0.1")
    up_parser.add_argument("--store", default="campaign.sqlite")
    up_parser.add_argument("--workers", type=int, default=1)
    up_parser.add_argument("--concurrency", type=int, default=2)
    up_parser.add_argument("--timeout", type=float, default=None)
    up_parser.add_argument("--retries", type=int, default=1)
    up_parser.add_argument(
        "--standbys", type=int, default=0,
        help="extra coordinator instances contending on the failover lease",
    )
    up_parser.add_argument(
        "--wire-workers", action="store_true",
        help="workers get no store access: they commit results over HTTP "
        "with a local journal (the fault-tolerant topology)",
    )
    up_parser.add_argument(
        "--workdir", default=None,
        help="directory for wire-worker journals (default: the store's)",
    )
    up_parser.set_defaults(func=_cmd_cluster_up)

    coordinator_parser = cluster_sub.add_parser(
        "coordinator", help="run a dedicated coordinator instance"
    )
    coordinator_parser.add_argument("--host", default="127.0.0.1")
    coordinator_parser.add_argument("--port", type=int, default=8000)
    coordinator_parser.add_argument("--store", default="campaign.sqlite")
    coordinator_parser.add_argument("--workers", type=int, default=1)
    coordinator_parser.add_argument("--concurrency", type=int, default=2)
    coordinator_parser.add_argument("--timeout", type=float, default=None)
    coordinator_parser.add_argument("--retries", type=int, default=1)
    _add_cluster_serve_arguments(coordinator_parser)
    coordinator_parser.add_argument("--verbose", "-v", action="store_true")
    coordinator_parser.set_defaults(func=_cmd_serve, cluster=True, role="coordinator")

    status_parser = cluster_sub.add_parser(
        "status", help="instances, liveness and submission progress"
    )
    status_parser.add_argument("--url", default=None, help="any cluster member's base URL")
    status_parser.add_argument("--store", default="campaign.sqlite")
    status_parser.add_argument("--liveness-timeout", type=float, default=10.0)
    status_parser.set_defaults(func=_cmd_cluster_status)

    submit_parser = cluster_sub.add_parser(
        "submit", help="submit a campaign to the coordinator"
    )
    submit_parser.add_argument("--url", required=True, help="the coordinator's base URL")
    _add_matrix_arguments(submit_parser)
    submit_parser.add_argument(
        "--wait", action="store_true", help="poll until the campaign settles"
    )
    submit_parser.add_argument(
        "--poll-timeout", type=float, default=600.0, help="seconds to wait with --wait"
    )
    submit_parser.set_defaults(func=_cmd_cluster_submit)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="an5d",
        description="AN5D reproduction: stencil compilation, tuning and evaluation",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {repro.__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark stencils").set_defaults(func=_cmd_list)

    compile_parser = sub.add_parser("compile", help="generate CUDA code for a stencil")
    compile_parser.add_argument("stencil", help="benchmark name or path to a C source file")
    compile_parser.add_argument("--dtype", choices=("float", "double"), default="float")
    compile_parser.add_argument("--output", "-o", help="write the generated code to a file")
    _add_blocking_arguments(compile_parser)
    compile_parser.set_defaults(func=_cmd_compile)

    tune_parser = sub.add_parser("tune", help="autotune a benchmark stencil")
    tune_parser.add_argument("stencil")
    tune_parser.add_argument("--gpu", default="V100")
    tune_parser.add_argument("--dtype", choices=("float", "double"), default="float")
    tune_parser.add_argument("--time-steps", type=int, default=1000)
    tune_parser.set_defaults(func=_cmd_tune)

    exhaustive_parser = sub.add_parser(
        "exhaustive", help="sweep the entire pruned search space"
    )
    exhaustive_parser.add_argument("stencil")
    exhaustive_parser.add_argument("--gpu", default="V100")
    exhaustive_parser.add_argument("--dtype", choices=("float", "double"), default="float")
    exhaustive_parser.add_argument("--time-steps", type=int, default=1000)
    exhaustive_parser.set_defaults(func=_cmd_exhaustive)

    predict_parser = sub.add_parser("predict", help="model + simulator prediction")
    predict_parser.add_argument("stencil")
    predict_parser.add_argument("--gpu", default="V100")
    predict_parser.add_argument("--dtype", choices=("float", "double"), default="float")
    _add_blocking_arguments(predict_parser)
    predict_parser.set_defaults(func=_cmd_predict)

    verify_parser = sub.add_parser("verify", help="verify blocked execution vs reference")
    verify_parser.add_argument("stencil")
    verify_parser.add_argument("--dtype", choices=("float", "double"), default="float")
    verify_parser.add_argument("--time-steps", type=int, default=8)
    _add_blocking_arguments(verify_parser)
    verify_parser.set_defaults(func=_cmd_verify)

    compare_parser = sub.add_parser("compare", help="compare against baseline frameworks")
    compare_parser.add_argument("stencil")
    compare_parser.add_argument("--gpu", default="V100")
    compare_parser.add_argument("--dtype", choices=("float", "double"), default="float")
    compare_parser.set_defaults(func=_cmd_compare)

    fuzz_parser = sub.add_parser(
        "fuzz", help="differential fuzzing over seeded random stencils"
    )
    fuzz_parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed; fixes every generated stencil"
    )
    fuzz_parser.add_argument(
        "--count", type=int, default=20, help="number of stencils to draw from the seed"
    )
    fuzz_parser.add_argument("--gpus", type=_parse_names, default=("V100",))
    fuzz_parser.add_argument("--store", default="campaign.sqlite")
    fuzz_parser.add_argument("--workers", type=int, default=1)
    fuzz_parser.add_argument("--timeout", type=float, default=None, help="per-job seconds")
    fuzz_parser.add_argument("--retries", type=int, default=1)
    fuzz_parser.add_argument(
        "--show",
        metavar="NAME",
        default=None,
        help="print the generated C source for a fuzz-SEED-INDEX name and exit",
    )
    fuzz_parser.add_argument("--verbose", "-v", action="store_true")
    fuzz_parser.set_defaults(func=_cmd_fuzz)

    _add_campaign_parsers(sub)
    _add_serve_parser(sub)
    _add_top_parser(sub)
    _add_profile_parser(sub)
    _add_cluster_parsers(sub)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout consumer (e.g. `head`) went away; exit quietly without the
        # interpreter's "Exception ignored" noise on shutdown.
        sys.stderr.close()
        return 1
    except (KeyError, ValueError, ConfigurationError, OSError) as error:
        # A request that could not be carried out (unknown benchmark/GPU,
        # invalid configuration, empty search space, unreadable store, ...)
        # exits 2 with the diagnostic on stderr instead of a traceback on
        # stdout; work that ran and failed returns 1 from its own handler.
        message = error.args[0] if error.args and isinstance(error.args[0], str) else error
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
