"""The repository benchmark: three seeded workloads, each timed in fresh processes.

Usage, from the repository root::

    python3 perfbench/run.py --workload table5_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # every metric, as a table
    python3 perfbench/run.py --selftest                      # toy sizes, asserts the contract
    python3 perfbench/run.py --write-benchmark-json          # regenerate BENCHMARK.json

A single-workload run prints, as its last stdout line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
traced run alternates untraced and traced passes, so it also reports the
tracing overhead.  Workloads, metrics and bounds are declared in ``spec.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

import service  # noqa: E402  (benchmark-local modules)
import spec  # noqa: E402

#: Passes per run at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Warm-loop length inside one in-process pass.
WARM_SECONDS = 1.0
PASS_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    pass


def _env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(tmp)
    return env


def _fresh_dir(parent: Path, name: str) -> Path:
    path = parent / name
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# In-process workloads: one fresh interpreter per pass
# ---------------------------------------------------------------------------


def _inproc_pass(workload: str, seed: int, trace: int, quick: bool, tmp: Path) -> dict:
    env = _env(tmp)
    t0 = time.monotonic()
    command = [
        sys.executable, str(HERE / "inproc.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(trace), "--t0", repr(t0),
        "--warm-seconds", str(0.2 if quick else WARM_SECONDS),
    ]
    if quick:
        command.append("--quick")
    proc = subprocess.run(
        command, capture_output=True, text=True, env=env, timeout=PASS_TIMEOUT_S, cwd=str(tmp)
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} pass failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _service_pass(seed: int, index: int, trace: int, quick: bool, seconds: float,
                  tmp: Path) -> dict:
    # A round spends about 2.3 s booting, filling and scraping, plus its warm slices.
    overhead = 2.3 + service.SLICES * service.WARM_SLICE_S
    open_seconds = 1.0 if quick else max(1.0, seconds / service.ROUNDS - overhead)
    return service.run_round(seed, index, open_seconds, trace, quick, tmp, _env(tmp))


def _passes(workload: str, seed: int, seconds: float, trace: int, quick: bool, work: Path):
    """Run passes until ``seconds`` have gone; traced runs alternate trace off/on."""
    results = []
    start = time.monotonic()
    index = 0
    while True:
        pass_trace = (index % 2) if trace else 0
        tmp = _fresh_dir(work, f"pass-{index}")
        if workload == "service_mixed":
            result = _service_pass(seed, index, pass_trace, quick, seconds, tmp)
        else:
            result = _inproc_pass(workload, seed, pass_trace, quick, tmp)
        result["traced"] = pass_trace
        results.append(result)
        shutil.rmtree(tmp, ignore_errors=True)
        index += 1
        if workload == "service_mixed":
            if index >= (2 if quick else service.ROUNDS):
                break
        elif index >= (2 if quick else MIN_PASSES) and time.monotonic() - start >= seconds:
            if not trace or index % 2 == 0:
                break
    return results


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _median(results, key):
    return statistics.median(r.get(key, 0) for r in results)


def _pooled(results, key):
    return [value for r in results for value in r[key]]


def _counts(results):
    attempted = sum(r["attempted"] for r in results)
    passed = sum(r["passed"] for r in results)
    probe_attempted = sum(r.get("probe_attempted", 0) for r in results)
    probe_passed = sum(r.get("probe_passed", 0) for r in results)
    return attempted, passed, probe_attempted, probe_passed


def _per_op_medians(results, key):
    """Each operation's median over the passes (every pass runs the same operations)."""
    return [statistics.median(samples) for samples in zip(*(r[key] for r in results))]


def _wall_and_p50(results):
    """``(wall_s, p50_ms)`` of a set of passes.

    In-process passes time each operation; wall_s sums every operation's
    median over the passes, so a noisy-neighbour spike in one pass moves one
    sample of one operation instead of that pass's total.  For service
    passes, wall_s is the median pass and p50_ms the median of every
    open-loop sample of every pass.
    """
    if "op_ms" not in results[0]:
        return _median(results, "wall_s"), statistics.median(_pooled(results, "latency_ms"))
    per_op = _per_op_medians(results, "op_ms")
    if results[0]["op_latency"] == "completion":
        latencies = list(itertools.accumulate(per_op))
    else:
        latencies = per_op
    return sum(per_op) / 1000.0, statistics.median(latencies)


def end_to_end(results) -> dict:
    attempted, passed, probe_attempted, probe_passed = _counts(results)
    values = {name: _median(results, name) for name in ("setup_s", "warm_ms", "peak_rss_mb")}
    values["wall_s"], values["p50_ms"] = _wall_and_p50(results)
    if "warm_op_ms" in results[0]:
        values["warm_ms"] = statistics.fmean(_per_op_medians(results, "warm_op_ms"))
    if "warm_slices_ms" in results[0]:
        values["warm_ms"] = statistics.fmean(_pooled(results, "warm_slices_ms"))
    values["ok_fraction"] = (passed + probe_passed) / (attempted + probe_attempted)
    return values


def per_layer(workload: str, results) -> dict:
    traced = [r for r in results if r["traced"]]
    untraced = [r for r in results if not r["traced"]]
    names = [name for name, _, _ in spec.PER_LAYER]
    values = {}
    for name in names:
        samples = [r.get("layers", {}).get(name, 0.0) for r in traced]
        values[name] = statistics.median(samples)
    values["latency_samples"] = _median(traced, "samples")
    if "latency_ms" in traced[0]:
        pooled = _pooled(traced, "latency_ms")
        values["service.p99_ms"] = service.p99(pooled)
        values["latency_samples"] = len(pooled)
    values["limits.probe_passed"] = _median(traced, "probe_passed")
    untraced_wall = _wall_and_p50(untraced)[0]
    values["trace.overhead_s"] = _wall_and_p50(traced)[0] - untraced_wall
    if workload in spec.SHARE_LAYERS:
        values["trace.layer_share"] = sum(
            values[name] for name in spec.SHARE_LAYERS[workload]
        ) / untraced_wall
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: int, quick: bool = False) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources under {ROOT / 'src'}")
    scratch = ROOT / ".perfbench_tmp"
    work = _fresh_dir(scratch, f"{os.getpid()}-{workload}-{time.time_ns()}")
    try:
        results = _passes(workload, seed, seconds, trace, quick, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    attempted, passed, _, _ = _counts(results)
    if trace:
        metrics = per_layer(workload, results)
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
    else:
        metrics = end_to_end(results)
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    return {
        "correct": passed == attempted,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "passes": results,
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _print_table(workload: str, result: dict) -> None:
    print(f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} passes={len(result['passes'])}")
    for name, metric in result["metrics"].items():
        print(f"   {name:40s} {metric['value']:14.6g} {metric['unit']}")


def run_all(seconds: float, seed: int, trace: int, quick: bool = False) -> dict:
    """Every workload; the table also shows the workload-specific extras."""
    results = {}
    for workload, _ in spec.WORKLOADS:
        result = run_workload(workload, seed, seconds, trace, quick)
        passes = result["passes"]
        if not trace:
            extras = {"latency_samples": ("count", _median(passes, "samples"))}
            if workload == "compile_verify":
                extras["cuda_kb"] = ("KiB", _median(passes, "cuda_kb"))
            if workload == "service_mixed":
                extras["p99_ms"] = ("ms", service.p99(_pooled(passes, "latency_ms")))
                extras["latency_samples"] = ("count", len(_pooled(passes, "latency_ms")))
            for name, (unit, value) in extras.items():
                result["metrics"][name] = {"value": value, "unit": unit}
        _print_table(workload, result)
        results[workload] = result
    return results


def selftest() -> int:
    """Toy-size run of every workload, traced and untraced, checking the contract."""
    def files():
        return {
            p.relative_to(ROOT) for p in ROOT.rglob("*")
            if "__pycache__" not in p.parts and ".git" not in p.parts
        }

    before = files()
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json(), "BENCHMARK.json differs from spec.py"
    assert set(spec.LAYER_MAP) == {name for name, _, _ in spec.PER_LAYER}, "layer map incomplete"
    workloads = {name for name, _ in spec.WORKLOADS}
    for name, _, _, _ in spec.END_TO_END:
        assert set(spec.END_TO_END_MEANING[name]) == workloads, f"{name}: meaning incomplete"
    for trace in (0, 1):
        for workload, result in run_all(1.0, 1, trace, quick=True).items():
            declared = spec.PER_LAYER if trace else spec.END_TO_END
            for entry in declared:
                name, unit = entry[0], entry[1]
                metric = result["metrics"].get(name)
                assert metric is not None, f"{workload}: {name} missing"
                assert metric["unit"] == unit, f"{workload}: {name} unit {metric['unit']}"
                assert isinstance(metric["value"], (int, float)), f"{workload}: {name} not a number"
            assert result["attempted"] > 0, f"{workload}: no correctness checks ran"
            assert result["correct"], f"{workload}: outputs failed their checks"
            if trace:
                assert result["metrics"]["trace.missing_hooks"]["value"] == 0, \
                    f"{workload}: layer hooks no longer match the program"
            else:
                assert result["metrics"]["ok_fraction"]["value"] > 0, workload
    after = files()
    assert after == before, f"files left behind: {sorted(map(str, after ^ before))}"
    print("selftest ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [name for name, _ in spec.WORKLOADS]
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so it stops the servers and passes it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.write_benchmark_json:
            text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
            (ROOT / "BENCHMARK.json").write_text(text)
            return 0
        if args.workload is None and not args.selftest:
            parser.error("--workload is required")
        if args.selftest:
            return selftest()
        if args.workload == "all":
            run_all(args.seconds, args.seed, args.trace)
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchmarkError, subprocess.TimeoutExpired, OSError, RuntimeError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    bulky = ("layers", "op_ms", "warm_op_ms", "latency_ms")
    for entry in result.pop("passes"):
        print(json.dumps({k: v for k, v in entry.items() if k not in bulky}), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
