"""The ``service_mixed`` workload: an open-loop client against ``an5d serve``.

Each round boots a fresh server process on a fresh store (``server.py``),
fills its caches with one untimed pass over the distinct reads, then
alternates short warm closed-loop slices with segments of a fixed open-loop
schedule, all from this single thread over one keep-alive connection.  The
host's speed moves from one second to the next, so both measurements are
spread over the whole round instead of each taking one stretch of it.
Open-loop latency is timed from each request's *due* time, so a stall also
charges the requests queued behind it.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import draws

HERE = Path(__file__).resolve().parent

#: Open-loop arrival rate (requests/s).  A warm keep-alive connection on a
#: 2-vCPU host serves about 1,400 reads/s (warm_ms near 0.7 ms); 200/s keeps
#: the server about one-seventh busy, so p50 reads service time, not a queue.
RATE_PER_S = 200.0
#: Server processes per run.  A process can run fast or slow for its whole
#: life on a shared host; six give the medians enough rounds to be steady.
ROUNDS = 6
#: Warm slices (and open-loop segments) per round, and the length of a slice.
SLICES = 4
WARM_SLICE_S = 0.3
#: Request mix of the open loop (shares of the schedule).
MIX = (("predict", 0.80), ("tune", 0.10), ("report", 0.08), ("submit", 0.02))
#: /predict answers re-derived with ``run_job`` per round.
CORRECTNESS_SAMPLE = 8
#: Cache names whose hit ratios the traced run reports.  (``hot_batch`` is
#: consulted only on a miss in these, which the open loop never has.)
HOT_CACHES = ("hot_predict", "hot_tune")
ROUTES = {"predict": "predict_endpoint", "tune": "tune_endpoint",
          "report": "campaign_report", "submit": "submit_campaign"}


class Tally:
    """Operations attempted and passed, with the first failures described."""

    def __init__(self) -> None:
        self.attempted = 0
        self.passed = 0
        self.failures: List[str] = []

    def record(self, ok: bool, failure: str) -> None:
        self.attempted += 1
        if ok:
            self.passed += 1
        else:
            self.failures.append(failure)


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=30)

    def send(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, bytes]:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # reconnects on the next request
            return 0, b""

    def close(self) -> None:
        self.conn.close()


def _start_server(store: Path, trace: int, layers_out: Path, env: dict):
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "server.py"), "--store", str(store),
         "--trace", str(trace), "--layers-out", str(layers_out)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True,
    )
    url = None
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith("an5d campaign service on "):
                url = line.split()[4]
                break
        if url is None:
            raise RuntimeError("server did not report its URL")
    except BaseException:
        _stop_server(proc)
        raise
    host, port = url.split("//", 1)[1].rstrip("/").split(":")
    return proc, host, int(port)


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15)
    if proc.stdout is not None:
        proc.stdout.close()


def _vm_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def _scrape(client: Client) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    from repro.obs.metrics import parse_prometheus

    status, body = client.send("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return parse_prometheus(body.decode())


def _sample(scrape, name: str, **labels: str) -> float:
    return sum(
        value for got, value in scrape.get(name, ())
        if all(got.get(k) == v for k, v in labels.items())
    )


def _delta(scrapes, name: str, **labels: str) -> float:
    """The change of a sample summed over ``(before, after)`` scrape pairs."""
    return sum(
        _sample(after, name, **labels) - _sample(before, name, **labels)
        for before, after in scrapes
    )


def _hit_ratio(scrapes, cache: str) -> float:
    hits = _delta(scrapes, "cache_hits_total", cache=cache)
    misses = _delta(scrapes, "cache_misses_total", cache=cache)
    return hits / (hits + misses) if hits + misses else 0.0


def _schedule(seed: int, round_index: int, count: int, reads) -> List[Tuple[str, object]]:
    rng = random.Random(f"perfbench-service-schedule:{seed}:{round_index}")
    kinds = [kind for kind, _ in MIX]
    weights = [share for _, share in MIX]
    predicts = [r for r in reads if r.route == "predict"]
    tunes = [r for r in reads if r.route == "tune"]
    out = []
    writes = 0
    for _ in range(count):
        kind = rng.choices(kinds, weights)[0]
        if kind == "predict":
            out.append((kind, rng.choice(predicts)))
        elif kind == "tune":
            out.append((kind, rng.choice(tunes)))
        elif kind == "report":
            out.append((kind, None))
        else:
            out.append((kind, draws.write_campaign(seed, writes)))
            writes += 1
    return out


def _wait_campaign(client: Client, cid: str, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = client.send("GET", f"/campaigns/{cid}")
        if status == 200 and json.loads(body).get("state") in ("done", "failed"):
            return json.loads(body)["state"] == "done"
        time.sleep(0.02)
    return False


def _warm_slice(client: Client, warm_reads, index: int, seconds: float,
                tally: Tally) -> Tuple[float, int]:
    """Closed-loop reads, one at a time, cycling on from ``index`` for ``seconds``.

    Returns the slice's median read in ms and where the cycle stopped.
    """
    warm = []
    spent = 0.0
    while spent < seconds:
        method, path, body = warm_reads[index % len(warm_reads)]
        began = time.perf_counter()
        status, _ = client.send(method, path, body)
        warm.append(time.perf_counter() - began)
        spent += warm[-1]
        tally.record(200 <= status < 300, f"warm {path} answered {status}")
        index += 1
    return 1000.0 * statistics.median(warm), index


class OpenLoop:
    """Sends the open-loop schedule segment by segment and keeps what it saw."""

    def __init__(self, client: Client, report_path: str, tally: Tally) -> None:
        self.client = client
        self.report_path = report_path
        self.tally = tally
        self.latencies: Dict[str, List[float]] = {kind: [] for kind, _ in MIX}
        self.all_ms: List[float] = []
        self.sent_ms: List[float] = []
        self.lags: List[float] = []
        self.predict_answers = []
        self.seconds = 0.0
        #: ``(before, after)`` /metrics scrapes around each segment.
        self.scrapes = []

    def send(self, segment) -> None:
        before = _scrape(self.client)
        start = time.perf_counter() + 0.01
        for i, (kind, payload) in enumerate(segment):
            due = start + i / RATE_PER_S
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            sent = time.perf_counter()
            if kind == "report":
                status, body = self.client.send("GET", self.report_path)
            elif kind == "submit":
                status, body = self.client.send("POST", "/campaigns", payload)
            else:
                status, body = self.client.send(payload.method, payload.path, payload.body)
            done = time.perf_counter()
            ok = 200 <= status < 300
            self.tally.record(ok, f"{kind} answered {status}")
            latency = 1000.0 * (done - due)
            self.latencies[kind].append(latency)
            self.all_ms.append(latency)
            self.sent_ms.append(1000.0 * (done - sent))
            self.lags.append(1000.0 * (sent - due))
            if kind == "predict" and ok:
                self.predict_answers.append((payload.body, body))
        self.seconds += time.perf_counter() - start
        self.scrapes.append((before, _scrape(self.client)))


def run_round(seed: int, round_index: int, open_seconds: float, trace: int,
              quick: bool, workdir: Path, env: dict) -> dict:
    reads = draws.service_reads(seed, quick)
    store = workdir / f"service-{round_index}.sqlite"
    layers_out = workdir / f"server-layers-{round_index}.json"
    t0 = time.monotonic()
    proc, host, port = _start_server(store, trace, layers_out, env)
    tally = Tally()
    try:
        client = Client(host, port)
        while client.send("GET", "/healthz")[0] != 200:
            if time.monotonic() - t0 > 30:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)

        # Untimed cache-fill pass: the report campaign, then every distinct read.
        status, body = client.send("POST", "/campaigns", draws.report_campaign(quick))
        report_path = None
        if status == 202:
            cid = json.loads(body)["id"]
            report_path = f"/campaigns/{cid}/report"
            tally.record(_wait_campaign(client, cid), "report campaign did not finish")
        else:
            tally.record(False, f"report campaign submit answered {status}")
        for request in reads:
            status = client.send(request.method, request.path, request.body)[0]
            tally.record(200 <= status < 300, f"fill {request.path} answered {status}")
        if report_path is None:
            raise RuntimeError("report campaign was not accepted")
        setup_s = time.monotonic() - t0

        # Warm closed-loop slices alternating with segments of the open loop.
        warm_reads = [(r.method, r.path, r.body) for r in reads] + [("GET", report_path, None)]
        schedule = _schedule(seed, round_index, max(20, int(RATE_PER_S * open_seconds)), reads)
        segment = -(-len(schedule) // SLICES)
        open_loop = OpenLoop(client, report_path, tally)
        warm_slices: List[float] = []
        index = 0
        for first in range(0, len(schedule), segment):
            median_ms, index = _warm_slice(client, warm_reads, index,
                                           0.1 if quick else WARM_SLICE_S, tally)
            warm_slices.append(median_ms)
            open_loop.send(schedule[first:first + segment])
        if index < len(warm_reads):
            raise RuntimeError("the warm slices did not cover every distinct read")
        rss_mb = _vm_hwm_mb(proc.pid)
        client.close()
    finally:
        _stop_server(proc)

    # Correctness: a seeded sample of /predict answers against run_job.
    from repro.campaign.jobs import JobSpec, run_job

    rng = random.Random(f"perfbench-service-check:{seed}:{round_index}")
    for request, body in rng.sample(open_loop.predict_answers,
                                  min(CORRECTNESS_SAMPLE, len(open_loop.predict_answers))):
        spec = JobSpec(
            kind="predict", pattern=request["pattern"], gpu=request["gpu"],
            dtype=request["dtype"], interior=tuple(request["interior"]),
            time_steps=request["time_steps"],
            params=(("bT", request["bT"]), ("bS", tuple(request["bS"]))),
        )
        answer = json.loads(body)
        tally.record(
            answer.get("key") == spec.key() and answer.get("result") == run_job(spec),
            f"/predict answer differs from run_job for {spec.describe()}",
        )

    server_ms = {}
    for kind, route in ROUTES.items():
        seconds = _delta(open_loop.scrapes, "request_seconds_sum", route=route)
        calls = _delta(open_loop.scrapes, "request_seconds_count", route=route)
        server_ms[kind] = 1000.0 * seconds / calls if calls else 0.0
    server_total = sum(
        _delta(open_loop.scrapes, "request_seconds_sum", route=route) for route in ROUTES.values()
    )
    layers = {
        "latency_samples": len(open_loop.all_ms),
        "service.generator_lag_ms": statistics.fmean(open_loop.lags),
        "service.client_minus_server_ms": (statistics.fmean(open_loop.sent_ms)
                                           - 1000.0 * server_total / len(open_loop.sent_ms)),
        "service.report_cache_hit_ratio": _hit_ratio(open_loop.scrapes, "report"),
        "trace.layer_share": 1000.0 * server_total / sum(open_loop.sent_ms),
    }
    for kind in ROUTES:
        layers[f"service.server_request_ms.{kind}"] = server_ms[kind]
        layers[f"service.p50_ms.{kind}"] = (statistics.median(open_loop.latencies[kind])
                                          if open_loop.latencies[kind] else 0.0)
    for cache in HOT_CACHES:
        layers[f"service.hot_hit_ratio.{cache}"] = _hit_ratio(open_loop.scrapes, cache)
    if trace:
        dumped = json.loads(layers_out.read_text())
        layers.update(dumped["layers"])
        layers["trace.missing_hooks"] = len(dumped["missing_hooks"])
    return {
        "setup_s": setup_s,
        "wall_s": open_loop.seconds,
        "warm_ms": statistics.fmean(warm_slices),
        "warm_slices_ms": warm_slices,
        "p50_ms": statistics.median(open_loop.all_ms),
        "latency_ms": open_loop.all_ms,
        "samples": len(open_loop.all_ms),
        "peak_rss_mb": rss_mb,
        "attempted": tally.attempted,
        "passed": tally.passed,
        "failures": tally.failures[:10],
        "layers": layers,
    }


def p99(latency_ms: List[float]) -> float:
    """The 99th percentile of the pooled samples; run.py pools every round,
    so at least ten samples lie beyond it."""
    ordered = sorted(latency_ms)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
