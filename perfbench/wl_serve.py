"""The ``serve-small`` and ``serve-mixed`` workloads: the partition daemon.

Both start ``repro-partition serve --socket ... --workers 2 --state-dir
...`` with its other settings at their defaults (5 ms batch window,
verify gate and obs on) and drive it from this one process.

* ``serve-small``: an open loop at ``RATE`` requests/s.  Each request
  is a std-cell clustered netlist of the netlist160 shape from a pinned
  pool, partitioned by ``algorithm1`` at the service defaults; every
  third request (after the first ten) repeats an earlier body, so it is
  answered from the cache, and the others are new.  ``--seed`` orders
  the pool and picks the repeats.  Compute is a few ms of a ~28 ms
  miss: the service layers dominate.
* ``serve-mixed``: the same small stream, and beside it a closed loop of
  requests for the pinned random10k instance (the engines workload's),
  each with a fresh ``settings.seed`` so every one is a miss.  A slow
  request then shares the worker pool and the batch-synchronous broker
  with fast ones.  A diagnostic, left out of ``BENCHMARK.json``: its
  small-miss latency follows the large requests' service time through
  the daemon, which moves too much from run to run to gate on.

Latency of a small request counts from when it was due, so a stall also
charges the requests queued behind it; a failed or shed request counts
as +inf.  The end-to-end ``op_ms`` is the small misses' median latency
and ``cut_nets`` the mean served cut over the pool, which is the same
set of bodies whatever the seed, so it repeats exactly.
"""

from __future__ import annotations

import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from benchlib import MIB, ROOT, SRC, WORK, metric, percentile, pid_peak_rss_mb
from layers import (
    SMALL_MISS_PATH,
    EngineLayers,
    bipartition_body,
    large_instance,
    probe_request_path,
    small_netlist,
)
from repro import obs
from repro.engines import run_engine
from repro.metrics import IntegrityError, verify_partition_body
from repro.server.client import ServiceClient, ServiceClientError

#: Small-request arrival rate (requests/s): at 45 s a run, 183 small
#: misses, enough for a p90 with 18 samples beyond it.
RATE = 6.0
#: Cap on concurrent small requests.  serve-small rarely has two in
#: flight; in serve-mixed the requests that arrive while a large batch
#: runs all wait for it, and each must still go out when due.  (With a
#: single connection they queue in the client instead, and at this rate
#: the backlog outgrew the run: p50 6.8 s and rising.)
LANES = 48
#: Request ``i`` repeats an earlier body when ``i % HIT_EVERY == HIT_EVERY - 1``.
HIT_EVERY = 3
#: Repeats start here, and reuse only bodies sent at least this many
#: requests earlier, so the first copy has been answered and cached.
REPEAT_GAP = 10
#: Every ``CHECK_EVERY``-th distinct small body is re-run in process and
#: its served cut must equal the in-process one.
CHECK_EVERY = 10
SETUP_REPS = 3
BANNER_TIMEOUT = 60.0


def _schedule(seed: int, count: int) -> list[int]:
    """Body index of each request: the pool's bodies in an order drawn
    from ``seed``, with repeats of earlier ones."""
    rng = random.Random(seed)
    slots = [
        i >= REPEAT_GAP and i % HIT_EVERY == HIT_EVERY - 1 for i in range(count)
    ]
    fresh = list(range(slots.count(False)))
    rng.shuffle(fresh)
    pending = iter(fresh)
    order: list[int] = []
    for i, repeat in enumerate(slots):
        order.append(order[rng.randrange(i - REPEAT_GAP + 1)] if repeat else next(pending))
    return order


class Daemon:
    """One ``serve`` child process; ready once its banner is printed."""

    def __init__(self, workdir: Path) -> None:
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        self.socket = os.path.relpath(workdir / "d.sock", ROOT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        self._stderr = open(workdir / "stderr.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--socket", self.socket,
                "--workers", "2",
                "--state-dir", os.path.relpath(workdir / "state", ROOT),
            ],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        try:
            self._await_banner()
        except BaseException:
            self.stop()
            raise

    def _await_banner(self) -> None:
        deadline = time.monotonic() + BANNER_TIMEOUT
        buffered = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in buffered:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError("daemon printed no banner in time")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(f"daemon exited with {self.proc.wait()} before its banner")
            buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode()
        if not line.startswith("serving on "):
            raise RuntimeError(f"unexpected daemon banner {line!r}")

    def client(self, timeout: float = 120.0) -> ServiceClient:
        # Retries off: every shed or failure is observed, not papered over.
        return ServiceClient(socket_path=self.socket, timeout=timeout, max_retries=0)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


class _Request:
    __slots__ = ("index", "body", "due", "sent", "done", "response", "error")

    def __init__(self, index: int, body: int, due: float) -> None:
        self.index = index
        self.body = body
        self.due = due
        self.sent = self.done = None
        self.response = None
        self.error = None


def _send(client: ServiceClient, req: _Request, h, settings=None) -> None:
    req.sent = time.perf_counter()
    try:
        req.response = client.partition(h, engine="algorithm1", settings=settings)
    except ServiceClientError as exc:
        req.error = f"{type(exc).__name__}: {exc}"
    req.done = time.perf_counter()


def _open_loop(daemon: Daemon, smalls: list, schedule: list[int]) -> list[_Request]:
    """Send ``schedule`` at ``RATE``/s, each request when it is due."""
    t0 = time.perf_counter() + 0.05
    requests = [_Request(i, b, t0 + i / RATE) for i, b in enumerate(schedule)]
    cursor = iter(requests)
    lock = threading.Lock()

    def lane() -> None:
        client = daemon.client()
        while True:
            with lock:
                req = next(cursor, None)
            if req is None:
                return
            wait = req.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            _send(client, req, smalls[req.body])

    threads = [threading.Thread(target=lane) for _ in range(LANES)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return requests


def _closed_loop(daemon: Daemon, h, stop: threading.Event, out: list) -> None:
    """Large requests back to back, each a cache miss (fresh seed)."""
    client = daemon.client(timeout=170.0)
    k = 0
    while not stop.is_set():
        k += 1
        req = _Request(k, -1, None)
        _send(client, req, h, settings={"seed": k})
        out.append(req)


def _delta(after: dict, before: dict, *path) -> float:
    def get(tree):
        for key in path:
            if not isinstance(tree, dict) or key not in tree:
                return 0
            tree = tree[key]
        return tree

    return get(after) - get(before)


def _setup(seed: int, count: int, tiny: bool, mixed: bool, workdir: Path):
    schedule = _schedule(seed, count)
    distinct = max(schedule) + 1
    smalls = [small_netlist(k, tiny) for k in range(distinct)]
    warmup = small_netlist(distinct, tiny)
    large = large_instance(tiny) if mixed else None
    daemon = Daemon(workdir)
    try:
        response = daemon.client().partition(warmup, engine="algorithm1")
    except BaseException:
        daemon.stop()
        raise
    return schedule, smalls, (warmup, response), large, daemon


def run(seed: int, seconds: float, tiny: bool, traced: bool, tracer, mixed: bool) -> dict:
    workdir = WORK / f"{'mixed' if mixed else 'small'}-{seed}-{os.getpid()}"
    count = max(1, int(RATE * seconds))
    daemon = None
    try:
        for rep in range(SETUP_REPS):
            if daemon is not None:
                daemon.stop()
            with tracer.span("setup"):
                schedule, smalls, warm, large, daemon = _setup(
                    seed, count, tiny, mixed, workdir / f"d{rep}"
                )
        return _measure(daemon, schedule, smalls, warm, large, tiny, traced, tracer, workdir)
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(daemon, schedule, smalls, warm, large, tiny, traced, tracer, workdir) -> dict:
    client = daemon.client()
    before = client.metrics()

    larges: list[_Request] = []
    stop = threading.Event()
    large_thread = None
    if large is not None:
        large_thread = threading.Thread(target=_closed_loop, args=(daemon, large, stop, larges))
        large_thread.start()
    try:
        smalls_sent = _open_loop(daemon, smalls, schedule)
    finally:
        stop.set()
        if large_thread is not None:
            large_thread.join()

    after = client.metrics()
    daemon_rss = pid_peak_rss_mb(daemon.proc.pid)

    # -- correctness: every served body, plus sampled in-process reruns
    errors = [
        f"request {r.index}: {r.error}" for r in smalls_sent + larges if r.error is not None
    ]
    attempted = 1 + len(smalls_sent) + len(larges)
    checked = (
        [warm]
        + [(smalls[r.body], r.response) for r in smalls_sent if r.response is not None]
        + [(large, r.response) for r in larges if r.response is not None]
    )
    for h, response in checked:
        try:
            verify_partition_body(h, response["result"])
        except IntegrityError as exc:
            errors.append(f"served body failed verification: {exc}")
    first_seen: dict[int, _Request] = {}
    for req in smalls_sent:
        first_seen.setdefault(req.body, req)
    engine_layers = EngineLayers(tracer)
    for body in range(0, len(smalls), CHECK_EVERY):
        h = smalls[body]
        attempted += 1
        with obs.scoped(activate=traced) as registry:
            with tracer.span("engine.small_ms"):
                bp, extras = run_engine("algorithm1", h, seed=0, starts=10)
        span = tracer.spans[-1]
        served = first_seen[body].response
        try:
            verify_partition_body(h, bipartition_body(bp))
        except IntegrityError as exc:
            errors.append(f"in-process bipartition failed verification: {exc}")
            continue
        if served is not None and (
            served["result"]["cutsize"] != bp.cutsize
            or served["result"]["weighted_cutsize"] != bp.weighted_cutsize
        ):
            errors.append(
                f"small body {body}: served cut {served['result']['cutsize']} "
                f"!= in-process cut {bp.cutsize}"
            )
        if traced:
            engine_layers.record("algorithm1", h, bp, extras, registry, span)
            for engine in ("flow", "fm", "sa"):
                with obs.scoped() as registry:
                    with tracer.span(f"solve.{engine}"):
                        other, extras = run_engine(engine, h, seed=0, starts=10)
                engine_layers.record(engine, h, other, extras, registry, tracer.spans[-1])

    # -- end-to-end latencies, from when each request was due
    inf = float("inf")
    failed_small = {"small.miss": [], "small.hit": []}
    served_cut: dict[int, int] = {}
    for req in smalls_sent:
        if req.error is None:
            is_hit = req.response["served"]["cache"] == "hit"
            served_cut[req.body] = req.response["result"]["cutsize"]
        else:  # a failed request counts where the schedule meant it to go
            is_hit = req is not first_seen[req.body]
        name = "small.hit" if is_hit else "small.miss"
        if req.error is None:
            tracer.add(name, req.due, req.done)
        else:
            failed_small[name].append(inf)
    for req in larges:
        tracer.add("large", req.sent, req.done)
    miss = [t * 1000.0 for t in tracer.samples("small.miss")] + failed_small["small.miss"]
    hit = [t * 1000.0 for t in tracer.samples("small.hit")] + failed_small["small.hit"]

    metrics = {"peak_rss_mb": metric(daemon_rss, "MiB")}
    detail = {}
    info = {"small_misses": len(miss), "small_hits": len(hit)}
    if miss:
        metrics["op_ms"] = metric(percentile(miss, 0.5), "ms")
        detail["miss_p50_ms"] = percentile(miss, 0.5)
        detail["miss_p90_ms"] = percentile(miss, 0.9)
    if len(served_cut) == len(smalls):
        metrics["cut_nets"] = metric(sum(served_cut.values()) / len(served_cut), "nets")
    if hit:
        detail["hit_p50_ms"] = percentile(hit, 0.5)
    if large is not None:
        info["large_requests"] = len(larges)
        large_s = tracer.samples("large") + [inf] * sum(r.error is not None for r in larges)
        if large_s:
            detail["large_p50_s"] = percentile(large_s, 0.5)

    layers, service = {}, {}
    if traced:
        layers = engine_layers.metrics()
        layers.update(
            _probe(tracer, daemon, smalls, smalls_sent, large, larges, tiny, workdir, errors)
        )
        service = _service_layers(before, after, smalls_sent)
        if miss:
            _print_miss_path(percentile(miss, 0.5), layers, service)
    return {
        "metrics": metrics,
        "detail": detail,
        "layers": layers,
        "service_layers": service,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "info": info,
    }


def _probe(tracer, daemon, smalls, smalls_sent, large, larges, tiny, workdir, errors) -> dict:
    """The request-path layers on served bodies.  serve-small sends no
    large body, so it probes the pinned random10k with an in-process
    ``algorithm1`` answer instead."""
    served_large = [(large, r.response["result"]) for r in larges if r.response is not None]
    if not served_large:
        h = large_instance(tiny)
        bp, _ = run_engine("algorithm1", h, seed=0, starts=10)
        body = bipartition_body(bp)
        try:
            verify_partition_body(h, body)
        except IntegrityError as exc:
            errors.append(f"in-process random10k bipartition failed verification: {exc}")
        served_large = [(h, body)]
    pairs = {
        "small": [
            (smalls[r.body], r.response["result"]) for r in smalls_sent if r.response is not None
        ],
        "large": served_large,
    }
    ms = probe_request_path(tracer, pairs, daemon.client(), workdir)
    return {name: metric(value, "ms") for name, value in ms.items()}


def _service_layers(before: dict, after: dict, smalls_sent) -> dict:
    """Layers that only the daemon's own traffic exercises, from the
    ``/metrics`` delta over the load phase."""
    hits = _delta(after, before, "cache", "hits")
    misses = _delta(after, before, "cache", "misses")
    batches = _delta(after, before, "broker", "batches")
    counters = ("obs", "counters")
    gauges = (after.get("obs") or {}).get("gauges", {})
    return {
        "cache.hit_share": metric(hits / max(1, hits + misses), "share"),
        "cache.evictions": metric(_delta(after, before, "cache", "evictions"), "count"),
        "broker.batches": metric(batches, "count"),
        "broker.requests_per_batch": metric(
            _delta(after, before, "broker", "executed") / max(1, batches), "count"
        ),
        "broker.batch_busy_s": metric(
            _delta(after, before, "obs", "spans", "server.batch", "total"), "s"
        ),
        "admission.shed": metric(_delta(after, before, "admission", "shed"), "count"),
        "admission.peak_inflight": metric(after["admission"]["peak_inflight"], "count"),
        "supervisor.tasks": metric(
            _delta(after, before, *counters, "runtime.supervisor.tasks"), "count"
        ),
        "supervisor.retries": metric(
            _delta(after, before, *counters, "runtime.supervisor.retries"), "count"
        ),
        # 0 when no worker outlived one RSS poll (20 ms).
        "supervisor.worker_peak_rss_mb": metric(
            gauges.get("runtime.worker.peak_rss", 0) / MIB, "MiB"
        ),
        "persist.cache_records": metric(
            _delta(after, before, *counters, "server.persist.cache_records"), "count"
        ),
        "loadgen.late_ms_p90": metric(
            percentile([(r.sent - r.due) * 1000.0 for r in smalls_sent], 0.9), "ms"
        ),
    }


def _print_miss_path(miss_p50: float, layers: dict, service: dict) -> None:
    """Print the small-miss layer sum beside ``miss_p50_ms``; the rest is
    ``broker.wait_ms``, time spent waiting for a batch."""
    ms = {name: layers[name]["value"] for name in SMALL_MISS_PATH}
    layer_sum = sum(ms.values())
    service["broker.wait_ms"] = metric(miss_p50 - layer_sum, "ms")
    print(
        f"small miss p50 {miss_p50:.2f} ms = layers {layer_sum:.2f} ms ("
        + " + ".join(f"{name} {value:.2f}" for name, value in ms.items())
        + f") + broker.wait_ms {miss_p50 - layer_sum:.2f}",
        flush=True,
    )
