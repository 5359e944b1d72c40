"""The ``engines`` workload: partition engines called in process.

``algorithm1``, ``flow`` and ``sa`` run on ``LARGE_SUITE``'s random10k
instance; ``fm`` and ``spectral`` on a 4k-module instance of the same
family.  At 10k, ``spectral``'s shift-invert eigensolve takes about a
minute and one ``fm`` call 11-15 s, which leaves room for two rounds a
run, and medians of two calls spread 0.10-0.19 across runs on a 2-vCPU
host.  Both instances are pinned (seed 23), so the cuts connect to the
committed ``BENCH_*.json`` files; ``--seed`` only rotates the engine
order.  From one instance seed to another, host-scaled ``fm`` times
moved by up to two thirds, so varying the instance would bury a
regression.

Engines run round-robin, one engine seed per round (the round index),
with the starting engine rotated each round.  A host that slows down
mid-run then slows every engine alike instead of one engine's block of
repeats, and each engine reports its median over the rounds, each time
scaled by the host speed sampled during the call (``benchlib.HostSpeed``).
The end-to-end ``op_ms`` and ``cut_nets`` are geometric means over the
five engines, so a change to any one engine moves them by the same
share whatever that engine's scale; the per-engine figures are printed
beside them.
"""

from __future__ import annotations

import gc
import math
import shutil
import time

from benchlib import WORK, median, metric, self_peak_rss_mb
from layers import (
    INSTANCE_SEED,
    LARGE_SHAPE,
    EngineLayers,
    bipartition_body,
    probe_request_path,
    small_netlist,
)
from repro import obs
from repro.engines import run_engine
from repro.generators.random_hypergraph import random_hypergraph
from repro.metrics import verify_partition_body
from wl_serve import Daemon

ENGINES = ("algorithm1", "flow", "fm", "sa", "spectral")
#: Multi-start count for ``algorithm1`` and ``flow``: the service default.
STARTS = 10
#: Every run completes this many rounds, however long they take;
#: ``cut_nets`` is taken over exactly these seeds, so it repeats bit for bit.
MIN_ROUNDS = 4
#: Instance shapes ``(modules, signals)``: full size and ``--tiny``.
SHAPES = {
    False: {"10k": LARGE_SHAPE[False], "4k": (4_000, 6_400)},
    True: {"10k": LARGE_SHAPE[True], "4k": (200, 320)},
}
#: Which instance each engine partitions.
INSTANCE = {"algorithm1": "10k", "flow": "10k", "sa": "10k", "fm": "4k", "spectral": "4k"}
SETUP_REPS = 3
#: Small bodies the traced run partitions for the request-path probes.
SMALL_PROBES = 10


def make_inputs(tiny: bool) -> dict:
    """The two pinned instances."""
    shapes = SHAPES[tiny]
    return {
        name: random_hypergraph(modules, signals, seed=INSTANCE_SEED, connect=True)
        for name, (modules, signals) in shapes.items()
    }


def geomean(values) -> float:
    values = list(values)
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def _call(engine: str, h, seed: int, traced: bool, tracer):
    """One timed engine call."""
    gc.collect()
    with obs.scoped(activate=traced) as registry:
        with tracer.span(f"solve.{engine}"):
            bipartition, extras = run_engine(engine, h, seed=seed, starts=STARTS)
    return bipartition, extras, registry


def run(seed: int, seconds: float, tiny: bool, traced: bool, tracer) -> dict:
    """One run; ``seed`` picks the engine that starts the first round."""
    for _ in range(SETUP_REPS):
        with tracer.span("setup"):
            inputs = make_inputs(tiny)

    cuts = {engine: [] for engine in ENGINES}
    engine_layers = EngineLayers(tracer)
    large_answer = None
    attempted = failed = 0
    errors = []

    deadline = time.perf_counter() + seconds
    longest_round = 0.0
    rnd = 0
    while rnd < MIN_ROUNDS or time.perf_counter() + longest_round <= deadline:
        t_round = time.perf_counter()
        shift = (seed + rnd) % len(ENGINES)
        for engine in ENGINES[shift:] + ENGINES[:shift]:
            h = inputs[INSTANCE[engine]]
            attempted += 1
            try:
                bp, extras, reg = _call(engine, h, rnd, traced, tracer)
                body = bipartition_body(bp)
                verify_partition_body(h, body)
            except Exception as exc:  # recorded as a failed operation
                failed += 1
                errors.append(f"{engine} seed {rnd}: {type(exc).__name__}: {exc}")
                continue
            cuts[engine].append(bp.cutsize)
            if engine == "algorithm1":
                large_answer = (h, body)
            if traced:
                engine_layers.record(engine, h, bp, extras, reg, tracer.spans[-1])
        longest_round = max(longest_round, time.perf_counter() - t_round)
        rnd += 1

    solve_s = {
        engine: median(tracer.samples(f"solve.{engine}"))
        for engine in ENGINES
        if tracer.raw(f"solve.{engine}")
    }
    # The median cut: bounded SA's cut is bimodal (22 of 24 seeded runs
    # near 8,800 nets on random10k instances, two near 4,230), and a mean
    # would swing with how many low ones a run drew.
    cut = {
        engine: median(values[:MIN_ROUNDS])
        for engine, values in cuts.items()
        if len(values) >= MIN_ROUNDS
    }
    metrics = {"peak_rss_mb": metric(self_peak_rss_mb(), "MiB")}
    if len(solve_s) == len(ENGINES) and len(cut) == len(ENGINES):
        metrics["op_ms"] = metric(geomean(solve_s.values()) * 1000.0, "ms")
        metrics["cut_nets"] = metric(geomean(cut.values()), "nets")
    detail = {f"solve_s.{engine}": value for engine, value in solve_s.items()}
    detail.update({f"cut.{engine}": value for engine, value in cut.items()})

    layers = {}
    if traced:
        layers = engine_layers.metrics(first=MIN_ROUNDS)
        layers.update(_probe(tiny, large_answer, tracer, errors))
        attempted += SMALL_PROBES
        failed = len(errors)

    return {
        "metrics": metrics,
        "detail": detail,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "info": {"rounds": rnd, "cuts": cuts},
    }


def _probe(tiny: bool, large_answer, tracer, errors: list) -> dict:
    """The request-path layers on small bodies and on random10k's
    ``algorithm1`` answer, with a daemon started only for ``/healthz``."""
    small = []
    for k in range(SMALL_PROBES):
        h = small_netlist(k, tiny)
        with tracer.span("engine.small_ms"):
            bp, _ = run_engine("algorithm1", h, seed=0, starts=STARTS)
        body = bipartition_body(bp)
        try:
            verify_partition_body(h, body)
        except Exception as exc:  # recorded as a failed operation
            errors.append(f"small body {k}: {type(exc).__name__}: {exc}")
        small.append((h, body))
    workdir = WORK / f"engines-probe-{time.monotonic_ns()}"
    daemon = Daemon(workdir / "daemon")
    try:
        ms = probe_request_path(
            tracer, {"small": small, "large": [large_answer]}, daemon.client(), workdir
        )
    finally:
        daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return {name: metric(value, "ms") for name, value in ms.items()}
