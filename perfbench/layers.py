"""Per-layer probes shared by every workload's traced run.

Every workload reports the same per-layer metrics, each measured on
that workload's own inputs: the engine layers on the instances it
partitions in process, and the request-path layers on one small
(netlist160-shape) and one large (random10k) hypergraph with a verified
answer for each.  Only the metrics that need the daemon's own traffic
(cache, broker, admission) stay with the serve workloads, outside
``BENCHMARK.json``.

Imported after ``run.py`` has put the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from benchlib import median, metric
from repro.core.digest import hypergraph_digest
from repro.engines import FLOW_CORRIDOR_RADIUS, FLOW_MAX_ROUNDS
from repro.flow import refine_flow
from repro.generators.netlists import clustered_netlist
from repro.generators.random_hypergraph import random_hypergraph
from repro.io.json_io import hypergraph_to_payload
from repro.metrics import verify_partition_body
from repro.runtime import SupervisedPool
from repro.server.persist import StateStore
from repro.server.protocol import parse_request

#: Seed of every pinned instance: the engines' random10k and 4k, and the
#: large serve-mixed body, which is ``LARGE_SUITE``'s seed-23 random10k.
INSTANCE_SEED = 23
#: Seed of the pool of small request bodies; ``--seed`` orders the pool.
SMALL_SEED = 1
SMALL_SHAPE = {False: (160, 280), True: (40, 70)}
LARGE_SHAPE = {False: (10_000, 16_000), True: (400, 640)}

#: Repetitions of each request-path probe, per body size.
PROBE_REPS = {"small": 20, "large": 3}
HEALTHZ_REPS = 30
FORK_REPS = 10
APPEND_REPS = 20

#: Everything a small miss pays outside the broker queue; the rest of its
#: median latency is time spent waiting for a batch (``broker.wait_ms``).
SMALL_MISS_PATH = (
    "client.encode_ms.small",
    "http.healthz_ms",
    "protocol.parse_ms.small",
    "supervisor.fork_rtt_ms",
    "engine.small_ms",
    "verify.ms.small",
    "persist.append_ms",
)


def small_netlist(k: int, tiny: bool):
    """Small body ``k`` of the pinned pool: a std-cell clustered netlist
    of the netlist160 shape."""
    modules, signals = SMALL_SHAPE[tiny]
    return clustered_netlist(
        modules, signals, technology="std_cell", seed=SMALL_SEED * 100_003 + k
    )


def large_instance(tiny: bool):
    """The pinned random10k instance."""
    return random_hypergraph(*LARGE_SHAPE[tiny], seed=INSTANCE_SEED, connect=True)


def bipartition_body(bipartition) -> dict:
    """The claims of an in-process bipartition, in the served body's form,
    so :func:`verify_partition_body` can recompute and check them."""
    return {
        "cutsize": bipartition.cutsize,
        "weighted_cutsize": bipartition.weighted_cutsize,
        "imbalance_fraction": bipartition.weight_imbalance_fraction,
        "left": list(bipartition.left),
        "right": list(bipartition.right),
    }


class EngineLayers:
    """Work counters and phase times of the engine layers, call by call.

    :meth:`record` takes one traced ``run_engine`` call: its ``obs``
    registry, its ``extras`` and its span on the tracer's clock.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.counts: dict[str, list[float]] = {}

    def _count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    def record(self, engine: str, h, bipartition, extras: dict, registry, span) -> None:
        _, start, end = span
        scale = self.tracer.host.scale(start, end)
        count = self._count
        if engine == "algorithm1":
            for phase, seconds in extras["phases"].items():
                count(f"core.{phase}_s", seconds * scale)
            count("core.bfs_nodes_visited", registry.counter("graph.bfs.nodes_visited"))
            count("core.boundary_nodes", registry.counter("dual_cut.boundary_nodes"))
            count("core.complete_winners", registry.counter("complete_cut.winners"))
            with self.tracer.span("flow.refine"):
                refine_flow(
                    h,
                    bipartition,
                    corridor_radius=FLOW_CORRIDOR_RADIUS,
                    max_rounds=FLOW_MAX_ROUNDS,
                )
        elif engine == "flow":
            for name in ("solves", "augmentations", "bfs_phases"):
                count(f"flow.{name}", registry.counter(f"flow.{name}"))
            count("flow.rounds", registry.counter("flow.refine.rounds"))
            count("flow.accepted", registry.counter("flow.refine.accepted_rounds"))
            count("flow.rejected", registry.counter("flow.refine.rejected_rounds"))
        elif engine == "fm":
            count("baselines.fm.call_s", (end - start) * scale)
            count("baselines.fm.passes", registry.counter("baseline.fm.passes"))
            count("baselines.fm.evaluations", registry.counter("baseline.fm.evaluations"))
        elif engine == "sa":
            for name in ("moves", "evaluations", "temperature_steps"):
                count(f"baselines.sa.{name}", registry.counter(f"baseline.sa.{name}"))

    def metrics(self, first: int | None = None) -> dict:
        """Work counts are exact per call: their mean over the ``first``
        calls, which every run of the workload makes, so they repeat from
        run to run.  Phase times: the mean over the calls, i.e. busy time
        per call, because on most small bodies ``algorithm1`` packs
        disconnected components and skips its cut phases, so their median
        would be 0."""
        accepted = sum(self.counts.pop("flow.accepted"))
        rejected = sum(self.counts.pop("flow.rejected"))
        call_s = median(self.counts.pop("baselines.fm.call_s"))
        layers = {}
        for name, values in self.counts.items():
            if name.endswith("_s"):
                layers[name] = metric(statistics.fmean(values), "s")
            else:
                layers[name] = metric(statistics.fmean(values[:first]), "count")
        layers["flow.accepted_share"] = metric(accepted / max(1, accepted + rejected), "share")
        layers["baselines.fm.us_per_evaluation"] = metric(
            call_s * 1e6 / layers["baselines.fm.evaluations"]["value"], "us"
        )
        layers["flow.refine_s"] = metric(median(self.tracer.samples("flow.refine")), "s")
        return layers


def encode_request(h) -> bytes:
    """The request bytes exactly as :class:`ServiceClient` encodes them."""
    payload = {"op": "partition", "engine": "algorithm1", "hypergraph": hypergraph_to_payload(h)}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _noop(payload):
    return payload


def probe_request_path(tracer, pairs: dict, client, workdir: Path) -> dict:
    """Time the request-path layers; returns each layer's median in ms.

    ``pairs`` maps ``"small"`` and ``"large"`` to ``(hypergraph, body)``
    pairs, the body a verified answer for the hypergraph; ``client`` is
    a :class:`ServiceClient` of a live daemon.  ``engine.small_ms`` must
    already be among the tracer's spans.
    """
    for kind, kind_pairs in pairs.items():
        for i in range(PROBE_REPS[kind]):
            h, body = kind_pairs[i % len(kind_pairs)]
            with tracer.span(f"client.encode_ms.{kind}"):
                raw = encode_request(h)
            with tracer.span(f"protocol.parse_ms.{kind}"):
                parse_request(raw, "partition")
            with tracer.span(f"digest.ms.{kind}"):
                hypergraph_digest(h)
            with tracer.span(f"verify.ms.{kind}"):
                verify_partition_body(h, body)
    for _ in range(HEALTHZ_REPS):
        with tracer.span("http.healthz_ms"):
            client.healthz()
    pool = SupervisedPool(_noop, max_workers=2, sequential_fallback=False)
    for i in range(FORK_REPS):
        with tracer.span("supervisor.fork_rtt_ms"):
            pool.map([(i, i)])
    with StateStore.open(workdir / "persist-probe") as store:
        for i in range(APPEND_REPS):
            with tracer.span("persist.append_ms"):
                store.record_cache(f"probe-{i}", b'{"cutsize":1}')

    names = [
        f"{layer}.{kind}"
        for layer in ("client.encode_ms", "protocol.parse_ms", "digest.ms", "verify.ms")
        for kind in pairs
    ]
    names += ["http.healthz_ms", "supervisor.fork_rtt_ms", "persist.append_ms", "engine.small_ms"]
    return {name: median(tracer.samples(name)) * 1000.0 for name in names}
