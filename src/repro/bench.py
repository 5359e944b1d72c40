"""``BENCH_*.json`` regression harness — the standing perf/quality gate.

Runs a *pinned* generator suite (difficult planted-cut, bounded-degree
random, clustered netlist; fixed seeds, so every machine and every PR
sees byte-identical instances) through the partitioning engines, records
cutsize / balance / per-phase runtime / observability counters per
``(instance, engine)`` pair, and writes the result as ``BENCH_<label>.json``.
``compare_bench`` diffs two such files and reports regressions:

* **cut quality** — the current cutsize exceeds the baseline cutsize for
  the same (instance, engine).  Cut numbers are deterministic for the
  pinned seeds, so this gate is exact and machine-independent.
* **runtime** — the current wall-clock exceeds the baseline by more than
  ``runtime_tolerance`` (default 25%) *and* by at least
  ``MIN_COMPARABLE_SECONDS`` absolute — a slowdown must be relatively
  and absolutely significant, because sub-100ms deltas are scheduler
  noise even with min-of-N timing.  Wall-clock is machine-dependent;
  cross-machine comparisons (CI versus the committed baseline) should
  pass a larger tolerance.
* **coverage** — a (instance, engine) pair present in the baseline but
  missing from the current run.

Large (instance, engine) sweeps can be fanned out across a
:class:`repro.runtime.SupervisedPool` (``bench --parallel k``): each pair
runs in its own forked worker, so one crashing or hanging engine no
longer takes down the whole bench run — the pair becomes an explicit
*failed* entry (``"failed": true`` plus an ``"error"`` string) and every
other pair still reports.  Fault-free records are byte-identical to the
sequential path (timing fields aside): both paths build each entry
through the same :func:`_bench_entry` and the engines are
seed-deterministic, so worker count cannot change a cut number.

Long sweeps are additionally **crash-durable**: ``bench --journal PATH``
appends every completed/failed pair to a fsynced
:class:`repro.runtime.RunJournal` the moment it finishes, and ``bench
--resume PATH`` verifies the journal's settings fingerprint, replays the
recorded pairs, and runs only what is missing — a run SIGKILLed at any
pair boundary resumes to a payload byte-identical (timings and the
supervision block aside) to an uninterrupted one.  ``bench
--memory-limit MB`` budgets each supervised worker (``RLIMIT_AS`` +
parent-side RSS polling): an engine that would OOM the host becomes an
explicit failed entry with a memory-budget error string instead of a
dead run.

The CLI front end is ``repro-partition bench`` (see ``repro.cli``); the
ROADMAP's "every PR makes a hot path measurably faster" claim is audited
by committing a ``BENCH_<pr>.json`` per perf PR and comparing in CI.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.core.hypergraph import Hypergraph
from repro.engines import ALL_ENGINES, DEFAULT_ENGINES, REFINERS, run_engine
from repro.generators.difficult import planted_bisection
from repro.generators.netlists import clustered_netlist
from repro.generators.random_hypergraph import random_hypergraph
from repro.runtime import Deadline, RunJournal, SupervisedPool, faults

#: Version 2 adds: per-pair ``failed``/``error`` entries, the merged
#: top-level ``obs`` snapshot, the ``supervision`` report (parallel runs
#: only), and the parallel/task_timeout/total-deadline settings keys.
#: ``compare_bench`` still ingests schema-1 files.
BENCH_SCHEMA_VERSION = 2

#: A runtime regression must exceed the baseline by at least this many
#: seconds (on top of the relative tolerance); smaller deltas are timer
#: noise, not signal.
MIN_COMPARABLE_SECONDS = 0.1

class BenchError(ValueError):
    """Raised on invalid bench configuration or malformed BENCH files."""


@dataclass(frozen=True)
class BenchCase:
    """One pinned instance recipe of the regression suite.

    ``engines`` optionally restricts which engines run on this case —
    the sweep intersects it with the requested engine list.  Used by the
    scale cases to exclude the engines whose asymptotics cannot pay for
    that size (KL's O(n²) passes, FM's python bucket walk at 100k).

    ``engine_notes`` documents *why* an engine is excluded, as
    ``(engine, reason)`` pairs; the reasons are surfaced in the bench
    payload's ``instances`` records so an exclusion is a logged
    decision, never a silent omission.
    """

    name: str
    kind: str  # "difficult" | "random" | "netlist"
    params: dict = field(default_factory=dict)
    engines: tuple[str, ...] | None = None
    engine_notes: tuple[tuple[str, str], ...] = ()

    def materialize(self) -> tuple[Hypergraph, dict]:
        """Build the instance; returns ``(hypergraph, metadata)``."""
        p = self.params
        if self.kind == "difficult":
            inst = planted_bisection(
                p["modules"], p["signals"], crossing_edges=p["crossing"], seed=p["seed"]
            )
            h = inst.hypergraph
            meta = {"planted_cutsize": inst.planted_cutsize}
        elif self.kind == "random":
            h = random_hypergraph(p["modules"], p["signals"], seed=p["seed"], connect=True)
            meta = {}
        elif self.kind == "netlist":
            h = clustered_netlist(
                p["modules"], p["signals"], technology=p["technology"], seed=p["seed"]
            )
            meta = {}
        else:
            raise BenchError(f"unknown bench case kind {self.kind!r}")
        meta.update(
            num_vertices=h.num_vertices, num_edges=h.num_edges, num_pins=h.num_pins
        )
        return h, meta


#: The pinned suite: one instance per workload family the paper's
#: evaluation cares about.  Seeds are frozen forever — changing them
#: invalidates every committed baseline.
PINNED_SUITE: tuple[BenchCase, ...] = (
    BenchCase("planted300", "difficult", {"modules": 300, "signals": 420, "crossing": 2, "seed": 42}),
    BenchCase("random200", "random", {"modules": 200, "signals": 340, "seed": 7}),
    BenchCase("netlist160", "netlist", {"modules": 160, "signals": 280, "technology": "std_cell", "seed": 11}),
)

#: Tiny variant for tests and CI smoke runs (same families, same shape of
#: output, seconds not minutes).
QUICK_SUITE: tuple[BenchCase, ...] = (
    BenchCase("planted60", "difficult", {"modules": 60, "signals": 90, "crossing": 2, "seed": 42}),
    BenchCase("random50", "random", {"modules": 50, "signals": 80, "seed": 7}),
    BenchCase("netlist40", "netlist", {"modules": 40, "signals": 70, "technology": "std_cell", "seed": 11}),
)

#: The pinned suite plus ≥10k- and 100k-module bounded-degree instances
#: — the scale the paper's CPU-ratio claim (Table 2) is actually about.
#: Gated behind ``bench --scale large`` so tier-1 CI stays fast; the
#: engine restrictions keep each case in CI-minutes territory
#: (algorithm1 rides the CSR array core to ~3s/start at 100k; FM's
#: python bucket walk is fine at 10k but costs minutes per run at 100k).
LARGE_SUITE: tuple[BenchCase, ...] = PINNED_SUITE + (
    BenchCase(
        "random10k",
        "random",
        {"modules": 10_000, "signals": 16_000, "seed": 23},
        engines=("algorithm1", "fm", "sa", "random", "flow", "spectral"),
        engine_notes=(("kl", "O(n^2) swap passes cost minutes at 10k modules"),),
    ),
    BenchCase(
        "random100k",
        "random",
        {"modules": 100_000, "signals": 160_000, "seed": 29},
        engines=("algorithm1", "sa", "random", "spectral"),
        engine_notes=(
            ("fm", "python bucket walk costs minutes per run at 100k modules"),
            (
                "flow",
                "seeded by algorithm1 then pays FM-scale python corridor "
                "solves per round; minutes-scale at 100k modules",
            ),
            ("kl", "O(n^2) swap passes are hours-scale at 100k modules"),
        ),
    ),
)

#: ``--scale`` name -> suite.
SUITES: dict[str, tuple[BenchCase, ...]] = {
    "quick": QUICK_SUITE,
    "pinned": PINNED_SUITE,
    "large": LARGE_SUITE,
}


def _bench_entry(
    case_name: str,
    engine: str,
    h: Hypergraph,
    seed: int,
    starts: int,
    repeats: int,
    deadline_seconds: float | None,
    refine: str | None = None,
) -> dict:
    """Build one (instance, engine) result record.

    The single construction site for both the sequential loop and the
    supervised pool worker — whatever path ran the pair, the record is
    the same function of the same deterministic inputs, which is what
    makes parallel results byte-identical to sequential ones (timing
    fields aside).
    """
    seconds = None
    for _ in range(repeats):
        deadline = (
            Deadline.after(deadline_seconds) if deadline_seconds is not None else None
        )
        with obs.scoped() as reg:
            t0 = time.perf_counter()
            bipartition, extras = run_engine(
                engine, h, seed, starts, deadline, refine=refine
            )
            elapsed = time.perf_counter() - t0
            snapshot = reg.snapshot()
        if seconds is None or elapsed < seconds:
            seconds = elapsed
    entry = {
        "instance": case_name,
        "engine": engine,
        "cutsize": bipartition.cutsize,
        "weighted_cutsize": bipartition.weighted_cutsize,
        "imbalance_fraction": bipartition.weight_imbalance_fraction,
        "seconds": seconds,
        "counters": snapshot["counters"],
        "spans": snapshot["spans"],
    }
    entry.update(extras)
    return entry


def _failed_entry(case_name: str, engine: str, error: str) -> dict:
    """Explicit degraded record for a pair whose worker never reported."""
    return {
        "instance": case_name,
        "engine": engine,
        "failed": True,
        "error": error,
        "cutsize": None,
        "weighted_cutsize": None,
        "imbalance_fraction": None,
        "seconds": None,
        "counters": {},
        "spans": {},
        "degraded": True,
    }


#: Fork-inherited shared state for the supervised bench workers: the
#: parent materializes every instance once, workers look them up by case
#: name.  Populated just before ``SupervisedPool.map`` and cleared right
#: after — nothing heavyweight crosses the result pipe.
_BENCH_STATE: dict = {}


def _bench_worker(payload: dict) -> dict:
    """One (instance, engine) pair inside a forked bench worker."""
    faults.inject("bench.pair")
    case_name, engine = payload["pair"]
    h = _BENCH_STATE["instances"][case_name]
    return _bench_entry(
        case_name,
        engine,
        h,
        payload["seed"],
        payload["starts"],
        payload["repeats"],
        payload["deadline_seconds"],
        payload.get("refine"),
    )


def _server_entry(
    client,
    case_name: str,
    engine: str,
    h: Hypergraph,
    seed: int,
    starts: int,
    deadline_seconds: float | None,
    refine: str | None = None,
    verify: bool = False,
) -> tuple[dict, bool]:
    """One (instance, engine) pair replayed through a partition daemon.

    The daemon runs the same :func:`repro.engines.run_engine` dispatch,
    so a fault-free pair reports the same cut the local path would —
    that parity is asserted by ``tests/test_server.py``.  Timing comes
    from the daemon's ``served.seconds`` (one request per pair: the
    daemon caches, so local-style timing repeats would only measure the
    cache).
    """
    from repro.server.client import ServiceClientError, ServiceResponseError

    settings = {"starts": starts, "seed": seed}
    if deadline_seconds is not None:
        settings["deadline_seconds"] = deadline_seconds
    if refine is not None:
        settings["refine"] = refine
    try:
        response = client.partition(h, engine=engine, settings=settings)
    except ServiceResponseError as exc:
        return (
            _failed_entry(
                case_name,
                engine,
                f"[{exc.error_type}] {exc.error.get('message', '')}",
            ),
            False,
        )
    except ServiceClientError as exc:
        return _failed_entry(case_name, engine, f"service unreachable: {exc}"), False
    body = response["result"]
    if verify:
        # The client-side end of the integrity contract: re-verify the
        # served body against the hypergraph *we* hold, so a daemon that
        # serves a wrong answer (or a transport that mangled one) shows
        # up as an explicit failed entry, not a silently wrong baseline.
        from repro.metrics import IntegrityError, verify_partition_body

        try:
            verify_partition_body(h, body)
        except IntegrityError as exc:
            return (
                _failed_entry(case_name, engine, f"[IntegrityError] {exc}"),
                False,
            )
    entry = {
        "instance": case_name,
        "engine": engine,
        "cutsize": body["cutsize"],
        "weighted_cutsize": body["weighted_cutsize"],
        "imbalance_fraction": body["imbalance_fraction"],
        "seconds": response["served"]["seconds"],
        "counters": {},
        "spans": {},
        "degraded": body["degraded"],
        "degrade_reason": body["degrade_reason"],
        "served": response["served"],
    }
    if verify:
        entry["verified"] = True
    return entry, True


def _server_client(server: str, timeout: float = 600.0):
    """Build a :class:`repro.server.ServiceClient` from a ``--server`` spec.

    ``unix:/path/to.sock`` selects the AF_UNIX transport; anything else
    is treated as an ``http://host:port`` URL.
    """
    from repro.server.client import ServiceClient

    if server.startswith("unix:"):
        return ServiceClient(socket_path=server[len("unix:"):], timeout=timeout)
    return ServiceClient(url=server, timeout=timeout)


def _case_engines(case: BenchCase, engines: tuple[str, ...]) -> tuple[str, ...]:
    """Requested engines intersected with the case's restriction."""
    if case.engines is None:
        return engines
    return tuple(e for e in engines if e in case.engines)


def _journal_settings(
    cases: tuple[BenchCase, ...],
    engines: tuple[str, ...],
    seed: int,
    starts: int,
    repeats: int,
    deadline_seconds: float | None,
    memory_limit_mb: float | None,
    refine: str | None,
) -> dict:
    """The *result-affecting* settings a bench journal fingerprints.

    Worker count, task timeout, retry budget and the total deadline are
    deliberately absent: pair records are invariant to them (engines are
    seed-deterministic and retries keep their seeds), so a ``--parallel
    4`` run may be resumed with ``--parallel 2`` or sequentially.  The
    memory budget *is* included — it decides whether a pair fails —
    and so are the full case recipes, not just their names, so a suite
    redefinition between versions cannot silently replay stale records.
    """
    return {
        "task": "bench",
        "schema": BENCH_SCHEMA_VERSION,
        "seed": seed,
        "starts": starts,
        "repeats": repeats,
        "deadline_seconds": deadline_seconds,
        "memory_limit_mb": memory_limit_mb,
        "refine": refine,
        "engines": list(engines),
        "cases": [
            {
                "name": c.name,
                "kind": c.kind,
                "params": c.params,
                "engines": list(c.engines) if c.engines is not None else None,
            }
            for c in cases
        ],
    }


def run_bench(
    label: str,
    cases: tuple[BenchCase, ...] = PINNED_SUITE,
    engines: tuple[str, ...] = DEFAULT_ENGINES,
    seed: int = 0,
    starts: int = 10,
    repeats: int = 3,
    deadline_seconds: float | None = None,
    parallel: int | None = None,
    task_timeout: float | None = None,
    max_retries: int = 2,
    total_deadline_seconds: float | None = None,
    journal_path: str | Path | None = None,
    resume_path: str | Path | None = None,
    memory_limit_mb: float | None = None,
    on_resume=None,
    server: str | None = None,
    refine: str | None = None,
    verify: bool = False,
) -> dict:
    """Execute the suite and return the JSON-ready payload.

    ``deadline_seconds`` (optional) gives *each engine run* a wall-clock
    budget; runs that hit it return their best-so-far cut and are marked
    ``"degraded": true`` in the payload.  Leave unset for gate runs — a
    degraded cut is not comparable against an unbounded baseline.

    ``parallel`` (optional) fans the (instance, engine) pairs out across
    a :class:`repro.runtime.SupervisedPool` with that many workers.  A
    crashed or hung pair is retried (``max_retries`` relaunches, then a
    hardened in-process attempt; hangs past ``task_timeout`` seconds are
    SIGTERMed and never rerun in-process) and, if it still cannot report,
    becomes a ``"failed": true`` entry with the error string — the other
    pairs are unaffected.  Payloads are not reseeded on retry: every
    engine is seed-deterministic, so a retried pair reports the same
    numbers it would have reported the first time, keeping results
    worker-count-invariant and identical to the sequential path.

    ``total_deadline_seconds`` bounds the whole run: pairs that cannot
    start (or finish) inside it become failed entries instead of
    blocking the harness.

    ``journal_path`` makes the run crash-durable: every completed or
    failed pair is appended (fsynced) to a
    :class:`repro.runtime.RunJournal` the moment it finishes.
    ``resume_path`` reopens such a journal — after verifying its
    settings fingerprint — replays the recorded pairs, runs only the
    missing ones, and keeps journaling to the same file, so a resumed
    run can itself be resumed.  A resumed fault-free run's payload is
    byte-identical to an uninterrupted one apart from timing fields and
    the ``supervision`` block (replayed entries keep their recorded
    timings).  Journal-recorded *failed* pairs are re-attempted on
    resume, never replayed.  ``on_resume(replayed, pending)`` is
    invoked once with the replay/remaining pair counts.

    ``memory_limit_mb`` (requires ``parallel``) budgets each worker's
    memory: the forked child caps its address space via ``RLIMIT_AS``
    and the supervisor SIGTERMs workers whose RSS exceeds the budget,
    so an over-allocating engine becomes an explicit failed entry with
    a memory-budget error string instead of taking down the host.

    Every engine run executes inside a fresh scoped observability
    registry, so the recorded counters and spans are exactly that run's
    work; the payload also carries the merged snapshot under ``"obs"``.

    ``repeats`` re-runs each (deterministic) engine and keeps the
    *minimum* wall clock — the standard defence against scheduler noise;
    a single sample can easily read +100% on a loaded machine, which
    would make the 25% runtime gate meaningless.

    ``server`` replays every pair through a running partition daemon
    (``http://host:port`` or ``unix:/path``) instead of executing
    locally — the cut-parity check that the service dispatches engines
    identically.  Execution knobs that configure the *local* pool
    (``parallel``, ``memory_limit_mb``, journaling) are the daemon's
    business in this mode and are rejected.
    """
    unknown = [e for e in engines if e not in ALL_ENGINES]
    if unknown:
        raise BenchError(f"unknown engines {unknown}; choose from {ALL_ENGINES}")
    if refine is not None and refine not in REFINERS:
        raise BenchError(f"unknown refiner {refine!r}; choose from {REFINERS}")
    if repeats < 1:
        raise BenchError(f"repeats must be >= 1, got {repeats}")
    if deadline_seconds is not None and deadline_seconds <= 0:
        raise BenchError(f"deadline_seconds must be positive, got {deadline_seconds}")
    if parallel is not None and parallel < 1:
        raise BenchError(f"parallel must be >= 1, got {parallel}")
    if total_deadline_seconds is not None and total_deadline_seconds <= 0:
        raise BenchError(
            f"total_deadline_seconds must be positive, got {total_deadline_seconds}"
        )
    if memory_limit_mb is not None:
        if memory_limit_mb <= 0:
            raise BenchError(f"memory_limit_mb must be positive, got {memory_limit_mb}")
        if parallel is None:
            raise BenchError(
                "memory limits require parallel workers (pass parallel=k): only a "
                "forked worker can be budgeted and killed without ending the run"
            )
    if server is not None:
        incompatible = [
            name
            for name, value in (
                ("parallel", parallel),
                ("journal_path", journal_path),
                ("resume_path", resume_path),
                ("memory_limit_mb", memory_limit_mb),
                ("task_timeout", task_timeout),
            )
            if value is not None
        ]
        if incompatible:
            raise BenchError(
                f"server mode is incompatible with {incompatible}: those knobs "
                "configure the local pool; the daemon owns execution in "
                "server mode"
            )
    elif verify:
        raise BenchError(
            "verify=True needs server mode: the local path computes results "
            "in-process, so there is nothing independent to re-verify"
        )
    if journal_path is not None and resume_path is not None:
        if Path(journal_path) != Path(resume_path):
            raise BenchError(
                "journal and resume paths differ: a resumed run keeps appending "
                "to the journal it resumes from"
            )

    instances = []
    materialized: dict[str, Hypergraph] = {}
    pair_list: list[tuple[str, str]] = []
    for case in cases:
        h, meta = case.materialize()
        materialized[case.name] = h
        case_engines = _case_engines(case, engines)
        instance_record = {
            "name": case.name,
            "kind": case.kind,
            "engines": list(case_engines),
            **meta,
        }
        excluded_notes = {
            eng: reason
            for eng, reason in case.engine_notes
            if eng in engines and eng not in case_engines
        }
        if excluded_notes:
            instance_record["engine_notes"] = excluded_notes
        instances.append(instance_record)
        pair_list.extend((case.name, engine) for engine in case_engines)

    journal: RunJournal | None = None
    entries: dict[tuple[str, str], dict] = {}
    if resume_path is not None:
        fingerprint_settings = _journal_settings(
            cases,
            engines,
            seed,
            starts,
            repeats,
            deadline_seconds,
            memory_limit_mb,
            refine,
        )
        journal, recorded = RunJournal.resume(
            resume_path, "bench", fingerprint_settings
        )
        for key, value in recorded:
            # Completed pairs replay verbatim; recorded *failures* are
            # re-attempted — resume exists to finish the run, and a
            # deterministic failure will simply fail identically again.
            if isinstance(value, dict) and value.get("ok"):
                entries[tuple(key)] = value["entry"]
    elif journal_path is not None:
        journal = RunJournal.create(
            journal_path,
            "bench",
            _journal_settings(
                cases,
                engines,
                seed,
                starts,
                repeats,
                deadline_seconds,
                memory_limit_mb,
                refine,
            ),
        )

    pending = [pair for pair in pair_list if pair not in entries]
    if resume_path is not None and on_resume is not None:
        on_resume(len(pair_list) - len(pending), len(pending))

    total_deadline = (
        Deadline.after(total_deadline_seconds)
        if total_deadline_seconds is not None
        else None
    )

    memory_limit_bytes = (
        int(memory_limit_mb * (1 << 20)) if memory_limit_mb is not None else None
    )

    def checkpoint(pair: tuple[str, str], entry: dict, ok: bool) -> None:
        entries[pair] = entry
        if journal is not None:
            journal.record(list(pair), {"ok": ok, "seed": seed, "entry": entry})

    supervision: dict | None = None
    try:
        if server is not None:
            client = _server_client(server)
            for case_name, engine in pending:
                if total_deadline is not None and total_deadline.expired():
                    checkpoint(
                        (case_name, engine),
                        _failed_entry(
                            case_name, engine, "deadline expired before execution"
                        ),
                        False,
                    )
                    continue
                entry, ok = _server_entry(
                    client,
                    case_name,
                    engine,
                    materialized[case_name],
                    seed,
                    starts,
                    deadline_seconds,
                    refine,
                    verify=verify,
                )
                checkpoint((case_name, engine), entry, ok)
        elif parallel is not None:
            tasks = [
                (
                    pair,
                    {
                        "pair": pair,
                        "seed": seed,
                        "starts": starts,
                        "repeats": repeats,
                        "deadline_seconds": deadline_seconds,
                        "refine": refine,
                    },
                )
                for pair in pending
            ]

            def on_result(task) -> None:
                if task.ok:
                    checkpoint(task.key, task.value, True)
                else:
                    checkpoint(
                        task.key,
                        _failed_entry(
                            task.key[0], task.key[1], task.error or "unknown failure"
                        ),
                        False,
                    )

            _BENCH_STATE["instances"] = materialized
            try:
                pool = SupervisedPool(
                    _bench_worker,
                    max_workers=parallel,
                    task_timeout=task_timeout,
                    max_retries=max_retries,
                    deadline=total_deadline,
                    memory_limit_bytes=memory_limit_bytes,
                    on_result=on_result,
                )
                with obs.span("bench.parallel"):
                    _task_results, report = pool.map(tasks)
            finally:
                _BENCH_STATE.clear()
            supervision = {
                "workers": report.workers,
                "completed": report.completed,
                "failed": report.failed,
                "crashes": report.crashes,
                "hangs": report.hangs,
                "retries": report.retries,
                "sequential_fallbacks": report.sequential_fallbacks,
                "memory_kills": report.memory_kills,
                "peak_rss_bytes": report.peak_rss_bytes,
                "deadline_expired": report.deadline_expired,
                "degraded": report.degraded,
                "summary": report.summary(),
            }
        else:
            for case_name, engine in pending:
                if total_deadline is not None and total_deadline.expired():
                    checkpoint(
                        (case_name, engine),
                        _failed_entry(
                            case_name, engine, "deadline expired before execution"
                        ),
                        False,
                    )
                    continue
                checkpoint(
                    (case_name, engine),
                    _bench_entry(
                        case_name,
                        engine,
                        materialized[case_name],
                        seed,
                        starts,
                        repeats,
                        deadline_seconds,
                        refine,
                    ),
                    True,
                )
    finally:
        if journal is not None:
            journal.close()

    results = [entries[pair] for pair in pair_list]

    merged = obs.ObsRegistry()
    for entry in results:
        merged.merge(
            {"counters": entry.get("counters") or {}, "spans": entry.get("spans") or {}}
        )

    payload = {
        "schema": BENCH_SCHEMA_VERSION,
        "label": label,
        "settings": {
            "seed": seed,
            "starts": starts,
            "repeats": repeats,
            "deadline_seconds": deadline_seconds,
            "total_deadline_seconds": total_deadline_seconds,
            "parallel": parallel,
            "task_timeout": task_timeout,
            "max_retries": max_retries,
            "memory_limit_mb": memory_limit_mb,
            "server": server,
            "verify": verify,
            "refine": refine,
            "engines": list(engines),
            "cases": [case.name for case in cases],
        },
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "instances": instances,
        "results": results,
        "obs": merged.snapshot(),
    }
    if supervision is not None:
        payload["supervision"] = supervision
    if verify:
        payload["verification"] = {
            "verified": sum(1 for e in results if e.get("verified")),
            "failed": sum(
                1
                for e in results
                if e.get("failed") and "[IntegrityError]" in (e.get("error") or "")
            ),
        }
    return payload


def bench_path(label: str, root: str | Path = ".") -> Path:
    """The conventional output path ``<root>/BENCH_<label>.json``."""
    return Path(root) / f"BENCH_{label}.json"


def write_bench(payload: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_bench(path: str | Path) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read bench file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "results" not in payload:
        raise BenchError(f"{path} is not a BENCH_*.json payload (no 'results' key)")
    return payload


@dataclass(frozen=True)
class Regression:
    """One flagged baseline-versus-current deviation."""

    kind: str  # "cut" | "runtime" | "coverage" | "profile"
    instance: str
    engine: str
    baseline: float
    current: float

    def __str__(self) -> str:
        if self.kind == "cut":
            return (
                f"CUT REGRESSION  {self.instance}/{self.engine}: "
                f"cutsize {self.baseline:g} -> {self.current:g}"
            )
        if self.kind == "runtime":
            pct = 100.0 * (self.current / self.baseline - 1.0) if self.baseline else 0.0
            return (
                f"RUNTIME REGRESSION  {self.instance}/{self.engine}: "
                f"{self.baseline:.3f}s -> {self.current:.3f}s (+{pct:.0f}%)"
            )
        if self.kind == "profile":
            pct = 100.0 * (self.current / self.baseline - 1.0) if self.baseline else 0.0
            return (
                f"PROFILE REGRESSION  obs/{self.engine}: "
                f"{self.baseline:g} -> {self.current:g} (+{pct:.0f}%)"
            )
        return f"MISSING RESULT  {self.instance}/{self.engine}: present in baseline only"


def compare_bench(
    baseline: dict,
    current: dict,
    runtime_tolerance: float = 0.25,
    profile_tolerance: float | None = None,
) -> list[Regression]:
    """Diff two bench payloads; returns the regressions (empty = gate passes).

    ``runtime_tolerance`` is the allowed fractional slowdown (0.25 =
    +25%).  A runtime flag additionally requires the absolute slowdown
    to reach :data:`MIN_COMPARABLE_SECONDS`.  Cut comparisons are exact.

    ``profile_tolerance`` (off by default) additionally diffs the merged
    obs *work counters* — passes, moves, gain recomputations — between
    the payloads.  A counter present in both with a positive baseline is
    flagged when ``current > baseline * (1 + profile_tolerance)``.  Work
    counters are wall-clock-noise-free, so this catches algorithmic
    regressions (a pruning rule silently disabled, a convergence check
    looping longer) that the runtime gate's timing floor hides on small
    instances.  Nondeterministic ``runtime.*`` counters (retries, fault
    injections, scheduling) are excluded.

    Failed entries (schema 2: a supervised pair whose worker never
    reported) are handled asymmetrically: a *baseline* failure carries
    no numbers to compare against, so the pair is skipped; a *current*
    failure for a pair the baseline completed is a coverage regression —
    the harness lost a measurement it used to have.
    """
    if runtime_tolerance < 0:
        raise BenchError("runtime_tolerance must be non-negative")
    if profile_tolerance is not None and profile_tolerance < 0:
        raise BenchError("profile_tolerance must be non-negative")

    def keyed(payload: dict) -> dict[tuple[str, str], dict]:
        return {(r["instance"], r["engine"]): r for r in payload["results"]}

    base = keyed(baseline)
    cur = keyed(current)
    regressions: list[Regression] = []
    for (instance, engine), b in sorted(base.items()):
        if b.get("failed") or b.get("cutsize") is None:
            continue
        c = cur.get((instance, engine))
        if c is None or c.get("failed") or c.get("cutsize") is None:
            regressions.append(Regression("coverage", instance, engine, 1, 0))
            continue
        if c["cutsize"] > b["cutsize"]:
            regressions.append(
                Regression("cut", instance, engine, b["cutsize"], c["cutsize"])
            )
        bs, cs = b["seconds"], c["seconds"]
        if (
            bs is not None
            and cs is not None
            and cs - bs >= MIN_COMPARABLE_SECONDS
            and cs > bs * (1.0 + runtime_tolerance)
        ):
            regressions.append(Regression("runtime", instance, engine, bs, cs))
    if profile_tolerance is not None:
        b_counters = (baseline.get("obs") or {}).get("counters") or {}
        c_counters = (current.get("obs") or {}).get("counters") or {}
        for name in sorted(b_counters):
            if name.startswith("runtime."):
                continue
            b_val = b_counters[name]
            c_val = c_counters.get(name)
            if c_val is None or not b_val or b_val <= 0:
                continue
            if c_val > b_val * (1.0 + profile_tolerance):
                regressions.append(Regression("profile", "obs", name, b_val, c_val))
    return regressions


def format_compare(
    baseline: dict, current: dict, regressions: list[Regression]
) -> str:
    """Human-readable comparison report for the CLI."""
    lines = [
        f"baseline : {baseline.get('label', '?')} "
        f"({len(baseline['results'])} results)",
        f"current  : {current.get('label', '?')} "
        f"({len(current['results'])} results)",
    ]
    # A degraded baseline (retried, fallen-back, or memory-killed
    # workers) may carry inflated timings or missing pairs — the numbers
    # compared against are weaker than a clean run's.  Say so instead of
    # silently treating it as authoritative.
    for role, payload in (("baseline", baseline), ("current", current)):
        sup = payload.get("supervision")
        if sup and sup.get("degraded"):
            lines.append(f"note: {role} run was degraded ({sup.get('summary')})")
    if regressions:
        lines.append(f"regressions ({len(regressions)}):")
        lines.extend(f"  {r}" for r in regressions)
    else:
        lines.append("no regressions: cut quality and runtime within tolerance")
    return "\n".join(lines)
