"""Helpers shared by the benchmark workloads: statistics, timers, host facts.

Nothing here imports ``repro``; the workload modules do, after
``run.py`` has put the checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for sockets, state logs and traces; ignored by git.
WORK = ROOT / ".bench_build" / "perfbench"

MIB = 1 << 20


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` samples (failures) sort last."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def metric(value: float, unit: str) -> dict:
    return {"value": value if math.isfinite(value) else None, "unit": unit}


#: Iterations of the host-speed calibration loop.  One pass takes about
#: a millisecond, shorter than the interpreter's 5 ms thread switch
#: interval, so a sampler thread barely delays the threads it shares
#: the interpreter with.
SPIN_LOOP = 20_000
#: Reference host speed: ms per calibration pass on the 2-vCPU host the
#: benchmark was tuned on.  Every time metric is scaled to this speed.
SPIN_REF_MS = 1.0


def spin_once() -> float:
    """CPU ms of one pass of a fixed pure-Python loop.

    Thread CPU time, not wall time: a pass that the kernel preempts for
    the benchmark's own daemon and workers would otherwise read as a
    slow host.  Time the hypervisor takes the vCPU away still counts.
    """
    t0 = time.thread_time()
    total = 0
    for i in range(SPIN_LOOP):
        total += i
    return (time.thread_time() - t0) * 1000.0


class HostSpeed:
    """Calibration samples taken through a run, to factor out host drift.

    The same loop on the same interpreter does the same work, so when
    its time changes the host got slower or faster, not the program.
    On a shared 2-vCPU host the loop's time moves by a third within
    minutes, and the program's times move with it.  :meth:`scale`
    turns a time measured in ``[t0, t1]`` into the time it would have
    taken at :data:`SPIN_REF_MS`, using the samples taken around it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter, ms)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start_sampler(self, interval: float = 0.05) -> None:
        """Sample in a background thread every ``interval`` seconds.

        A pass holds the interpreter lock for about 1 ms, so it slows the
        measured work by about 2%: the same share in every run.
        """

        def loop() -> None:
            while not self._stop.wait(interval):
                start = time.perf_counter()
                self.samples.append((start, spin_once()))

        self._stop.clear()
        self._thread = threading.Thread(target=loop, daemon=True)
        self._thread.start()

    def stop_sampler(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None

    def ms(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Median calibration time of the samples taken in ``[t0, t1]``."""
        window = [ms for at, ms in self.samples if t0 <= at <= t1]
        return median(window or [ms for _, ms in self.samples])

    def scale(self, t0: float, t1: float) -> float:
        """Factor taking a time measured in ``[t0, t1]`` to reference speed,
        from the samples taken then (and 0.25 s either side, so a short
        span still has several)."""
        return SPIN_REF_MS / self.ms(t0 - 0.25, t1 + 0.25)


def self_peak_rss_mb() -> float:
    """Peak RSS of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_sha256() -> str:
    """Digest of every source file under ``src/``: names the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


class Tracer:
    """In-memory spans around calls into the program's layers.

    Each span is ``(name, start, end)`` on the ``perf_counter`` clock.
    :meth:`samples` gives one layer's durations scaled to the reference
    host speed by the calibration samples taken around each span, and
    :meth:`dump` writes the raw spans out when the run ends.
    """

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self.spans: list[tuple[str, float, float]] = []

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter())

    def add(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end))

    def raw(self, name: str) -> list[float]:
        return [end - start for span, start, end in self.spans if span == name]

    def samples(self, name: str) -> list[float]:
        return [
            (end - start) * self.host.scale(start, end)
            for span, start, end in self.spans
            if span == name
        ]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "spans": [
                        {"name": name, "start": start, "end": end}
                        for name, start, end in self.spans
                    ],
                    "host_speed": [
                        {"at": at, "ms": ms} for at, ms in self.host.samples
                    ],
                }
            )
        )
