"""Request dispatch and in-flight deduplication for the daemon.

The HTTP layer is thread-per-connection; the execution layer is one
shared :class:`~repro.runtime.SupervisedPool`.  The broker sits between
them:

* distinct requests wait in one FIFO queue, served by ``workers``
  **dispatcher threads**; each thread takes one request off the queue
  and executes it alone, so a fast request never waits for a slow one
  while a worker is free, and no more than ``workers`` requests execute
  at once;
* identical in-flight requests (same cache key) are **coalesced**: the
  first becomes the pool task, the rest block on the same outcome and
  are counted under ``server.dedupe.coalesced``.  N identical
  concurrent requests therefore execute exactly once.

The queue needs no bound of its own: every submission is admitted by
the :class:`~repro.server.admission.AdmissionController` first, so
queued distinct keys never exceed ``--max-inflight``.

Lifecycle: :meth:`RequestBroker.stop` first flips the broker into
**draining** (new submissions raise a typed
:class:`~repro.server.protocol.Draining`; already-queued work keeps
dispatching), optionally waits ``drain_timeout`` seconds for the queue
and in-flight executions to empty, then fails whatever is still queued
— *promptly*, before joining the dispatcher threads — with the same
typed draining error, so parked waiters never rely on their own
timeouts.

The broker is generic over the execution function: ``execute(key,
payload)`` returns the outcome for one key.  If it raises, every waiter
on that key receives the exception object as its outcome — a
dispatcher thread itself must never die, because dead dispatchers hang
every future request.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import obs
from repro.server.protocol import Draining

__all__ = ["RequestBroker"]


@dataclass
class _Pending:
    """One in-flight unique request and everyone waiting on it."""

    key: str
    payload: Any
    done: threading.Event = field(default_factory=threading.Event)
    outcome: Any = None


class RequestBroker:
    """Dispatches unique requests one at a time; coalesces duplicates."""

    def __init__(self, execute: Callable[[str, Any], Any], workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._execute = execute
        self.workers = workers
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._inflight: dict[str, _Pending] = {}
        self._queue: deque[_Pending] = deque()
        self._draining = False
        self._stopping = False
        self._threads: list[threading.Thread] = []
        # Always-on tallies for /metrics (obs counters mirror them).
        self._submitted = 0
        self._coalesced = 0
        self._executed = 0
        self._shed_draining = 0
        self._peak_queue_depth = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            if self._threads:
                return
            self._draining = False
            self._stopping = False
            self._threads = [
                threading.Thread(
                    target=self._dispatch_loop,
                    name=f"repro-server-dispatch-{i}",
                    daemon=True,
                )
                for i in range(self.workers)
            ]
            for thread in self._threads:
                thread.start()

    def stop(self, drain_timeout: float = 0.0) -> None:
        """Drain (up to ``drain_timeout``), then fail leftovers promptly.

        New submissions raise a typed
        :class:`~repro.server.protocol.Draining` the moment this is
        called.  Queued-but-unstarted requests that outlive the drain
        window receive the same typed error as their outcome — *before*
        the dispatcher threads are joined, so their waiters unblock
        immediately instead of riding out a client timeout.
        """
        deadline = time.monotonic() + max(0.0, drain_timeout)
        with self._lock:
            self._draining = True
            if drain_timeout > 0:
                while self._queue or self._inflight:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._idle.wait(timeout=min(remaining, 0.05))
        with self._lock:
            threads, self._threads = self._threads, []
            self._stopping = True
            leftovers = list(self._queue)
            self._queue.clear()
            for pending in leftovers:
                self._inflight.pop(pending.key, None)
            self._wakeup.notify_all()
        for pending in leftovers:
            pending.outcome = Draining(
                "server is draining; the request was never started",
                retry_after=1.0,
            )
            pending.done.set()
        join_deadline = time.monotonic() + 30.0
        for thread in threads:
            thread.join(timeout=max(0.0, join_deadline - time.monotonic()))

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, key: str, payload: Any) -> tuple[Any, bool]:
        """Execute (or join the in-flight execution of) ``key``.

        Blocks until the outcome is available.  Returns ``(outcome,
        coalesced)`` where ``coalesced`` is True when this call rode an
        execution some earlier concurrent request started.  Raises
        :class:`~repro.server.protocol.Draining` once :meth:`stop` has
        been called.
        """
        with self._lock:
            if self._draining:
                self._shed_draining += 1
                obs.count("server.shed.draining")
                raise Draining(
                    "server is draining; not accepting new requests",
                    retry_after=1.0,
                )
            self._submitted += 1
            pending = self._inflight.get(key)
            if pending is not None:
                self._coalesced += 1
                coalesced = True
            else:
                pending = _Pending(key=key, payload=payload)
                self._inflight[key] = pending
                self._queue.append(pending)
                self._peak_queue_depth = max(
                    self._peak_queue_depth, len(self._queue)
                )
                coalesced = False
                self._wakeup.notify()
            depth = len(self._queue)
        obs.gauge("server.broker.queue_depth", depth)
        if coalesced:
            obs.count("server.dedupe.coalesced")
        pending.done.wait()
        return pending.outcome, coalesced

    def stats(self) -> dict:
        with self._lock:
            return {
                "submitted": self._submitted,
                "coalesced": self._coalesced,
                "executed": self._executed,
                "inflight": len(self._inflight),
                "queue_depth": len(self._queue),
                "peak_queue_depth": self._peak_queue_depth,
                "shed_draining": self._shed_draining,
                "draining": self._draining,
            }

    # ------------------------------------------------------------------
    # Dispatchers
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopping:
                    self._wakeup.wait()
                if self._stopping:
                    return
                pending = self._queue.popleft()
                self._executed += 1
                depth = len(self._queue)
            obs.gauge("server.broker.queue_depth", depth)
            try:
                outcome = self._execute(pending.key, pending.payload)
            except Exception as exc:  # keep the dispatcher alive
                outcome = exc
            with self._lock:
                self._inflight.pop(pending.key, None)
                pending.outcome = outcome
                if not self._queue and not self._inflight:
                    self._idle.notify_all()
            # Set *after* the key leaves the in-flight map so a waiter
            # that saw the outcome can immediately re-submit and get a
            # fresh execution, not a stale coalesce.
            pending.done.set()
