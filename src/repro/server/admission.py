"""Admission control and poisoned-request quarantine for the daemon.

Two independent guards stand between the HTTP layer and the worker
pool:

* :class:`AdmissionController` — a hard bound on concurrently admitted
  requests (``max_inflight``).  The pool has ``workers`` processes and
  the broker queues only admitted requests; everything beyond the
  budget is **shed** with a typed :class:`~repro.server.protocol.Overloaded`
  (HTTP 429) carrying a ``Retry-After`` hint derived from the observed
  service rate.  Shedding is O(1) and never touches the pool, so the
  daemon's answer latency under overload stays flat — the whole point
  of admission control is that saying "no" is cheap.

* :class:`QuarantineBreaker` — a per-``(digest, fingerprint)`` circuit
  breaker.  A request whose *content* reliably kills workers (segfault,
  OOM, hang) would otherwise be retried forever by naive clients, each
  attempt burning a worker spawn + SIGTERM cycle while honest traffic
  queues behind it.  After ``threshold`` poison failures for the same
  cache key the breaker **opens**: identical submissions short-circuit
  to a typed :class:`~repro.server.protocol.Quarantined` (HTTP 503)
  with ``Retry-After`` = the cooldown remaining.  When the cooldown
  expires the breaker goes **half-open**: exactly one probe is admitted
  (concurrent duplicates stay quarantined); a clean probe closes the
  breaker, a poisoned one re-opens it for another cooldown, and a probe
  that is shed before it ever executes returns its slot via
  :meth:`QuarantineBreaker.probe_aborted` so the next submission probes
  again.

Both guards keep always-on tallies (for ``/metrics``, independent of
obs) and mirror the interesting events into ``repro.obs`` counters.
Clocks are injectable so the state machines are unit-testable without
sleeping.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro import obs
from repro.server.protocol import Overloaded, Quarantined

__all__ = ["AdmissionController", "POISON_ERROR_TYPES", "QuarantineBreaker"]

#: Failure classes that count as request poison: the worker *died* (or
#: was killed) rather than reporting an ordinary error.  Deterministic
#: in-worker exceptions (``ExecutionFailed``) fail fast without burning
#: a worker, and ``DeadlineExpired`` is the client's own budget — neither
#: grinds the pool, so neither trips the breaker.  ``IntegrityError`` is
#: poison of a different kind: the worker *lied* (the result body failed
#: independent re-verification), and a request that reliably produces
#: corrupt results deserves quarantine exactly as much as one that
#: reliably kills workers.
POISON_ERROR_TYPES = frozenset(
    {"WorkerCrashed", "WorkerHung", "MemoryBudgetExceeded", "IntegrityError"}
)


class AdmissionController:
    """Bounded in-flight budget with typed sheds and a drain barrier."""

    def __init__(
        self,
        max_inflight: int = 64,
        workers: int = 1,
        clock=time.monotonic,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = max_inflight
        self.workers = max(1, workers)
        self._clock = clock
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._inflight = 0
        self._peak_inflight = 0
        self._admitted = 0
        self._shed = 0
        # EWMA of observed per-request service seconds; feeds the
        # Retry-After hint.  Starts at a deliberately round 1 s so the
        # very first shed already carries a sane hint.
        self._avg_seconds = 1.0

    # ------------------------------------------------------------------

    def admit(self) -> None:
        """Take one in-flight slot or shed with a typed ``Overloaded``."""
        with self._lock:
            if self._inflight >= self.max_inflight:
                self._shed += 1
                hint = self._retry_after_locked()
                obs.count("server.shed.overloaded")
                raise Overloaded(
                    f"{self._inflight} request(s) already in flight "
                    f"(max {self.max_inflight}); shedding load",
                    retry_after=hint,
                )
            self._inflight += 1
            self._admitted += 1
            self._peak_inflight = max(self._peak_inflight, self._inflight)
            depth = self._inflight
        obs.gauge("server.admission.inflight", depth)

    def release(self, elapsed_seconds: float | None = None) -> None:
        """Return a slot (always pairs with a successful :meth:`admit`)."""
        with self._lock:
            self._inflight -= 1
            if elapsed_seconds is not None and elapsed_seconds >= 0:
                self._avg_seconds += 0.2 * (elapsed_seconds - self._avg_seconds)
            depth = self._inflight
            if depth <= 0:
                self._drained.notify_all()
        obs.gauge("server.admission.inflight", depth)

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def _retry_after_locked(self) -> float:
        # Little's-law flavoured: the backlog ahead of a retry is
        # ~inflight requests at ~avg_seconds each across `workers`
        # lanes.  Clamped to [0.1 s, 30 s] so a cold EWMA or a burst
        # spike never produces an absurd hint.
        estimate = self._avg_seconds * max(1, self._inflight) / self.workers
        return max(0.1, min(30.0, estimate))

    def drain_wait(self, timeout: float) -> bool:
        """Block until every admitted request released, up to ``timeout``.

        Returns True when the controller drained to zero in time.
        """
        deadline = self._clock() + max(0.0, timeout)
        with self._lock:
            while self._inflight > 0:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return False
                self._drained.wait(timeout=min(remaining, 0.05))
            return True

    def stats(self) -> dict:
        """Always-on tallies for ``/metrics`` (independent of obs)."""
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "inflight": self._inflight,
                "peak_inflight": self._peak_inflight,
                "admitted": self._admitted,
                "shed": self._shed,
                "avg_service_seconds": round(self._avg_seconds, 6),
            }


# ----------------------------------------------------------------------
# Quarantine breaker
# ----------------------------------------------------------------------


@dataclass
class _BreakerRecord:
    """Failure history for one cache key."""

    failures: int = 0
    opened_at: float | None = None  # None = closed
    probing: bool = False  # half-open probe currently in flight
    last_failure: float = 0.0


class QuarantineBreaker:
    """Per-cache-key circuit breaker over poison worker failures.

    State machine per key (see ``docs/ROBUSTNESS.md``)::

        closed --[threshold poison failures]--> open
        open   --[cooldown elapses; next check]--> half-open (one probe)
        half-open --[probe succeeds]--> closed (record dropped)
        half-open --[probe poisons]--> open (fresh cooldown)

    Any non-poison outcome (success, typed in-worker error, deadline)
    resets the key outright — poison means "kills workers", and a key
    that stopped killing workers has earned its way back in.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        max_keys: int = 4096,
        clock=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown <= 0:
            raise ValueError(f"cooldown must be positive, got {cooldown}")
        if max_keys < 1:
            raise ValueError(f"max_keys must be >= 1, got {max_keys}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.max_keys = max_keys
        self._clock = clock
        self._lock = threading.Lock()
        self._records: OrderedDict[str, _BreakerRecord] = OrderedDict()
        self._trips = 0
        self._reopens = 0
        self._shed = 0
        self._probes = 0
        self._probe_aborts = 0
        self._recoveries = 0

    # ------------------------------------------------------------------

    def check(self, key: str) -> bool:
        """Gate one submission of ``key``.

        Returns False for closed keys; raises
        :class:`~repro.server.protocol.Quarantined` while the breaker is
        open (``retry_after`` = cooldown remaining).  The first check
        after the cooldown expires is admitted as the half-open probe
        and returns True; concurrent duplicates stay quarantined until
        it resolves.  A True return reserves the key's single probe
        slot: the caller must guarantee that either an execution
        outcome reaches :meth:`record` or the slot is returned via
        :meth:`probe_aborted` — a leaked slot quarantines the key
        permanently.
        """
        with self._lock:
            record = self._records.get(key)
            if record is None or record.opened_at is None:
                return False
            now = self._clock()
            remaining = record.opened_at + self.cooldown - now
            if remaining > 0:
                self._shed += 1
                obs.count("server.shed.quarantined")
                raise Quarantined(
                    f"request is quarantined after {record.failures} worker "
                    f"death(s); cooling down",
                    retry_after=remaining,
                )
            if record.probing:
                self._shed += 1
                obs.count("server.shed.quarantined")
                raise Quarantined(
                    "request is quarantined; a half-open probe is already "
                    "in flight",
                    retry_after=self.cooldown,
                )
            record.probing = True
            self._probes += 1
            obs.count("server.breaker.probes")
            return True

    def probe_aborted(self, key: str) -> None:
        """Return the half-open probe slot for ``key`` without a verdict.

        A :meth:`check` that admits the probe reserves the key's single
        probe slot.  When the probing request is then shed before it
        ever reaches an execution — admission budget, full dispatch
        queue, broker drain, executor blow-up — no :meth:`record` will
        run for it, and without this hook the slot would stay reserved
        forever, turning every future :meth:`check` into a permanent
        "probe already in flight" quarantine.  Restores the pre-check
        state exactly: the key stays open with its cooldown already
        expired, so the next :meth:`check` admits a fresh probe.  No-op
        when the key holds no in-flight probe.
        """
        with self._lock:
            record = self._records.get(key)
            if record is None or not record.probing:
                return
            record.probing = False
            self._probe_aborts += 1
            obs.count("server.breaker.probe_aborts")

    def record(self, key: str, error_type: str | None) -> bool:
        """Feed one *execution* outcome back (``None`` = success).

        Called once per pool execution — coalesced waiters share a
        single execution and therefore a single breaker vote.  Returns
        True when a previously tracked key was cleared by this outcome
        (so a persistent store knows to tombstone it) and False
        otherwise.
        """
        with self._lock:
            if error_type not in POISON_ERROR_TYPES:
                record = self._records.pop(key, None)
                if record is not None and record.opened_at is not None:
                    self._recoveries += 1
                    obs.count("server.breaker.recoveries")
                return record is not None
            record = self._records.get(key)
            if record is None:
                record = _BreakerRecord()
                self._records[key] = record
            else:
                self._records.move_to_end(key)
            now = self._clock()
            record.failures += 1
            record.last_failure = now
            if record.probing:
                # The half-open probe died too: back to open, fresh
                # cooldown, and the failure streak keeps growing.
                record.probing = False
                record.opened_at = now
                self._reopens += 1
                obs.count("server.breaker.reopens")
            elif record.opened_at is None and record.failures >= self.threshold:
                record.opened_at = now
                self._trips += 1
                obs.count("server.breaker.trips")
            self._prune_locked()
            return False

    def export_key(self, key: str) -> dict | None:
        """Snapshot ``key``'s failure history for a persistent store.

        Returns ``{"failures": n, "open_elapsed": secs | None}`` —
        ``open_elapsed`` is how long the key has been open (``None``
        while still closed), which is the only clock-safe way to
        persist a ``time.monotonic`` timestamp: the store pairs it with
        the wall clock at write time and re-derives a monotonic
        ``opened_at`` on :meth:`restore_key` after a restart.  Returns
        ``None`` for untracked keys.
        """
        with self._lock:
            record = self._records.get(key)
            if record is None:
                return None
            open_elapsed = (
                None
                if record.opened_at is None
                else max(0.0, self._clock() - record.opened_at)
            )
            return {"failures": record.failures, "open_elapsed": open_elapsed}

    def restore_key(
        self, key: str, failures: int, open_elapsed: float | None
    ) -> None:
        """Rehydrate ``key``'s failure history from a persistent store.

        ``open_elapsed`` is the total time the key has been open —
        including daemon downtime, which the store folds in — so a key
        whose cooldown expired while the daemon was dead comes back
        *open with an expired cooldown*: the next :meth:`check` admits
        the single half-open probe, rather than the key being forgotten
        (immediately re-poisonable at full threshold) or re-quarantined
        for a fresh cooldown it already served.
        """
        if failures < 1:
            raise ValueError(f"failures must be >= 1, got {failures}")
        with self._lock:
            record = _BreakerRecord(failures=failures)
            now = self._clock()
            record.last_failure = now
            if open_elapsed is not None:
                record.opened_at = now - max(0.0, open_elapsed)
            self._records[key] = record
            self._records.move_to_end(key)
            self._prune_locked()

    def _prune_locked(self) -> None:
        # Bounded memory: drop the stalest records over the cap.  Open
        # records are only evicted when *everything* tracked is open —
        # at that point the oldest cooldown is the closest to expiring
        # anyway, so it is the cheapest to forget.
        while len(self._records) > self.max_keys:
            stale_key = None
            for candidate, record in self._records.items():
                if record.opened_at is None:
                    stale_key = candidate
                    break
            if stale_key is None:
                stale_key = next(iter(self._records))
            del self._records[stale_key]

    def open_keys(self) -> int:
        with self._lock:
            return sum(
                1 for r in self._records.values() if r.opened_at is not None
            )

    def stats(self) -> dict:
        """Always-on tallies for ``/metrics`` (independent of obs)."""
        with self._lock:
            open_keys = sum(
                1 for r in self._records.values() if r.opened_at is not None
            )
            return {
                "threshold": self.threshold,
                "cooldown_seconds": self.cooldown,
                "tracked_keys": len(self._records),
                "open_keys": open_keys,
                "trips": self._trips,
                "reopens": self._reopens,
                "shed": self._shed,
                "probes": self._probes,
                "probe_aborts": self._probe_aborts,
                "recoveries": self._recoveries,
            }
