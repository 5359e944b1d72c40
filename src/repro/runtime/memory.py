"""Per-worker memory governance for the supervised pool.

A worker that allocates unboundedly (a pathological generator input, an
engine fed an instance far past its scale) must fail *alone*: without a
budget the host OOM killer picks a victim — often the orchestrating
parent — and the whole run dies.  Two complementary
mechanisms, both driven by ``SupervisedPool(memory_limit_bytes=...)``:

* **Address-space rlimit (child-side).**  The forked worker applies
  ``resource.setrlimit(RLIMIT_AS)`` before running its task, so an
  over-budget allocation fails *inside the child* as a ``MemoryError``,
  which the child entrypoint converts into a typed over-budget task
  failure.  The limit is an absolute cap on the child's virtual address
  space — it covers the interpreter footprint inherited from the parent,
  so budgets must leave headroom for it.
* **RSS polling (parent-side).**  The supervisor reads
  ``/proc/<pid>/status`` ``VmRSS`` at its poll interval and SIGTERMs a
  worker whose *resident* set exceeds the budget — the backstop for
  memory that rlimit cannot see (huge lazily-touched mappings live
  within ``RLIMIT_AS`` until written).  Peak RSS across all workers is
  reported via ``SupervisionReport.peak_rss_bytes`` and the
  ``runtime.worker.peak_rss`` gauge.

Both degrade to no-ops where the platform lacks the facility (no
``resource`` module, no ``/proc``): the pool still runs, unbudgeted,
and :func:`rlimit_supported` / :func:`rss_supported` report what is
actually enforced.
"""

from __future__ import annotations

import os

try:  # pragma: no cover - always present on POSIX
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

__all__ = [
    "MemoryBudgetExceeded",
    "apply_address_space_limit",
    "format_bytes",
    "rlimit_supported",
    "rss_bytes",
    "rss_supported",
]


class MemoryBudgetExceeded(MemoryError):
    """A task exceeded its per-worker memory budget.

    Subclasses ``MemoryError`` so existing ``except MemoryError``
    handlers keep working; carries the budget for error reporting.
    """

    def __init__(self, message: str, *, limit_bytes: int | None = None) -> None:
        super().__init__(message)
        self.limit_bytes = limit_bytes


def format_bytes(n: float) -> str:
    """Human-readable MiB rendering used in budget error strings."""
    return f"{n / (1 << 20):.0f} MiB"


def rlimit_supported() -> bool:
    """True when ``RLIMIT_AS`` can be applied on this platform."""
    return _resource is not None and hasattr(_resource, "RLIMIT_AS")


def apply_address_space_limit(limit_bytes: int) -> bool:
    """Cap this process's address space at ``limit_bytes``.

    Returns True when the limit was applied, False when the platform
    does not support it (or refuses — e.g. the hard limit is lower than
    requested and cannot be raised).  Called in the forked child before
    the task body runs; allocations past the cap raise ``MemoryError``.
    """
    if not rlimit_supported():
        return False
    try:
        _, hard = _resource.getrlimit(_resource.RLIMIT_AS)
        if hard != _resource.RLIM_INFINITY and hard < limit_bytes:
            limit_bytes = hard
        _resource.setrlimit(_resource.RLIMIT_AS, (limit_bytes, hard))
    except (ValueError, OSError):  # pragma: no cover - exotic rlimit configs
        return False
    return True


_PROC = "/proc"


def rss_supported() -> bool:
    """True when per-pid resident-set sizes are readable (Linux /proc)."""
    return os.path.isdir(_PROC)


def rss_bytes(pid: int) -> int | None:
    """Resident set size of ``pid`` in bytes, or ``None`` when unreadable.

    Reads ``/proc/<pid>/status`` ``VmRSS`` (kB).  Returns ``None`` for
    dead pids and on platforms without ``/proc`` — callers treat that as
    "cannot govern", never as zero usage.
    """
    try:
        with open(f"{_PROC}/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None
