"""Tier-1 performance smoke test on the 2000-edge acceptance instance.

Not a benchmark — the ceilings are deliberately generous (an order of
magnitude above current timings) so the test only trips on catastrophic
regressions, e.g. an accidental return to per-call neighbour-set copies
or linear winner rescans in the hot paths.  Real numbers live in
``benchmarks/bench_core_micro.py``.
"""

import time

import pytest

from repro import obs
from repro.core.algorithm1 import TIMING_PHASES, algorithm1
from repro.generators import random_hypergraph

pytestmark = pytest.mark.perf


@pytest.fixture(scope="module")
def big():
    return random_hypergraph(1200, 2000, seed=7, connect=True)


def test_single_start_under_generous_ceiling(big):
    t0 = time.perf_counter()
    result = algorithm1(big, num_starts=1, seed=0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"single start took {elapsed:.2f}s on the 2k-edge instance"
    assert set(TIMING_PHASES) <= set(result.timings)
    # The sum of phase timers accounts for the bulk of the wall clock.
    assert sum(result.timings.values()) <= elapsed + 0.01


def test_ten_starts_under_generous_ceiling(big):
    t0 = time.perf_counter()
    result = algorithm1(big, num_starts=10, seed=1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 15.0, f"10 starts took {elapsed:.2f}s on the 2k-edge instance"
    assert all(result.timings[phase] >= 0.0 for phase in TIMING_PHASES)
    assert result.timings["cut"] > 0.0
    assert result.timings["complete"] > 0.0


def test_disabled_obs_overhead_under_two_percent(big):
    """Acceptance criterion: observability off must cost < 2% of a
    single start on the 2k-edge instance.

    Methodology: time the real single start (obs disabled, best of 3),
    count how many obs events the same run emits when enabled, then time
    ``REPS`` repetitions of that event volume through the disabled-path
    entry points (each loop iteration exercises span+count+gauge, a 3x
    overcount of a real event).  The projected per-run no-op cost —
    measured total / REPS — must stay under the 2% line.
    """
    assert not obs.is_enabled()
    base = min(
        _timed(lambda: algorithm1(big, num_starts=1, seed=0)) for _ in range(3)
    )

    with obs.scoped() as reg:
        algorithm1(big, num_starts=1, seed=0)
        snap = reg.snapshot()
    events = (
        sum(s["count"] for s in snap["spans"].values())
        + len(snap["counters"])
        + len(snap["gauges"])
    )
    assert events > 0

    assert not obs.is_enabled()
    REPS = 200
    t0 = time.perf_counter()
    for _ in range(REPS * events):
        with obs.span("overhead.probe"):
            pass
        obs.count("overhead.probe")
        obs.gauge("overhead.probe", 1.0)
    per_run = (time.perf_counter() - t0) / REPS

    assert per_run < 0.02 * base, (
        f"{events} disabled obs events project to {per_run * 1e6:.1f}us/run "
        f"({100 * per_run / base:.2f}% of the {base * 1e3:.1f}ms single start)"
    )
    # Nothing leaked into the registry through the disabled path.
    assert obs.registry().counter("overhead.probe") == 0


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_spectral_random10k_under_generous_ceiling():
    from repro.baselines.spectral import spectral_bisection

    h = random_hypergraph(10_000, 16_000, seed=23, connect=True)
    t0 = time.perf_counter()
    result = spectral_bisection(h, seed=0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"spectral took {elapsed:.2f}s on random10k"
    assert result.bipartition.cardinality_imbalance <= 1
