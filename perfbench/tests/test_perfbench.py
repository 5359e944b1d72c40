"""Self-tests of the benchmark: tiny runs of every workload, checked
against ``BENCHMARK.json``.

Run from the root of the checkout::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Runnable, but left out of ``BENCHMARK.json`` as too noisy to gate.
DIAGNOSTIC = ["serve-mixed"]


def _run(workload: str, trace: int, seed: int = 5, seconds: float = 4, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    """``(workload, trace) -> last-line JSON`` of one tiny run each."""
    return {
        (workload, trace): _result(_run(workload, trace))
        for workload in WORKLOADS + DIAGNOSTIC
        for trace in (0, 1)
    }


@pytest.mark.parametrize("workload", WORKLOADS + DIAGNOSTIC)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct(results, workload, trace):
    result = results[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS + DIAGNOSTIC)
@pytest.mark.parametrize(("trace", "section"), [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units_match_spec(results, workload, trace, section):
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {
        name: value["unit"] for name, value in results[(workload, trace)]["metrics"].items()
    }
    assert printed == units


def _detail(proc) -> dict:
    return next(
        json.loads(line)["detail"]
        for line in proc.stdout.splitlines()
        if line.startswith('{"detail"')
    )


def test_cuts_repeat_and_match_in_process_engines():
    first = _run("engines", 0, seed=9, seconds=1)
    second = _run("engines", 0, seed=3, seconds=1)
    assert _result(first)["metrics"]["cut_nets"] == _result(second)["metrics"]["cut_nets"]
    cuts = {name: v for name, v in _detail(first).items() if name.startswith("cut.")}
    assert cuts == {name: _detail(second)[name] for name in cuts}

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import wl_engines
        from repro.engines import run_engine

        inputs = wl_engines.make_inputs(tiny=True)
        for engine in wl_engines.ENGINES:
            h = inputs[wl_engines.INSTANCE[engine]]
            expected = statistics.median(
                run_engine(engine, h, seed=r, starts=wl_engines.STARTS)[0].cutsize
                for r in range(wl_engines.MIN_ROUNDS)
            )
            assert cuts[f"cut.{engine}"] == expected, engine
        assert _result(first)["metrics"]["cut_nets"]["value"] == pytest.approx(
            wl_engines.geomean(cuts.values())
        )
    finally:
        del sys.path[:2]


def test_served_cut_repeats_across_seeds():
    cuts = [
        _result(_run("serve-small", 0, seed=seed, seconds=2))["metrics"]["cut_nets"]
        for seed in (1, 2)
    ]
    assert cuts[0] == cuts[1]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("engines", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
