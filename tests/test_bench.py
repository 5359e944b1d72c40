"""Tests for the ``BENCH_*.json`` regression harness (``repro.bench``).

The acceptance-critical behaviours: a bench run produces the documented
payload shape with per-engine observability profiles, and
``compare_bench`` / ``repro bench --compare`` flag an injected cut or
runtime regression (and exit nonzero) while passing identical payloads.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import (
    ALL_ENGINES,
    DEFAULT_ENGINES,
    LARGE_SUITE,
    MIN_COMPARABLE_SECONDS,
    PINNED_SUITE,
    QUICK_SUITE,
    SUITES,
    BenchCase,
    BenchError,
    bench_path,
    compare_bench,
    format_compare,
    load_bench,
    run_bench,
    write_bench,
)
from repro.cli import main


@pytest.fixture(scope="module")
def payload():
    """One small real bench run shared by the read-only assertions."""
    return run_bench(
        "test", cases=QUICK_SUITE[:2], engines=("algorithm1", "random"), starts=2, repeats=1
    )


class TestSuites:
    def test_pinned_suite_is_frozen(self):
        # Changing pinned names/seeds invalidates every committed baseline;
        # this test makes that an explicit decision, not an accident.
        assert [(c.name, c.params.get("seed")) for c in PINNED_SUITE] == [
            ("planted300", 42),
            ("random200", 7),
            ("netlist160", 11),
        ]

    def test_quick_suite_mirrors_families(self):
        assert [c.kind for c in QUICK_SUITE] == [c.kind for c in PINNED_SUITE]

    def test_materialize_every_case(self):
        for case in QUICK_SUITE:
            h, meta = case.materialize()
            assert meta["num_vertices"] == h.num_vertices
            assert meta["num_edges"] == h.num_edges
            if case.kind == "difficult":
                assert meta["planted_cutsize"] >= 1

    def test_unknown_case_kind_raises(self):
        with pytest.raises(BenchError, match="unknown bench case kind"):
            BenchCase("x", "nope").materialize()

    def test_large_suite_extends_pinned_with_scale_cases(self):
        # The scale cases are pinned like everything else: name, seed
        # and size are frozen, and their engine restrictions keep the
        # sweep in CI-minutes territory.
        assert LARGE_SUITE[: len(PINNED_SUITE)] == PINNED_SUITE
        big10k, big100k = LARGE_SUITE[-2], LARGE_SUITE[-1]
        assert big10k.name == "random10k"
        assert big10k.params["modules"] >= 10_000
        assert big10k.params["seed"] == 23
        assert big10k.engines == ("algorithm1", "fm", "sa", "random", "flow", "spectral")
        assert "kl" not in big10k.engines and "spectral" in big10k.engines
        assert big100k.name == "random100k"
        assert big100k.params["modules"] >= 100_000
        assert big100k.params["seed"] == 29
        # FM's python bucket walk costs minutes per repeat at 100k (and
        # flow pays comparable python corridor solves), so only the
        # engines that finish in CI-seconds run at this scale.
        assert big100k.engines == ("algorithm1", "sa", "random", "spectral")
        # Exclusions are documented, not silent: each excluded engine
        # carries a reason that run_bench surfaces in the payload.
        assert dict(big100k.engine_notes).keys() >= {"fm", "flow"}
        for _, reason in big100k.engine_notes + big10k.engine_notes:
            assert reason

    def test_scale_registry(self):
        assert SUITES == {
            "quick": QUICK_SUITE,
            "pinned": PINNED_SUITE,
            "large": LARGE_SUITE,
        }


class TestRunBench:
    def test_payload_shape(self, payload):
        assert payload["schema"] == 2
        assert payload["label"] == "test"
        assert payload["settings"]["engines"] == ["algorithm1", "random"]
        assert {i["name"] for i in payload["instances"]} == {"planted60", "random50"}
        assert len(payload["results"]) == 4
        for entry in payload["results"]:
            assert entry["cutsize"] >= 0
            assert entry["seconds"] >= 0.0
            assert 0.0 <= entry["imbalance_fraction"] <= 1.0
            assert isinstance(entry["counters"], dict)
            assert isinstance(entry["spans"], dict)

    def test_algorithm1_entries_carry_profiles(self, payload):
        entries = [e for e in payload["results"] if e["engine"] == "algorithm1"]
        for entry in entries:
            assert entry["counters"]["algorithm1.starts"] == 2
            assert "algorithm1.cut" in entry["spans"]
            assert set(entry["phases"]) >= {"cut", "complete", "balance"}
            assert "work_counters" in entry

    def test_engine_isolation(self, payload):
        # Each engine runs in its own scoped registry: random-cut entries
        # must not contain algorithm1's counters.
        entries = [e for e in payload["results"] if e["engine"] == "random"]
        for entry in entries:
            assert "algorithm1.starts" not in entry["counters"]
            assert entry["counters"]["baseline.random.runs"] == 1

    def test_results_are_deterministic_for_pinned_seeds(self, payload):
        again = run_bench(
            "test2", cases=QUICK_SUITE[:2], engines=("algorithm1", "random"), starts=2, repeats=1
        )
        cuts = lambda p: [(e["instance"], e["engine"], e["cutsize"]) for e in p["results"]]
        assert cuts(again) == cuts(payload)

    def test_unknown_engine_raises(self):
        with pytest.raises(BenchError, match="unknown engines"):
            run_bench("x", cases=QUICK_SUITE[:1], engines=("fm", "nope"))

    def test_repeats_validated_and_recorded(self, payload):
        assert payload["settings"]["repeats"] == 1
        with pytest.raises(BenchError, match="repeats"):
            run_bench("x", cases=QUICK_SUITE[:1], engines=("random",), repeats=0)

    def test_spectral_is_in_the_default_gate(self):
        # Canonicalized Fiedler ordering made spectral deterministic, so
        # it joined the exact cut gate (ROADMAP open item).
        assert "spectral" in DEFAULT_ENGINES
        assert "spectral" in ALL_ENGINES

    def test_payload_carries_merged_obs_snapshot(self, payload):
        merged = payload["obs"]
        assert set(merged) == {"counters", "gauges", "spans"}
        # The merge sums per-entry counters: algorithm1 ran on 2 cases.
        assert merged["counters"]["algorithm1.runs"] == 2

    def test_case_engine_restriction_is_honored(self):
        case = BenchCase(
            "tiny", "random", {"modules": 20, "signals": 30, "seed": 1},
            engines=("random",),
        )
        result = run_bench(
            "x", cases=(case,), engines=("algorithm1", "random"), starts=1, repeats=1
        )
        assert [(e["instance"], e["engine"]) for e in result["results"]] == [
            ("tiny", "random")
        ]
        assert result["instances"][0]["engines"] == ["random"]


class TestParallelBench:
    def test_parallel_records_supervision_report(self):
        payload = run_bench(
            "par",
            cases=QUICK_SUITE[:1],
            engines=("random", "fm"),
            starts=1,
            repeats=1,
            parallel=2,
        )
        sup = payload["supervision"]
        assert sup["workers"] == 2
        assert sup["completed"] == 2 and sup["failed"] == 0
        assert sup["summary"] == "clean"
        assert payload["settings"]["parallel"] == 2

    def test_parallel_validation(self):
        with pytest.raises(BenchError, match="parallel"):
            run_bench("x", cases=QUICK_SUITE[:1], engines=("random",), parallel=0)
        with pytest.raises(BenchError, match="total_deadline_seconds"):
            run_bench(
                "x", cases=QUICK_SUITE[:1], engines=("random",),
                total_deadline_seconds=0,
            )

    def test_sequential_total_deadline_fails_pairs_explicitly(self):
        payload = run_bench(
            "dl",
            cases=QUICK_SUITE[:1],
            engines=("random", "fm"),
            starts=1,
            repeats=1,
            total_deadline_seconds=1e-9,
        )
        assert all(e["failed"] for e in payload["results"])
        assert all("deadline" in e["error"] for e in payload["results"])
        assert all(e["cutsize"] is None for e in payload["results"])


class TestFileIO:
    def test_bench_path_convention(self, tmp_path):
        assert bench_path("pr2", tmp_path) == tmp_path / "BENCH_pr2.json"

    def test_write_load_round_trip(self, payload, tmp_path):
        path = write_bench(payload, tmp_path / "BENCH_x.json")
        assert load_bench(path) == payload

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(BenchError, match="cannot read"):
            load_bench(tmp_path / "nope.json")

    def test_load_rejects_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(BenchError, match="cannot read"):
            load_bench(p)

    def test_load_rejects_non_bench_payload(self, tmp_path):
        p = tmp_path / "other.json"
        p.write_text(json.dumps({"hello": 1}))
        with pytest.raises(BenchError, match="no 'results' key"):
            load_bench(p)


def _fake_payload(**overrides):
    base = {
        "schema": 1,
        "label": "base",
        "results": [
            {"instance": "a", "engine": "fm", "cutsize": 10, "seconds": 1.0},
            {"instance": "a", "engine": "kl", "cutsize": 7, "seconds": 0.5},
        ],
    }
    base.update(overrides)
    return base


class TestCompare:
    def test_identical_payloads_pass(self, payload):
        assert compare_bench(payload, payload) == []

    def test_injected_cut_regression_is_flagged(self):
        baseline = _fake_payload()
        current = copy.deepcopy(baseline)
        current["results"][0]["cutsize"] = 11
        regs = compare_bench(baseline, current)
        assert len(regs) == 1
        assert (regs[0].kind, regs[0].instance, regs[0].engine) == ("cut", "a", "fm")
        assert "CUT REGRESSION" in str(regs[0])

    def test_cut_improvement_is_not_flagged(self):
        baseline = _fake_payload()
        current = copy.deepcopy(baseline)
        current["results"][0]["cutsize"] = 3
        assert compare_bench(baseline, current) == []

    def test_runtime_regression_beyond_tolerance_is_flagged(self):
        baseline = _fake_payload()
        current = copy.deepcopy(baseline)
        current["results"][0]["seconds"] = 1.3  # +30% > default 25%
        regs = compare_bench(baseline, current)
        assert [r.kind for r in regs] == ["runtime"]
        assert "+30%" in str(regs[0])

    def test_runtime_within_tolerance_passes(self):
        baseline = _fake_payload()
        current = copy.deepcopy(baseline)
        current["results"][0]["seconds"] = 1.2  # +20% < 25%
        assert compare_bench(baseline, current) == []

    def test_runtime_tolerance_is_configurable(self):
        baseline = _fake_payload()
        current = copy.deepcopy(baseline)
        current["results"][0]["seconds"] = 1.3
        assert compare_bench(baseline, current, runtime_tolerance=0.5) == []

    def test_noise_floor_suppresses_small_absolute_slowdowns(self):
        baseline = _fake_payload()
        current = copy.deepcopy(baseline)
        # A 10x relative slowdown whose absolute delta is under the floor
        # is scheduler noise, not signal.
        baseline["results"][1]["seconds"] = 0.001
        current["results"][1]["seconds"] = 0.010
        assert 0.010 - 0.001 < MIN_COMPARABLE_SECONDS
        assert compare_bench(baseline, current) == []

    def test_slowdown_above_floor_and_tolerance_flags(self):
        baseline = _fake_payload()
        current = copy.deepcopy(baseline)
        baseline["results"][1]["seconds"] = 0.30
        current["results"][1]["seconds"] = 0.45  # +50% and +0.15s
        assert [r.kind for r in compare_bench(baseline, current)] == ["runtime"]

    def test_missing_pair_is_a_coverage_regression(self):
        baseline = _fake_payload()
        current = copy.deepcopy(baseline)
        del current["results"][1]
        regs = compare_bench(baseline, current)
        assert [r.kind for r in regs] == ["coverage"]
        assert "MISSING RESULT" in str(regs[0])

    def test_extra_current_results_are_fine(self):
        baseline = _fake_payload()
        current = copy.deepcopy(baseline)
        current["results"].append(
            {"instance": "b", "engine": "fm", "cutsize": 1, "seconds": 0.1}
        )
        assert compare_bench(baseline, current) == []

    def test_negative_tolerance_rejected(self):
        with pytest.raises(BenchError, match="non-negative"):
            compare_bench(_fake_payload(), _fake_payload(), runtime_tolerance=-0.1)

    def test_current_failed_entry_is_a_coverage_regression(self):
        baseline = _fake_payload()
        current = copy.deepcopy(baseline)
        current["results"][0] = {
            "instance": "a",
            "engine": "fm",
            "failed": True,
            "error": "worker died without a result (exitcode -9)",
            "cutsize": None,
            "seconds": None,
        }
        regs = compare_bench(baseline, current)
        assert [(r.kind, r.instance, r.engine) for r in regs] == [
            ("coverage", "a", "fm")
        ]

    def test_baseline_failed_entry_is_skipped(self):
        baseline = _fake_payload()
        baseline["results"][0] = {
            "instance": "a",
            "engine": "fm",
            "failed": True,
            "error": "hung",
            "cutsize": None,
            "seconds": None,
        }
        current = _fake_payload()
        current["results"][0]["cutsize"] = 99  # would be a cut regression...
        # ...but the baseline has no number to compare against.
        assert compare_bench(baseline, current) == []

    def test_format_compare_reports(self):
        baseline = _fake_payload()
        current = copy.deepcopy(baseline)
        report = format_compare(baseline, current, compare_bench(baseline, current))
        assert "no regressions" in report
        current["results"][0]["cutsize"] = 99
        regs = compare_bench(baseline, current)
        report = format_compare(baseline, current, regs)
        assert "regressions (1):" in report and "a/fm" in report

    def test_format_compare_notes_degraded_baseline(self):
        baseline = _fake_payload(
            supervision={"degraded": True, "summary": "1 crashed worker(s)"}
        )
        current = _fake_payload(label="cur")
        report = format_compare(baseline, current, [])
        assert "note: baseline run was degraded (1 crashed worker(s))" in report
        # A clean supervision block stays silent.
        baseline["supervision"] = {"degraded": False, "summary": "clean"}
        assert "note:" not in format_compare(baseline, current, [])


def _profiled_payload(counters, **overrides):
    return _fake_payload(obs={"counters": counters, "gauges": {}}, **overrides)


class TestProfileCompare:
    BASE = {"fm.passes": 100, "fm.moves": 4000, "runtime.supervisor.retries": 1}

    def test_profile_diff_is_off_by_default(self):
        baseline = _profiled_payload(self.BASE)
        current = _profiled_payload({**self.BASE, "fm.moves": 40000})
        assert compare_bench(baseline, current) == []

    def test_work_counter_growth_beyond_tolerance_is_flagged(self):
        baseline = _profiled_payload(self.BASE)
        current = _profiled_payload({**self.BASE, "fm.moves": 6000})  # +50%
        regs = compare_bench(baseline, current, profile_tolerance=0.25)
        assert len(regs) == 1
        assert (regs[0].kind, regs[0].engine) == ("profile", "fm.moves")
        assert "PROFILE REGRESSION" in str(regs[0])
        assert "obs/fm.moves" in str(regs[0])

    def test_growth_within_tolerance_passes(self):
        baseline = _profiled_payload(self.BASE)
        current = _profiled_payload({**self.BASE, "fm.moves": 4800})  # +20%
        assert compare_bench(baseline, current, profile_tolerance=0.25) == []

    def test_runtime_counters_are_excluded(self):
        # Supervisor counters (retries, fault injections) are scheduling
        # noise, not algorithmic work — never flagged.
        baseline = _profiled_payload(self.BASE)
        current = _profiled_payload(
            {**self.BASE, "runtime.supervisor.retries": 500}
        )
        assert compare_bench(baseline, current, profile_tolerance=0.0) == []

    def test_counters_missing_from_current_are_skipped(self):
        baseline = _profiled_payload(self.BASE)
        current = _profiled_payload({"fm.passes": 100})
        assert compare_bench(baseline, current, profile_tolerance=0.25) == []

    def test_payloads_without_obs_are_tolerated(self):
        assert (
            compare_bench(_fake_payload(), _fake_payload(), profile_tolerance=0.25)
            == []
        )

    def test_negative_profile_tolerance_rejected(self):
        with pytest.raises(BenchError, match="profile_tolerance"):
            compare_bench(_fake_payload(), _fake_payload(), profile_tolerance=-0.1)

    def test_real_payload_self_compare_passes_profile(self, payload):
        assert compare_bench(payload, payload, profile_tolerance=0.0) == []


class TestCli:
    def test_bench_run_writes_file(self, tmp_path, capsys):
        out = tmp_path / "BENCH_cli.json"
        rc = main(
            [
                "bench",
                "--quick",
                "--label",
                "cli",
                "--engines",
                "random",
                "--starts",
                "1",
                "--repeats",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = load_bench(out)
        assert payload["label"] == "cli"
        assert {e["engine"] for e in payload["results"]} == {"random"}
        assert "bench written" in capsys.readouterr().out

    def test_compare_exit_codes(self, tmp_path, capsys):
        baseline = _fake_payload()
        current = copy.deepcopy(baseline)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_bench(baseline, a)
        write_bench(current, b)
        assert main(["bench", "--compare", str(a), str(b)]) == 0

        current["results"][0]["cutsize"] = 99  # inject a regression
        write_bench(current, b)
        assert main(["bench", "--compare", str(a), str(b)]) == 1
        assert "CUT REGRESSION" in capsys.readouterr().out

    def test_bench_json_round_trip(self, capsys):
        # --json is machine-only: the entire stdout must parse as the
        # schema-versioned payload, and that payload must feed straight
        # back into compare_bench.
        rc = main(
            [
                "bench",
                "--quick",
                "--json",
                "--engines",
                "random",
                "--starts",
                "1",
                "--repeats",
                "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["schema"] == 2
        for key in ("label", "settings", "environment", "instances", "results", "obs"):
            assert key in payload
        for entry in payload["results"]:
            for key in ("instance", "engine", "cutsize", "seconds", "counters", "spans"):
                assert key in entry
        assert compare_bench(payload, payload) == []

    def test_bench_json_writes_file_only_with_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "BENCH_j.json"
        rc = main(
            [
                "bench", "--quick", "--json", "--engines", "random",
                "--starts", "1", "--repeats", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        assert load_bench(out) == stdout_payload
        # No BENCH_local.json side file in machine-only mode without --out.
        assert sorted(p.name for p in tmp_path.glob("BENCH_*.json")) == ["BENCH_j.json"]

    def test_bench_scale_flag_selects_suite(self, tmp_path, capsys):
        out = tmp_path / "BENCH_s.json"
        rc = main(
            [
                "bench", "--scale", "quick", "--engines", "random",
                "--starts", "1", "--repeats", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        payload = load_bench(out)
        assert payload["settings"]["cases"] == [c.name for c in QUICK_SUITE]

    def test_compare_respects_runtime_tolerance_flag(self, tmp_path):
        baseline = _fake_payload()
        current = copy.deepcopy(baseline)
        current["results"][0]["seconds"] = 1.4
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_bench(baseline, a)
        write_bench(current, b)
        assert main(["bench", "--compare", str(a), str(b)]) == 1
        assert (
            main(["bench", "--compare", str(a), str(b), "--runtime-tolerance", "0.6"])
            == 0
        )
