"""Tracing overhead: run one workload untraced, then traced, same seed.

Usage, from the root of a checkout::

    python3 perfbench/trace_overhead.py --workload serve-small --seed 1 --seconds 45

Prints each end-to-end metric from the untraced run, the same metric as
measured during the traced run, and the traced run's excess in percent.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import WORKLOADS


def _run(args: argparse.Namespace, trace: int) -> list[dict]:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"--trace {trace} run failed:\n{proc.stdout}{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    args = parser.parse_args()

    plain = _run(args, 0)[-1]["metrics"]
    traced = next(
        line["traced_end_to_end"] for line in _run(args, 1) if "traced_end_to_end" in line
    )
    for name, metric in plain.items():
        base, with_trace = metric["value"], traced[name]["value"]
        excess = (with_trace / base - 1) * 100 if base else float("nan")
        print(f"{name:22s} {base:12.4f} {with_trace:12.4f} {metric['unit']:5s} {excess:+6.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
