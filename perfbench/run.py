"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 45 --trace 0

``engines`` and ``serve-small`` are the workloads ``BENCHMARK.json``
lists.  ``serve-mixed`` runs the same way and prints the same metrics,
but is left out of it: its small-request latency follows the large
requests' service time through the daemon, which spread 0.15-0.30
across runs, more than any bound allows.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with the per-layer probes on and prints the per-layer metrics.
``--tiny`` shrinks every input so a run takes seconds (self-tests).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every workload
prints the same metrics, those ``BENCHMARK.json`` lists.  The lines
before it record the host (CPU count, library versions, commit, the
``host.spin_ms`` speed probe), the workload's own figures behind its
metrics (``detail``: per-engine times and cuts, or latency by request
class), and any verification errors.  The exit
code is 0 only when every operation succeeded and every output checked
out; a checkout without ``src/repro`` exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchlib import ROOT, SRC, WORK, HostSpeed, Tracer, environment, median, metric

WORKLOADS = ("engines", "serve-small", "serve-mixed")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help="order of the small request bodies and choice of repeats (serve), "
        "first engine of the rotation (engines); every instance is pinned",
    )
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="seconds-long inputs")
    return parser.parse_args(argv)


def manifest_metrics(section: str) -> list[str]:
    """Names of the ``BENCHMARK.json`` metrics of one section."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in manifest[section]]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no partitioner sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    traced = bool(args.trace)
    tracer = Tracer(HostSpeed())
    tracer.host.start_sampler()
    try:
        with tracer.span("setup.imports"):
            if args.workload == "engines":
                import wl_engines as workload
            else:
                import wl_serve as workload
            from repro import obs
        if traced:
            obs.enable()
        kwargs = {} if args.workload == "engines" else {"mixed": args.workload == "serve-mixed"}
        result = workload.run(args.seed, args.seconds, args.tiny, traced, tracer, **kwargs)
    finally:
        tracer.host.stop_sampler()

    # Set-up: the imports, plus the median of the workload's repeated
    # set-ups (inputs, and for the serve workloads a daemon up to its
    # banner and one warm-up request).
    setup_s = tracer.samples("setup.imports")[0] + median(tracer.samples("setup"))
    result["metrics"] = {"setup_s": metric(setup_s, "s"), **result["metrics"]}
    spin = tracer.host.ms()
    env = environment()
    env["host.spin_ms"] = spin
    print(json.dumps({"workload": args.workload, "seed": args.seed, "environment": env}))
    # Unscaled medians of every span, beside the host-scaled metrics.
    raw = {name: median(tracer.raw(name)) for name in sorted({s[0] for s in tracer.spans})}
    print(json.dumps({"detail": result["detail"], "info": result["info"], "raw_median_s": raw}))
    for error in result["errors"]:
        print(f"FAILED: {error}")
    print(f"{args.workload}: attempted {result['attempted']}, failed {result['failed']}")
    if traced:
        # The traced run's own end-to-end figures: compare them with an
        # untraced run of the same seed to see the tracing overhead.
        print(json.dumps({"traced_end_to_end": result["metrics"]}))
        if result.get("service_layers"):
            print(json.dumps({"service_layers": result["service_layers"]}))
        tracer.dump(WORK / f"trace-{args.workload}-{args.seed}.json")
        metrics = dict(result["layers"])
        metrics["host.spin_ms"] = metric(spin, "ms")
    else:
        metrics = result["metrics"]
    missing = [
        name
        for name in manifest_metrics("per_layer" if traced else "end_to_end")
        if (metrics.get(name) or {}).get("value") is None
    ]
    if missing:
        print(f"FAILED: no value for {', '.join(missing)}")
        result["failed"] += 1
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
