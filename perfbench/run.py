"""Repository benchmark: time to a consensus answer and serve latency.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cloud-batched --seed 1 --seconds 20 --trace 0

Workloads (README.md gives the rationale):

* ``cloud-batched``: two 256-state half-campaigns with the batched
  BFS + parity engine, in process, merged.
* ``cloud-pool``: two 384-state half-campaigns with the paper-default
  engine on a two-worker pool with a graph store and checkpoints.
* ``serve``: open-loop HTTP load on the serve daemon, idle and while
  its cloud grows; it serves a reference answer of two merged halves.

``--trace 0`` measures every end-to-end metric on every workload;
``--trace 1`` runs the workload once untraced and once with every
layer wrapped, prints the per-layer metrics, and writes a self-time
table and a Chrome trace to ``perfbench/_reports/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness
check exits 1; a run that cannot be valid (the program is missing, or
the load generator fell behind) exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import (  # noqa: E402
    BenchmarkError, PeakMemory, Tally, calibrate, machine_fingerprint,
)

WORKLOADS = ("cloud-batched", "cloud-pool", "serve")

#: End-to-end metrics and their units; every workload reports each one
#: (README.md says what each means on each workload).
END_TO_END = {
    "setup_s": "s",
    "answer_s": "s",
    "status_agreement": "r",
    "frustration_ub": "edges",
    "peak_rss_mb": "MB",
    "success_share": "ratio",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _write_report(args, figures: dict, per_layer: dict, fingerprint: dict) -> None:
    """Self-time tables (also on stderr) and the Chrome trace."""
    from repro.perf.trace_export import write_chrome_trace
    from tracer import chrome_events, format_table

    reports = HERE / "_reports"
    reports.mkdir(exist_ok=True)
    stem = reports / f"{args.workload}-seed{args.seed}"
    write_chrome_trace(
        chrome_events(figures["spans"], os.getpid(), figures.get("names", {})),
        str(stem.with_suffix(".trace.json")),
        metadata={"workload": args.workload, "seed": args.seed, "machine": fingerprint},
    )
    text = "\n\n".join(format_table(title, table) for title, table in figures["tables"])
    lines = [f"{name} = {row['value']:.6g} {row['unit']}" for name, row in per_layer.items()]
    stem.with_suffix(".txt").write_text(
        f"machine: {json.dumps(fingerprint)}\n\n{text}\n\n" + "\n".join(lines) + "\n"
    )
    print(text, file=sys.stderr)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import campaigns
        import layers
        import serve_load
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    fingerprint = machine_fingerprint()
    calib_s = calibrate()
    print("# machine " + json.dumps({**fingerprint, "calib_s": calib_s}), flush=True)
    workdir = HERE / "_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    spec = {"cloud-batched": campaigns.CLOUD_BATCHED, "cloud-pool": campaigns.CLOUD_POOL}
    try:
        with PeakMemory() as memory:
            if args.workload == "serve":
                runner = serve_load.run_traced if args.trace else serve_load.run
                figures = runner(args.seed, args.seconds, workdir, tally)
            elif args.trace:
                figures = campaigns.run_traced(spec[args.workload], args.seed, workdir, tally)
            else:
                figures = campaigns.run(spec[args.workload], args.seed, args.seconds, workdir, tally)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = layers.span_metrics(figures["spans"], figures.get("workers", 1))
        values.update({k: v for k, v in figures.items() if k in layers.UNITS})
        values["calib_s"] = calib_s
        metrics = layers.complete(values)
        _write_report(args, figures, metrics, fingerprint)
    else:
        figures["peak_rss_mb"] = memory.peak_mb
        figures["success_share"] = 1.0 - tally.failed / max(tally.attempted, 1)
        metrics = {
            name: {"value": float(figures[name]), "unit": END_TO_END[name]}
            for name in END_TO_END
        }
    tally.report()
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
