"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload train_sampled --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs with
spans around every measured layer and prints the per-layer metrics.
The program is imported from ``src/`` next to this directory; without
it the command fails.  Lines before the last describe the run (the
environment, each metric with its unit and sample count, any notes);
the last line is one JSON object::

    {"correct": true, "attempted": 812, "failed": 0,
     "metrics": {"setup_s": {"value": 0.31, "unit": "s"}, ...}}

The exit code is 0 only when every operation and correctness check
passed.  A copy of the result (with the spans of a traced run) is
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_sampled", "serve_open")
#: BLAS runs single-threaded: the workloads' matrices are small, and a
#: thread pool contending with the service's threads for two cores
#: measures the scheduler rather than the program.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ROOT / ".perfbench_out"
MAX_SPANS_WRITTEN = 200_000


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program() -> float:
    """Put ``src/`` first on the path and import the program; seconds."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}"
        )
    sys.path.insert(0, str(ROOT / "src"))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    began = time.perf_counter()
    import numpy  # noqa: F401
    import repro.hardware  # noqa: F401
    import repro.serving  # noqa: F401
    import repro.training  # noqa: F401

    return time.perf_counter() - began


def main(argv=None) -> int:
    args = _parse(argv)
    import_s = _import_program()

    import hostenv
    import serve
    import train

    ref_start = hostenv.ref_ms()
    began = time.perf_counter()
    trace = bool(args.trace)
    if args.workload == "serve_open":
        report, tracer = serve.run(args.seed, args.seconds, trace)
    else:
        report, tracer = train.run(args.seed, args.seconds, trace)
    wall_s = time.perf_counter() - began
    ref_end = hostenv.ref_ms()

    if trace:
        report.add("setup.import_s", import_s, "s", 1)
        report.add("host.ref_ms", (ref_start + ref_end) / 2, "ms", 2)
    else:
        if "peak_rss_mb" not in report.metrics:
            report.add("peak_rss_mb", hostenv.peak_rss_mb(), "MB", 1)
        report.add("ok_frac", report.ok_frac, "frac", report.attempted)
    _match_manifest(report, "per_layer" if trace else "end_to_end")
    if not trace:  # again, now counting the manifest checks
        report.add("ok_frac", report.ok_frac, "frac", report.attempted)

    env = hostenv.environment(ROOT)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": round(wall_s, 3),
        "setup.import_s": import_s,
        "host.ref_ms": [ref_start, ref_end],
        "env": env,
    }
    print("perfbench " + json.dumps(context, sort_keys=True))
    for name, (value, unit, samples) in report.metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit:6s} n={samples}")
    for name, (value, unit, samples) in report.details.items():
        print(f"  detail {name:29s} {value:14.6g} {unit:6s} n={samples}")
    for note in report.notes:
        print(f"  note: {note}")

    result = {
        "correct": report.failed == 0,
        "attempted": max(1, report.attempted),
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in report.metrics.items()
        },
    }
    _write_copy(args, context, report, result, tracer)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _match_manifest(report, kind: str) -> None:
    """Keep exactly the manifest's ``kind`` metrics in the result line.

    A metric the manifest does not list becomes a detail; one it lists
    that the run did not measure, or measured in another unit, fails
    the run.
    """
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {entry["name"]: entry["unit"] for entry in manifest}
    for name in list(report.metrics):
        if name not in units:
            report.details[name] = report.metrics.pop(name)
    for name, unit in units.items():
        measured = report.metrics.get(name)
        report.check(
            measured is not None and measured[1] == unit,
            f"metric {name} ({unit}) measured as {measured}",
        )


def _write_copy(args, context, report, result, tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(context)
    record["metrics"] = {
        name: {"value": value, "unit": unit, "samples": samples}
        for name, (value, unit, samples) in report.metrics.items()
    }
    record["details"] = {
        name: {"value": value, "unit": unit, "samples": samples}
        for name, (value, unit, samples) in report.details.items()
    }
    record["notes"] = report.notes
    record["correct"] = result["correct"]
    if tracer is not None:
        record["span_fields"] = [
            "id", "parent", "root", "name", "start", "end", "self_s",
            "count",
        ]
        record["spans"] = tracer.spans[:MAX_SPANS_WRITTEN]
    path = OUT_DIR / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    path.write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
