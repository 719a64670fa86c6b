#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload session --seed 1 --seconds 18 --trace 0

``--trace 0`` prints every end-to-end metric listed in ``BENCHMARK.json``
(measured with spans off, times calibration-scaled as ``common.Pace``
describes); ``--trace 1`` repeats the timed unit with
spans around the program's public calls and prints every per-layer
metric, writing the spans as Chrome trace-event JSON under
``.perfbench-out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("session", "corpus", "campaign", "serve-live")
OUT_DIR = ROOT / ".perfbench-out"
WORK_DIR = ROOT / ".perfbench-work"

#: Per-layer metrics read straight off the spans: metric -> (span, statistic).
#: ``sum_s`` totals a span's self time; ``*_ms`` are per-call statistics.
SPAN_METRICS = {
    "sim.build_s": ("sim.build", "sum_s"),
    "sim.advance_s": ("sim.advance", "sum_s"),
    "pipeline.feed_s": ("pipeline.feed", "sum_s"),
    "pipeline.close_s": ("pipeline.close", "sum_s"),
    "pipeline.snapshot_ms_p50": ("pipeline.snapshot", "p50_ms"),
    "pipeline.snapshot_ms_p90": ("pipeline.snapshot", "p90_ms"),
    "report.assemble_ms": ("report.assemble", "p50_ms"),
    "serve.json_ms": ("serve.json", "p50_ms"),
    "protocol.encode_ms": ("protocol.encode", "p50_ms"),
    "corpus.index_cold_s": ("corpus.index_cold", "sum_s"),
    "corpus.index_warm_s": ("corpus.index_warm", "sum_s"),
    "corpus.query_s": ("corpus.query", "sum_s"),
    "corpus.plan_s": ("corpus.plan", "sum_s"),
    "store.cell_put_ms": ("store.cell_put", "p50_ms"),
    "store.cell_get_ms": ("store.cell_get", "p50_ms"),
    "store.analysis_put_ms": ("store.analysis_put", "p50_ms"),
    "store.analysis_get_ms": ("store.analysis_get", "p50_ms"),
}
for _fmt in ("pcap", "pcap_gz", "snoop", "snoop_gz"):
    SPAN_METRICS[f"codec.{_fmt}.write_s"] = (f"codec.{_fmt}.write", "sum_s")
    SPAN_METRICS[f"codec.{_fmt}.read_s"] = (f"codec.{_fmt}.read", "sum_s")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="tiny inputs (the self-test's mode; numbers are not comparable)",
    )
    return parser.parse_args(argv)


def _spec() -> dict:
    with (ROOT / "BENCHMARK.json").open() as fp:
        return json.load(fp)


def _layer_metrics(tracer, outcome, names) -> dict[str, float]:
    """Every per-layer metric: spans first, then the workload's own numbers.

    A layer the workload never calls reads 0: no span, no time.
    """
    from perfbench.common import median, p90

    self_times = tracer.self_times()
    values = {name: 0.0 for name in names}
    for metric, (span, statistic) in SPAN_METRICS.items():
        if statistic == "sum_s":
            values[metric] = self_times.get(span, 0.0)
        elif statistic == "p50_ms":
            values[metric] = median(tracer.durations(span)) * 1000.0
        else:
            values[metric] = p90(tracer.durations(span)) * 1000.0
    events = outcome.layers.get("sim.events_processed", 0)
    if events:
        values["sim.host_us_per_event"] = values["sim.advance_s"] * 1e6 / events
    values.update(outcome.layers)
    values["trace.overhead_s"] = outcome.traced_wall_s - outcome.untraced_wall_s
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # This directory's module names (session, corpus, ...) must not
    # shadow anything: import them only as the ``perfbench`` package.
    here = Path(__file__).resolve().parent
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != here]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common

    for module in common.IMPORTS:
        importlib.import_module(module)
    workload = importlib.import_module(
        "perfbench." + args.workload.replace("-", "_")
    )
    spec = _spec()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK_DIR / f"{run_id}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    checks = common.Checks()
    tracer = common.Tracer(run_id) if args.trace else common.NullTracer()
    ctx = common.Context(
        seed=args.seed,
        seconds=args.seconds,
        tiny=args.tiny,
        trace=bool(args.trace),
        workdir=workdir,
        checks=checks,
        tracer=tracer,
    )
    try:
        outcome = workload.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        values = _layer_metrics(tracer, outcome, units)
        bench = importlib.import_module("benchmarks.bench_sim_speed")
        values["machine.calibration_score"] = bench.calibration_score()
        trace_file = OUT_DIR / f"{run_id}.trace.json"
        tracer.write_chrome_trace(
            trace_file,
            {
                "workload": args.workload,
                "seed": args.seed,
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "calibration_score": values["machine.calibration_score"],
            },
        )
        print(f"chrome trace: {trace_file.relative_to(ROOT)}")
        for name, seconds in sorted(
            tracer.self_times().items(), key=lambda item: -item[1]
        ):
            print(f"span self time {name:28s} {seconds:10.4f} s")
    else:
        values = dict(outcome.e2e)
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise SystemExit(f"perfbench: metric mismatch: missing {missing} extra {extra}")

    print(
        f"machine: python {platform.python_version()}, nproc {os.cpu_count()}"
    )
    for name in sorted(units):
        print(f"{name:32s} {values[name]:>16.6f} {units[name]}")
    for name, count in sorted(checks.ran.items()):
        print(f"check {name}: ran {count}")
    for failure in checks.failures:
        print(f"FAIL {failure}")
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(common.finite(values[name])), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
