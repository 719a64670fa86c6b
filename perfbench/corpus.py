"""``corpus``: the capture-corpus path, cold then warm.

Set-up generates fast-engine ``day`` traces for seeds drawn from the
run seed, each cut to the same frame count so every seed gives the
same amount of work.  A cold pass, in a fresh directory, then

1. writes every trace as ``.pcap``, ``.pcap.gz``, ``.snoop`` and
   ``.snoop.gz``;
2. runs ``CorpusIndex.refresh`` cold and one ``where`` query;
3. runs ``analyze_corpus`` cold (a process pool of at most ``nproc``).

Warm requests follow: full re-runs of ``analyze_corpus`` and a seeded
mix of ``where`` queries, all answered from the catalog and the
analysis store.  ``codec`` (writes beside reads), ``corpus`` and
``store`` do most of the work; the simulator is not timed.
"""

from __future__ import annotations

import os
import random
import shutil
import time

from .common import (
    Context,
    NullTracer,
    Outcome,
    Pace,
    PoolPeaks,
    add_counts,
    derived_seeds,
    median,
    p90,
    peak_rss_mb,
    report_digest,
    timed_setup,
)
from .traces import fast_day_trace, on_air

SIZES = {
    "normal": {"traces": 3, "frames": 6000, "warm_full": 5, "warm_queries": 30},
    "tiny": {"traces": 1, "frames": 400, "warm_full": 2, "warm_queries": 4},
}
#: The pass's catalog query: every capture of the generated corpus.
WHERE = "channel=1,6,11 status=ok frames>=100"
#: Warm request mix; each selects a different share of the corpus.
QUERY_MIX = (
    "",
    "format=pcap",
    "format=snoop",
    "format=pcap.gz",
    "format=snoop.gz",
    "channel=6",
    "frames>=100 path=day0*",
    "status=ok",
)


def _formats():
    from repro.corpus import read_snoop_batches, write_snoop
    from repro.pcap import read_trace_batches, write_trace

    return (
        ("pcap", ".pcap", write_trace, read_trace_batches),
        ("pcap_gz", ".pcap.gz", write_trace, read_trace_batches),
        ("snoop", ".snoop", write_snoop, read_snoop_batches),
        ("snoop_gz", ".snoop.gz", write_snoop, read_snoop_batches),
    )


def _build(seeds, frames):
    def build(tracer):
        traces, counts = [], {}
        for seed in seeds:
            trace, more = fast_day_trace(tracer, seed, frames)
            traces.append(trace)
            add_counts(counts, more)
        return traces, counts

    return build


def _cold_pass(tracer, root, traces, workers, pace):
    """Write, index, query and analyze a fresh corpus.

    Returns the analysis, the query's match count and the pass's
    calibration-scaled seconds: every trace's writes, the index and
    query, and the analysis are each one ``pace`` lap.
    """
    from repro.corpus import CorpusIndex, analyze_corpus, filter_records, parse_query

    pace.start()
    seconds = 0.0
    for number, trace in enumerate(traces):
        for fmt, suffix, write, _ in _formats():
            with tracer.span(f"codec.{fmt}.write"):
                write(trace, root / f"day{number}{suffix}")
        seconds += pace.lap()
    with tracer.span("corpus.index_cold"):
        CorpusIndex(root).refresh()
    with tracer.span("corpus.query"):
        matched = filter_records(
            CorpusIndex(root).records().values(), parse_query(WHERE)
        )
    seconds += pace.lap()
    with tracer.span("corpus.analyze_cold"):
        analysis = analyze_corpus(root, workers=workers)
    seconds += pace.lap()
    return analysis, len(matched), seconds


def _check_cold(checks, analysis, matched, expected, n_captures):
    checks.check(
        "corpus.query_matches_all", matched == n_captures, f"{matched}/{n_captures}"
    )
    checks.check(
        "corpus.cold_dispatches_all",
        analysis.dispatched == n_captures and not analysis.failures,
        f"dispatched {analysis.dispatched}, failures {sorted(analysis.failures)}",
    )
    for path in sorted(expected):
        report = analysis.reports.get(path)
        checks.op(report is not None, f"analyze {path}")
        if report is not None:
            checks.check(
                "corpus.container_matches_run_all",
                report_digest(report) == expected[path],
                path,
            )


def run(ctx: Context) -> Outcome:
    from repro.corpus import analyze_corpus
    from repro.pipeline import run_all

    size = SIZES["tiny" if ctx.tiny else "normal"]
    seeds = derived_seeds(ctx.seed, size["traces"], "corpus")
    checks, tracer = ctx.checks, ctx.tracer
    workers = min(2, os.cpu_count() or 1)
    setup_s, (traces, counts) = timed_setup(3, _build(seeds, size["frames"]), tracer)
    n_captures = 4 * len(traces)
    frames_per_pass = n_captures * size["frames"]

    # Reference: run_all over each in-memory trace, keyed by capture path.
    expected = {}
    for number, trace in enumerate(traces):
        digest = report_digest(run_all(on_air(trace)))
        for _, suffix, _, _ in _formats():
            expected[f"day{number}{suffix}"] = digest
    rng = random.Random(f"corpus-queries:{ctx.seed}")

    # Every time is calibration-scaled (see ``Pace``).
    cold_s, warm_s, query_s = [], [], []
    pace = Pace()
    pools = PoolPeaks().start()
    deadline = time.perf_counter() + ctx.seconds
    number = 0
    while len(cold_s) < 2 or time.perf_counter() < deadline:
        root = ctx.workdir / f"pass{number}"
        root.mkdir()
        cold, matched, seconds = _cold_pass(NullTracer(), root, traces, workers, pace)
        cold_s.append(seconds)
        _check_cold(checks, cold, matched, expected, n_captures)
        cold_digests = {p: report_digest(r) for p, r in cold.reports.items()}
        warms = []
        pace.start()
        for _ in range(size["warm_full"]):
            warms.append(analyze_corpus(root, workers=workers))
            warm_s.append(pace.lap())
        for warm in warms:
            checks.op(not warm.failures, "warm analyze_corpus")
            checks.check(
                "corpus.warm_dispatches_nothing",
                warm.dispatched == 0,
                f"dispatched {warm.dispatched}",
            )
            checks.check(
                "corpus.warm_equals_cold",
                {p: report_digest(r) for p, r in warm.reports.items()}
                == cold_digests,
            )
        answers = []
        pace.start()
        for _ in range(size["warm_queries"]):
            where = rng.choice(QUERY_MIX)
            answers.append((where, analyze_corpus(root, where, workers=workers)))
            query_s.append(pace.lap())
        for where, answer in answers:
            checks.op(
                answer.dispatched == 0 and not answer.failures and answer.matched > 0,
                f"warm query {where!r}",
            )
        shutil.rmtree(root)
        number += 1
    pools.stop()
    print(pace.summary())

    wall_s = median(cold_s)
    outcome = Outcome(
        e2e={
            "setup_s": setup_s,
            "wall_s": wall_s,
            "frames_per_s": frames_per_pass / wall_s,
            "warm_s": median(warm_s),
            "report_p50_ms": median(query_s) * 1000.0,
            "report_p90_ms": p90(query_s) * 1000.0,
            "peak_rss_mb": peak_rss_mb() + pools.peak_mb,
        },
        untraced_wall_s=wall_s,
    )
    if ctx.trace:
        outcome.traced_wall_s, outcome.layers = _traced(
            ctx, traces, expected, workers, size
        )
        add_counts(outcome.layers, counts)
    return outcome


def _traced(ctx, traces, expected, workers, size):
    """One traced cold pass and warm re-runs, then per-layer probes."""
    from repro.corpus import (
        AnalysisStore,
        CorpusIndex,
        analysis_key,
        analyze_corpus,
        plan_analysis,
    )
    from repro.pipeline import (
        DEFAULT_CONSUMERS,
        PipelineExecutor,
        assemble_report,
        create_consumers,
    )

    checks, tracer = ctx.checks, ctx.tracer
    n_captures = 4 * len(traces)
    root = ctx.workdir / "traced"
    root.mkdir()
    with tracer.span("corpus.pass_cold"):
        cold, matched, traced_wall_s = _cold_pass(tracer, root, traces, workers, Pace())
    _check_cold(checks, cold, matched, expected, n_captures)
    for _ in range(size["warm_full"]):
        with tracer.span("corpus.analyze_warm"):
            warm = analyze_corpus(root, workers=workers)
    layers = {
        "corpus.dispatched_cold": cold.dispatched,
        "corpus.dispatched_warm": warm.dispatched,
    }

    # Probes: each layer's public calls on this pass's captures.
    for fmt, suffix, _, read in _formats():
        total_bytes = 0
        for number in range(len(traces)):
            path = root / f"day{number}{suffix}"
            total_bytes += path.stat().st_size
            with tracer.span(f"codec.{fmt}.read"):
                frames = sum(len(batch) for batch in read(path))
            checks.check(
                "corpus.readback_frames", frames == len(traces[number]), path.name
            )
        layers[f"codec.{fmt}.bytes"] = total_bytes
    with tracer.span("corpus.index_warm"):
        stats = CorpusIndex(root).refresh()
    checks.check("corpus.warm_index_hashes_nothing", stats.hashed == 0)
    records = list(CorpusIndex(root).records().values())
    with tracer.span("corpus.plan"):
        plan = plan_analysis(AnalysisStore(root), records)
    checks.check("corpus.plan_all_cached", len(plan.cached) == n_captures)

    probe = ctx.workdir / "probe-store"
    probe.mkdir()
    store = AnalysisStore(probe)
    for record in records:
        report = cold.reports[record.path]
        key = analysis_key(record.content_hash)
        with tracer.span("store.analysis_put"):
            store.put(key, record.content_hash, record.path, report)
        with tracer.span("store.analysis_get"):
            again = store.get(key)
        checks.check(
            "corpus.store_roundtrip",
            again is not None and report_digest(again) == report_digest(report),
            record.path,
        )

    for number, trace in enumerate(traces):
        executor = PipelineExecutor(create_consumers(DEFAULT_CONSUMERS))
        with tracer.span("pipeline.feed"):
            executor.feed(on_air(trace))
        with tracer.span("pipeline.close"):
            results = executor.close()
        with tracer.span("report.assemble"):
            report = assemble_report(results)
        checks.check(
            "corpus.pipeline_replay",
            report_digest(report) == expected[f"day{number}.pcap"],
        )
    return traced_wall_s, layers
