"""``session``: the ``repro run`` single-scenario path, closed loop.

One caller runs the default (golden-pinned) engine's ``day`` scenario
through ``Experiment.scenario("day", ...).run()`` to a full
``CongestionReport`` and issues the next request when the report is
back.  A pass covers a panel of scenario seeds drawn from the run seed,
and every pass draws a fresh panel, so one run's work does not hinge on
a few seeds' traffic draws.  Passes repeat until the measuring time is
spent and at least ``min_timed`` sessions are timed; after each pass
its first session runs again and must reproduce its report digest.

``sim`` does nearly all the work here; ``codec``, ``store``, ``serve``
and ``snapshot`` do none, which makes this the bypass workload for
every non-simulator change.
"""

from __future__ import annotations

import time

from .common import (
    Context,
    NullTracer,
    Outcome,
    Pace,
    add_counts,
    derived_seeds,
    median,
    p90,
    peak_rss_mb,
    report_digest,
    sim_counts,
    timed_setup,
)

SIZES = {
    "normal": {"sessions": 20, "duration_s": 3.0, "repeats": 1, "min_timed": 100},
    "tiny": {"sessions": 2, "duration_s": 0.5, "repeats": 1, "min_timed": 4},
}


def _panel(ctx: Context, size: dict, number: int) -> list[int]:
    """Pass ``number``'s scenario seeds; every pass draws fresh ones."""
    return derived_seeds(ctx.seed, size["sessions"], f"session:{number}")


def _experiments(seeds, duration_s):
    from repro.api import Experiment

    return [
        Experiment.scenario("day", duration_s=duration_s, seed=seed)
        for seed in seeds
    ]


def _traced_session(tracer, seed: int, duration_s: float):
    """The path ``Experiment.run`` takes for one session, call by call."""
    from repro.pipeline import (
        DEFAULT_CONSUMERS,
        ROSTER_CONSUMERS,
        PipelineExecutor,
        assemble_report,
        create_consumers,
    )
    from repro.sim import build_scenario

    with tracer.span("session.request", seed=seed):
        with tracer.span("sim.build"):
            built = build_scenario("day", duration_s=duration_s, seed=seed)
        executor = PipelineExecutor(
            create_consumers(DEFAULT_CONSUMERS + ROSTER_CONSUMERS),
            name="day",
            roster=built.roster,
        )
        chunks = built.stream()
        while True:
            with tracer.span("sim.advance"):
                segment = next(chunks, None)
            if segment is None:
                break
            with tracer.span("pipeline.feed"):
                executor.feed(segment)
        with tracer.span("pipeline.close"):
            results = executor.close()
        with tracer.span("report.assemble"):
            report = assemble_report(results, name="day")
    return report, built


def _session(checks, experiment, seed):
    """Run one session request; its report, or None if it failed."""
    try:
        report = experiment.run().report
    except Exception as error:  # a failed request is counted, not fatal
        checks.op(False, f"session seed {seed}: {error!r}")
        return None
    checks.op(True, "session")
    return report


def run(ctx: Context) -> Outcome:
    size = SIZES["tiny" if ctx.tiny else "normal"]
    checks = ctx.checks
    duration_s = size["duration_s"]
    setup_s, first = timed_setup(
        3,
        lambda tracer: _experiments(_panel(ctx, size, 0), duration_s),
        NullTracer(),
    )

    # Every session is timed on its own and calibration-scaled (see
    # ``Pace``); a pass's time is the sum of its sessions'.
    panels: list[list[int]] = []
    digests: dict[int, str] = {}
    latencies: list[float] = []
    passes: list[float] = []
    frames = 0
    pace = Pace()
    deadline = time.perf_counter() + ctx.seconds
    # At least ``min_timed`` sessions, so that p90 has ten beyond it.
    while (
        len(passes) * size["sessions"] < size["min_timed"]
        or time.perf_counter() < deadline
    ):
        seeds = _panel(ctx, size, len(passes))
        experiments = first if not passes else _experiments(seeds, duration_s)
        reports, seconds = [], []
        pace.start()
        for seed, experiment in zip(seeds, experiments):
            reports.append(_session(checks, experiment, seed))
            seconds.append(pace.lap())
        for seed, report, latency in zip(seeds, reports, seconds):
            if report is not None:
                latencies.append(latency)
                frames += report.summary.n_frames
                digests[seed] = report_digest(report)
        passes.append(sum(seconds))
        panels.append(seeds)
        # Repeats of a seed must reproduce its report exactly.
        for seed, experiment in list(zip(seeds, experiments))[: size["repeats"]]:
            report = _session(checks, experiment, seed)
            if report is not None:
                checks.check(
                    "session.digest_repeats",
                    report_digest(report) == digests.get(seed),
                    f"seed {seed}",
                )

    print(pace.summary())
    outcome = Outcome(
        e2e={
            "setup_s": setup_s,
            "wall_s": median(passes),
            "frames_per_s": frames / sum(passes),
            "warm_s": median(passes[1:]),
            "report_p50_ms": median(latencies) * 1000.0,
            "report_p90_ms": p90(latencies) * 1000.0,
            "peak_rss_mb": peak_rss_mb(),
        },
        untraced_wall_s=passes[1],
    )
    if not ctx.trace:
        return outcome

    # The traced pass replays pass 1's panel call by call.
    tracer = ctx.tracer
    layers: dict[str, float] = {}
    counts: dict[int, dict[str, float]] = {}
    outcome.traced_wall_s = 0.0
    for seed in panels[1]:
        pace.start()
        report, built = _traced_session(tracer, seed, duration_s)
        outcome.traced_wall_s += pace.lap()
        checks.check(
            "session.traced_equals_api",
            report_digest(report) == digests.get(seed),
            f"seed {seed}",
        )
        counts[seed] = sim_counts(built.perf_counters, built.frames_captured)
        add_counts(layers, counts[seed])
    seed = panels[1][0]
    _, again = _traced_session(NullTracer(), seed, duration_s)
    checks.check(
        "session.sim_counts_repeat",
        sim_counts(again.perf_counters, again.frames_captured) == counts[seed],
        f"seed {seed}",
    )
    outcome.layers = layers
    return outcome
