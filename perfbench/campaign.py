"""``campaign``: the sweep path, cold into a fresh store, then warm.

A ``ramp`` grid of many short default-engine cells (station counts by
scenario seeds drawn from the run seed) runs on a process pool of at
most ``nproc`` workers into a fresh ``CampaignStore``; the same grid is
then run again and answered entirely from the store.  Every cold pass
draws fresh scenario seeds, so one run's work does not hinge on a few
seeds' traffic draws.  Per-cell pool and store overhead is a large
share of the cold time, so this is where dispatch and store changes
show.
"""

from __future__ import annotations

import os
import time

from .common import (
    Context,
    NullTracer,
    Outcome,
    Pace,
    PoolPeaks,
    derived_seeds,
    median,
    p90,
    peak_rss_mb,
    timed_setup,
)

SIZES = {
    "normal": {
        "stations": (4, 8, 12, 16, 20, 24),
        "seeds": 4,
        "duration_s": 1.0,
        "warm": 3,
    },
    "tiny": {"stations": (4, 8), "seeds": 1, "duration_s": 0.5, "warm": 1},
}
#: The ramp's per-second log-normal burst draw, off: with it, one
#: 1-second cell's traffic is a single draw, and a 24-cell grid's
#: frame count varied by a third from one seed panel to the next.
BURST_SIGMA = 0.0


def _grid(ctx: Context, size: dict, number: int):
    """Pass ``number``'s grid; every pass draws fresh scenario seeds."""
    from repro.campaign import ParameterGrid

    return ParameterGrid(
        "ramp",
        axes={"n_stations": list(size["stations"])},
        seeds=derived_seeds(ctx.seed, size["seeds"], f"campaign:{number}"),
        fixed={"duration_s": size["duration_s"], "burst_sigma": BURST_SIGMA},
    ).validate()


def _table(result) -> list[dict]:
    return [cell.as_row() for cell in result.cells]


def _check_cold(checks, cold, n_cells) -> None:
    for cell in cold.cells:
        checks.op(True, cell.name)
    for failed in cold.failed:
        checks.op(False, f"cell {failed.name}: {failed.error_type}")
    checks.check(
        "campaign.cold_dispatches_all",
        cold.dispatched == n_cells and not cold.failed,
        f"dispatched {cold.dispatched}, failed {len(cold.failed)}",
    )


def _check_warm(checks, cold, warm, n_cells) -> None:
    checks.check(
        "campaign.warm_all_store_hits",
        warm.dispatched == 0 and warm.store_hits == n_cells and not warm.failed,
        f"hits {warm.store_hits}, dispatched {warm.dispatched}",
    )
    checks.check("campaign.warm_table_equals_cold", _table(warm) == _table(cold))


def run(ctx: Context) -> Outcome:
    from repro.campaign import run_campaign

    size = SIZES["tiny" if ctx.tiny else "normal"]
    checks = ctx.checks
    workers = min(2, os.cpu_count() or 1)
    setup_s, first = timed_setup(5, lambda tracer: _grid(ctx, size, 0), NullTracer())
    n_cells = len(first.cells())

    # Every time is calibration-scaled (see ``Pace``); a cell's own
    # time takes its cold run's scale.
    cold_s, warm_s, cell_s, frames = [], [], [], []
    pace = Pace()
    pools = PoolPeaks().start()
    deadline = time.perf_counter() + ctx.seconds
    number = 0
    while len(cold_s) < 2 or time.perf_counter() < deadline:
        grid = first if number == 0 else _grid(ctx, size, number)
        store = ctx.workdir / f"store{number}"
        pace.start()
        cold = run_campaign(grid, workers=workers, store_dir=store)
        cold_s.append(pace.lap())
        cell_s.extend(cell.elapsed_s * pace.factor for cell in cold.cells)
        frames.append(sum(cell.n_frames for cell in cold.cells))
        warms = []
        for _ in range(size["warm"]):
            warms.append(run_campaign(grid, workers=workers, store_dir=store))
            warm_s.append(pace.lap())
        _check_cold(checks, cold, n_cells)
        for warm in warms:
            _check_warm(checks, cold, warm, n_cells)
        number += 1
    pools.stop()
    print(pace.summary())

    wall_s = median(cold_s)
    outcome = Outcome(
        e2e={
            "setup_s": setup_s,
            "wall_s": wall_s,
            "frames_per_s": sum(frames) / sum(cold_s),
            "warm_s": median(warm_s),
            "report_p50_ms": median(cell_s) * 1000.0,
            "report_p90_ms": p90(cell_s) * 1000.0,
            "peak_rss_mb": peak_rss_mb() + pools.peak_mb,
        },
        untraced_wall_s=wall_s,
    )
    if ctx.trace:
        # The traced pass reruns pass 1's grid cold, in a fresh store.
        outcome.untraced_wall_s = cold_s[1]
        outcome.traced_wall_s, outcome.layers = _traced(
            ctx, _grid(ctx, size, 1), workers, n_cells
        )
    return outcome


def _traced(ctx, grid, workers, n_cells):
    """One traced cold and warm run, then store probes on its cells."""
    from repro.campaign import CampaignStore, run_campaign

    checks, tracer = ctx.checks, ctx.tracer
    store_dir = ctx.workdir / "traced"
    pace = Pace()
    pace.start()
    with tracer.span("campaign.run_cold"):
        cold = run_campaign(grid, workers=workers, store_dir=store_dir)
    traced_wall_s = pace.lap()
    with tracer.span("campaign.run_warm"):
        warm = run_campaign(grid, workers=workers, store_dir=store_dir)
    _check_cold(checks, cold, n_cells)
    _check_warm(checks, cold, warm, n_cells)

    probe = CampaignStore(ctx.workdir / "probe-store")
    for cell in cold.cells:
        with tracer.span("store.cell_put"):
            probe.put(cell)
        with tracer.span("store.cell_get"):
            again = probe.get(cell.cell)
        checks.check(
            "campaign.store_roundtrip",
            again is not None and again.as_row() == cell.as_row(),
            cell.name,
        )

    # Per-layer times are raw host seconds, like the spans' (only
    # trace.overhead_s compares calibration-scaled walls).
    raw_wall_s = pace.raw[0]
    elapsed = [cell.elapsed_s for cell in cold.cells]
    layers = {
        "campaign.cells_per_s": n_cells / raw_wall_s,
        "campaign.cell_s_p50": median(elapsed),
        "campaign.cell_s_p90": p90(elapsed),
        "campaign.overhead_per_cell_ms": (
            (raw_wall_s * cold.workers - sum(elapsed)) / n_cells * 1000.0
        ),
        "campaign.dispatched": cold.dispatched,
        "campaign.store_hits": warm.store_hits,
        "sim.frames_transmitted": sum(c.frames_transmitted for c in cold.cells),
        "sim.frames_captured": sum(c.n_frames for c in cold.cells),
        "sim.events_processed": sum(c.events_processed for c in cold.cells),
        "sim.events_cancelled": sum(c.events_cancelled for c in cold.cells),
    }
    return traced_wall_s, layers
