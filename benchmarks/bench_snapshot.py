"""Snapshot flatness gate: poll cost must not grow with feed history.

A live feed answers every report poll with
:meth:`PipelineExecutor.snapshot`, which copies the executor's state and
closes the copy.  Consumers keep per-second aggregates (not
per-delivery history), so that copy — and the poll — should cost the
same after 1M frames as after 10k.

Generates a fast-engine ``day`` capture, feeds it in 400-frame segments
(the serve daemon's prefill batch size) through the default and roster
consumers, and at each checkpoint:

* keeps a copy of the executor holding exactly that prefix;
* checks its snapshot against a batch :func:`run_consumers` over the
  same prefix and segmentation — the pickled results must be
  byte-identical.

Snapshots of the held executors are then timed ``--repeats`` times,
the sizes interleaved so that host noise falls on every size alike.

Exits non-zero if any checkpoint differs from batch, or if the p50 at
1M frames exceeds 2x the p50 at 10k.  Both sides of the ratio come from
the same process on the same host, so the gate needs no calibration::

    python benchmarks/bench_snapshot.py
    python benchmarks/bench_snapshot.py --repeats 5
"""

from __future__ import annotations

import argparse
import copy
import pickle
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.frames import Trace  # noqa: E402
from repro.pipeline import (  # noqa: E402
    DEFAULT_CONSUMERS,
    ROSTER_CONSUMERS,
    PipelineExecutor,
    create_consumers,
    run_consumers,
    trace_chunks,
)
from repro.sim import build_scenario  # noqa: E402

SEGMENT_FRAMES = 400
SIZES = (10_000, 100_000, 1_000_000)  # frames ingested at each checkpoint
SEED = 1
MAX_RATIO = 2.0  # gate: p50 at SIZES[-1] / p50 at SIZES[0]
NAMES = DEFAULT_CONSUMERS + ROSTER_CONSUMERS


def day_block(frames: int, seed: int):
    """The first ``frames`` captured frames of a fast-engine ``day`` run."""
    built = build_scenario(
        "day", fidelity="fast", duration_s=frames / 100.0, seed=seed
    )
    chunks, have = [], 0
    for chunk in built.stream():
        chunks.append(chunk)
        have += len(chunk)
        if have >= frames:
            break
    if have < frames:
        raise SystemExit(f"day run captured only {have} of {frames} frames")
    return Trace.concatenate(chunks).slice_rows(0, frames), built.roster


def tiled_segments(block: Trace, n_frames: int):
    """``n_frames`` of ``block`` repeated back to back, in feed segments.

    Each repeat is shifted one second past the previous one's end, so
    the stream stays time-sorted and every checkpoint (a multiple of
    the block size) ends on the same traffic: checkpoints differ only
    in how much history precedes them, not in the load they end on.
    """
    columns = block.to_columns()
    period = int(block.time_us[-1]) - int(block.time_us[0]) + 1_000_000
    for i in range(n_frames // len(block)):
        shifted = dict(columns, time_us=columns["time_us"] + i * period)
        yield from trace_chunks(Trace(shifted), SEGMENT_FRAMES)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args(argv)

    block, roster = day_block(SIZES[0], SEED)
    executor = PipelineExecutor(create_consumers(NAMES), roster=roster)
    feed = tiled_segments(block, SIZES[-1])
    held = {}  # size -> an executor holding exactly that prefix
    for size in SIZES:
        while executor.frames_fed < size:
            executor.feed(next(feed))
        held[size] = copy.deepcopy(executor)

    # Interleave the sizes so host noise lands on every size alike.
    times = {size: [] for size in SIZES}
    for _ in range(args.repeats):
        for size in SIZES:
            start = time.perf_counter()
            held[size].snapshot()
            times[size].append((time.perf_counter() - start) * 1e3)

    print(f"fast-engine day, seed {SEED}, {SEGMENT_FRAMES}-frame segments")
    print(f"{'frames':>9} {'seconds':>8} {'snapshot p50 ms':>16} {'max ms':>8}"
          "  identical to batch")
    p50s, failures = [], []
    for size in SIZES:
        batch = run_consumers(tiled_segments(block, size), NAMES, roster=roster)
        same = pickle.dumps(held[size].snapshot()) == pickle.dumps(batch)
        p50s.append(statistics.median(times[size]))
        print(
            f"{size:>9} {len(batch['utilization']):>8} {p50s[-1]:>16.2f} "
            f"{max(times[size]):>8.2f}  {'yes' if same else 'NO'}"
        )
        if not same:
            failures.append(f"{size} frames: snapshot differs from batch run")

    ratio = p50s[-1] / p50s[0]
    print(f"p50 ratio {SIZES[-1]} / {SIZES[0]} frames: {ratio:.2f} "
          f"(gate <= {MAX_RATIO:g})")
    if ratio > MAX_RATIO:
        failures.append(
            f"snapshot p50 grew {ratio:.2f}x from {SIZES[0]} to {SIZES[-1]} frames"
        )
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
