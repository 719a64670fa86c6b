"""Consumer state is bounded by aggregate state, not by stream history.

``PipelineExecutor.snapshot()`` copies every consumer on each serve
report poll, so its cost is the consumers' size.  These checks feed a
generated capture in 400-frame segments (the serve prefill batch size)
and bound how much each consumer's pickled state may grow from 10k to
100k frames: by a per-second rate (8-byte cells, times the histogram
width, times 2 for geometric capacity) and a per-30 s-interval rate,
plus a fixed allowance — never by frames or segments fed.
"""

import pickle

import numpy as np
import pytest

from repro.frames import Trace
from repro.pipeline import (
    DEFAULT_CONSUMERS,
    ROSTER_CONSUMERS,
    PipelineExecutor,
    create_consumers,
    trace_chunks,
)
from repro.sim import build_scenario

SEGMENT_FRAMES = 400
CHECKPOINTS = (10_000, 100_000)

#: Open retry chains the delay consumer may hold.  It prunes chains
#: older than one timeout once per timeout of stream time, so the table
#: holds at most 2 s of unacknowledged chains: about 1,200 at this
#: stream's busiest, against over 14,000 left unpruned.
CHAIN_CAP = 2_048

#: consumer -> (bytes per second, bytes per 30 s interval, fixed bytes)
STATE_BOUNDS = {
    "summary": (0, 0, 256),
    "utilization": (0, 0, 256),
    "throughput": (2 * 1 * 8 * 2, 0, 1_024),
    "congestion": (0, 0, 256),
    "rts_cts": (2 * 1 * 8 * 2, 0, 1_024),
    "busytime_share": (4 * 8 * 2, 0, 1_024),
    "bytes_per_rate": (4 * 8 * 2, 0, 1_024),
    "transmissions": (16 * 8 * 2, 0, 1_024),
    "reception": (4 * 8 * 2, 0, 1_024),
    # Sum and count tables over the 4 Figure-15 categories, plus the
    # pruned chain table (~24 B an entry).
    "delays": (2 * 4 * 8 * 2, 0, 1_024 + 24 * CHAIN_CAP),
    # The (src, dst) pair table is bounded by the roster's node pairs.
    "unrecorded": (0, 0, 4_096),
    "ap_activity": (0, 0, 256),
    "unrecorded_per_ap": (0, 0, 256),
    # Closed-interval counts; the open interval's station set is bounded
    # by the roster.
    "user_series": (0, 8 * 2, 4_096),
}


@pytest.fixture(scope="module")
def fed_states():
    """Pickled size of every consumer at each checkpoint, plus the
    largest open-chain table seen after any segment."""
    built = build_scenario("day", fidelity="fast", duration_s=400.0, seed=3)
    chunks, have = [], 0
    for chunk in built.stream():
        chunks.append(chunk)
        have += len(chunk)
        if have >= CHECKPOINTS[-1]:
            break
    trace = Trace.concatenate(chunks).slice_rows(0, CHECKPOINTS[-1])
    consumers = create_consumers(DEFAULT_CONSUMERS + ROSTER_CONSUMERS)
    executor = PipelineExecutor(consumers, roster=built.roster)
    delays = next(c for c in consumers if c.name == "delays")
    sizes, seconds, max_chains = {}, {}, 0
    for segment in trace_chunks(trace, SEGMENT_FRAMES):
        executor.feed(segment)
        max_chains = max(max_chains, len(delays._open_chains))
        if executor.frames_fed in CHECKPOINTS:
            at = executor.frames_fed
            sizes[at] = {c.name: len(pickle.dumps(c)) for c in consumers}
            seconds[at] = len(executor.snapshot()["utilization"])
    return sizes, seconds, max_chains


def test_checkpoints_cover_real_growth(fed_states):
    """The stream is long enough for per-second state to show."""
    sizes, seconds, _ = fed_states
    assert set(sizes) == set(CHECKPOINTS)
    assert seconds[CHECKPOINTS[1]] - seconds[CHECKPOINTS[0]] >= 60


@pytest.mark.parametrize("name", sorted(STATE_BOUNDS))
def test_consumer_growth_is_bounded_by_seconds(fed_states, name):
    sizes, seconds, _ = fed_states
    lo, hi = CHECKPOINTS
    extra_seconds = seconds[hi] - seconds[lo]
    extra_intervals = int(np.ceil(seconds[hi] / 30)) - int(np.ceil(seconds[lo] / 30))
    per_second, per_interval, fixed = STATE_BOUNDS[name]
    bound = per_second * extra_seconds + per_interval * extra_intervals + fixed
    growth = sizes[hi][name] - sizes[lo][name]
    assert growth <= bound, (
        f"{name} grew {growth} B over {hi - lo} frames / {extra_seconds} s "
        f"(bound {bound} B)"
    )


def test_every_registered_default_consumer_is_bounded():
    assert set(STATE_BOUNDS) == set(DEFAULT_CONSUMERS + ROSTER_CONSUMERS)


def test_open_chain_table_stays_under_cap(fed_states):
    _, _, max_chains = fed_states
    assert 0 < max_chains <= CHAIN_CAP
