"""Incremental == batch: the serve layer's numerical contract.

The daemon answers ``/feeds/<id>/report`` from
``PipelineExecutor.snapshot()`` while frames are still arriving.  These
tests pin the property that makes that answer trustworthy: after
feeding chunks ``c1..ck``, a snapshot is field-for-field identical to a
batch ``run_all`` over exactly those chunks — for every library
scenario, for a real pcap file, and down to one-frame segments.
"""

import pytest

from repro.core import analyze_trace
from repro.frames import Trace
from repro.pcap import write_trace
from repro.pipeline import (
    DEFAULT_CONSUMERS,
    ROSTER_CONSUMERS,
    PipelineExecutor,
    UnsortedStreamError,
    assemble_report,
    create_consumers,
    pcap_chunks,
    run_all,
    trace_chunks,
)
from repro.sim import available_scenarios, build_scenario

from ..conftest import data
from .test_equivalence import CHAIN_CASES, assert_reports_equal


def make_executor(roster=None, name="inc"):
    names = DEFAULT_CONSUMERS + (ROSTER_CONSUMERS if roster is not None else ())
    return PipelineExecutor(create_consumers(names), name=name, roster=roster)


def snapshot_report(executor, name="inc"):
    return assemble_report(executor.snapshot(), name=name)


def assert_prefix_equivalence(chunks, roster=None):
    """Every snapshot prefix must equal the batch run over that prefix."""
    executor = make_executor(roster)
    for k, chunk in enumerate(chunks, start=1):
        executor.feed(chunk)
        incremental = snapshot_report(executor)
        batch = run_all(iter(chunks[:k]), roster, name="inc")
        assert_reports_equal(batch, incremental)
    final = assemble_report(executor.close(), name="inc")
    assert_reports_equal(run_all(iter(chunks), roster, name="inc"), final)


@pytest.mark.parametrize("scenario", available_scenarios())
def test_every_library_scenario_prefixwise(scenario):
    """All library scenarios: snapshot after each chunk == batch prefix."""
    built = build_scenario(scenario, duration_s=2)
    chunks = list(built.stream(chunk_frames=256))
    assert len(chunks) >= 2, "need multiple prefixes to make this meaningful"
    assert_prefix_equivalence(chunks, built.roster)


def test_pcap_file_prefixwise(small_scenario, tmp_path):
    """A real pcap read back in chunks: every prefix snapshot matches."""
    path = tmp_path / "capture.pcap"
    write_trace(small_scenario.trace, path)
    chunks = list(pcap_chunks(path, chunk_frames=1024))
    assert len(chunks) >= 3
    assert_prefix_equivalence(chunks)


def test_one_frame_chunks(exchange_trace, tiny_roster):
    """Degenerate chunking: one frame per feed() still matches batch, on
    the exchange trace and on every retry-chain timeout edge case."""
    for trace in [exchange_trace] + [t for t, _ in CHAIN_CASES.values()]:
        chunks = list(trace_chunks(trace, chunk_frames=1))
        assert all(len(c) == 1 for c in chunks)
        assert_prefix_equivalence(chunks, tiny_roster)


def test_close_matches_analyze_trace(small_scenario):
    """The incremental path lands on the same report as repro.core."""
    trace, roster = small_scenario.trace, small_scenario.roster
    executor = make_executor(roster, name="scenario")
    for chunk in trace_chunks(trace, chunk_frames=513):
        executor.feed(chunk)
    report = assemble_report(executor.close(), name="scenario")
    assert_reports_equal(analyze_trace(trace, roster, name="scenario"), report)


def test_snapshot_does_not_disturb_the_stream(small_scenario):
    """Snapshotting mid-stream must not change the final answer."""
    chunks = list(trace_chunks(small_scenario.trace, chunk_frames=700))
    noisy = make_executor()
    for chunk in chunks:
        noisy.feed(chunk)
        noisy.snapshot()      # observe constantly
        noisy.snapshot()
    quiet = make_executor()
    for chunk in chunks:
        quiet.feed(chunk)
    assert_reports_equal(
        assemble_report(quiet.close(), name="inc"),
        assemble_report(noisy.close(), name="inc"),
    )


def test_snapshot_on_fresh_executor_is_empty_report():
    executor = make_executor()
    report = snapshot_report(executor)
    assert_reports_equal(run_all(Trace.empty(), name="inc"), report)
    assert report.summary.n_frames == 0


def test_snapshot_after_close_returns_final_results():
    executor = make_executor()
    executor.feed(Trace.from_rows([data(1_000, src=10, dst=1)]))
    closed = executor.close()
    assert executor.snapshot() is closed
    assert executor.close() is closed  # close() is idempotent too


def test_feed_after_close_raises():
    executor = make_executor()
    executor.close()
    with pytest.raises(RuntimeError, match="closed"):
        executor.feed(Trace.from_rows([data(1_000, src=10, dst=1)]))


def test_reset_reuses_executor(exchange_trace, tiny_roster):
    """reset() gives a pristine stream; two passes agree exactly."""
    executor = make_executor(tiny_roster)
    chunks = list(trace_chunks(exchange_trace, chunk_frames=3))
    for chunk in chunks:
        executor.feed(chunk)
    first = assemble_report(executor.close(), name="inc")
    executor.reset()
    assert not executor.closed
    assert executor.frames_fed == 0
    for chunk in chunks:
        executor.feed(chunk)
    second = assemble_report(executor.close(), name="inc")
    assert_reports_equal(first, second)


def test_empty_segment_is_a_noop():
    executor = make_executor()
    assert executor.feed(Trace.empty()) == 0
    executor.feed(Trace.from_rows([data(5_000, src=10, dst=1)]))
    assert executor.feed(Trace.empty()) == 0
    assert executor.frames_fed == 1


def test_unsorted_segment_rejected():
    executor = make_executor()
    backwards = Trace.from_rows(
        [data(9_000, src=10, dst=1), data(1_000, src=11, dst=1)]
    )
    with pytest.raises(UnsortedStreamError):
        executor.feed(backwards)


def test_overlapping_segments_rejected():
    executor = make_executor()
    executor.feed(Trace.from_rows([data(10_000, src=10, dst=1)]))
    with pytest.raises(UnsortedStreamError, match="non-overlapping"):
        executor.feed(Trace.from_rows([data(9_999, src=11, dst=1)]))


def test_equal_boundary_timestamps_allowed():
    """A segment may start exactly at the previous segment's end time."""
    executor = make_executor()
    executor.feed(Trace.from_rows([data(10_000, src=10, dst=1)]))
    executor.feed(Trace.from_rows([data(10_000, src=11, dst=1)]))
    report = assemble_report(executor.close(), name="inc")
    assert report.summary.n_frames == 2


def test_frames_fed_counts_every_row(small_scenario):
    chunks = list(trace_chunks(small_scenario.trace, chunk_frames=333))
    executor = make_executor()
    total = 0
    for chunk in chunks:
        total += executor.feed(chunk)
    assert total == len(small_scenario.trace)
    assert executor.frames_fed == total
