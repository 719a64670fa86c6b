"""Executor mechanics: chunking, registry, custom consumers, batch mode."""

import numpy as np
import pytest

from repro.frames import FrameType, Trace
from repro.pipeline import (
    Consumer,
    PipelineExecutor,
    SecondAccumulator,
    available_consumers,
    consumer_factory,
    create_consumers,
    register_consumer,
    run_all,
    run_batch,
    run_consumers,
    trace_chunks,
)

from ..conftest import ack, beacon, data


def _trace(n=10, spacing_us=100_000):
    return Trace.from_rows(
        [data(i * spacing_us, src=10, dst=1, seq=i) for i in range(n)]
    )


class TestTraceChunks:
    def test_covers_all_rows_in_order(self):
        trace = _trace(10)
        chunks = list(trace_chunks(trace, chunk_frames=4))
        assert [len(c) for c in chunks] == [4, 4, 2]
        merged = np.concatenate([c.time_us for c in chunks])
        assert np.array_equal(merged, trace.time_us)

    def test_sorts_unsorted_input_once(self):
        rows = [data(t, src=10, dst=1) for t in (5_000, 1_000, 3_000)]
        chunks = list(trace_chunks(Trace.from_rows(rows), chunk_frames=2))
        merged = np.concatenate([c.time_us for c in chunks])
        assert np.array_equal(merged, np.array([1_000, 3_000, 5_000]))

    def test_views_not_copies(self):
        trace = _trace(8)
        chunk = next(trace_chunks(trace, chunk_frames=4))
        assert chunk.time_us.base is not None  # numpy view, not a copy

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            list(trace_chunks(_trace(), chunk_frames=0))


class TestSecondAccumulator:
    def test_counts_and_weights(self):
        acc = SecondAccumulator()
        acc.add(np.array([0, 0, 3]))
        acc.add(np.array([3]), weights=np.array([2.5]))
        assert np.allclose(acc.totals(5), [2.0, 0.0, 0.0, 3.5, 0.0])

    def test_two_dimensional(self):
        acc = SecondAccumulator(width=2)
        acc.add(np.array([0, 1, 1]), cols=np.array([0, 1, 1]))
        totals = acc.totals(2)
        assert totals.shape == (2, 2)
        assert np.allclose(totals, [[1.0, 0.0], [0.0, 2.0]])

    def test_truncates_and_pads(self):
        acc = SecondAccumulator()
        acc.add(np.array([7]))
        assert len(acc.totals(3)) == 3
        assert acc.totals(10)[7] == 1.0

    def test_negative_second_rejected(self):
        acc = SecondAccumulator()
        with pytest.raises(ValueError, match="non-negative"):
            acc.add(np.array([0, -1]))


class TestRegistry:
    def test_default_consumers_registered(self):
        names = available_consumers()
        for expected in ("summary", "utilization", "throughput", "delays"):
            assert expected in names

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown consumer"):
            consumer_factory("no-such-metric")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_consumer("summary", lambda: None)

    def test_create_consumers_fresh_instances(self):
        a, b = create_consumers(["summary"]), create_consumers(["summary"])
        assert a[0] is not b[0]


class FrameCounter(Consumer):
    """Minimal custom consumer: total frames and beacon count."""

    name = "frame_counter"
    needs_ack_match = False  # exercises the executor's skip paths
    needs_cbt = False

    def start(self, ctx):
        self.total = 0
        self.beacons = 0

    def consume(self, chunk):
        self.total += len(chunk)
        self.beacons += int(
            np.count_nonzero(chunk.trace.ftype == int(FrameType.BEACON))
        )

    def finalize(self, ctx, deps):
        return {"total": self.total, "beacons": self.beacons}


class TestCustomConsumers:
    def test_custom_consumer_plugs_in(self):
        rows = [beacon(0, src=1)] + [
            data(1_000 + i * 2_000, src=10, dst=1, seq=i) for i in range(5)
        ]
        executor = PipelineExecutor([FrameCounter()], chunk_frames=2)
        results = executor.run(Trace.from_rows(rows))
        assert results["frame_counter"] == {"total": 6, "beacons": 1}

    def test_registered_custom_consumer_via_run_consumers(self, monkeypatch):
        from repro.pipeline import registry

        # setitem is reverted on teardown, so the global registry stays clean.
        monkeypatch.setitem(registry._FACTORIES, "frame_counter", FrameCounter)
        results = run_consumers(_trace(6), ["frame_counter"])
        assert results["frame_counter"]["total"] == 6
        assert "frame_counter" in registry.available_consumers()

    def test_missing_dependency_rejected(self):
        class Needy(Consumer):
            name = "needy"
            requires = ("not-there",)

        with pytest.raises(ValueError, match="requires"):
            PipelineExecutor([Needy()])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PipelineExecutor([FrameCounter(), FrameCounter()])


class TestStreamValidation:
    def test_unsorted_segment_rejected(self):
        bad = Trace.from_rows([data(5_000, 10, 1), data(1_000, 10, 1)])
        executor = PipelineExecutor([FrameCounter()])
        with pytest.raises(ValueError, match="time-sorted"):
            executor.run(iter([bad]))

    def test_overlapping_segments_rejected(self):
        first = Trace.from_rows([data(0, 10, 1), data(9_000, 10, 1)])
        second = Trace.from_rows([data(1_000, 10, 1)])
        executor = PipelineExecutor([FrameCounter()])
        with pytest.raises(ValueError, match="ordered"):
            executor.run(iter([first, second]))

    def test_empty_segments_skipped(self):
        stream = [Trace.empty(), _trace(4), Trace.empty()]
        results = run_consumers(iter(stream), ["summary"])
        assert results["summary"].n_frames == 4

    def test_ack_match_across_segment_gap(self):
        """A DATA ending one segment pairs with the ACK opening the next."""
        first = Trace.from_rows([data(0, src=10, dst=1, seq=1)])
        second = Trace.from_rows([ack(1_500, src=1, dst=10)])
        results = run_consumers(iter([first, second]), ["reception"])
        reception = results["reception"]
        assert sum(s.value.sum() for s in reception.per_rate.values()) > 0


class TestPcapSources:
    def test_unsorted_pcap_falls_back_to_load_and_sort(self, tmp_path):
        """A pcap with records out of time order must still analyze,
        matching the batch path (regression: the streaming reader used
        to crash on it)."""
        import numpy as np

        from repro.core import analyze_trace
        from repro.pcap import read_trace, write_trace

        rng = np.random.default_rng(5)
        times = rng.permutation(50) * 100_000
        rows = [data(int(t), src=10, dst=1, seq=i) for i, t in enumerate(times)]
        path = tmp_path / "unsorted.pcap"
        write_trace(Trace.from_rows(rows), path)  # preserves row order

        streamed = run_all(str(path), name="u", chunk_frames=7)
        batch = analyze_trace(read_trace(path), name="u")
        assert streamed.summary == batch.summary
        assert np.allclose(
            streamed.utilization.percent, batch.utilization.percent
        )

    def test_mildly_disordered_pcap_streams(self, tmp_path):
        """Disorder within one batch is absorbed by the per-batch sort
        without the load-and-sort fallback."""
        from repro.pipeline import pcap_chunks
        from repro.pcap import write_trace

        rows = [
            data(200, src=10, dst=1, seq=0),
            data(100, src=10, dst=1, seq=1),  # swapped pair
            data(900_000, src=10, dst=1, seq=2),
        ]
        path = tmp_path / "mild.pcap"
        write_trace(Trace.from_rows(rows), path)
        chunks = list(pcap_chunks(path, chunk_frames=10))
        assert len(chunks) == 1
        assert chunks[0].is_time_sorted()


class TestRunBatch:
    def test_mapping_input(self, small_scenario):
        trace = small_scenario.trace
        half = len(trace) // 2
        sorted_trace = trace.sorted_by_time()
        parts = {
            "first": sorted_trace.slice_rows(0, half),
            "second": sorted_trace.slice_rows(half, len(trace)),
        }
        reports = run_batch(parts, roster=small_scenario.roster, max_workers=2)
        assert list(reports) == ["first", "second"]
        for name, report in reports.items():
            assert report.name == name
        total = sum(r.summary.n_frames for r in reports.values())
        assert total == len(trace)

    def test_sequence_input_gets_default_names(self):
        reports = run_batch([_trace(5), _trace(7)])
        assert list(reports) == ["trace-0", "trace-1"]
        assert reports["trace-1"].summary.n_frames == 7

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate batch names"):
            run_batch([("day", _trace(5)), ("day", _trace(7))])

    def test_process_mode_on_paths(self, tmp_path, small_scenario):
        """Path sources default to a process pool; reports match."""
        from repro.pcap import write_trace

        trace = small_scenario.trace.sorted_by_time()
        half = len(trace) // 2
        paths = {}
        for name, part in (
            ("first", trace.slice_rows(0, half)),
            ("second", trace.slice_rows(half, len(trace))),
        ):
            p = tmp_path / f"{name}.pcap"
            write_trace(part, p)
            paths[name] = str(p)
        reports = run_batch(paths, max_workers=2)  # mode auto: process
        assert list(reports) == ["first", "second"]
        assert (
            reports["first"].summary.n_frames
            + reports["second"].summary.n_frames
            == len(trace)
        )
        with pytest.raises(ValueError, match="mode"):
            run_batch(paths, mode="fiber")

    def test_batch_matches_individual_runs(self, small_scenario):
        trace = small_scenario.trace
        solo = run_all(trace, name="day")
        batched = run_batch([("day", trace)], max_workers=4)["day"]
        assert solo.summary == batched.summary
        assert np.allclose(
            solo.utilization.percent, batched.utilization.percent
        )
        assert solo.thresholds == batched.thresholds
