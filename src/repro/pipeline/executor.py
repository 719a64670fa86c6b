"""Single-pass streaming executor and the one-call facades.

``analyze_trace`` computes every figure of the paper, but each core
analysis re-walks the whole trace — sorting it, re-deriving per-frame
busy time, re-matching ACKs — so a full report costs ~15 passes.  The
executor walks the stream **once**: per chunk it derives the shared
per-frame state (second index, channel busy-time, DATA-ACK matching),
accumulates total busy time, and fans the chunk out to every consumer.
Finalization then assembles exactly the objects the core functions
return.

    from repro.pipeline import run_all
    report = run_all(trace, roster)          # == analyze_trace(trace, roster)

Multi-trace batches (one report per capture session, like the paper's
day/plenary splits) run in parallel via :func:`run_batch`.

>>> from repro.frames import FrameRow, FrameType, Trace
>>> rows = [
...     FrameRow(time_us=t * 250_000, ftype=FrameType.DATA,
...              rate_mbps=11.0, size=1000, src=10, dst=1)
...     for t in range(8)
... ]
>>> report = run_all(Trace.from_rows(rows), name="doc")
>>> report.summary.n_frames
8
>>> len(report.utilization)
2
"""

from __future__ import annotations

import copy
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..core.report import CongestionReport
from ..core.acking import ack_match_pairs
from ..core.busytime import trace_cbt_us
from ..core.timing import DOT11B_TIMING, TimingParameters
from ..core.utilization import UtilizationSeries
from ..frames import NodeRoster, Trace
from .accumulate import SecondAccumulator
from .consumers import Consumer  # noqa: F401  (registers default consumers)
from .registry import DEFAULT_CONSUMERS, ROSTER_CONSUMERS, create_consumers
from .stream import (
    DEFAULT_CHUNK_FRAMES,
    Chunk,
    StreamContext,
    UnsortedStreamError,
    as_stream,
    trace_chunks,
)

__all__ = [
    "PipelineExecutor",
    "FailedAnalysis",
    "assemble_report",
    "run_all",
    "run_consumers",
    "run_batch",
]


def _match_chunk(trace: Trace, next_segment: Trace | None):
    """DATA-ACK matching for one chunk, looking one frame ahead.

    Applies :func:`repro.core.acking.ack_match_pairs` — the same rule
    :func:`repro.core.match_acks` uses — over the concatenated stream:
    the chunk's last frame is judged against the first frame of the
    next segment.
    """
    n = len(trace)
    acked = np.zeros(n, dtype=np.bool_)
    ack_time = np.full(n, -1, dtype=np.int64)
    ftype = trace.ftype
    if n > 1:
        hit = ack_match_pairs(
            ftype[:-1],
            ftype[1:],
            trace.src[:-1],
            trace.dst[1:],
            trace.channel[:-1],
            trace.channel[1:],
        )
        idx = np.nonzero(hit)[0]
        acked[idx] = True
        ack_time[idx] = trace.time_us[idx + 1]
    if next_segment is not None and bool(
        ack_match_pairs(
            ftype[-1:],
            next_segment.ftype[:1],
            trace.src[-1:],
            next_segment.dst[:1],
            trace.channel[-1:],
            next_segment.channel[:1],
        )[0]
    ):
        acked[-1] = True
        ack_time[-1] = int(next_segment.time_us[0])
    return acked, ack_time


class PipelineExecutor:
    """Drive a set of consumers over a stream — one-shot or incremental.

    ``consumers`` is an ordered list of :class:`Consumer` instances
    with unique names; any ``requires`` must name another consumer in
    the set (finalization runs in dependency order).

    Two driving styles share the exact same per-chunk machinery:

    * **one-shot** — :meth:`run` walks an entire source and returns the
      finalized results (the historical batch interface);
    * **incremental** — :meth:`feed` pushes time-sorted segments one at
      a time (a live feed), :meth:`snapshot` returns at any moment the
      results a batch run over everything fed so far would produce, and
      :meth:`close` ends the stream and finalizes for good.

    The incremental contract is exact, not approximate: after
    ``feed(c1) ... feed(ck)``, ``snapshot()`` equals
    ``PipelineExecutor(...).run(iter([c1, ..., ck]))`` field for field
    (one segment is always held back for DATA-ACK lookahead across the
    boundary; ``snapshot`` folds it in on a deep-copied state so the
    live pass is never disturbed).  Consumers keep aggregate state
    (per-second sums, not per-frame history), so that copy costs the
    same after a million frames as after ten thousand.
    """

    def __init__(
        self,
        consumers: Sequence[Consumer],
        *,
        name: str = "trace",
        timing: TimingParameters = DOT11B_TIMING,
        roster: NodeRoster | None = None,
        min_count: int = 1,
        chunk_frames: int = DEFAULT_CHUNK_FRAMES,
    ) -> None:
        names = [c.name for c in consumers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate consumer names: {names}")
        for consumer in consumers:
            for dep in consumer.requires:
                if dep not in names:
                    raise ValueError(
                        f"consumer {consumer.name!r} requires {dep!r}, "
                        "which is not part of this run"
                    )
        self.consumers = list(consumers)
        self.chunk_frames = chunk_frames
        self._ctx_args = dict(
            name=name, timing=timing, roster=roster, min_count=min_count
        )
        self.reset()

    # -- incremental protocol ---------------------------------------------

    def reset(self) -> None:
        """Start a fresh pass: new context, fresh consumer state."""
        self.ctx = StreamContext(**self._ctx_args)
        for consumer in self.consumers:
            consumer.start(self.ctx)
        self._busy = SecondAccumulator()
        self._max_second = -1
        self._start_row = 0
        self._index = 0
        self._tail_time: int | None = None
        self._pending: Trace | None = None
        self._need_ack = any(c.needs_ack_match for c in self.consumers)
        self._need_cbt = any(c.needs_cbt for c in self.consumers)
        self._results: dict[str, object] | None = None
        self.frames_fed = 0

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has finalized this pass."""
        return self._results is not None

    def feed(self, segment: Trace) -> int:
        """Push one time-sorted segment of a live stream; returns its size.

        Segments must be non-overlapping and globally ordered (an
        out-of-order segment raises :class:`UnsortedStreamError`).
        The segment is held back until the next ``feed``/``close`` so
        DATA-ACK pairs straddling the boundary match exactly as in a
        batch pass.  Empty segments are ignored.
        """
        if self.closed:
            raise RuntimeError(
                "executor already closed; call reset() for a new stream"
            )
        if len(segment) == 0:
            return 0
        if not segment.is_time_sorted():
            raise UnsortedStreamError("stream segments must be time-sorted")
        first = int(segment.time_us[0])
        if self._tail_time is not None and first < self._tail_time:
            raise UnsortedStreamError(
                "stream segments must be non-overlapping and ordered: "
                f"segment starts at {first} before previous end "
                f"{self._tail_time}"
            )
        if self._pending is not None:
            self._consume_segment(self._pending, segment)
        self._pending = segment
        self._tail_time = int(segment.time_us[-1])
        self.frames_fed += len(segment)
        return len(segment)

    def snapshot(self) -> dict[str, object]:
        """Results of a batch run over everything fed so far.

        The live pass state (consumers, accumulators, the held-back
        lookahead segment) is deep-copied and the copy is closed, so
        feeding may continue afterwards; a snapshot at stream position
        *k* equals :meth:`run` over the first *k* segments exactly.
        The copy is O(aggregate state) — seconds, intervals and node
        pairs seen, plus one segment — not O(frames fed).  After
        :meth:`close` this returns the final results.
        """
        if self.closed:
            return self._results
        clone = copy.deepcopy(self)
        return clone.close()

    def close(self) -> dict[str, object]:
        """End the stream: fold in the held-back segment and finalize."""
        if self.closed:
            return self._results
        if self._pending is not None:
            pending, self._pending = self._pending, None
            self._consume_segment(pending, None)
        self.ctx.n_seconds = self._max_second + 1
        if self._need_cbt:
            self.ctx.utilization = UtilizationSeries(
                start_us=int(self.ctx.start_us or 0),
                percent=self._busy.totals(self.ctx.n_seconds)
                / 1_000_000.0
                * 100.0,
            )
        self._results = self._finalize()
        return self._results

    def _consume_segment(self, segment: Trace, next_segment: Trace | None):
        """Fold one segment into every consumer (the shared chunk body)."""
        ctx = self.ctx
        if ctx.start_us is None:
            ctx.start_us = int(segment.time_us[0])
        second = ((segment.time_us - ctx.start_us) // 1_000_000).astype(
            np.int64
        )
        if self._need_cbt:
            cbt = trace_cbt_us(segment, ctx.timing)
            self._busy.add(second, weights=cbt)
        else:  # no consumer reads busy time or utilization
            cbt = None
        if self._need_ack:
            acked, ack_time = _match_chunk(segment, next_segment)
        else:  # no consumer in this run reads ACK-match state
            acked = ack_time = None
        chunk = Chunk(
            trace=segment,
            index=self._index,
            start_row=self._start_row,
            second=second,
            cbt_us=cbt,
            acked=acked,
            ack_time_us=ack_time,
        )
        for consumer in self.consumers:
            consumer.consume(chunk)
        self._max_second = int(second[-1])
        self._start_row += len(segment)
        self._index += 1

    # -- one-shot -----------------------------------------------------------

    def run(self, source) -> dict[str, object]:
        """Stream ``source`` through every consumer; return results by name.

        ``source`` may be a :class:`~repro.frames.Trace`, a pcap path,
        or any iterable of time-sorted trace segments.  An executor may
        be reused: each call starts from a fresh context and fresh
        consumer state.  A pcap whose disorder exceeds the streaming
        reader's per-batch sort falls back to a load-and-sort pass.
        """
        try:
            return self._run(source)
        except UnsortedStreamError:
            if not isinstance(source, (str, Path)):
                raise
            from ..pcap import read_trace

            return self._run(
                trace_chunks(read_trace(source), self.chunk_frames)
            )

    def _run(self, source) -> dict[str, object]:
        self.reset()
        for segment in as_stream(source, self.chunk_frames):
            self.feed(segment)
        return self.close()

    def _finalize(self) -> dict[str, object]:
        results: dict[str, object] = {}
        pending = list(self.consumers)
        while pending:
            progressed = False
            for consumer in list(pending):
                if all(dep in results for dep in consumer.requires):
                    results[consumer.name] = consumer.finalize(self.ctx, results)
                    pending.remove(consumer)
                    progressed = True
            if not progressed:
                cycle = [c.name for c in pending]
                raise ValueError(f"consumer dependency cycle: {cycle}")
        return results


def run_consumers(
    source,
    names: Sequence[str],
    *,
    name: str = "trace",
    timing: TimingParameters = DOT11B_TIMING,
    roster: NodeRoster | None = None,
    min_count: int = 1,
    chunk_frames: int = DEFAULT_CHUNK_FRAMES,
) -> dict[str, object]:
    """One-pass run of the named registered consumers over ``source``."""
    executor = PipelineExecutor(
        create_consumers(names),
        name=name,
        timing=timing,
        roster=roster,
        min_count=min_count,
        chunk_frames=chunk_frames,
    )
    return executor.run(source)


def assemble_report(
    results: Mapping[str, object], name: str = "trace"
) -> CongestionReport:
    """Build a :class:`CongestionReport` from full-run consumer results.

    ``results`` must hold every :data:`DEFAULT_CONSUMERS` entry (the
    roster analyses are optional) — the dict :meth:`PipelineExecutor.run`,
    :meth:`~PipelineExecutor.snapshot` or :meth:`~PipelineExecutor.close`
    returns for a default consumer set.  This is the assembly
    :func:`run_all` performs; the serve layer reuses it to turn rolling
    snapshots into reports.
    """
    congestion = results["congestion"]
    return CongestionReport(
        name=name,
        summary=results["summary"],
        utilization=results["utilization"],
        thresholds=congestion.thresholds,
        level_occupancy=congestion.level_occupancy,
        throughput=congestion.classifier.curves,
        rts_cts=results["rts_cts"],
        busytime_share=results["busytime_share"],
        bytes_per_rate=results["bytes_per_rate"],
        transmissions=results["transmissions"],
        reception=results["reception"],
        delays=results["delays"],
        unrecorded=results["unrecorded"],
        ap_activity=results.get("ap_activity"),
        unrecorded_per_ap=results.get("unrecorded_per_ap"),
        user_series=results.get("user_series"),
    )


def run_all(
    source,
    roster: NodeRoster | None = None,
    name: str = "trace",
    timing: TimingParameters = DOT11B_TIMING,
    min_count: int = 1,
    chunk_frames: int = DEFAULT_CHUNK_FRAMES,
) -> CongestionReport:
    """Single-pass equivalent of :func:`repro.core.analyze_trace`.

    Walks ``source`` once and returns the identical
    :class:`~repro.core.report.CongestionReport` — same numbers, one
    trace traversal instead of ~15.
    """
    names = DEFAULT_CONSUMERS + (ROSTER_CONSUMERS if roster is not None else ())
    results = run_consumers(
        source,
        names,
        name=name,
        timing=timing,
        roster=roster,
        min_count=min_count,
        chunk_frames=chunk_frames,
    )
    return assemble_report(results, name=name)


@dataclass(frozen=True)
class FailedAnalysis:
    """One capture of a batch whose analysis raised.

    Mirrors the campaign runner's ``FailedCell``: the batch completes
    without the failing capture, and the record carries enough to
    diagnose and retry (error type, message, full traceback).
    """

    name: str
    source: str
    error_type: str
    error: str
    traceback: str


def _run_batch_item(item) -> tuple[str, object]:
    """Module-level batch worker (picklable for process pools)."""
    trace_name, source, capture_errors, kwargs = item
    try:
        return trace_name, run_all(source, name=trace_name, **kwargs)
    except Exception as error:
        if not capture_errors:
            raise
        return trace_name, FailedAnalysis(
            name=trace_name,
            source=str(source) if isinstance(source, (str, Path)) else type(source).__name__,
            error_type=type(error).__name__,
            error=str(error),
            traceback=_traceback.format_exc(),
        )


def run_batch(
    traces=None,
    roster: NodeRoster | None = None,
    *,
    corpus: str | Path | None = None,
    where: str | None = None,
    max_workers: int | None = None,
    mode: str | None = None,
    timing: TimingParameters = DOT11B_TIMING,
    min_count: int = 1,
    chunk_frames: int = DEFAULT_CHUNK_FRAMES,
    on_error: str = "capture",
) -> dict[str, CongestionReport | FailedAnalysis]:
    """Analyze many captures in parallel, one single-pass run each.

    ``traces`` may be a mapping ``{name: source}``, a sequence of
    ``(name, source)`` pairs, or a bare sequence of sources (named
    ``trace-0`` .. ``trace-N``).  Sources are anything :func:`run_all`
    accepts.  Results preserve input order.

    Alternatively pass ``corpus=`` (an indexed capture directory,
    optionally filtered with ``where=``): the batch is then *planned*
    by :func:`repro.corpus.analyze_corpus` — captures with stored
    reports are skipped, the rest dispatch largest-first — and results
    are keyed by corpus-relative path.

    One capture raising (a truncated pcap, an unsortable feed) does
    **not** abort the batch: its entry becomes a :class:`FailedAnalysis`
    record and every other capture still returns its report.  Pass
    ``on_error="raise"`` for the historical all-or-nothing behaviour.

    ``mode`` picks the worker pool: ``"process"`` (true parallelism —
    pcap decode is GIL-bound Python) or ``"thread"`` (no pickling of
    in-memory traces).  Default: processes when every source is a
    path, threads otherwise.
    """
    if on_error not in ("capture", "raise"):
        raise ValueError(
            f"on_error must be 'capture' or 'raise', got {on_error!r}"
        )
    if corpus is not None:
        if traces is not None or roster is not None:
            raise ValueError(
                "corpus= replaces traces/roster: pass one or the other"
            )
        from ..corpus import analyze_corpus

        analysis = analyze_corpus(
            corpus,
            where,
            workers=max_workers,
            chunk_frames=chunk_frames,
            timing=timing,
            min_count=min_count,
            on_error=on_error,
        )
        return analysis.results
    if traces is None:
        raise TypeError("run_batch() needs traces (or corpus=)")
    if where is not None:
        raise ValueError("where= only applies with corpus=")
    if isinstance(traces, Mapping):
        items = list(traces.items())
    else:
        items = []
        for i, entry in enumerate(traces):
            if isinstance(entry, tuple) and len(entry) == 2:
                items.append(entry)
            else:
                items.append((f"trace-{i}", entry))
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(
            f"duplicate batch names {dupes}: results are keyed by name"
        )
    kwargs = dict(
        roster=roster,
        timing=timing,
        min_count=min_count,
        chunk_frames=chunk_frames,
    )
    capture_errors = on_error == "capture"
    jobs = [(name, source, capture_errors, kwargs) for name, source in items]

    if mode is not None and mode not in ("process", "thread"):
        raise ValueError(f"mode must be 'process' or 'thread', got {mode!r}")
    if len(jobs) <= 1 or max_workers == 1:
        return dict(map(_run_batch_item, jobs))
    if mode is None:
        all_paths = all(isinstance(s, (str, Path)) for _, s in items)
        mode = "process" if all_paths else "thread"
    pool_cls = ProcessPoolExecutor if mode == "process" else ThreadPoolExecutor
    with pool_cls(max_workers=max_workers) as pool:
        return dict(pool.map(_run_batch_item, jobs))
