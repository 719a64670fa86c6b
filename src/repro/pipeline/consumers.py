"""Streaming consumers wrapping every :mod:`repro.core` analysis.

Each consumer adapts one paper analysis to the single-pass protocol:

* ``start(ctx)``    — reset state for a new stream;
* ``consume(chunk)`` — fold one chunk's frames into running aggregates;
* ``finalize(ctx, deps)`` — assemble exactly the object the wrapped
  ``repro.core`` function returns.

Equivalence with the batch functions is a hard contract (verified by
``tests/pipeline/test_equivalence.py``): consumers accumulate per-second
sums (per-interval and per-node-pair for the Figure 4 census and §4.4
attribution) that are sufficient statistics for what the core computes,
and share the core's own rule and finalization helpers
(``ack_match_pairs``, ``control_frame_mask``, ``CHAIN_TIMEOUT_US``,
``bin_by_utilization``, ``fit_curves``, ``ranking_from_counts``,
``missing_pair_table``, ``ap_table_from_counts``) so the rules live in
one place.  No consumer keeps per-frame or per-delivery history, so
state — and :meth:`PipelineExecutor.snapshot` — grows with the seconds
covered, not the frames fed (``tests/pipeline/test_snapshot_state.py``).
The one remaining intentional restatement is the chunk-carrying form of
the §4.4 atomicity rules in :class:`UnrecordedConsumer` and the
retry-chain loop in :class:`DelayConsumer`; the equivalence tests pin
both to the core, with dedicated chunk-boundary cases.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..analysis import ColumnTable, bin_by_utilization
from ..core.ap_stats import ApActivity, DatasetSummary, ranking_from_counts
from ..core.categories import ALL_CATEGORIES, Category
from ..core.congestion import (
    CongestionClassifier,
    CongestionLevel,
    CongestionThresholds,
)
from ..core.delay import CHAIN_TIMEOUT_US, FIGURE15_CATEGORIES, DelaySeries
from ..core.rate_share import RateShareSeries
from ..core.reception import ReceptionSeries
from ..core.rts_cts import RtsCtsSeries
from ..core.throughput import ThroughputSeries, control_frame_mask, frame_bits
from ..core.transmissions import CategoryCounts
from ..core.unrecorded import (
    UnrecordedEstimate,
    ap_table_from_counts,
    missing_pair_table,
    pair_keys,
)
from ..frames import DOT11_RATES_MBPS, FrameType
from .accumulate import SecondAccumulator
from .registry import register_consumer
from .stream import Chunk, StreamContext

__all__ = [
    "Consumer",
    "CongestionResult",
    "SummaryConsumer",
    "UtilizationConsumer",
    "ThroughputConsumer",
    "CongestionConsumer",
    "RtsCtsConsumer",
    "BusytimeShareConsumer",
    "BytesPerRateConsumer",
    "TransmissionsConsumer",
    "ReceptionConsumer",
    "DelayConsumer",
    "UnrecordedConsumer",
    "ApActivityConsumer",
    "UnrecordedByApConsumer",
    "UserSeriesConsumer",
]


class Consumer:
    """Base streaming consumer.

    Subclasses set ``name`` (registry key) and optionally ``requires``
    — names of consumers whose finalized results they need; the
    executor finalizes in dependency order and passes them via
    ``deps``.

    ``needs_ack_match`` and ``needs_cbt`` default to True
    (``chunk.acked``/``chunk.ack_time_us``, ``chunk.cbt_us`` and
    ``ctx.utilization`` are always populated); consumers that never
    read them set the flag False so that runs composed entirely of
    such consumers skip the DATA-ACK matching / busy-time work.
    """

    name: str = ""
    requires: tuple[str, ...] = ()
    needs_ack_match: bool = True
    needs_cbt: bool = True

    def start(self, ctx: StreamContext) -> None:
        """Reset state before the first chunk."""

    def consume(self, chunk: Chunk) -> None:
        """Fold one chunk into the running aggregates."""

    def finalize(self, ctx: StreamContext, deps: Mapping[str, object]):
        """Assemble the analysis result after the pass completes."""
        raise NotImplementedError


@register_consumer("summary")
class SummaryConsumer(Consumer):
    """Table 1 / §4.3 dataset summary (``dataset_summary``)."""

    name = "summary"
    needs_ack_match = False
    needs_cbt = False

    _COUNTED = (
        FrameType.DATA,
        FrameType.ACK,
        FrameType.RTS,
        FrameType.CTS,
        FrameType.BEACON,
    )

    def start(self, ctx: StreamContext) -> None:
        self._n = 0
        self._counts = {ft: 0 for ft in self._COUNTED}
        self._channels: set[int] = set()
        self._last_us = 0

    def consume(self, chunk: Chunk) -> None:
        ftype = chunk.trace.ftype
        self._n += len(chunk)
        for ft in self._COUNTED:
            self._counts[ft] += int(np.count_nonzero(ftype == int(ft)))
        self._channels.update(int(c) for c in np.unique(chunk.trace.channel))
        self._last_us = int(chunk.trace.time_us[-1])

    def finalize(self, ctx: StreamContext, deps) -> DatasetSummary:
        start = int(ctx.start_us or 0)
        duration_s = (self._last_us - start) / 1e6 if self._n else 0.0
        return DatasetSummary(
            name=ctx.name,
            channels=tuple(sorted(self._channels)),
            start_us=start,
            duration_s=duration_s,
            n_frames=self._n,
            n_data=self._counts[FrameType.DATA],
            n_ack=self._counts[FrameType.ACK],
            n_rts=self._counts[FrameType.RTS],
            n_cts=self._counts[FrameType.CTS],
            n_beacon=self._counts[FrameType.BEACON],
        )


@register_consumer("utilization")
class UtilizationConsumer(Consumer):
    """Figure 5 per-second utilization (``utilization_series``).

    The executor itself accumulates total busy time per second (every
    binned consumer needs it); this consumer just publishes the series.
    """

    name = "utilization"
    needs_ack_match = False

    def finalize(self, ctx: StreamContext, deps):
        return ctx.utilization


@register_consumer("throughput")
class ThroughputConsumer(Consumer):
    """Figure 6 throughput/goodput curves (``throughput_vs_utilization``).

    ``analyze_trace`` fits the congestion classifier on curves binned
    with ``min_count=1``; this consumer mirrors that, independent of
    ``ctx.min_count``.
    """

    name = "throughput"

    def start(self, ctx: StreamContext) -> None:
        self._bits = SecondAccumulator()
        self._good_bits = SecondAccumulator()

    def consume(self, chunk: Chunk) -> None:
        bits = frame_bits(chunk.trace)
        good = control_frame_mask(chunk.trace.ftype) | chunk.acked
        self._bits.add(chunk.second, weights=bits)
        self._good_bits.add(chunk.second, weights=np.where(good, bits, 0.0))

    def finalize(self, ctx: StreamContext, deps) -> ThroughputSeries:
        util = ctx.utilization
        n = len(util)
        tput = self._bits.totals(n) / 1e6
        gput = self._good_bits.totals(n) / 1e6
        return ThroughputSeries(
            throughput_mbps=bin_by_utilization(util.percent, tput, min_count=1),
            goodput_mbps=bin_by_utilization(util.percent, gput, min_count=1),
            utilization=util,
        )


@dataclass(frozen=True)
class CongestionResult:
    """§5.3 classification payload for one stream."""

    thresholds: CongestionThresholds
    level_occupancy: dict[CongestionLevel, float]
    classifier: CongestionClassifier


@register_consumer("congestion")
class CongestionConsumer(Consumer):
    """§5.3 knee-derived thresholds + per-level occupancy.

    Pure finalize-time work: reuses the throughput consumer's curves
    via ``CongestionClassifier.fit_curves``.
    """

    name = "congestion"
    requires = ("throughput",)
    needs_ack_match = False

    def finalize(self, ctx: StreamContext, deps) -> CongestionResult:
        classifier = CongestionClassifier().fit_curves(deps["throughput"])
        levels = classifier.classify_percent(ctx.utilization.percent)
        n = max(len(levels), 1)
        occupancy = {
            level: float(np.count_nonzero(levels == int(level))) / n
            for level in CongestionLevel
        }
        assert classifier.thresholds is not None
        return CongestionResult(
            thresholds=classifier.thresholds,
            level_occupancy=occupancy,
            classifier=classifier,
        )


@register_consumer("rts_cts")
class RtsCtsConsumer(Consumer):
    """Figure 7 RTS/CTS rates (``rts_cts_vs_utilization``)."""

    name = "rts_cts"
    needs_ack_match = False

    def start(self, ctx: StreamContext) -> None:
        self._rts = SecondAccumulator()
        self._cts = SecondAccumulator()

    def consume(self, chunk: Chunk) -> None:
        ftype = chunk.trace.ftype
        self._rts.add(chunk.second[ftype == int(FrameType.RTS)])
        self._cts.add(chunk.second[ftype == int(FrameType.CTS)])

    def finalize(self, ctx: StreamContext, deps) -> RtsCtsSeries:
        util = ctx.utilization
        n = len(util)
        return RtsCtsSeries(
            rts=bin_by_utilization(
                util.percent, self._rts.totals(n), min_count=ctx.min_count
            ),
            cts=bin_by_utilization(
                util.percent, self._cts.totals(n), min_count=ctx.min_count
            ),
        )


class _PerRateConsumer(Consumer):
    """Shared shape for the Figures 8/9/14 per-rate series."""

    def start(self, ctx: StreamContext) -> None:
        self._acc = SecondAccumulator(width=len(DOT11_RATES_MBPS))

    def _per_second(self, totals: np.ndarray, code: int) -> np.ndarray:
        return totals[:, code]

    def _series(self, ctx: StreamContext) -> dict[float, "np.ndarray"]:
        util = ctx.utilization
        totals = self._acc.totals(len(util))
        return {
            rate: bin_by_utilization(
                util.percent,
                self._per_second(totals, code),
                min_count=ctx.min_count,
            )
            for code, rate in enumerate(DOT11_RATES_MBPS)
        }


@register_consumer("busytime_share")
class BusytimeShareConsumer(_PerRateConsumer):
    """Figure 8 per-rate busy-time share (``busytime_share_vs_utilization``)."""

    name = "busytime_share"
    needs_ack_match = False

    def consume(self, chunk: Chunk) -> None:
        mask = chunk.is_data
        self._acc.add(
            chunk.second[mask],
            weights=chunk.cbt_us[mask],
            cols=chunk.trace.rate_code[mask],
        )

    def _per_second(self, totals: np.ndarray, code: int) -> np.ndarray:
        return totals[:, code] / 1e6  # busy seconds per second

    def finalize(self, ctx: StreamContext, deps) -> RateShareSeries:
        return RateShareSeries(per_rate=self._series(ctx))


@register_consumer("bytes_per_rate")
class BytesPerRateConsumer(_PerRateConsumer):
    """Figure 9 per-rate byte volume (``bytes_per_rate_vs_utilization``)."""

    name = "bytes_per_rate"
    needs_ack_match = False

    def consume(self, chunk: Chunk) -> None:
        mask = chunk.is_data
        self._acc.add(
            chunk.second[mask],
            weights=chunk.trace.size[mask].astype(np.float64),
            cols=chunk.trace.rate_code[mask],
        )

    def finalize(self, ctx: StreamContext, deps) -> RateShareSeries:
        return RateShareSeries(per_rate=self._series(ctx))


@register_consumer("reception")
class ReceptionConsumer(_PerRateConsumer):
    """Figure 14 first-attempt receptions (``first_attempt_ack_vs_utilization``)."""

    name = "reception"

    def consume(self, chunk: Chunk) -> None:
        qualifying = chunk.acked & chunk.is_data & ~chunk.trace.retry
        self._acc.add(
            chunk.second[qualifying], cols=chunk.trace.rate_code[qualifying]
        )

    def finalize(self, ctx: StreamContext, deps) -> ReceptionSeries:
        return ReceptionSeries(per_rate=self._series(ctx))


@register_consumer("transmissions")
class TransmissionsConsumer(Consumer):
    """Figures 10-13 per-category counts (``transmissions_vs_utilization``)."""

    name = "transmissions"
    needs_ack_match = False

    def __init__(self, categories: tuple[Category, ...] = ALL_CATEGORIES) -> None:
        self.categories = categories

    def start(self, ctx: StreamContext) -> None:
        self._acc = SecondAccumulator(width=16)

    def consume(self, chunk: Chunk) -> None:
        mask = chunk.is_data
        codes = (
            chunk.trace.rate_code[mask].astype(np.int64) * 4
            + chunk.trace.size_class[mask].astype(np.int64)
        )
        self._acc.add(chunk.second[mask], cols=codes)

    def finalize(self, ctx: StreamContext, deps) -> CategoryCounts:
        util = ctx.utilization
        totals = self._acc.totals(len(util))
        out = {
            cat.name: bin_by_utilization(
                util.percent,
                totals[:, cat.rate_code * 4 + int(cat.size_class)],
                min_count=ctx.min_count,
            )
            for cat in self.categories
        }
        return CategoryCounts(per_category=out)


@register_consumer("delays")
class DelayConsumer(Consumer):
    """Figure 15 acceptance delays (``acceptance_delay_vs_utilization``).

    Retry chains are keyed by (src, dst, seq); the chain table persists
    across chunks, so chunking never splits a delivery.  Each delivery
    in a reported category is folded into per-second delay sums and
    counts, keyed by its first-attempt second and category — the
    figure's per-bin mean is Σsum / Σcount, so no per-delivery history
    is kept.  Chains older than ``CHAIN_TIMEOUT_US`` behind the newest
    frame can never be extended again (the next frame with their key
    restarts them), so they are pruned once per timeout of stream time:
    the table holds at most two timeouts' worth of chains.
    """

    name = "delays"

    def __init__(
        self, categories: tuple[Category, ...] = FIGURE15_CATEGORIES
    ) -> None:
        self.categories = categories

    def start(self, ctx: StreamContext) -> None:
        self._ctx = ctx  # start_us is filled in before the first chunk
        self._open_chains: dict[int, int] = {}
        self._prune_due_us = 0
        # Table column per rate_code * 4 + size_class; -1 = not reported.
        self._column = np.full(16, -1, dtype=np.int64)
        for i, cat in enumerate(self.categories):
            self._column[cat.rate_code * 4 + int(cat.size_class)] = i
        self._delay_sum = SecondAccumulator(width=len(self.categories))
        self._deliveries = SecondAccumulator(width=len(self.categories))

    def consume(self, chunk: Chunk) -> None:
        trace = chunk.trace
        src = trace.src.astype(np.int64)
        dst = trace.dst.astype(np.int64)
        key = (src << 28) | (dst << 12) | trace.seq.astype(np.int64)
        time_us = trace.time_us
        retry = trace.retry
        acked = chunk.acked
        ack_time = chunk.ack_time_us
        column = self._column[
            trace.rate_code.astype(np.int64) * 4 + trace.size_class
        ].tolist()
        start_us = int(self._ctx.start_us)
        chains = self._open_chains
        seconds: list[int] = []
        cols: list[int] = []
        delays: list[int] = []
        for row in np.nonzero(chunk.is_data)[0]:
            k = int(key[row])
            now = int(time_us[row])
            known = chains.get(k)
            if not retry[row] or known is None or now - known > CHAIN_TIMEOUT_US:
                chains[k] = now
            if acked[row]:
                t0 = chains.pop(k)
                if column[row] >= 0:
                    seconds.append((t0 - start_us) // 1_000_000)
                    cols.append(column[row])
                    delays.append(int(ack_time[row]) - t0)
        if seconds:
            delay_us = np.array(delays, dtype=np.float64)
            self._delay_sum.add(seconds, weights=delay_us, cols=cols)
            self._deliveries.add(seconds, cols=cols)
        newest = int(time_us[-1])
        if newest >= self._prune_due_us:
            cutoff = newest - CHAIN_TIMEOUT_US
            self._open_chains = {k: t for k, t in chains.items() if t >= cutoff}
            self._prune_due_us = newest + CHAIN_TIMEOUT_US

    def finalize(self, ctx: StreamContext, deps) -> DelaySeries:
        util = ctx.utilization
        sums = self._delay_sum.totals(len(util)) / 1e6  # seconds
        counts = self._deliveries.totals(len(util))
        out = {}
        for i, cat in enumerate(self.categories):
            out[cat.name] = bin_by_utilization(
                util.percent,
                sums[:, i],
                min_count=ctx.min_count,
                counts=counts[:, i],
            )
        return DelaySeries(per_category=out)


@register_consumer("unrecorded")
class UnrecordedConsumer(Consumer):
    """§4.4 unrecorded-frame estimate (``estimate_unrecorded``).

    The three DCF atomicity rules inspect consecutive frame pairs; the
    consumer carries the last frame of each chunk so pairs straddling a
    chunk boundary are judged exactly once.  Missing DATA frames are
    tallied per (src, dst) pair, merged chunk by chunk.
    """

    name = "unrecorded"
    needs_ack_match = False
    needs_cbt = False

    def start(self, ctx: StreamContext) -> None:
        self._total = 0
        self._missing_rts = 0
        self._missing_cts = 0
        self._missing_data: Counter[int] = Counter()  # pair key -> frames
        self._carry: tuple[int, int, int] | None = None  # (ftype, src, dst)

    def consume(self, chunk: Chunk) -> None:
        trace = chunk.trace
        ftype = trace.ftype.astype(np.int64)
        src = trace.src.astype(np.int64)
        dst = trace.dst.astype(np.int64)

        if self._carry is None:
            # Very first frame of the stream: an opening ACK or CTS
            # implies a predecessor the sniffer never recorded.
            if ftype[0] == int(FrameType.ACK):
                self._missing_data.update(pair_keys(dst[:1], src[:1]).tolist())
            if ftype[0] == int(FrameType.CTS):
                self._missing_rts += 1
            prev_type, prev_src, prev_dst = ftype[:-1], src[:-1], dst[:-1]
            cur_type, cur_src, cur_dst = ftype[1:], src[1:], dst[1:]
        else:
            cf, cs, cd = self._carry
            prev_type = np.concatenate([[cf], ftype[:-1]])
            prev_src = np.concatenate([[cs], src[:-1]])
            prev_dst = np.concatenate([[cd], dst[:-1]])
            cur_type, cur_src, cur_dst = ftype, src, dst

        # DATA-ACK: an ACK not preceded by its DATA implies missing DATA.
        lone_ack = (cur_type == int(FrameType.ACK)) & ~(
            (prev_type == int(FrameType.DATA)) & (prev_src == cur_dst)
        )
        self._missing_data.update(
            pair_keys(cur_dst[lone_ack], cur_src[lone_ack]).tolist()
        )

        # RTS-CTS: a CTS not preceded by its RTS implies a missing RTS.
        lone_cts = (cur_type == int(FrameType.CTS)) & ~(
            (prev_type == int(FrameType.RTS)) & (prev_src == cur_dst)
        )
        self._missing_rts += int(np.count_nonzero(lone_cts))

        # RTS-CTS-DATA: RTS directly followed by its DATA skipped the CTS.
        self._missing_cts += int(
            np.count_nonzero(
                (prev_type == int(FrameType.RTS))
                & (cur_type == int(FrameType.DATA))
                & (cur_src == prev_src)
                & (cur_dst == prev_dst)
            )
        )

        self._total += len(chunk)
        self._carry = (int(ftype[-1]), int(src[-1]), int(dst[-1]))

    def finalize(self, ctx: StreamContext, deps) -> UnrecordedEstimate:
        if self._total < 2:  # the core's degenerate-trace rule
            empty = np.empty(0, dtype=np.int64)
            return UnrecordedEstimate(self._total, 0, 0, 0, empty, empty, empty)
        n_pairs = len(self._missing_data)
        keys = np.fromiter(self._missing_data.keys(), np.int64, n_pairs)
        counts = np.fromiter(self._missing_data.values(), np.int64, n_pairs)
        return UnrecordedEstimate(
            self._total,
            int(counts.sum()),
            self._missing_rts,
            self._missing_cts,
            *missing_pair_table(keys, counts),
        )


class _RosterConsumer(Consumer):
    """Base for the AP-aware Figure 4 consumers (roster required)."""

    def start(self, ctx: StreamContext) -> None:
        if ctx.roster is None:
            raise ValueError(f"consumer {self.name!r} needs a NodeRoster")


@register_consumer("ap_activity")
class ApActivityConsumer(_RosterConsumer):
    """Figure 4a per-AP frame ranking (``ap_frame_ranking``)."""

    name = "ap_activity"
    needs_ack_match = False
    needs_cbt = False

    def start(self, ctx: StreamContext) -> None:
        super().start(ctx)
        self._ap_ids = np.array(ctx.roster.ap_ids, dtype=np.int64)
        self._counts = np.zeros(len(self._ap_ids), dtype=np.int64)

    def consume(self, chunk: Chunk) -> None:
        src = chunk.trace.src.astype(np.int64)
        dst = chunk.trace.dst.astype(np.int64)
        for i, ap in enumerate(self._ap_ids):
            self._counts[i] += int(np.count_nonzero((src == ap) | (dst == ap)))

    def finalize(self, ctx: StreamContext, deps) -> ApActivity:
        return ranking_from_counts(self._ap_ids, self._counts)


@register_consumer("unrecorded_per_ap")
class UnrecordedByApConsumer(_RosterConsumer):
    """Figure 4c per-AP unrecorded share (``unrecorded_by_ap``).

    Reuses the ap_activity counts (same captured-frames definition) and
    the unrecorded estimate's reconstructed (src, dst) attributions.
    """

    name = "unrecorded_per_ap"
    requires = ("unrecorded", "ap_activity")
    needs_ack_match = False
    needs_cbt = False

    def __init__(self, top_n: int = 15) -> None:
        self.top_n = top_n

    def finalize(self, ctx: StreamContext, deps) -> ColumnTable:
        estimate: UnrecordedEstimate = deps["unrecorded"]
        activity: ApActivity = deps["ap_activity"]
        ap_ids = np.array(ctx.roster.ap_ids, dtype=np.int64)
        by_ap = dict(
            zip(
                activity.table.column("ap").tolist(),
                activity.table.column("frames").tolist(),
            )
        )
        captured = np.array([by_ap.get(int(ap), 0) for ap in ap_ids], dtype=np.int64)
        return ap_table_from_counts(
            ap_ids, captured, estimate.missing_data_at(ap_ids), self.top_n
        )


@register_consumer("user_series")
class UserSeriesConsumer(_RosterConsumer):
    """Figure 4b active-user census (``user_association_series``).

    Time-sorted input means intervals only advance: a station set is
    kept for the open interval alone, beside one user count per interval.
    """

    name = "user_series"
    needs_ack_match = False
    needs_cbt = False

    def __init__(self, interval_us: int = 30_000_000) -> None:
        self.interval_us = interval_us

    def start(self, ctx: StreamContext) -> None:
        super().start(ctx)
        self._ctx = ctx  # start_us is filled in before the first chunk
        self._ap_set = np.array(ctx.roster.ap_ids, dtype=np.int64)
        self._station_set = np.array(ctx.roster.station_ids, dtype=np.int64)
        self._users: dict[int, int] = {}  # interval -> distinct stations
        self._open_interval = -1
        self._open_stations: set[int] = set()
        self._max_interval = -1

    def consume(self, chunk: Chunk) -> None:
        trace = chunk.trace
        src = trace.src.astype(np.int64)
        dst = trace.dst.astype(np.int64)
        src_is_ap = np.isin(src, self._ap_set)
        dst_is_ap = np.isin(dst, self._ap_set)
        station = np.where(
            src_is_ap & ~dst_is_ap, dst, np.where(dst_is_ap & ~src_is_ap, src, -1)
        )
        station = np.where(np.isin(station, self._station_set), station, -1)
        interval = (
            (trace.time_us - int(self._ctx.start_us)) // self.interval_us
        ).astype(np.int64)
        self._max_interval = max(self._max_interval, int(interval[-1]))
        valid = station >= 0
        for iv in np.unique(interval[valid]).tolist():
            if iv != self._open_interval:
                self._open_interval, self._open_stations = iv, set()
            self._open_stations.update(station[valid & (interval == iv)].tolist())
            self._users[iv] = len(self._open_stations)

    def finalize(self, ctx: StreamContext, deps) -> ColumnTable:
        if self._max_interval < 0:
            return ColumnTable(
                {
                    "interval": np.empty(0, dtype=np.int64),
                    "users": np.empty(0, dtype=np.int64),
                }
            )
        n_intervals = self._max_interval + 1
        users = np.zeros(n_intervals, dtype=np.int64)
        users[list(self._users)] = list(self._users.values())
        return ColumnTable(
            {"interval": np.arange(n_intervals), "users": users}
        )
