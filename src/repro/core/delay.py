"""Acceptance delay (paper §6.5, Figure 15).

The *acceptance delay* of a data frame is the time from its **first
transmission attempt** to the moment its acknowledgment is recorded,
independent of how many retransmissions occurred in between.  Figure 15
plots the average acceptance delay per utilization bin for the S-1,
XL-1, S-11 and XL-11 categories and finds that 1 Mbps frames pay far
larger delays than 11 Mbps frames of *any* size.

Reconstruction: 802.11 retransmissions reuse the MPDU sequence number,
so a delivery attempt chain is the run of DATA frames sharing
``(src, dst, seq)``; the chain's acceptance delay is ``ack_time -
first_attempt_time`` where the ACK matches the chain's final frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import BinnedSeries, bin_by_utilization
from ..frames import FrameType, Trace
from .acking import match_acks
from .categories import Category
from .timing import DOT11B_TIMING, TimingParameters
from .utilization import UtilizationSeries, utilization_series

__all__ = [
    "CHAIN_TIMEOUT_US",
    "DelaySeries",
    "acceptance_delays",
    "acceptance_delay_vs_utilization",
    "bin_deliveries",
    "FIGURE15_CATEGORIES",
]

#: The four categories Figure 15 reports.
FIGURE15_CATEGORIES = tuple(
    Category.from_name(name) for name in ("S-1", "XL-1", "S-11", "XL-11")
)


@dataclass(frozen=True)
class AcceptanceDelays:
    """Per-delivery acceptance delays extracted from a trace.

    Arrays are parallel, one entry per successfully acknowledged
    delivery (retry chain): the timestamp of the chain's first attempt,
    the delay to the ACK in microseconds, and the size/rate of the
    *acknowledged* frame (retransmissions may have changed rate; the
    paper's categories key off the delivered frame).
    """

    first_attempt_us: np.ndarray
    delay_us: np.ndarray
    size: np.ndarray
    rate_code: np.ndarray

    def __len__(self) -> int:
        return len(self.delay_us)


#: Maximum plausible age of an open retry chain.  802.11 sequence
#: numbers wrap at 4096, so a (src, dst, seq) key recycles after a few
#: thousand frames; without this bound a retry whose first attempt the
#: sniffer missed could inherit a stale first-attempt timestamp from a
#: previous incarnation of the same key, minutes in the past.  Seven
#: retries of an XL-1 frame with maximal backoff stay well under 1 s.
#: Shared with the streaming pipeline's chain reconstruction, which
#: also drops chains this far behind the newest frame: the next frame
#: with their key would restart them anyway.
CHAIN_TIMEOUT_US = 1_000_000


def acceptance_delays(trace: Trace) -> AcceptanceDelays:
    """Reconstruct retry chains and compute per-delivery acceptance delay."""
    trace = trace.sorted_by_time()
    match = match_acks(trace)
    is_data = trace.ftype == int(FrameType.DATA)

    acked_rows = np.nonzero(match.acked & is_data)[0]
    if len(acked_rows) == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return AcceptanceDelays(
            empty_i, empty_i.astype(np.float64), empty_i, empty_i
        )

    # Chain key per data row: (src, dst, seq).  For each acked delivery,
    # the first attempt is the earliest *preceding* data frame with the
    # same key and an unbroken retry run; in a capture, earlier chains
    # with a recycled seq are separated by their own ACK, so taking the
    # earliest same-key frame after the key's previous ACK is exact.
    src = trace.src.astype(np.int64)
    dst = trace.dst.astype(np.int64)
    seq = trace.seq.astype(np.int64)
    key = (src << 28) | (dst << 12) | seq

    data_rows = np.nonzero(is_data)[0]
    data_keys = key[data_rows]

    first_attempt_time: dict[int, int] = {}
    delays: list[float] = []
    firsts: list[int] = []
    sizes: list[int] = []
    rates: list[int] = []
    time_us = trace.time_us
    retry = trace.retry
    acked_set = match.acked

    for row in data_rows:
        k = int(key[row])
        now = int(time_us[row])
        known = first_attempt_time.get(k)
        if (
            not retry[row]
            or known is None
            or now - known > CHAIN_TIMEOUT_US
        ):
            # A clear Retry bit starts a fresh chain; a retry without a
            # recorded (recent) first attempt — the sniffer missed it,
            # or the seq number has wrapped since — starts the chain at
            # the earliest frame we did capture.
            first_attempt_time[k] = now
        if acked_set[row]:
            t0 = first_attempt_time.pop(k)
            ack_t = int(match.ack_time_us[row])
            delays.append(float(ack_t - t0))
            firsts.append(t0)
            sizes.append(int(trace.size[row]))
            rates.append(int(trace.rate_code[row]))

    return AcceptanceDelays(
        first_attempt_us=np.array(firsts, dtype=np.int64),
        delay_us=np.array(delays, dtype=np.float64),
        size=np.array(sizes, dtype=np.int64),
        rate_code=np.array(rates, dtype=np.int64),
    )


@dataclass(frozen=True)
class DelaySeries:
    """Mean acceptance delay (seconds) per category per utilization bin."""

    per_category: dict[str, BinnedSeries]

    def __getitem__(self, name: str) -> BinnedSeries:
        return self.per_category[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.per_category)

    def mean_delay(self, name: str, lo: float = 30.0, hi: float = 99.0) -> float:
        """Count-weighted mean delay of a category over a utilization range."""
        series = self.per_category[name].restricted(lo, hi)
        if len(series) == 0 or series.count.sum() == 0:
            return float("nan")
        return float(np.average(series.value, weights=series.count))


def acceptance_delay_vs_utilization(
    trace: Trace,
    categories: tuple[Category, ...] = FIGURE15_CATEGORIES,
    timing: TimingParameters = DOT11B_TIMING,
    min_count: int = 1,
) -> DelaySeries:
    """Reproduce Figure 15 for ``trace``.

    Each delivery is assigned to the one-second interval of its first
    attempt; per-bin values are mean acceptance delay in **seconds** (the
    figure's y axis).
    """
    trace = trace.sorted_by_time()
    util = utilization_series(trace, timing)
    deliveries = acceptance_delays(trace)
    return bin_deliveries(deliveries, util, categories, min_count)


def bin_deliveries(
    deliveries: AcceptanceDelays,
    util: "UtilizationSeries",
    categories: tuple[Category, ...] = FIGURE15_CATEGORIES,
    min_count: int = 1,
) -> DelaySeries:
    """Bin extracted deliveries by the utilization of their first-attempt
    second — the Figure-15 transform over per-delivery arrays.

    This is the batch reference.  The streaming pipeline's
    ``DelayConsumer`` keeps only per-second delay sums and counts and
    bins them with ``bin_by_utilization(..., counts=...)``; the
    equivalence suite pins the two to the same bins and counts.
    """
    if len(deliveries) == 0:
        empty = BinnedSeries(
            np.empty(0), np.empty(0), np.empty(0, dtype=np.int64)
        )
        return DelaySeries({c.name: empty for c in categories})

    second = ((deliveries.first_attempt_us - util.start_us) // 1_000_000).astype(
        np.int64
    )
    in_range = (second >= 0) & (second < len(util))
    util_of_delivery = np.where(
        in_range, util.percent[np.clip(second, 0, len(util) - 1)], np.nan
    )

    from ..frames import size_class_array

    size_cls = size_class_array(deliveries.size)
    out: dict[str, BinnedSeries] = {}
    for cat in categories:
        sel = (
            in_range
            & (size_cls == int(cat.size_class))
            & (deliveries.rate_code == cat.rate_code)
        )
        out[cat.name] = bin_by_utilization(
            util_of_delivery[sel],
            deliveries.delay_us[sel] / 1e6,
            min_count=min_count,
        )
    return DelaySeries(per_category=out)
