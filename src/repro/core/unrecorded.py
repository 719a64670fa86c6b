"""Unrecorded-frame estimation via DCF atomicity (paper §4.4, Eq 1).

Vicinity sniffers miss frames (bit errors, hardware drops, hidden
terminals).  The paper estimates how many by exploiting three atomicity
rules of the 802.11 DCF exchange:

* **DATA-ACK**: every captured ACK must be preceded by the DATA frame it
  acknowledges (ACK receiver == DATA transmitter).  A lone ACK implies
  one unrecorded DATA frame.
* **RTS-CTS**: every captured CTS must be preceded by its RTS
  (CTS receiver == RTS transmitter).  A lone CTS implies an unrecorded RTS.
* **RTS-CTS-DATA**: if an RTS and the subsequent DATA from the same
  transmitter are captured but no CTS between them, the CTS (which must
  have been sent, else no DATA would follow) was unrecorded.

Unrecorded % = unrecorded / (unrecorded + captured)    (Equation 1)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import ColumnTable
from ..frames import FrameType, NodeRoster, Trace

__all__ = [
    "UnrecordedEstimate",
    "estimate_unrecorded",
    "missing_pair_table",
    "pair_keys",
    "unrecorded_by_ap",
    "ap_table_from_counts",
]


@dataclass(frozen=True)
class UnrecordedEstimate:
    """Counts of inferred-missing frames for one trace.

    Inferred-missing DATA frames are tallied per (transmitter, receiver)
    pair, for per-AP attribution (Figure 4c): ``missing_pair_count[i]``
    frames from ``missing_pair_src[i]`` to ``missing_pair_dst[i]``,
    pairs sorted by (src, dst).  The table grows with the node pairs
    seen, not with the capture's length.
    """

    captured_frames: int
    missing_data: int
    missing_rts: int
    missing_cts: int
    missing_pair_src: np.ndarray
    missing_pair_dst: np.ndarray
    missing_pair_count: np.ndarray

    @property
    def total_missing(self) -> int:
        return self.missing_data + self.missing_rts + self.missing_cts

    @property
    def unrecorded_percent(self) -> float:
        """Equation 1, over the whole trace."""
        denom = self.total_missing + self.captured_frames
        if denom == 0:
            return 0.0
        return 100.0 * self.total_missing / denom

    def missing_data_at(self, node_ids: np.ndarray) -> np.ndarray:
        """Missing DATA frames with each of ``node_ids`` as src or dst."""
        src, dst, count = (
            self.missing_pair_src, self.missing_pair_dst, self.missing_pair_count
        )
        return np.array(
            [count[(src == n) | (dst == n)].sum() for n in node_ids], dtype=np.int64
        )


def pair_keys(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """One int64 key per (src, dst) node pair, ordered by (src, dst).

    Node ids are 16-bit, so the key is ``src << 16 | dst``.
    """
    return (np.asarray(src, dtype=np.int64) << 16) | np.asarray(dst, dtype=np.int64)


def missing_pair_table(
    keys: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct pairs of ``keys`` as sorted (src, dst, total weight).

    ``weights`` default to one per key occurrence.
    """
    pairs, inverse = np.unique(keys, return_inverse=True)
    counts = np.bincount(inverse, weights=weights, minlength=len(pairs))
    return pairs >> 16, pairs & 0xFFFF, counts.astype(np.int64)


def estimate_unrecorded(trace: Trace) -> UnrecordedEstimate:
    """Apply the three atomicity rules to a time-sorted trace."""
    if not trace.is_time_sorted():
        trace = trace.sorted_by_time()
    n = len(trace)
    ftype = trace.ftype
    src = trace.src
    dst = trace.dst

    if n < 2:
        empty = np.empty(0, dtype=np.int64)
        return UnrecordedEstimate(n, 0, 0, 0, empty, empty, empty)

    prev_type = ftype[:-1]
    cur_type = ftype[1:]

    # DATA-ACK: ACK at i whose predecessor is not its DATA.
    is_ack = cur_type == int(FrameType.ACK)
    prev_is_matching_data = (prev_type == int(FrameType.DATA)) & (
        src[:-1] == dst[1:]
    )
    lone_ack = is_ack & ~prev_is_matching_data
    # Attribute each missing DATA to (transmitter = ACK dst, receiver = ACK src).
    lone_ack_rows = np.nonzero(lone_ack)[0] + 1
    missing_data_src = dst[lone_ack_rows].astype(np.int64)
    missing_data_dst = src[lone_ack_rows].astype(np.int64)

    # First frame of the trace: an opening ACK also implies a missing DATA.
    if ftype[0] == int(FrameType.ACK):
        missing_data_src = np.concatenate([[int(dst[0])], missing_data_src])
        missing_data_dst = np.concatenate([[int(src[0])], missing_data_dst])

    # RTS-CTS: CTS at i whose predecessor is not its RTS.
    is_cts = cur_type == int(FrameType.CTS)
    prev_is_matching_rts = (prev_type == int(FrameType.RTS)) & (
        src[:-1] == dst[1:]
    )
    lone_cts = is_cts & ~prev_is_matching_rts
    missing_rts = int(np.count_nonzero(lone_cts))
    if ftype[0] == int(FrameType.CTS):
        missing_rts += 1

    # RTS-CTS-DATA: RTS at i directly followed by the DATA it protected
    # (same transmitter, same receiver) with no CTS in between.
    is_rts = prev_type == int(FrameType.RTS)
    next_is_same_flow_data = (
        (cur_type == int(FrameType.DATA))
        & (src[1:] == src[:-1])
        & (dst[1:] == dst[:-1])
    )
    missing_cts = int(np.count_nonzero(is_rts & next_is_same_flow_data))

    pair_src, pair_dst, pair_count = missing_pair_table(
        pair_keys(missing_data_src, missing_data_dst)
    )
    return UnrecordedEstimate(
        captured_frames=n,
        missing_data=len(missing_data_src),
        missing_rts=missing_rts,
        missing_cts=missing_cts,
        missing_pair_src=pair_src,
        missing_pair_dst=pair_dst,
        missing_pair_count=pair_count,
    )


def unrecorded_by_ap(
    trace: Trace, roster: NodeRoster, top_n: int = 15
) -> ColumnTable:
    """Per-AP unrecorded percentage for the ``top_n`` busiest APs (Fig 4c).

    A captured frame counts toward an AP when the AP is its source or
    destination; an inferred-missing DATA frame counts toward the AP
    endpoint of its reconstructed (src, dst) pair.  Returns a table with
    columns ``ap``, ``rank``, ``captured``, ``missing``,
    ``unrecorded_percent`` ordered by descending captured traffic.
    """
    if not trace.is_time_sorted():
        trace = trace.sorted_by_time()
    estimate = estimate_unrecorded(trace)
    ap_ids = np.array(roster.ap_ids, dtype=np.int64)
    if len(ap_ids) == 0:
        return ColumnTable(
            {
                "ap": np.empty(0, dtype=np.int64),
                "rank": np.empty(0, dtype=np.int64),
                "captured": np.empty(0, dtype=np.int64),
                "missing": np.empty(0, dtype=np.int64),
                "unrecorded_percent": np.empty(0, dtype=np.float64),
            }
        )

    captured = np.zeros(len(ap_ids), dtype=np.int64)
    src = trace.src.astype(np.int64)
    dst = trace.dst.astype(np.int64)
    for i, ap in enumerate(ap_ids):
        captured[i] = int(np.count_nonzero((src == ap) | (dst == ap)))
    return ap_table_from_counts(
        ap_ids, captured, estimate.missing_data_at(ap_ids), top_n
    )


def ap_table_from_counts(
    ap_ids: np.ndarray,
    captured: np.ndarray,
    missing: np.ndarray,
    top_n: int = 15,
) -> ColumnTable:
    """Assemble the Fig-4c table from per-AP captured/missing counts.

    Shared with the streaming pipeline, which accumulates both count
    arrays incrementally instead of re-scanning the trace.
    """
    ap_ids = np.asarray(ap_ids, dtype=np.int64)
    captured = np.asarray(captured, dtype=np.int64)
    missing = np.asarray(missing, dtype=np.int64)
    order = np.argsort(captured, kind="stable")[::-1][:top_n]
    cap, mis = captured[order], missing[order]
    with np.errstate(invalid="ignore", divide="ignore"):
        percent = np.where(
            cap + mis > 0, 100.0 * mis / (cap + mis), 0.0
        )
    return ColumnTable(
        {
            "ap": ap_ids[order],
            "rank": np.arange(1, len(order) + 1),
            "captured": cap,
            "missing": mis,
            "unrecorded_percent": percent,
        }
    )
