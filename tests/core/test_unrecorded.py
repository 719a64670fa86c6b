"""Tests for atomicity-based unrecorded-frame estimation (paper §4.4)."""

import pytest

from repro.core import estimate_unrecorded, unrecorded_by_ap
from repro.frames import Trace

from ..conftest import ack, beacon, cts, data, rts


class TestDataAckRule:
    def test_lone_ack_implies_missing_data(self):
        trace = Trace.from_rows([beacon(0, 1), ack(1000, 1, 10)])
        est = estimate_unrecorded(trace)
        assert est.missing_data == 1
        assert list(est.missing_pair_src) == [10]  # ACK dst = data sender
        assert list(est.missing_pair_dst) == [1]
        assert list(est.missing_pair_count) == [1]

    def test_missing_frames_tallied_per_pair(self):
        trace = Trace.from_rows(
            [beacon(0, 1), ack(1000, 1, 10), ack(2000, 1, 10), ack(3000, 1, 11)]
        )
        est = estimate_unrecorded(trace)
        assert est.missing_data == 3
        assert list(est.missing_pair_src) == [10, 11]
        assert list(est.missing_pair_dst) == [1, 1]
        assert list(est.missing_pair_count) == [2, 1]

    def test_matched_pair_not_missing(self):
        trace = Trace.from_rows([data(0, 10, 1), ack(1000, 1, 10)])
        assert estimate_unrecorded(trace).missing_data == 0

    def test_opening_ack_counts(self):
        trace = Trace.from_rows([ack(0, 1, 10), data(5000, 10, 1)])
        assert estimate_unrecorded(trace).missing_data == 1

    def test_mismatched_addresses_count_as_missing(self):
        # DATA from 99 followed by ACK for 10: 10's DATA was missed.
        trace = Trace.from_rows([data(0, 99, 1), ack(1000, 1, 10)])
        assert estimate_unrecorded(trace).missing_data == 1


class TestRtsCtsRule:
    def test_lone_cts_implies_missing_rts(self):
        trace = Trace.from_rows([beacon(0, 1), cts(1000, 1, 11)])
        assert estimate_unrecorded(trace).missing_rts == 1

    def test_matched_handshake_not_missing(self):
        trace = Trace.from_rows([rts(0, 11, 1), cts(500, 1, 11)])
        est = estimate_unrecorded(trace)
        assert est.missing_rts == 0

    def test_opening_cts_counts(self):
        trace = Trace.from_rows([cts(0, 1, 11), beacon(1000, 1)])
        assert estimate_unrecorded(trace).missing_rts == 1


class TestRtsCtsDataRule:
    def test_rts_then_data_implies_missing_cts(self):
        """RTS followed directly by its DATA: the CTS must have existed."""
        trace = Trace.from_rows(
            [rts(0, 11, 1), data(1000, 11, 1, size=1400)]
        )
        assert estimate_unrecorded(trace).missing_cts == 1

    def test_complete_handshake_no_missing_cts(self):
        trace = Trace.from_rows(
            [rts(0, 11, 1), cts(500, 1, 11), data(1000, 11, 1), ack(2500, 1, 11)]
        )
        est = estimate_unrecorded(trace)
        assert est.missing_cts == 0
        assert est.missing_rts == 0
        assert est.missing_data == 0

    def test_unrelated_data_after_rts_not_counted(self):
        trace = Trace.from_rows([rts(0, 11, 1), data(1000, 10, 1)])
        assert estimate_unrecorded(trace).missing_cts == 0


class TestEquation1:
    def test_unrecorded_percent(self):
        # 3 captured frames, 1 inferred missing -> 1/4 = 25 %.
        trace = Trace.from_rows(
            [beacon(0, 1), ack(1000, 1, 10), data(5000, 10, 1)]
        )
        est = estimate_unrecorded(trace)
        assert est.captured_frames == 3
        assert est.total_missing == 1
        assert est.unrecorded_percent == pytest.approx(25.0)

    def test_empty_trace(self):
        est = estimate_unrecorded(Trace.empty())
        assert est.unrecorded_percent == 0.0


class TestPerApAttribution:
    def test_fig4c_table(self, tiny_roster):
        rows = [
            data(0, 10, 1), ack(1000, 1, 10),      # complete, AP 1
            beacon(2000, 1),
            ack(3000, 1, 11),                       # missing DATA 11 -> 1
        ]
        table = unrecorded_by_ap(Trace.from_rows(rows), tiny_roster)
        assert table.column("ap")[0] == 1
        assert table.column("captured")[0] == 4  # data+ack+beacon+ack
        assert table.column("missing")[0] == 1
        assert table.column("unrecorded_percent")[0] == pytest.approx(100 / 5)

    def test_top_n_cutoff(self, tiny_roster):
        trace = Trace.from_rows([data(0, 10, 1), ack(1000, 1, 10)])
        table = unrecorded_by_ap(trace, tiny_roster, top_n=0)
        assert len(table) == 0

    def test_no_aps(self):
        from repro.frames import NodeRoster

        trace = Trace.from_rows([data(0, 10, 1)])
        table = unrecorded_by_ap(trace, NodeRoster([]))
        assert len(table) == 0
