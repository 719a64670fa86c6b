"""Columnar capture encoder parity: byte-identical to the per-row writers.

:func:`repro.pcap.write_trace` and :func:`repro.corpus.write_snoop`
encode records as numpy slabs.  The per-row writers they replaced —
one :func:`repro.pcap.pcapio._encode_packet` call and one ``struct``
record header per ``Trace.iter_rows()`` row — are kept here, verbatim,
as the reference: for arbitrary traces every container must come out
byte-for-byte the same, and a row the columnar encoder cannot represent
must fail with the same exception type and message.
"""

from __future__ import annotations

import gzip
import io
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frames import BROADCAST, NO_NODE, FrameType, Trace
from repro.pcap import write_trace
from repro.pcap import pcapio
from repro.pcap.pcapio import _encode_packet

SUFFIXES = (".pcap", ".pcap.gz", ".snoop", ".snoop.gz")
SNAPLENS = (0, 24, 34, 41, 48, 250, 65_535)
SECOND = 1_000_000


# --- the per-row reference writers -----------------------------------------


def _reference_pcap(fp, trace, snaplen, duration_fill):
    fp.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, snaplen, 127))
    for row in trace.iter_rows():
        packet = _encode_packet(row, duration_fill)
        incl = packet[:snaplen]
        ts_sec, ts_usec = divmod(row.time_us, 1_000_000)
        fp.write(struct.pack("<IIII", ts_sec, ts_usec, len(incl), len(packet)))
        fp.write(incl)


def _reference_snoop(fp, trace, snaplen, duration_fill):
    fp.write(struct.pack(">8sLL", b"snoop\x00\x00\x00", 2, 127))
    for row in trace.iter_rows():
        packet = _encode_packet(row, duration_fill)
        incl = packet[:snaplen]
        pad = -len(incl) % 4
        ts_sec, ts_usec = divmod(row.time_us, 1_000_000)
        fp.write(
            struct.pack(
                ">LLLLLL",
                len(packet),
                len(incl),
                24 + len(incl) + pad,
                0,
                ts_sec,
                ts_usec,
            )
        )
        fp.write(incl)
        fp.write(b"\0" * pad)


def reference_bytes(trace, suffix, snaplen, duration_fill):
    write = _reference_snoop if suffix.startswith(".snoop") else _reference_pcap
    out = io.BytesIO()
    if suffix.endswith(".gz"):
        with gzip.GzipFile(filename="", fileobj=out, mode="wb", mtime=0) as fp:
            write(fp, trace, snaplen, duration_fill)
    else:
        write(out, trace, snaplen, duration_fill)
    return out.getvalue()


def columnar_bytes(trace, suffix, snaplen, duration_fill):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"capture{suffix}"
        assert write_trace(trace, path, snaplen, duration_fill) == len(trace)
        return path.read_bytes()


def outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - parity on any error
        return None, (type(exc), str(exc))


# --- strategies ------------------------------------------------------------

#: SNR values whose signal byte sits on the int8 clamp or a .5 tie
#: (float32-exact, so the half-even rounding is what decides), plus
#: one-ulp neighbours of ties, where ``-96 + snr`` rounds differently
#: in float32 than in the scalar path's double precision.
EDGE_SNR = (-33.5, -32.5, -31.5, 0.5, 1.5, 2.5, 222.5, 223.5, 224.5, 1e9, -1e9)
EDGE_SNR += tuple(
    float(np.nextafter(np.float32(tie), np.float32(toward)))
    for tie in (-0.5, 0.5, 2.5)
    for toward in (-np.inf, np.inf)
)


@st.composite
def rows(draw):
    ftype = draw(st.sampled_from(list(FrameType)))
    control = ftype in (FrameType.ACK, FrameType.CTS)
    node = st.one_of(
        st.integers(0, 0xFFFD), st.sampled_from([0, 0xFF, 0x100, BROADCAST])
    )
    return {
        "time_us": draw(
            st.one_of(
                st.integers(0, 4_000 * SECOND),
                st.builds(
                    lambda s, d: max(s * SECOND + d, 0),
                    st.integers(0, 2**32 - 1),
                    st.sampled_from([-1, 0, 1, SECOND - 1]),
                ),
            )
        ),
        "ftype": int(ftype),
        "rate_code": draw(st.integers(0, 3)),
        "size": draw(
            st.one_of(
                st.integers(0, 2_400),
                st.integers(250 - 52, 250 + 4),  # around the paper snaplen
            )
        ),
        "src": draw(st.one_of(node, st.just(NO_NODE)) if control else node),
        "dst": draw(node),
        "retry": draw(st.booleans()),
        "channel": draw(st.integers(1, 14)),
        "snr_db": draw(
            st.one_of(
                st.sampled_from(EDGE_SNR),
                st.floats(-300, 300, width=32),
            )
        ),
        "seq": draw(st.integers(0, 0xFFFF)),
    }


def trace_of(row_dicts):
    if not row_dicts:
        return Trace.empty()
    return Trace(
        {name: np.array([r[name] for r in row_dicts]) for name in row_dicts[0]}
    )


#: One field per way a row can fall outside the columnar encoder.
BAD_FIELDS = st.sampled_from(
    [
        ("ftype", 6),
        ("ftype", 255),
        ("rate_code", 4),
        ("channel", 0),
        ("channel", 15),
        ("dst", NO_NODE),
        ("time_us", -1),
        ("time_us", 2**32 * SECOND),
        ("snr_db", float("nan")),
        ("snr_db", float("inf")),
    ]
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestColumnarMatchesScalar:
    @SETTINGS
    @given(
        row_dicts=st.lists(rows(), max_size=40),
        suffix=st.sampled_from(SUFFIXES),
        snaplen=st.sampled_from(SNAPLENS),
        duration_fill=st.booleans(),
    )
    def test_byte_identical(self, row_dicts, suffix, snaplen, duration_fill):
        trace = trace_of(row_dicts)
        assert columnar_bytes(trace, suffix, snaplen, duration_fill) == (
            reference_bytes(trace, suffix, snaplen, duration_fill)
        )

    @SETTINGS
    @given(
        row_dicts=st.lists(rows(), min_size=1, max_size=12),
        bad=BAD_FIELDS,
        where=st.integers(0, 11),
        suffix=st.sampled_from(SUFFIXES),
        snaplen=st.sampled_from(SNAPLENS),
    )
    def test_ineligible_row_raises_scalar_error(
        self, row_dicts, bad, where, suffix, snaplen
    ):
        field, value = bad
        row_dicts[where % len(row_dicts)][field] = value
        trace = trace_of(row_dicts)
        _, ref_error = outcome(reference_bytes, trace, suffix, snaplen, True)
        _, new_error = outcome(columnar_bytes, trace, suffix, snaplen, True)
        assert ref_error is not None
        assert new_error == ref_error

    @pytest.mark.parametrize("suffix", SUFFIXES)
    def test_source_less_data_frame_raises_scalar_error(self, suffix):
        """NO_NODE is fine as an ACK's src but not as a DATA frame's."""
        row = {
            "time_us": 5, "ftype": int(FrameType.DATA), "rate_code": 3,
            "size": 400, "src": NO_NODE, "dst": 1, "retry": False,
            "channel": 6, "snr_db": 20.0, "seq": 1,
        }
        trace = trace_of([row])
        _, ref_error = outcome(reference_bytes, trace, suffix, 250, True)
        _, new_error = outcome(columnar_bytes, trace, suffix, 250, True)
        assert ref_error is not None and new_error == ref_error


class TestSlabs:
    @pytest.mark.parametrize("suffix", SUFFIXES)
    def test_multi_slab_output_is_one_stream(self, small_scenario, suffix, monkeypatch):
        trace = small_scenario.trace
        monkeypatch.setattr(pcapio, "_SLAB_ROWS", 97)
        assert columnar_bytes(trace, suffix, 250, True) == reference_bytes(
            trace, suffix, 250, True
        )

    def test_writers_never_iterate_rows(self, small_scenario, monkeypatch):
        def forbidden(self):
            raise AssertionError("per-row iteration on the write path")

        monkeypatch.setattr(Trace, "iter_rows", forbidden)
        for suffix in SUFFIXES:
            columnar_bytes(small_scenario.trace, suffix, 250, True)
