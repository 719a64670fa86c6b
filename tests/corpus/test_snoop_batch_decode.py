"""Vectorized snoop decode parity with the per-record snoop reader.

:func:`repro.corpus.read_snoop_batches` runs the same slab loop as the
pcap reader: clean records are bulk-decoded by ``_decode_block`` and a
record it rejects drops to the scalar codecs.  The reference below is
the per-record snoop walk the reader used before — ``struct`` header
unpack, ``rec_len`` validation and stride, one scalar decode per
record — and every case checks that a clean vectorized run ahead of a
damaged or foreign record yields the same clean prefix and the same
:class:`TruncatedSnoopError` (message, ``byte_offset``,
``frames_read``), for plain and gzip input alike.
"""

from __future__ import annotations

import gzip
import struct

import numpy as np
import pytest

import repro.corpus.snoop as snoop_mod
import repro.pcap.pcapio as pcapio_mod
from repro.corpus import TruncatedSnoopError, read_snoop_batches, write_snoop
from repro.frames import TRACE_COLUMNS
from repro.pcap import TruncatedPcapError, read_trace_batches
from repro.pcap.pcapio import _RowBuffer, _decode_record_scalar
from repro.sim import build_scenario

FILE_HEADER = 16
RECORD_HEADER = struct.Struct(">LLLLLL")


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    """A simulated snoop capture plus its per-record absolute offsets."""
    built = build_scenario(
        "uniform", n_stations=4, duration_s=2.0, seed=11, rtscts_fraction=0.5
    )
    path = tmp_path_factory.mktemp("snoop-parity") / "capture.snoop"
    write_snoop(built.run().ground_truth, path)
    raw = path.read_bytes()
    offsets = []
    pos = FILE_HEADER
    while pos < len(raw):
        offsets.append(pos)
        pos += RECORD_HEADER.unpack_from(raw, pos)[2]
    assert len(offsets) > 200
    return raw, offsets


def scalar_reference(path, raw, batch_frames, compressed):
    """The per-record snoop walk: what the reader yielded and raised."""
    buf = raw[FILE_HEADER:]
    rows = _RowBuffer()
    yielded = []
    frames_read = 0
    error = None
    pos = 0
    while pos + RECORD_HEADER.size <= len(buf):
        _orig, incl, rec_len, _drops, _sec, _usec = RECORD_HEADER.unpack_from(
            buf, pos
        )
        if rec_len < RECORD_HEADER.size + incl:
            error = TruncatedSnoopError(
                f"{path}: invalid record length {rec_len} "
                f"(included length {incl})",
                byte_offset=FILE_HEADER + pos,
                frames_read=frames_read,
                compressed=compressed,
            )
            break
        if pos + rec_len > len(buf):
            break
        try:
            values = _decode_record_scalar(
                buf, pos, FILE_HEADER + pos, frames_read, path, compressed,
                snoop_mod._SNOOP,
            )
        except Exception as exc:  # noqa: BLE001 - parity on any error
            error = exc
            break
        rows.append_row(values)
        frames_read += 1
        if len(rows) >= batch_frames:
            yielded.append(rows.take(batch_frames))
        pos += rec_len
    if error is None and pos < len(buf):
        whole_header = len(buf) - pos >= RECORD_HEADER.size
        error = TruncatedSnoopError(
            f"{path}: truncated record {'body' if whole_header else 'header'}",
            byte_offset=FILE_HEADER + pos + (24 if whole_header else 0),
            frames_read=frames_read,
            compressed=compressed,
        )
    if len(rows) and (error is None or isinstance(error, TruncatedPcapError)):
        yielded.append(rows.flush())
    return yielded, error


def vectorized(path, batch_frames, reader):
    batches = []
    error = None
    try:
        for batch in reader(path, batch_frames):
            batches.append(batch)
    except Exception as exc:  # noqa: BLE001 - parity on any error
        error = exc
    return batches, error


@pytest.fixture(params=["plain", "gzip"])
def write_variant(request, tmp_path):
    """Write raw snoop bytes as-is or gzip-wrapped (offsets decompressed)."""
    compressed = request.param == "gzip"

    def write(data: bytes):
        path = tmp_path / ("capture.snoop.gz" if compressed else "capture.snoop")
        if compressed:
            with path.open("wb") as raw, gzip.GzipFile(
                filename="", fileobj=raw, mode="wb", mtime=0
            ) as fp:
                fp.write(data)
        else:
            path.write_bytes(data)
        return path, compressed

    return write


def assert_parity(data, write_variant, monkeypatch, batch_frames=64):
    """Both readers match the reference; returns (frames yielded, error)."""
    path, compressed = write_variant(data)
    reference, ref_error = scalar_reference(path, data, batch_frames, compressed)
    scalar_calls = []
    real = pcapio_mod._decode_record_scalar

    def counting(*args, **kwargs):
        scalar_calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(pcapio_mod, "_decode_record_scalar", counting)
    for reader in (read_snoop_batches, read_trace_batches):
        batches, error = vectorized(path, batch_frames, reader)
        assert type(error) is type(ref_error)
        assert str(error) == str(ref_error)
        if isinstance(ref_error, TruncatedPcapError):
            assert error.byte_offset == ref_error.byte_offset
            assert error.frames_read == ref_error.frames_read
            assert error.compressed == compressed
        assert [len(b) for b in batches] == [len(b) for b in reference]
        for name in TRACE_COLUMNS:
            for got, want in zip(batches, reference):
                assert got.column(name).dtype == want.column(name).dtype, name
                assert np.array_equal(got.column(name), want.column(name)), name
    # Only a damaged record ever reaches the scalar decoder (once per reader).
    assert len(scalar_calls) <= 2
    return sum(len(b) for b in reference), ref_error


class TestCleanRunThenDamage:
    def test_clean_capture(self, capture, write_variant, monkeypatch):
        raw, offsets = capture
        frames, error = assert_parity(raw, write_variant, monkeypatch)
        assert error is None and frames == len(offsets)

    def test_foreign_mac_after_clean_run(self, capture, write_variant, monkeypatch):
        raw, offsets = capture
        data = bytearray(raw)
        data[offsets[150] + 24 + 24 + 4] = 0x55  # addr1 first byte
        frames, error = assert_parity(bytes(data), write_variant, monkeypatch)
        assert isinstance(error, TruncatedSnoopError)
        assert "undecodable record" in str(error)
        assert error.byte_offset == offsets[150]
        assert error.frames_read == frames == 150

    def test_bad_radiotap_after_clean_run(self, capture, write_variant, monkeypatch):
        raw, offsets = capture
        data = bytearray(raw)
        data[offsets[90] + 24] = 9  # radiotap version byte
        frames, error = assert_parity(bytes(data), write_variant, monkeypatch)
        assert isinstance(error, TruncatedSnoopError)
        assert error.byte_offset == offsets[90]
        assert error.frames_read == frames == 90

    def test_non_dot11b_rate_after_clean_run(self, capture, write_variant, monkeypatch):
        raw, offsets = capture
        data = bytearray(raw)
        data[offsets[120] + 24 + 17] = 12  # 6 Mbps: not an 11b rate
        _, error = assert_parity(bytes(data), write_variant, monkeypatch)
        assert type(error) is ValueError

    def test_invalid_record_length_after_clean_run(
        self, capture, write_variant, monkeypatch
    ):
        raw, offsets = capture
        data = bytearray(raw)
        struct.pack_into(">L", data, offsets[175] + 8, 4)
        frames, error = assert_parity(bytes(data), write_variant, monkeypatch)
        assert isinstance(error, TruncatedSnoopError)
        assert "invalid record length 4" in str(error)
        assert error.byte_offset == offsets[175]
        assert error.frames_read == frames == 175

    @pytest.mark.parametrize("extra, kind", [(10, "header"), (30, "body")])
    def test_truncated_after_clean_run(
        self, capture, write_variant, monkeypatch, extra, kind
    ):
        raw, offsets = capture
        frames, error = assert_parity(
            raw[: offsets[200] + extra], write_variant, monkeypatch
        )
        assert isinstance(error, TruncatedSnoopError)
        assert f"truncated record {kind}" in str(error)
        assert error.byte_offset == offsets[200] + (24 if kind == "body" else 0)
        assert error.frames_read == frames == 200

    def test_damage_across_small_slabs(self, capture, write_variant, monkeypatch):
        """Slab edges fall mid-record: the scan resumes where it stopped."""
        raw, offsets = capture
        monkeypatch.setattr(snoop_mod, "_CHUNK_BYTES", 1_000)
        data = bytearray(raw)
        data[offsets[140] + 24 + 24 + 4] = 0x55
        frames, error = assert_parity(bytes(data), write_variant, monkeypatch)
        assert error.byte_offset == offsets[140]
        assert error.frames_read == frames == 140
