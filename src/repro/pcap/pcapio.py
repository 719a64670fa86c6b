"""pcap file reader/writer for radiotap-encapsulated 802.11 traces.

Writes classic little-endian pcap (magic ``0xa1b2c3d4``, version 2.4)
with linktype 127 (IEEE802_11_RADIOTAP) — the same container a tethereal
RFMon capture like the paper's produces — and reads it back into a
:class:`repro.frames.Trace`.

Like the paper's capture (snap length 250 bytes, §4.2), packets may be
truncated on disk; the pcap record's ``orig_len`` preserves the true
on-air size, so frame sizes survive the round trip.

Information that genuinely does not exist on the air is lost exactly as
it was for the paper: ACK and CTS frames carry no transmitter address,
so those frames read back with ``src == NO_NODE``.

Interchange: :func:`read_trace_batches` sniffs the leading bytes and
transparently handles gzip-compressed captures and RFC 1761 snoop
captures (:mod:`repro.corpus.snoop`) in addition to plain pcap;
:func:`write_trace` routes on the path suffix (``.pcap`` /
``.pcap.gz`` / ``.snoop`` / ``.snoop.gz``).  For compressed captures
every reported byte offset is into the *decompressed* stream.

Both containers share one columnar codec: records are encoded and
decoded as numpy slabs, and each container contributes only its file
header and its per-record header (:class:`_Container`).
"""

from __future__ import annotations

import contextlib
import gzip
import struct
from pathlib import Path
from typing import Callable

import numpy as np

from ..frames import (
    BROADCAST,
    NO_NODE,
    TRACE_COLUMNS,
    TRACE_SCHEMA,
    FrameType,
    Trace,
    rate_to_code,
)
from ..frames.dot11 import DOT11_RATES_MBPS, frame_type_from_dot11
from .dot11_codec import _frame_control, decode_frame, encode_frame
from .radiotap import CHANNEL_FREQ_MHZ, RadiotapHeader
from .radiotap import _PRESENT as _RT_PRESENT

__all__ = [
    "write_trace",
    "read_trace",
    "read_trace_batches",
    "TruncatedPcapError",
    "PAPER_SNAPLEN",
    "LINKTYPE_RADIOTAP",
]


class TruncatedPcapError(ValueError):
    """A pcap ended mid-record or a record failed to decode.

    Carries where the damage starts (``byte_offset``) and how many
    frames decoded cleanly before it (``frames_read``) so callers —
    the streaming pipeline, the serve daemon, batch runs — can report
    the partial read instead of surfacing a raw ``struct.error``.
    ``compressed`` marks offsets into the decompressed stream of a
    gzipped capture (the on-disk file offset is not meaningful there).
    """

    def __init__(
        self,
        message: str,
        *,
        byte_offset: int,
        frames_read: int,
        compressed: bool = False,
    ) -> None:
        where = "decompressed byte offset" if compressed else "byte offset"
        super().__init__(
            f"{message} ({where} {byte_offset}, "
            f"{frames_read} frames read cleanly)"
        )
        self.byte_offset = byte_offset
        self.frames_read = frames_read
        self.compressed = compressed

    @classmethod
    def _corrupt_gzip(cls, path, error, byte_offset, frames_read):
        """The gzip stream itself failed to decompress."""
        return cls(
            f"{path}: corrupt gzip stream ({type(error).__name__}: {error})",
            byte_offset=byte_offset,
            frames_read=frames_read,
            compressed=True,
        )

_MAGIC = 0xA1B2C3D4
LINKTYPE_RADIOTAP = 127

_GZIP_MAGIC = b"\x1f\x8b"
#: RFC 1761 file ident (duplicated privately here so the pcap layer
#: never imports :mod:`repro.corpus` at module load).
_SNOOP_IDENT = b"snoop\x00\x00\x00"

#: The snap length the paper's sniffers used (§4.2).
PAPER_SNAPLEN = 250

_NOISE_FLOOR_DBM = -96
#: ``duration_fill``'s Duration field: SIFS + ACK, the remaining exchange.
_DURATION_FILL_US = 10 + 304

#: File-read granularity for the batched reader.
_CHUNK_BYTES = 4 << 20
#: Rows per encoded slab: bounds writer memory for any trace length.
_SLAB_ROWS = 16_384


class _Container:
    """How one capture container frames its records.

    ``header_format`` is the per-record :mod:`struct` header; its fields
    are all 4-byte unsigned, named by ``fields`` from ``ts_sec``,
    ``ts_usec``, ``incl``, ``orig``, ``rec_len`` and ``drops``.  A
    ``rec_len`` field is the record stride (snoop); without one the
    stride is header + included length (pcap).  Payloads are zero-padded
    to ``align``.  ``dtype`` views the same header bytes in numpy.
    """

    def __init__(
        self,
        header_format: str,
        fields: tuple[str, ...],
        *,
        file_header_size: int,
        check_file_header: Callable[[Path, bytes], None],
        error: type[TruncatedPcapError],
        align: int = 1,
    ) -> None:
        self.header = struct.Struct(header_format)
        self.size = self.header.size
        self.fields = fields
        self.dtype = np.dtype(
            {"names": fields, "formats": [header_format[0] + "u4"] * len(fields)}
        )
        self.file_header_size = file_header_size
        self.check_file_header = check_file_header
        self.error = error
        self.align = align
        # The scanner's one unpack per record: (included length, stride
        # field); for pcap the two are the same field.
        incl_at = self.dtype.fields["incl"][1]
        lengths = f"{header_format[0]}{incl_at}xI"
        if "rec_len" in fields:
            lengths += f"{self.dtype.fields['rec_len'][1] - incl_at - 4}xI"
        self.lengths = struct.Struct(lengths)
        self.span_base = 0 if "rec_len" in fields else self.size

    def header_values(self, time_us, incl, orig) -> dict:
        """Every header field's value, for scalars and numpy columns alike."""
        ts_sec, ts_usec = divmod(time_us, 1_000_000)
        rec_len = self.size + incl + (-incl % self.align)
        return dict(
            ts_sec=ts_sec,
            ts_usec=ts_usec,
            incl=incl,
            orig=orig,
            rec_len=rec_len,
            drops=0,
        )


def _check_pcap_header(path: Path, header: bytes) -> None:
    if len(header) < 24:
        raise ValueError(f"{path}: not a pcap file (too short)")
    magic, linktype = struct.unpack("<I16xI", header)  # skips version..snaplen
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad pcap magic {magic:#x}")
    if linktype != LINKTYPE_RADIOTAP:
        raise ValueError(
            f"{path}: linktype {linktype}, expected radiotap "
            f"({LINKTYPE_RADIOTAP})"
        )


_PCAP = _Container(
    "<IIII",
    ("ts_sec", "ts_usec", "incl", "orig"),
    file_header_size=24,
    check_file_header=_check_pcap_header,
    error=TruncatedPcapError,
)


# --- packet layout ---------------------------------------------------------
#
# Every record write_trace emits has one fixed shape: a 24-byte radiotap
# header (version 0, the exact present-word ``radiotap._PRESENT``), a
# 10/16/24-byte 802.11 header from our codec, then a zero-filled body,
# all cut at the snap length.  ``_PACKET_HEAD`` names the 48 leading
# bytes, so the encoder scatters whole columns into them and the decoder
# views gathered bytes through them.

_RT_FIXED_LEN = 24  # radiotap header write_trace emits: 8 + QBBHHbb body

_PACKET_HEAD = np.dtype(
    [
        # radiotap: version, pad, length, present word, QBBHHbb body
        ("rt_version", "u1"), ("rt_pad", "u1"), ("rt_len", "<u2"),
        ("present", "<u4"), ("tsft", "<u8"), ("flags", "u1"), ("rate", "u1"),
        ("freq", "<u2"), ("chan_flags", "<u2"), ("signal", "i1"), ("noise", "i1"),
        # 802.11: frame control, duration, RA, TA, BSSID, sequence control
        ("fc", "<u2"), ("duration", "<u2"), ("addr1", "u1", (6,)),
        ("addr2", "u1", (6,)), ("addr3", "u1", (6,)), ("seq_ctrl", "<u2"),
    ]
)

#: The constant radiotap fields (version, length, present word, flags,
#: channel flags, noise floor), taken from the scalar encoder.
_HEAD_TEMPLATE = np.frombuffer(
    RadiotapHeader(0, 1.0, 1, 0, _NOISE_FLOOR_DBM).encode() + bytes(24),
    dtype=_PACKET_HEAD,
)

#: Per-FrameType 802.11 header length (0 = not a FrameType) and frame
#: control word, taken from the scalar codec.  Indexed by uint8 columns.
_D11_LEN = np.zeros(256, dtype=np.int64)
_FC_BY_TYPE = np.zeros(256, dtype=np.uint16)
for _ft in FrameType:
    _D11_LEN[_ft] = len(encode_frame(_ft, 0, 0))
    _FC_BY_TYPE[_ft] = _frame_control(_ft, False)

#: Rate code -> radiotap rate byte (0.5 Mbps units), 0 = invalid code.
_RATE_UNITS = np.zeros(256, dtype=np.uint8)
_RATE_UNITS[: len(DOT11_RATES_MBPS)] = [round(r * 2) for r in DOT11_RATES_MBPS]

#: Channel -> centre frequency (0 = unknown channel), and back.
_FREQ_BY_CHANNEL = np.zeros(256, dtype=np.uint16)
_CHANNEL_BY_FREQ = np.zeros(1 << 16, dtype=np.uint8)
for _ch, _freq in CHANNEL_FREQ_MHZ.items():
    _FREQ_BY_CHANNEL[_ch] = _freq
    _CHANNEL_BY_FREQ[_freq] = _ch


# --- writing ---------------------------------------------------------------


def _encode_packet(row, duration_fill: bool) -> bytes:
    """One trace row as radiotap + 802.11 bytes — the scalar reference."""
    radiotap = RadiotapHeader(
        tsft_us=row.time_us,
        rate_mbps=row.rate_mbps,
        channel=row.channel,
        signal_dbm=int(round(_NOISE_FLOOR_DBM + row.snr_db)),
        noise_dbm=_NOISE_FLOOR_DBM,
    ).encode()
    body_size = 0
    if row.ftype in (FrameType.DATA, FrameType.MGMT, FrameType.BEACON):
        body_size = max(0, row.size - 24)
    duration = _DURATION_FILL_US if duration_fill else 0
    dot11 = encode_frame(
        ftype=row.ftype,
        src=row.src,
        dst=row.dst,
        seq=row.seq,
        retry=row.retry,
        body_size=body_size,
        duration_us=duration,
    )
    return radiotap + dot11


def _macs(node: np.ndarray) -> np.ndarray:
    """Node ids as ``02:00:00:00:hi:lo`` (or broadcast) MAC rows."""
    mac = np.zeros((len(node), 6), dtype=np.uint8)
    mac[:, 0] = 0x02
    mac[:, 4] = node >> 8
    mac[:, 5] = node & 0xFF
    mac[node == BROADCAST] = 0xFF
    return mac


def _encode_slab(
    trace: Trace, rows: slice, snaplen: int, duration_fill: bool, fmt: _Container
) -> np.ndarray | None:
    """Records ``rows`` of ``trace`` as one contiguous container slab.

    Returns None when any row is outside what the columnar encoder
    represents — not a FrameType, a non-11b rate code, an unknown
    channel, an unaddressable node id, a negative timestamp, a
    non-finite SNR, a header field past 32 bits or a snap length that
    is not a 32-bit count.  The caller then encodes the slab through
    the scalar codecs, which raise the per-row writer's exact error.
    """
    if not (isinstance(snaplen, (int, np.integer)) and 0 <= snaplen <= 0xFFFFFFFF):
        return None
    col = {name: trace.column(name)[rows] for name in TRACE_COLUMNS}
    ftype, src, dst = col["ftype"], col["src"], col["dst"]
    n = len(ftype)
    d11_len = _D11_LEN[ftype]
    ok = (
        (d11_len > 0)
        & (_RATE_UNITS[col["rate_code"]] > 0)
        & (_FREQ_BY_CHANNEL[col["channel"]] > 0)
        & (col["time_us"] >= 0)
        & np.isfinite(col["snr_db"])
        & (dst != NO_NODE)
        & ((src != NO_NODE) | (d11_len == 10))  # ACK/CTS carry no TA
    )
    body = np.where(
        d11_len == 24, np.maximum(col["size"].astype(np.int64) - 24, 0), 0
    )
    orig = _RT_FIXED_LEN + d11_len + body
    incl = np.minimum(orig, snaplen)
    values = fmt.header_values(col["time_us"], incl, orig)
    hdr = np.zeros(n, dtype=fmt.dtype)
    for name in fmt.fields:
        ok &= values[name] <= 0xFFFFFFFF
        hdr[name] = values[name]
    if not ok.all():
        return None

    head = np.repeat(_HEAD_TEMPLATE, n)
    head["tsft"] = col["time_us"]
    head["rate"] = _RATE_UNITS[col["rate_code"]]
    head["freq"] = _FREQ_BY_CHANNEL[col["channel"]]
    # Double-precision, round-half-even: exactly int(round(-96 + snr)).
    head["signal"] = np.clip(
        np.rint(col["snr_db"].astype(np.float64) + _NOISE_FLOOR_DBM), -128, 127
    )
    head["fc"] = _FC_BY_TYPE[ftype] | (col["retry"].astype(np.uint16) << 11)
    head["duration"] = _DURATION_FILL_US if duration_fill else 0
    head["addr1"] = _macs(dst)
    head["addr2"] = head["addr3"] = _macs(src)
    head["seq_ctrl"] = (col["seq"] & 0x0FFF) << 4

    # Each record is its header plus the first ``incl`` packet bytes;
    # head bytes past a short packet (ACK/CTS/RTS) and the body stay
    # zero.  Scattering one byte column at a time keeps memory O(rows).
    rec = np.concatenate(
        [hdr.view(np.uint8).reshape(n, -1), head.view(np.uint8).reshape(n, -1)],
        axis=1,
    )
    rec_len = values["rec_len"]
    start = np.cumsum(rec_len) - rec_len
    end = fmt.size + incl
    slab = np.zeros(int(rec_len.sum()), dtype=np.uint8)
    for j in range(rec.shape[1]):
        kept = end > j
        slab[start[kept] + j] = rec[kept, j]
    return slab


def _write_capture(
    path: Path,
    file_header: bytes,
    trace: Trace,
    snaplen: int,
    duration_fill: bool,
    fmt: _Container,
) -> int:
    """Write ``file_header`` then ``trace``'s records, one slab at a time.

    A ``.gz`` suffix compresses; filename="" and mtime=0 keep the gzip
    member header free of path and clock, so identical traces compress
    to identical bytes (the corpus content hash is write-order free).
    """
    compress = path.name.lower().endswith(".gz")
    with path.open("wb") as raw, (
        gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0)
        if compress
        else contextlib.nullcontext(raw)
    ) as fp:
        fp.write(file_header)
        for start in range(0, len(trace), _SLAB_ROWS):
            rows = slice(start, start + _SLAB_ROWS)
            slab = _encode_slab(trace, rows, snaplen, duration_fill, fmt)
            if slab is not None:
                fp.write(slab)
                continue
            for i in range(*rows.indices(len(trace))):  # raises the row's error
                row = trace.row(i)
                packet = _encode_packet(row, duration_fill)
                incl = packet[:snaplen]
                values = fmt.header_values(row.time_us, len(incl), len(packet))
                fp.write(fmt.header.pack(*(values[f] for f in fmt.fields)))
                fp.write(incl + bytes(values["rec_len"] - fmt.size - len(incl)))
    return len(trace)


def write_trace(
    trace: Trace,
    path: str | Path,
    snaplen: int = PAPER_SNAPLEN,
    duration_fill: bool = True,
) -> int:
    """Write ``trace`` to ``path``; returns frame count.

    The container is chosen by suffix: ``.snoop``/``.snoop.gz`` write
    RFC 1761 snoop (:func:`repro.corpus.snoop.write_snoop`), a ``.gz``
    suffix gzip-compresses, anything else is a plain radiotap pcap.
    Compressed output is byte-deterministic (gzip mtime pinned to 0).

    ``duration_fill`` populates the 802.11 Duration field with each
    frame's NAV-style remaining-exchange estimate (SIFS + ACK) so real
    tools display something sensible; it is not read back.
    """
    path = Path(path)
    if path.name.lower().endswith((".snoop", ".snoop.gz")):
        from ..corpus.snoop import write_snoop

        return write_snoop(
            trace, path, snaplen=snaplen, duration_fill=duration_fill
        )
    header = struct.pack(
        "<IHHiIII", _MAGIC, 2, 4, 0, 0, snaplen, LINKTYPE_RADIOTAP
    )
    return _write_capture(path, header, trace, snaplen, duration_fill, _PCAP)


# --- reading ---------------------------------------------------------------


class _RowBuffer:
    """Decoded-record accumulator, flushed into Traces batch by batch.

    Holds a row-ordered mix of column-array chunks (the vectorized
    decoder's output) and scalar rows (the fallback decoder's output).
    Columns and dtypes come from the trace schema
    (:data:`repro.frames.TRACE_SCHEMA`) so the pcap layer never
    restates them.  ``total`` counts every row ever appended: the
    clean-frame count a truncation error reports.
    """

    def __init__(self) -> None:
        self._chunks: list[dict[str, np.ndarray]] = []
        self._rows: list[dict] = []
        self._len = 0
        self.total = 0

    def __len__(self) -> int:
        return self._len

    def append_row(self, values: dict) -> None:
        self._rows.append(values)
        self._len += 1
        self.total += 1

    def append_chunk(self, cols: dict[str, np.ndarray]) -> None:
        self._seal()
        self._chunks.append(cols)
        self._len += len(cols["time_us"])
        self.total += len(cols["time_us"])

    def _seal(self) -> None:
        if self._rows:
            self._chunks.append(
                {
                    name: np.array([row[name] for row in self._rows], dtype=dtype)
                    for name, dtype in TRACE_SCHEMA
                }
            )
            self._rows = []

    def take(self, count: int) -> Trace:
        """Remove and return the first ``count`` rows as a Trace."""
        self._seal()
        merged = {
            name: np.concatenate([c[name] for c in self._chunks])
            for name, _ in TRACE_SCHEMA
        }
        self._chunks = [{name: col[count:] for name, col in merged.items()}]
        self._len -= count
        return Trace({name: col[:count] for name, col in merged.items()})

    def flush(self) -> Trace:
        return self.take(self._len)


# --- vectorized record decoding --------------------------------------------
#
# Any record not in the writer's shape (foreign radiotap geometry,
# unknown type/subtype, alien MAC prefix, non-11b rate...) drops to the
# scalar codec path, which keeps the legacy per-record behaviour — which
# exception surfaces, with what offsets — exactly.

#: (dot11_type << 4 | subtype) -> FrameType value, 255 = undecodable.
_FT_TABLE = np.full(64, 255, dtype=np.uint8)
for _t in range(4):
    for _s in range(16):
        try:
            _FT_TABLE[_t * 16 + _s] = int(frame_type_from_dot11(_t, _s))
        except ValueError:
            pass

#: radiotap rate byte (0.5 Mbps units) -> trace rate code, 255 = invalid.
_RATE_TABLE = np.full(256, 255, dtype=np.uint8)
_RATE_TABLE[_RATE_UNITS[: len(DOT11_RATES_MBPS)]] = range(len(DOT11_RATES_MBPS))

#: Control-frame on-air sizes indexed by FrameType value.
_CTRL_SIZE = np.zeros(8, dtype=np.uint32)
_CTRL_SIZE[[FrameType.ACK, FrameType.CTS, FrameType.RTS]] = (14, 14, 20)


def _scan_records(buf: bytes, fmt: _Container = _PCAP) -> tuple[list[int], int]:
    """Offsets of complete records in ``buf`` and the bytes consumed.

    Stops at the first incomplete record, and at a header whose stride
    cannot hold its payload (snoop's ``rec_len``; the reader reports it).
    """
    offs: list[int] = []
    append = offs.append
    unpack = fmt.lengths.unpack_from
    size, base = fmt.size, fmt.span_base
    pos = 0
    limit = len(buf)
    while pos + size <= limit:
        lengths = unpack(buf, pos)
        span = base + lengths[-1]
        if span < size + lengths[0] or pos + span > limit:
            break
        append(pos)
        pos += span
    return offs, pos


def _decode_block(
    u8: np.ndarray, offs: np.ndarray, fmt: _Container = _PCAP
) -> tuple[dict, np.ndarray]:
    """Vector-decode the records at ``offs``; returns (columns, ok mask).

    Columns are full-length; positions where ``ok`` is False hold
    garbage and must be re-decoded by the scalar path.
    """
    last = len(u8) - 1
    hdr = u8[offs[:, None] + np.arange(fmt.size)].view(fmt.dtype)[:, 0]
    incl = hdr["incl"].astype(np.int64)
    orig = hdr["orig"].astype(np.int64)
    packet = offs[:, None] + fmt.size + np.arange(_PACKET_HEAD.itemsize)
    h = u8[np.minimum(packet, last)].view(_PACKET_HEAD)[:, 0]

    ok = (
        (incl >= 34)
        & (h["rt_version"] == 0)
        & (h["rt_len"] == _RT_FIXED_LEN)
        & (h["present"] == _RT_PRESENT)
    )
    rate_code = _RATE_TABLE[h["rate"]]
    ok &= rate_code != 255
    channel = _CHANNEL_BY_FREQ[h["freq"]]
    ok &= channel != 0
    snr = (h["signal"].astype(np.int16) - h["noise"]).astype(np.float32)

    fc = h["fc"]
    ftype = _FT_TABLE[((fc >> 2) & 0b11) * 16 + ((fc >> 4) & 0b1111)]
    ok &= ftype != 255
    retry = (fc & (1 << 11)) != 0

    d11_len = _D11_LEN[ftype]
    is_data_cls = d11_len == 24
    has_src = d11_len >= 16  # DATA/MGMT/BEACON and RTS carry a TA
    ok &= incl >= _RT_FIXED_LEN + d11_len

    def mac_field(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bcast = (block == 0xFF).all(axis=1)
        ours = (block[:, :4] == (0x02, 0, 0, 0)).all(axis=1)
        node = np.where(
            bcast,
            np.uint16(BROADCAST),
            (block[:, 4].astype(np.uint16) << 8) | block[:, 5].astype(np.uint16),
        )
        return node, bcast | ours

    dst, dst_ok = mac_field(h["addr1"])
    ok &= dst_ok
    src2, src_ok = mac_field(h["addr2"])
    ok &= src_ok | ~has_src
    src = np.where(has_src, src2, np.uint16(NO_NODE))
    seq = np.where(is_data_cls, h["seq_ctrl"] >> 4, np.uint16(0))

    # orig_len preserves the pre-snap size: radiotap + 24 + body.
    size = np.where(
        is_data_cls,
        np.maximum(orig - _RT_FIXED_LEN - 24, 0) + 24,
        _CTRL_SIZE[ftype & 0b111],
    ).astype(np.uint32)

    cols = {
        "time_us": hdr["ts_sec"].astype(np.int64) * 1_000_000 + hdr["ts_usec"],
        "ftype": ftype,
        "rate_code": rate_code,
        "size": size,
        "src": src.astype(np.uint16),
        "dst": dst.astype(np.uint16),
        "retry": retry,
        "channel": channel,
        "snr_db": snr,
        "seq": seq.astype(np.uint16),
    }
    return cols, ok


#: Exceptions the radiotap/802.11 codecs raise on damaged bytes; both
#: containers wrap them into their truncation error identically.
CODEC_ERRORS = (struct.error, ValueError, KeyError, IndexError)


def _decode_record_scalar(
    buf: bytes,
    pos: int,
    abs_offset: int,
    frames_read: int,
    path: Path,
    compressed: bool = False,
    fmt: _Container = _PCAP,
) -> dict:
    """Legacy per-record decode — the behavioural reference.

    Raises exactly what the historical loop raised: the container's
    truncation error (with the record's absolute byte offset) when the
    codecs reject the bytes, and ``rate_to_code``'s bare ``ValueError``
    for a well-formed record bearing a non-802.11b rate — that is not
    truncation, it is an out-of-scope capture.
    """
    rec = dict(zip(fmt.fields, fmt.header.unpack_from(buf, pos)))
    packet = buf[pos + fmt.size : pos + fmt.size + rec["incl"]]
    try:
        radiotap, rt_len = RadiotapHeader.decode(packet)
        frame = decode_frame(packet[rt_len:])
    except CODEC_ERRORS as error:
        raise fmt.error(
            f"{path}: undecodable record "
            f"({type(error).__name__}: {error})",
            byte_offset=abs_offset,
            frames_read=frames_read,
            compressed=compressed,
        ) from error
    if frame.ftype in (FrameType.DATA, FrameType.MGMT, FrameType.BEACON):
        size = max(0, rec["orig"] - rt_len - 24) + 24
    else:
        size = int(_CTRL_SIZE[frame.ftype])
    return {
        "time_us": rec["ts_sec"] * 1_000_000 + rec["ts_usec"],
        "ftype": int(frame.ftype),
        "rate_code": rate_to_code(radiotap.rate_mbps),
        "size": size,
        "src": frame.src,
        "dst": frame.dst,
        "retry": frame.retry,
        "channel": radiotap.channel,
        "snr_db": radiotap.snr_db,
        "seq": frame.seq,
    }


def _decode_records(rows, buf, base, offs, batch_frames, path, compressed, fmt):
    """Decode the records at ``offs`` into ``rows``, yielding full batches.

    Runs :func:`_decode_block` accepts go in as column chunks; the rest,
    record by record, through :func:`_decode_record_scalar`.
    """
    cols, ok = _decode_block(np.frombuffer(buf, dtype=np.uint8), offs, fmt)
    bounds = [0, *(np.flatnonzero(np.diff(ok)) + 1).tolist(), len(offs)]
    for lo, hi in zip(bounds, bounds[1:]):
        if ok[lo]:
            rows.append_chunk({name: col[lo:hi] for name, col in cols.items()})
        else:
            for off in offs[lo:hi].tolist():
                rows.append_row(
                    _decode_record_scalar(
                        buf, off, base + off, rows.total, path, compressed, fmt
                    )
                )
                if len(rows) >= batch_frames:
                    yield rows.take(batch_frames)
        while len(rows) >= batch_frames:
            yield rows.take(batch_frames)


def _read_capture(
    path: Path,
    fmt: _Container,
    batch_frames: int,
    compressed: bool,
    chunk_bytes: int,
):
    """Stream the records of one container as bounded-size Traces.

    The file is consumed in ``chunk_bytes`` slabs, so memory stays
    bounded however large the capture is.  Damage raises ``fmt.error``
    *after* the clean prefix is flushed.
    """
    with (gzip.open(path, "rb") if compressed else path.open("rb")) as fp:
        try:
            header = fp.read(fmt.file_header_size)
        except (EOFError, OSError) as error:
            raise fmt.error._corrupt_gzip(path, error, 0, 0) from error
        fmt.check_file_header(path, header)

        rows = _RowBuffer()
        base = fmt.file_header_size  # absolute (decompressed) offset of buf[0]
        buf = b""
        eof = False
        try:
            while not eof:
                try:
                    data = fp.read(chunk_bytes)
                except (EOFError, OSError) as error:
                    if not compressed:
                        raise
                    # The gzip stream itself died (truncated or corrupt
                    # compressed bytes): everything decoded so far is a
                    # clean prefix, exactly like an on-disk truncation.
                    raise fmt.error._corrupt_gzip(
                        path, error, base + len(buf), rows.total
                    ) from error
                eof = not data
                buf = buf + data if buf else data
                rel_offs, consumed = _scan_records(buf, fmt)
                if rel_offs:
                    offs = np.asarray(rel_offs, dtype=np.int64)
                    yield from _decode_records(
                        rows, buf, base, offs, batch_frames, path, compressed, fmt
                    )
                if len(buf) - consumed >= fmt.size:
                    lengths = fmt.lengths.unpack_from(buf, consumed)
                    incl, stride = lengths[0], lengths[-1]
                    if fmt.span_base + stride < fmt.size + incl:
                        raise fmt.error(
                            f"{path}: invalid record length {stride} "
                            f"(included length {incl})",
                            byte_offset=base + consumed,
                            frames_read=rows.total,
                            compressed=compressed,
                        )
                buf = buf[consumed:]
                base += consumed
            if buf:
                whole = len(buf) >= fmt.size
                raise fmt.error(
                    f"{path}: truncated record {'body' if whole else 'header'}",
                    byte_offset=base + (fmt.size if whole else 0),
                    frames_read=rows.total,
                    compressed=compressed,
                )
        except TruncatedPcapError:
            # Damage found: flush the clean prefix first so streaming
            # callers keep every frame read so far.
            if len(rows):
                yield rows.flush()
            raise
        if len(rows):
            yield rows.flush()


def read_trace_batches(
    path: str | Path, batch_frames: int = 131_072
):
    """Incrementally read a capture as bounded-size Traces.

    The container is detected from the leading bytes, never the name:
    plain radiotap pcap, RFC 1761 snoop (delegated to
    :func:`repro.corpus.snoop.read_snoop_batches`), and gzip-compressed
    variants of both.  For compressed captures, reads stream through
    :mod:`gzip` — the file is never fully decompressed in memory — and
    every reported byte offset is into the decompressed stream.

    Memory stays bounded however large the capture is — the streaming
    pipeline's pcap source.  Records in the shape :func:`write_trace`
    emits are bulk-decoded; anything else falls back to the scalar
    codecs, which own the error behaviour (damaged tails raise
    :class:`TruncatedPcapError` *after* the clean prefix is flushed).
    Frames are yielded in file order.
    """
    if batch_frames <= 0:
        raise ValueError("batch_frames must be positive")
    path = Path(path)
    with path.open("rb") as fp:
        head = fp.read(8)
    compressed = head.startswith(_GZIP_MAGIC)
    if compressed:
        try:
            with gzip.open(path, "rb") as zp:
                head = zp.read(8)
        except (EOFError, OSError) as error:
            raise TruncatedPcapError._corrupt_gzip(path, error, 0, 0) from error
    if head.startswith(_SNOOP_IDENT):
        from ..corpus.snoop import read_snoop_batches

        yield from read_snoop_batches(path, batch_frames)
        return
    yield from _read_capture(path, _PCAP, batch_frames, compressed, _CHUNK_BYTES)


def _collect(batches) -> Trace:
    """Concatenate streamed batches into one Trace."""
    batches = list(batches)
    if len(batches) <= 1:
        return batches[0] if batches else Trace.empty()
    return Trace(
        {
            name: np.concatenate([b.column(name) for b in batches])
            for name in TRACE_COLUMNS
        }
    )


def read_trace(path: str | Path) -> Trace:
    """Read a capture (pcap/snoop, optionally gzipped) into a Trace."""
    return _collect(read_trace_batches(path))
