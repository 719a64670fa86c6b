"""RFC 1761 snoop reader/writer for radiotap-encapsulated 802.11 traces.

The second capture container the corpus understands (Solaris ``snoop``,
the other format wireless captures of the paper's era shipped in).
Produces and consumes the exact same :class:`repro.frames.Trace` schema
as :mod:`repro.pcap.pcapio` by sharing its columnar record codec (this
module adds only the file and record headers) — a trace written as
snoop and read back is field-identical to the pcap round trip.

Layout (all integers big-endian, RFC 1761 §2):

* file header — 8-byte ident ``b"snoop\\0\\0\\0"``, version (2),
  datalink type;
* per record — original length, included length, record length
  (header + payload + pad), cumulative drops, seconds, microseconds,
  then the payload padded to a 4-byte boundary.

RFC 1761 only assigns datalink codes 0–9; radiotap postdates it.  We
register the project extension ``IEEE_802_11_RADIOTAP = 127``,
mirroring the pcap linktype number, so the two containers agree on
what the payload is.

A ``.gz`` suffix on write — and the gzip magic on read — selects
transparent, deterministic (mtime pinned to 0) gzip streaming, same as
the pcap side.  Truncation/corruption surfaces as
:class:`TruncatedSnoopError`, a subclass of
:class:`repro.pcap.TruncatedPcapError`, after the clean prefix has
been yielded.
"""

from __future__ import annotations

import enum
import struct
from pathlib import Path

from ..frames import Trace
from ..pcap.pcapio import (
    _CHUNK_BYTES,
    _GZIP_MAGIC,
    PAPER_SNAPLEN,
    TruncatedPcapError,
    _collect,
    _Container,
    _read_capture,
    _write_capture,
)

__all__ = [
    "SNOOP_IDENT",
    "SNOOP_VERSION",
    "SnoopDatalinkType",
    "TruncatedSnoopError",
    "write_snoop",
    "read_snoop",
    "read_snoop_batches",
]

SNOOP_IDENT = b"snoop\x00\x00\x00"
SNOOP_VERSION = 2


class SnoopDatalinkType(enum.IntEnum):
    """RFC 1761 §2 datalink codes, plus our radiotap extension."""

    #: IEEE Ethernet
    IEEE_802_3 = 0
    #: IEEE Token Bus
    IEEE_802_4 = 1
    #: IEEE Metro Net
    IEEE_802_5 = 2
    #: Ethernet II
    ETHERNET = 4
    #: High-Level Data Link Control; ISO/IEC 13239
    HDLC = 5
    #: Synchronous Data Link Control; Character Synchronous
    SDLC = 6
    #: IBM Channel-to-Channel
    FICON_CTC = 7
    #: Fiber Distributed Data Interface
    FDDI = 8
    OTHER = 9
    #: Project extension: radiotap-encapsulated 802.11, numbered to
    #: match the pcap linktype (127) — not an IANA assignment.
    IEEE_802_11_RADIOTAP = 127


_FILE_HEADER = struct.Struct(">8sLL")


class TruncatedSnoopError(TruncatedPcapError):
    """A snoop capture ended mid-record or a record failed to decode.

    Subclasses :class:`repro.pcap.TruncatedPcapError` so every existing
    partial-read handler (streaming pipeline, serve daemon, batch runs,
    corpus indexing) treats both containers uniformly.
    """


def _check_file_header(path: Path, header: bytes) -> None:
    if len(header) < _FILE_HEADER.size:
        raise ValueError(f"{path}: not a snoop file (too short)")
    ident, version, datalink = _FILE_HEADER.unpack(header)
    if ident != SNOOP_IDENT:
        raise ValueError(f"{path}: bad snoop ident {ident!r}")
    if version != SNOOP_VERSION:
        raise ValueError(
            f"{path}: snoop version {version}, expected {SNOOP_VERSION}"
        )
    if datalink != SnoopDatalinkType.IEEE_802_11_RADIOTAP:
        raise ValueError(
            f"{path}: snoop datalink {datalink}, expected radiotap "
            f"({int(SnoopDatalinkType.IEEE_802_11_RADIOTAP)})"
        )


_SNOOP = _Container(
    ">LLLLLL",
    ("orig", "incl", "rec_len", "drops", "ts_sec", "ts_usec"),
    file_header_size=_FILE_HEADER.size,
    check_file_header=_check_file_header,
    error=TruncatedSnoopError,
    align=4,
)


def write_snoop(
    trace: Trace,
    path: str | Path,
    snaplen: int = PAPER_SNAPLEN,
    duration_fill: bool = True,
) -> int:
    """Write ``trace`` to ``path`` as RFC 1761 snoop; returns frame count.

    A ``.gz`` suffix gzip-compresses (byte-deterministic, mtime 0).
    ``snaplen``/``duration_fill`` behave as in
    :func:`repro.pcap.write_trace`.
    """
    header = _FILE_HEADER.pack(
        SNOOP_IDENT, SNOOP_VERSION, int(SnoopDatalinkType.IEEE_802_11_RADIOTAP)
    )
    return _write_capture(
        Path(path), header, trace, snaplen, duration_fill, _SNOOP
    )


def read_snoop_batches(
    path: str | Path, batch_frames: int = 131_072
):
    """Incrementally read a snoop capture as bounded-size Traces.

    Mirrors :func:`repro.pcap.read_trace_batches` — it is the same slab
    loop over a different record header: slab reads keep memory
    bounded, gzip input is detected by magic and streamed, and damage
    raises :class:`TruncatedSnoopError` only after the clean prefix has
    been yielded.  Offsets in errors are into the decompressed stream
    for ``.gz`` input.
    """
    if batch_frames <= 0:
        raise ValueError("batch_frames must be positive")
    path = Path(path)
    with path.open("rb") as fp:
        compressed = fp.read(2) == _GZIP_MAGIC
    yield from _read_capture(path, _SNOOP, batch_frames, compressed, _CHUNK_BYTES)


def read_snoop(path: str | Path) -> Trace:
    """Read a snoop capture (optionally gzipped) into a Trace."""
    return _collect(read_snoop_batches(path))
