"""Capture codec gate: columnar vs scalar, both directions, all containers.

Generates a realistic simulated capture and, for each of ``.pcap``,
``.pcap.gz``, ``.snoop`` and ``.snoop.gz``:

* **write** — the production columnar writer (:func:`write_trace`)
  against the per-row reference writer (one
  :func:`repro.pcap.pcapio._encode_packet` call plus one ``struct``
  record header per ``Trace.iter_rows()`` row).  The files must be
  **byte-identical**.
* **read** — the production batched reader (:func:`read_trace`) against
  the scalar walk (record scan plus
  :func:`repro.pcap.pcapio._decode_record_scalar` per record, the
  behavioural reference).  The traces must be **identical** in every
  column.

Exits non-zero if any pair differs or any production path is not
strictly faster, so CI can run this as a gate::

    python benchmarks/bench_pcap_decode.py
    python benchmarks/bench_pcap_decode.py --frames 50000 --repeats 5
"""

from __future__ import annotations

import argparse
import gzip
import io
import struct
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.corpus.snoop import _SNOOP  # noqa: E402
from repro.frames import TRACE_COLUMNS, Trace  # noqa: E402
from repro.pcap import PAPER_SNAPLEN, read_trace, write_trace  # noqa: E402
from repro.pcap.pcapio import (  # noqa: E402
    _PCAP,
    _RowBuffer,
    _decode_record_scalar,
    _encode_packet,
    _scan_records,
)
from repro.sim import build_scenario  # noqa: E402

CONTAINERS = (".pcap", ".pcap.gz", ".snoop", ".snoop.gz")


def make_trace(min_frames: int) -> Trace:
    """Simulate until at least ``min_frames`` frames are captured."""
    traces = []
    total = 0
    seed = 7
    while total < min_frames:
        built = build_scenario(
            "uniform",
            n_stations=12,
            duration_s=8.0,
            seed=seed,
            rtscts_fraction=0.3,
        )
        trace = built.run().ground_truth
        traces.append(trace)
        total += len(trace)
        seed += 1
    return Trace.concatenate(traces) if len(traces) > 1 else traces[0]


def write_scalar(trace: Trace, path: Path) -> None:
    """The per-row writer: one packet encode and record header per row."""
    snoop = ".snoop" in path.name
    out = io.BytesIO()
    if snoop:
        out.write(struct.pack(">8sLL", b"snoop\x00\x00\x00", 2, 127))
    else:
        out.write(
            struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, PAPER_SNAPLEN, 127)
        )
    for row in trace.iter_rows():
        packet = _encode_packet(row, True)
        incl = packet[:PAPER_SNAPLEN]
        ts_sec, ts_usec = divmod(row.time_us, 1_000_000)
        if snoop:
            pad = -len(incl) % 4
            out.write(
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
            out.write(incl + b"\0" * pad)
        else:
            out.write(struct.pack("<IIII", ts_sec, ts_usec, len(incl), len(packet)))
            out.write(incl)
    data = out.getvalue()
    with path.open("wb") as raw:
        if path.name.endswith(".gz"):
            with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as fp:
                fp.write(data)
        else:
            raw.write(data)


def read_scalar(path: Path) -> Trace:
    """The scalar walk: record scan plus one codec decode per record."""
    raw = path.read_bytes()
    if path.name.endswith(".gz"):
        raw = gzip.decompress(raw)
    fmt = _SNOOP if ".snoop" in path.name else _PCAP
    start = fmt.file_header_size
    offsets, consumed = _scan_records(raw[start:], fmt)
    assert start + consumed == len(raw), "benchmark capture must be clean"
    rows = _RowBuffer()
    for offset in offsets:
        rows.append_row(
            _decode_record_scalar(
                raw, start + offset, start + offset, len(rows), path, False, fmt
            )
        )
    return rows.flush()


def best_of(repeats: int, fn, *args) -> float:
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=40_000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    trace = make_trace(args.frames)
    n = len(trace)
    print(f"capture: {n} frames, snap length {PAPER_SNAPLEN}")
    print(
        f"{'container':<10} {'op':<5} {'scalar ms':>10} {'columnar ms':>12} "
        f"{'speedup':>8}  identical"
    )
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for suffix in CONTAINERS:
            scalar_path = Path(tmp) / f"scalar{suffix}"
            columnar_path = Path(tmp) / f"columnar{suffix}"
            scalar_w = best_of(args.repeats, write_scalar, trace, scalar_path)
            columnar_w = best_of(args.repeats, write_trace, trace, columnar_path)
            same_bytes = scalar_path.read_bytes() == columnar_path.read_bytes()

            scalar_r = best_of(args.repeats, read_scalar, columnar_path)
            vector_r = best_of(args.repeats, read_trace, columnar_path)
            a, b = read_scalar(columnar_path), read_trace(columnar_path)
            same_fields = all(
                a.column(c).dtype == b.column(c).dtype
                and np.array_equal(a.column(c), b.column(c))
                for c in TRACE_COLUMNS
            )

            for op, slow, fast, same in (
                ("write", scalar_w, columnar_w, same_bytes),
                ("read", scalar_r, vector_r, same_fields),
            ):
                print(
                    f"{suffix:<10} {op:<5} {slow * 1e3:>10.1f} {fast * 1e3:>12.1f} "
                    f"{slow / fast:>7.1f}x  {'yes' if same else 'NO'}"
                )
                if not same:
                    failures.append(f"{suffix} {op}: outputs differ")
                if fast >= slow:
                    failures.append(f"{suffix} {op}: columnar path is not faster")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
