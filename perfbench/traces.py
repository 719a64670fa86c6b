"""Generated capture inputs: fast-engine ``day`` traces."""

from __future__ import annotations

from .common import add_counts, sim_counts


def fast_day_trace(tracer, seed: int, frames: int):
    """The first ``frames`` captured frames of a fast-engine ``day`` run."""
    from repro.frames import Trace
    from repro.sim import build_scenario

    with tracer.span("sim.build"):
        built = build_scenario("day", fidelity="fast", duration_s=600.0, seed=seed)
    chunks, have = [], 0
    stream = built.stream()
    while have < frames:
        with tracer.span("sim.advance"):
            chunk = next(stream)
        chunks.append(chunk)
        have += len(chunk)
    stream.close()
    trace = Trace.concatenate(chunks).slice_rows(0, frames)
    return trace, sim_counts(built.perf_counters, built.frames_captured)


def on_air(trace):
    """``trace`` as any capture records it.

    802.11 ACK and CTS frames carry no transmitter address, so every
    container reads their ``src`` back as ``NO_NODE``; the reference
    report is computed on the trace with that loss applied.
    """
    from repro.frames import NO_NODE, TRACE_SCHEMA, FrameType, Trace

    columns = {name: trace.column(name) for name, _ in TRACE_SCHEMA}
    control = (trace.ftype == int(FrameType.ACK)) | (
        trace.ftype == int(FrameType.CTS)
    )
    columns["src"] = columns["src"].copy()
    columns["src"][control] = NO_NODE
    return Trace(columns)


def day_mix(tracer, seeds, frames_each: int):
    """One capture made of ``frames_each`` frames from each seed's run.

    The pieces follow each other in time, one second apart, so the
    capture reads as one long feed whose content averages over seeds.
    Returns the trace and the simulator counts summed over seeds.
    """
    from repro.frames import TRACE_SCHEMA, Trace

    pieces, counts, offset = [], {}, 0
    for seed in seeds:
        trace, more = fast_day_trace(tracer, seed, frames_each)
        add_counts(counts, more)
        columns = {name: trace.column(name) for name, _ in TRACE_SCHEMA}
        times = columns["time_us"]
        columns["time_us"] = times - times[0] + offset
        offset = int(columns["time_us"][-1]) + 1_000_000
        pieces.append(Trace(columns))
    return Trace.concatenate(pieces), counts
