"""``serve-live``: the daemon path over loopback, in rounds.

Set-up boots ``repro serve`` in a subprocess (``--port-file``
handshake) and pre-encodes one long capture, fast-engine ``day`` runs
of several seeds back to back, into RPF1 batches: a large prefill,
then the open loop's small batches.  A run is several rounds, so every
kind of sample spreads over the whole run; each round has two phases.

*Bursts.*  Three times, the whole capture is pushed into a fresh feed
as fast as the ingest connection takes it, timed from its first byte
until the feed reports ``closed``.  That time is set by the daemon's
decode, ``feed`` and ``close`` cost, not by a schedule.

*Live phase.*  A second feed is prefilled the same way; once the
daemon has analysed the prefill, an open-loop generator in this
process pushes the remaining batches at a fixed frame rate and polls
``GET /feeds/<id>/report`` at a fixed interval, one HTTP connection at
a time.  The prefill keeps the history every poll snapshots nearly
constant.  Polls fall due between batch sends, never on one.  Between
polls, a ``GET`` of the last burst feed's cached report falls due.
Each request is timed from when it was due, so a stall on the
daemon's event loop also counts against the requests queued behind
it.  Every time is calibration-scaled (see ``Pace``).  A run
whose generator itself ran late beyond ``late_bound_ms`` is invalid
and fails.

This is the only workload that exercises ``PipelineExecutor.snapshot``
and the serve layers.  Snapshot cost grows with history and runs on
the daemon's event loop, so it moves report latency; ingest cost moves
the burst time.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import subprocess
import sys
import time

from .common import (
    ROOT,
    Context,
    NullTracer,
    Outcome,
    Pace,
    child_env,
    derived_seeds,
    median,
    p90,
    process_peak_rss_mb,
    timed_setup,
)
from .traces import day_mix

SIZES = {
    "normal": {
        "prefill_frames": 48000,
        "prefill_batch": 400,
        "rate_fps": 1000,
        "seeds": 6,
        "batch_s": 0.05,
        "poll_s": 0.15,
        "min_polls": 100,
        "rounds": 9,
        "bursts": 3,
        "late_bound_ms": 20.0,
    },
    "tiny": {
        "prefill_frames": 1000,
        "prefill_batch": 400,
        "rate_fps": 2000,
        "seeds": 2,
        "batch_s": 0.05,
        "poll_s": 0.05,
        "min_polls": 5,
        "rounds": 1,
        "bursts": 1,
        "late_bound_ms": 50.0,
    },
}
HOST = "127.0.0.1"
#: Deadline for any one request, and for a drained feed to close.
TIMEOUT_S = 30.0


class Daemon:
    """A ``repro serve`` subprocess on ephemeral loopback ports."""

    def __init__(self, workdir, name: str) -> None:
        self.port_file = workdir / f"{name}.ports.json"
        self.log = (workdir / f"{name}.log").open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", HOST,
             "--port", "0", "--port-file", str(self.port_file)],
            env=child_env(),
            cwd=ROOT,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        try:
            ports = self._wait_ports(deadline=time.monotonic() + 60)
        except BaseException:
            self.close()
            raise
        self.http_port = ports["http_port"]
        self.ingest_port = ports["ingest_port"]

    def _wait_ports(self, deadline: float) -> dict:
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            if self.port_file.exists():
                return json.loads(self.port_file.read_text())
            time.sleep(0.01)
        raise RuntimeError("repro serve never wrote its port file")

    def close(self) -> None:
        """Drain via ``POST /shutdown``; kill if it does not exit."""
        if self.proc.poll() is None:
            try:
                asyncio.run(http(self.http_port, "POST", "/shutdown"))
            except (OSError, AttributeError, ValueError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.log.close()


class Inputs:
    """The capture, its segments and RPF1 payloads, and the daemon.

    The first ``n_prefill`` segments fill the feed before the open
    loop starts; the rest are the open loop's batches.
    """

    def __init__(self, trace, segments, payloads, n_prefill, counts, daemon):
        self.trace = trace
        self.segments = segments
        self.payloads = payloads
        self.n_prefill = n_prefill
        self.counts = counts
        self.daemon = daemon

    def close(self) -> None:
        self.daemon.close()


def _build(ctx: Context, size: dict):
    seeds = derived_seeds(ctx.seed, size["seeds"], "serve-live")
    prefill = size["prefill_frames"]
    live_frames = int(size["rate_fps"] * ctx.seconds / size["rounds"])
    frames_each = (prefill + live_frames) // len(seeds)
    per_batch = int(size["rate_fps"] * size["batch_s"])
    boots = itertools.count()

    def build(tracer):
        from repro.serve import encode_batch, frame_batch

        trace, counts = day_mix(tracer, seeds, frames_each)
        bounds = list(range(0, prefill, size["prefill_batch"]))
        n_prefill = len(bounds)
        bounds += list(range(prefill, len(trace), per_batch))
        segments = [
            trace.slice_rows(lo, hi)
            for lo, hi in zip(bounds, bounds[1:] + [len(trace)])
        ]
        payloads = []
        for segment in segments:
            with tracer.span("protocol.encode"):
                payloads.append(frame_batch(encode_batch(segment)))
        daemon = Daemon(ctx.workdir, f"daemon{next(boots)}")
        return Inputs(trace, segments, payloads, n_prefill, counts, daemon)

    return build


async def http(port: int, method: str, path: str, body: dict | None = None):
    """One request on its own loopback connection; (status, JSON body)."""
    return await asyncio.wait_for(_request(port, method, path, body), TIMEOUT_S)


async def _request(port: int, method: str, path: str, body: dict | None):
    data = json.dumps(body).encode() if body is not None else b""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n".encode()
            + data
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(payload)


async def _on_time(loop, due: float, late: list[float]) -> None:
    """Sleep until ``due``; record how late the generator woke.

    A request already overdue when the previous one returned is the
    daemon's delay, not the generator's, and is not recorded here.
    """
    now = loop.time()
    if now < due:
        await asyncio.sleep(due - now)
        late.append(loop.time() - due)


async def _push(loop, reader, writer, port, feed_id, payloads, t0, batch_s,
                late, tracer):
    """The open loop's batches on schedule, end-of-feed, then ``closed``.

    Returns when the last batch was sent, when the feed was seen
    ``closed``, the ingest reply and the feed's final info.
    """
    from repro.serve import encode_eof

    for number, payload in enumerate(payloads):
        await _on_time(loop, t0 + number * batch_s, late)
        with tracer.span("serve.push"):
            writer.write(payload)
            await writer.drain()
    writer.write(encode_eof())
    await writer.drain()
    last_sent = loop.time()
    reply = (await reader.readline()).decode().strip()
    info = await _wait_closed(port, feed_id, last_sent)
    return last_sent, loop.time(), reply, info


async def _polls(loop, port, feed_id, warm_id, t0, poll_s, n_polls, late, tracer,
                 pace):
    """Poll the live feed's report on schedule.

    Between polls, one ``GET`` of the closed feed ``warm_id``'s cached
    report falls due too, so the warm samples spread over the whole run
    like the polls.  It is due once the poll's snapshot is done, between
    two batch sends, and is timed from when it was due.  Each request
    is followed by a probe, so every latency is calibration-scaled by
    the probes on either side of it (see ``Pace``); a probe blocks this
    loop for 10-20 ms while no batch or request is due.
    """
    latencies, raw, warm, statuses, warm_reports = [], [], [], [], []
    before = pace.probe()
    for number in range(n_polls):
        due = t0 + number * poll_s
        await _on_time(loop, due, late)
        with tracer.span("serve.poll"):
            status, _ = await http(port, "GET", f"/feeds/{feed_id}/report")
        seconds = loop.time() - due
        after = pace.probe()
        latencies.append(pace.scale(seconds, before, after))
        raw.append(seconds)
        statuses.append(status)
        warm_due = due + 0.65 * poll_s
        await _on_time(loop, warm_due, late)
        status, report = await http(port, "GET", f"/feeds/{warm_id}/report")
        seconds = loop.time() - warm_due
        before = pace.probe()
        warm.append(pace.scale(seconds, after, before))
        statuses.append(status)
        warm_reports.append(report)
    return latencies, raw, warm, statuses, warm_reports


def _names(feed_id: str, size: dict) -> list[str]:
    """The live feed's name, then each burst feed's."""
    return [feed_id] + [f"{feed_id}-burst{n}" for n in range(size["bursts"])]


async def _round(inputs, feed_id: str, size: dict, tracer, pace):
    """``bursts`` bursts, then one live phase; returns every feed's result.

    The last burst's feed stays open (closed, report cached) through
    the live phase as the target of the warm ``GET``s; every feed is
    deleted by the end, so every round starts from the same state.
    """
    daemon = inputs.daemon
    live_name, *burst_names = _names(feed_id, size)
    bursts = []
    for name in burst_names:
        bursts.append(await _burst(inputs, name, tracer, pace))
        if name != burst_names[-1]:
            await _delete(daemon, bursts[-1])
    warm = bursts[-1]
    live = await _live(inputs, live_name, warm["name"], size, tracer, pace)
    live["warm_same"] = all(r == warm["final"] for r in live.pop("warm_reports"))
    await _delete(daemon, live)
    await _delete(daemon, warm)
    return live, bursts


async def _delete(daemon, result: dict) -> None:
    status, _ = await http(daemon.http_port, "DELETE", f"/feeds/{result['name']}")
    result["statuses"].append(status)


async def _live(inputs, feed_id: str, warm_id: str, size: dict, tracer, pace) -> dict:
    """Create a push feed, prefill it, run the open loop, wait for ``closed``.

    The prefill is pushed as fast as it is taken and must be analysed
    before the open loop starts, so every poll finds roughly the same
    history: the open loop adds only a small share on top of it.
    """
    loop = asyncio.get_running_loop()
    daemon = inputs.daemon
    status, _ = await http(daemon.http_port, "POST", "/feeds", {"name": feed_id})
    if status != 200:
        raise RuntimeError(f"creating feed {feed_id} answered {status}")
    prefill = inputs.payloads[: inputs.n_prefill]
    batches = inputs.payloads[inputs.n_prefill :]
    # Offset by a quarter batch interval, every poll falls due between
    # two batch sends rather than racing one; the last falls due before
    # the last batch, while the feed is still live.
    offset = size["batch_s"] / 4
    last_batch_due = (len(batches) - 1) * size["batch_s"]
    n_polls = math.ceil((last_batch_due - offset) / size["poll_s"])
    late: list[float] = []
    reader, writer = await asyncio.open_connection(HOST, daemon.ingest_port)
    try:
        writer.write(f"FEED {feed_id}\n".encode())
        for payload in prefill:
            writer.write(payload)
            await writer.drain()
        await _wait_frames(daemon.http_port, feed_id, size["prefill_frames"])
        t0 = loop.time() + 0.1
        push = asyncio.create_task(
            _push(loop, reader, writer, daemon.http_port, feed_id, batches, t0,
                  size["batch_s"], late, tracer)
        )
        polls = asyncio.create_task(
            _polls(loop, daemon.http_port, feed_id, warm_id, t0 + offset,
                   size["poll_s"], n_polls, late, tracer, pace)
        )
        pushed, polled = await asyncio.gather(push, polls)
    finally:
        writer.close()
        await writer.wait_closed()
    last_sent, closed_at, reply, info = pushed
    latencies, raw, warm, statuses, warm_reports = polled
    _, final = await http(daemon.http_port, "GET", f"/feeds/{feed_id}/report")
    _, metrics = await http(daemon.http_port, "GET", "/metrics")
    return {
        "name": feed_id,
        "ingest_lag_s": closed_at - last_sent,
        "reply": reply,
        "state": info["state"],
        "frames_in": info["frames_in"],
        "latencies": latencies,
        "latencies_raw": raw,
        "warm": warm,
        "warm_reports": warm_reports,
        "statuses": statuses,
        "late": late,
        "final": final,
        "metrics": metrics,
    }


async def _wait_frames(port: int, feed_id: str, frames: int) -> None:
    """Poll ``GET /feeds/<id>`` until ``frames`` frames are analysed."""
    loop = asyncio.get_running_loop()
    since = loop.time()
    while True:
        _, info = await http(port, "GET", f"/feeds/{feed_id}")
        if info["frames_in"] >= frames:
            return
        if info["state"] != "running" or loop.time() > since + TIMEOUT_S:
            raise RuntimeError(f"feed {feed_id} {info['state']} at {info['frames_in']}")
        await asyncio.sleep(0.002)


async def _wait_closed(port: int, feed_id: str, since: float) -> dict:
    """Poll ``GET /feeds/<id>`` until the feed leaves running/draining."""
    loop = asyncio.get_running_loop()
    while True:
        _, info = await http(port, "GET", f"/feeds/{feed_id}")
        if info["state"] not in ("running", "draining"):
            return info
        if loop.time() > since + TIMEOUT_S:
            raise RuntimeError(f"feed {feed_id} still {info['state']} after EOF")
        await asyncio.sleep(0.001)


async def _burst(inputs, feed_id: str, tracer, pace) -> dict:
    """Push the whole capture into a fresh feed as fast as it is taken.

    Timed from the ingest connection's first byte until the feed
    reports ``closed``, and calibration-scaled (see ``Pace``).
    """
    from repro.serve import encode_eof

    loop = asyncio.get_running_loop()
    daemon = inputs.daemon
    statuses = []
    status, _ = await http(daemon.http_port, "POST", "/feeds", {"name": feed_id})
    statuses.append(status)
    pace.start()
    with tracer.span("serve.burst"):
        reader, writer = await asyncio.open_connection(HOST, daemon.ingest_port)
        try:
            writer.write(f"FEED {feed_id}\n".encode())
            for payload in inputs.payloads:
                writer.write(payload)
                await writer.drain()
            writer.write(encode_eof())
            await writer.drain()
            reply = (await reader.readline()).decode().strip()
        finally:
            writer.close()
            await writer.wait_closed()
        info = await _wait_closed(daemon.http_port, feed_id, loop.time())
    seconds = pace.lap()
    status, final = await http(daemon.http_port, "GET", f"/feeds/{feed_id}/report")
    statuses.append(status)
    return {
        "name": feed_id,
        "seconds": seconds,
        "reply": reply,
        "state": info["state"],
        "frames_in": info["frames_in"],
        "final": final,
        "statuses": statuses,
    }


async def _drive(inputs, feed_id: str, size: dict, tracer, pace):
    """``rounds`` rounds, each some bursts and then a live phase.

    Rounds spread every kind of sample over the whole run, so no
    metric hangs on the host's speed during one stretch of it.
    """
    lives, bursts = [], []
    for _ in range(size["rounds"]):
        live, more = await _round(inputs, feed_id, size, tracer, pace)
        lives.append(live)
        bursts.extend(more)
    return lives, bursts


def _pooled(results, key: str) -> list[float]:
    return [value for result in results for value in result[key]]


def _run_feed(ctx, inputs, feed_id, size, tracer):
    """Every round; bounded by the run time plus a margin per feed."""
    margin = (1 + 2 * size["rounds"]) * TIMEOUT_S
    pace = Pace()
    run = asyncio.run(
        asyncio.wait_for(
            _drive(inputs, feed_id, size, tracer, pace), ctx.seconds + margin
        )
    )
    print(pace.summary())
    return run


def _expected(trace, feed_id: str, size: dict) -> dict[str, str]:
    """Batch ``run_all`` report JSON for the live and every burst feed."""
    from repro.pipeline import run_all
    from repro.serve import report_to_jsonable

    return {
        name: json.dumps(report_to_jsonable(run_all(trace, name=name)), sort_keys=True)
        for name in _names(feed_id, size)
    }


def _check_feed(ctx, run, expected, n_frames, size) -> None:
    lives, bursts = run
    checks = ctx.checks
    for result in (*lives, *bursts):
        for status in result["statuses"]:
            checks.op(status == 200, f"HTTP status {status}")
        checks.op(
            result["reply"] == f"OK {n_frames}", f"ingest reply {result['reply']!r}"
        )
        checks.check(
            "serve.feed_closed_with_all_frames",
            result["state"] == "closed" and result["frames_in"] == n_frames,
            f"{result['state']} with {result['frames_in']}/{n_frames} frames",
        )
        checks.check(
            "serve.final_report_equals_batch",
            json.dumps(result["final"], sort_keys=True) == expected[result["name"]],
            result["name"],
        )
    for live in lives:
        checks.check("serve.closed_report_stable", live["warm_same"])
    checks.check(
        "serve.enough_polls",
        len(_pooled(lives, "latencies")) >= size["min_polls"],
        f"{len(_pooled(lives, 'latencies'))} polls",
    )
    late_ms = p90(_pooled(lives, "late")) * 1000.0
    checks.check(
        "serve.generator_on_time",
        late_ms <= size["late_bound_ms"],
        f"generator p90 {late_ms:.1f} ms late (invalid run)",
    )


def run(ctx: Context) -> Outcome:
    size = SIZES["tiny" if ctx.tiny else "normal"]
    setup_s, inputs = timed_setup(2, _build(ctx, size), ctx.tracer)
    try:
        n_frames = len(inputs.trace)
        lives, bursts = result = _run_feed(ctx, inputs, "live", size, NullTracer())
        daemon_rss_mb = process_peak_rss_mb(inputs.daemon.proc.pid)
        _check_feed(ctx, result, _expected(inputs.trace, "live", size), n_frames, size)
        wall_s = median(burst["seconds"] for burst in bursts)
        outcome = Outcome(
            e2e={
                "setup_s": setup_s,
                "wall_s": wall_s,
                "frames_per_s": n_frames / wall_s,
                "warm_s": median(_pooled(lives, "warm")),
                "report_p50_ms": median(_pooled(lives, "latencies")) * 1000.0,
                "report_p90_ms": p90(_pooled(lives, "latencies")) * 1000.0,
                "peak_rss_mb": daemon_rss_mb,
            },
            untraced_wall_s=wall_s,
        )
        lag_s = median(live["ingest_lag_s"] for live in lives)
        print(f"open-loop ingest lag: {lag_s:.4f} s")
        if ctx.trace:
            _traced(ctx, inputs, size, outcome)
    finally:
        inputs.close()
    return outcome


def _traced(ctx, inputs, size, outcome) -> None:
    """A traced feed, then an in-process replay of its snapshots."""
    from repro.pipeline import (
        DEFAULT_CONSUMERS,
        PipelineExecutor,
        assemble_report,
        create_consumers,
    )
    from repro.serve import report_to_jsonable

    tracer = ctx.tracer
    n_frames = len(inputs.trace)
    lives, bursts = run = _run_feed(ctx, inputs, "traced", size, tracer)
    expected = _expected(inputs.trace, "traced", size)
    _check_feed(ctx, run, expected, n_frames, size)
    outcome.traced_wall_s = median(burst["seconds"] for burst in bursts)

    # Replay: one round's segments into an in-process executor, snapshotting
    # wherever a poll fell due in the schedule (a quarter batch after a send).
    executor = PipelineExecutor(create_consumers(DEFAULT_CONSUMERS), name="traced")
    fed = 0
    for number in range(len(lives[0]["latencies"])):
        sent = int(number * size["poll_s"] / size["batch_s"] + 0.25) + 1
        due_batches = min(len(inputs.segments), inputs.n_prefill + sent)
        while fed < due_batches:
            with tracer.span("pipeline.feed"):
                executor.feed(inputs.segments[fed])
            fed += 1
        with tracer.span("pipeline.snapshot"):
            results = executor.snapshot()
        with tracer.span("report.assemble"):
            report = assemble_report(results, name="traced")
        with tracer.span("serve.json"):
            json.dumps(report_to_jsonable(report))
    while fed < len(inputs.segments):
        with tracer.span("pipeline.feed"):
            executor.feed(inputs.segments[fed])
        fed += 1
    with tracer.span("pipeline.close"):
        final = assemble_report(executor.close(), name="traced")
    ctx.checks.check(
        "serve.replay_equals_batch",
        json.dumps(report_to_jsonable(final), sort_keys=True) == expected["traced"],
    )

    def p50_ms(name):
        return median(tracer.durations(name)) * 1000.0

    metrics = lives[-1]["metrics"]
    outcome.layers = {
        **inputs.counts,
        "serve.ingest_lag_s": median(live["ingest_lag_s"] for live in lives),
        # Raw poll latency: the replay's spans are not scaled either.
        "serve.http_residual_ms": median(_pooled(lives, "latencies_raw")) * 1000.0
        - p50_ms("pipeline.snapshot")
        - p50_ms("report.assemble")
        - p50_ms("serve.json"),
        "serve.put_waits": metrics["per_feed"]["traced"]["put_waits"],
        "serve.frames_total": metrics["frames_total"],
        "loadgen.late_p90_ms": p90(_pooled(lives, "late")) * 1000.0,
    }
