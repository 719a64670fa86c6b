"""Shared machinery: spans, statistics, digests, set-up timing, output.

Everything here lives outside ``src/``: spans are opened by the
benchmark's own files around calls into the program's public
functions, so the program under test carries no instrumentation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules a user-facing entry point imports before doing any work.
IMPORTS = (
    "repro.api",
    "repro.sim",
    "repro.pipeline",
    "repro.pcap",
    "repro.corpus",
    "repro.campaign",
    "repro.serve",
)


def child_env() -> dict[str, str]:
    """Environment for subprocesses that import the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: name, start, end, parent and run id."""

    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        record = {
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end_ns"] = time.perf_counter_ns()

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every span called ``name``, in start order."""
        return [
            (s["end_ns"] - s["start_ns"]) / 1e9
            for s in self.spans
            if s["name"] == name
        ]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
        totals: dict[str, float] = {}
        for span, covered in zip(self.spans, child_ns):
            own = span["end_ns"] - span["start_ns"] - covered
            totals[span["name"]] = totals.get(span["name"], 0.0) + own / 1e9
        return totals

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Chrome trace-event JSON (complete events), viewable offline."""
        origin = min((s["start_ns"] for s in self.spans), default=0)
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "args": {"name": f"perfbench {self.run_id}"},
            }
        ]
        for index, span in enumerate(self.spans):
            events.append(
                {
                    "name": span["name"],
                    "cat": span["name"].split(".", 1)[0],
                    "ph": "X",
                    "ts": (span["start_ns"] - origin) / 1000.0,
                    "dur": (span["end_ns"] - span["start_ns"]) / 1000.0,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "id": index,
                        "parent": span["parent"],
                        "run_id": span["run_id"],
                        **{k: _jsonable(v) for k, v in span["attrs"].items()},
                    },
                }
            )
        payload = {"traceEvents": events, "otherData": metadata}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


class NullTracer:
    """The untraced recorder: every span is a shared no-op context."""

    enabled = False
    _NULL = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._NULL


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def p90(values) -> float:
    """90th percentile (inclusive interpolation); the lone value if one."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


# ---------------------------------------------------------------------------
# host pace
# ---------------------------------------------------------------------------

#: Iterations of one host-speed probe: about 10 ms at the reference speed.
PROBE_ITERATIONS = 100_000
#: Probe speed, in million iterations per second, that scaled times refer to.
REFERENCE_MOPS = 10.0


def probe_mops(iterations: int = PROBE_ITERATIONS) -> float:
    """The host's current single-core Python speed, in M iterations/s.

    The loop is ``calibration_score`` from
    ``benchmarks/bench_sim_speed.py``, copied so that no change to the
    program or its benchmarks can move it.
    """
    start = time.perf_counter()
    acc = 0.0
    values = [1.000003] * 64
    for i in range(iterations):
        acc += math.exp(-values[i & 63] * 1e-6) - 1.0
    elapsed = time.perf_counter() - start
    assert acc != 1.0  # keep the loop live
    return iterations / elapsed / 1e6


class Pace:
    """Times units of work in calibration-scaled seconds.

    On a shared host, speed flips between states tens of percent apart,
    for stretches of a fraction of a second to minutes, so raw times of
    the same work taken minutes apart disagree by more than any useful
    bound.  Each unit is therefore bracketed by probes (outside the
    timed region), and its seconds are multiplied by the mean probe
    speed over ``REFERENCE_MOPS``: the time the unit would take on a
    host whose probe runs at ``REFERENCE_MOPS``.  A program change
    cannot move the probe, so a slower program still reads slower.

    ``start()`` probes and marks the start of a unit; ``lap()`` ends
    it, probes, and marks the start of the next one, so back-to-back
    units share their probes.  ``factor`` is the last unit's scale.
    """

    def __init__(self) -> None:
        self.scores: list[float] = []
        self.raw: list[float] = []
        self.factor = 1.0
        self._before = 0.0
        self._mark = 0.0

    def probe(self) -> float:
        score = probe_mops()
        self.scores.append(score)
        return score

    def start(self) -> None:
        self._before = self.probe()
        self._mark = time.perf_counter()

    def lap(self) -> float:
        seconds = time.perf_counter() - self._mark
        after = self.probe()
        scaled = self.scale(seconds, self._before, after)
        self._before = after
        self._mark = time.perf_counter()
        return scaled

    def scale(self, seconds: float, before: float, after: float) -> float:
        """Scale ``seconds`` measured between probes ``before`` and ``after``."""
        self.raw.append(seconds)
        self.factor = (before + after) / 2.0 / REFERENCE_MOPS
        return seconds * self.factor

    def summary(self) -> str:
        return (
            f"host pace: {len(self.scores)} probes, median "
            f"{median(self.scores):.2f} Mops/s (reference {REFERENCE_MOPS})"
        )


def peak_rss_mb() -> float:
    """Peak resident set of this process alone, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PoolPeaks:
    """Samples the peak resident set of this process's live children.

    Used around timed regions whose pool workers are this process's
    children.  Every ``interval_s`` the thread sums ``VmHWM`` over the
    children alive at that moment; ``peak_mb`` is the largest such sum.
    Children that ended before the region (set-up's import probes) are
    never seen.  Forked workers count the pages they share with this
    process, as ``VmHWM`` does.
    """

    def __init__(self, interval_s: float = 0.02) -> None:
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def start(self) -> "PoolPeaks":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(self.interval_s):
            total = 0.0
            for pid in _child_pids():
                try:
                    total += process_peak_rss_mb(pid)
                except (OSError, RuntimeError):
                    pass  # the child ended between listing and reading
            self.peak_mb = max(self.peak_mb, total)


def _child_pids() -> set[int]:
    pids: set[int] = set()
    for children in Path("/proc/self/task").glob("*/children"):
        try:
            pids.update(int(pid) for pid in children.read_text().split())
        except OSError:
            pass
    return pids


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# report identity
# ---------------------------------------------------------------------------


def _canonical(value, out, title: str) -> None:
    """Feed a canonical byte rendering of ``value`` into ``out``.

    Strings equal to ``title`` (the report's name, repeated in nested
    results) render as a placeholder, so reports of one capture under
    different names compare equal.
    """
    import numpy as np

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out.update(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            out.update(field.name.encode())
            _canonical(getattr(value, field.name), out, title)
    elif isinstance(value, np.ndarray):
        out.update(f"nd{value.dtype.str}{value.shape}".encode())
        out.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        out.update(b"{")
        for key in sorted(value, key=repr):
            _canonical(key, out, title)
            _canonical(value[key], out, title)
        out.update(b"}")
    elif isinstance(value, (list, tuple)):
        out.update(b"[")
        for item in value:
            _canonical(item, out, title)
        out.update(b"]")
    elif isinstance(value, enum.Enum):
        out.update(repr(value).encode())
    elif isinstance(value, str) and value == title:
        out.update(b"<title>;")
    elif isinstance(value, (np.generic, int, float, str, bool)) or value is None:
        item = value.item() if isinstance(value, np.generic) else value
        out.update(f"{type(item).__name__}:{item!r};".encode())
    elif hasattr(value, "__dict__"):
        out.update(type(value).__name__.encode())
        _canonical(vars(value), out, title)
    else:
        raise TypeError(f"no canonical form for {type(value).__name__}")


def report_digest(report) -> str:
    """Field-by-field digest of a ``CongestionReport``, title excluded.

    Two reports digest equal exactly when every field, array and
    nested result is bit-identical; the title (``name``) differs by
    source and is left out wherever it appears.
    """
    out = hashlib.sha256()
    _canonical(report, out, report.name)
    return out.hexdigest()


# ---------------------------------------------------------------------------
# checks and operation accounting
# ---------------------------------------------------------------------------


class Checks:
    """Counts operations and correctness checks; remembers failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.ran: dict[str, int] = {}
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        """One program operation (request, cell, capture, session)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"operation failed: {what}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """One output check; ``name`` groups repeats of the same check."""
        self.attempted += 1
        self.ran[name] = self.ran.get(name, 0) + 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name} failed {detail}".rstrip())

    @property
    def correct(self) -> bool:
        return self.failed == 0


# ---------------------------------------------------------------------------
# set-up timing
# ---------------------------------------------------------------------------


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing the program."""
    code = (
        "import time; t = time.perf_counter()\n"
        f"for m in {IMPORTS!r}: __import__(m)\n"
        "print(repr(time.perf_counter() - t))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def timed_setup(reps: int, build, tracer):
    """Set up ``reps`` times; return (median scaled seconds, last inputs).

    Each repetition is a cold import in a fresh interpreter plus
    ``build(tracer)``, scaled by the probes around it (see ``Pace``);
    only the last repetition is traced, so span totals describe one
    set-up.
    """
    pace = Pace()
    seconds: list[float] = []
    inputs = None
    for rep in range(reps):
        if hasattr(inputs, "close"):
            inputs.close()
        pace.start()
        imported = import_seconds()
        start = time.perf_counter()
        inputs = build(tracer if rep == reps - 1 else NullTracer())
        built = time.perf_counter() - start
        pace.lap()
        seconds.append((imported + built) * pace.factor)
    return median(seconds), inputs


def derived_seeds(seed: int, count: int, salt: str) -> list[int]:
    """``count`` distinct scenario seeds drawn from the run seed."""
    import random

    rng = random.Random(f"{salt}:{seed}")
    return rng.sample(range(1, 1_000_000), count)


def finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"metric is not finite: {value}")
    return value


@dataclasses.dataclass
class Context:
    """What one benchmark run knows: its arguments and its recorders."""

    seed: int
    seconds: float
    tiny: bool
    trace: bool
    workdir: Path
    checks: Checks
    tracer: "Tracer | NullTracer"


@dataclasses.dataclass
class Outcome:
    """A workload's numbers: end-to-end (untraced) and per-layer (traced).

    ``untraced_wall_s``/``traced_wall_s`` are the same timed unit run
    without and with spans; their difference is the tracing overhead.
    """

    e2e: dict[str, float]
    layers: dict[str, float] = dataclasses.field(default_factory=dict)
    untraced_wall_s: float = 0.0
    traced_wall_s: float = 0.0


def sim_counts(counters: dict, captured: int) -> dict[str, float]:
    """The simulator's repeatable work counts as per-layer metrics."""
    return {
        "sim.frames_transmitted": counters["frames_transmitted"],
        "sim.frames_captured": captured,
        "sim.events_processed": counters["events_processed"],
        "sim.events_cancelled": counters["events_cancelled"],
    }


def add_counts(total: dict[str, float], more: dict[str, float]) -> None:
    for key, value in more.items():
        total[key] = total.get(key, 0) + value
