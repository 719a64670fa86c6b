"""Parallel campaign execution: grid cells → process pool → reports.

Each cell builds its scenario from the library, *streams* the live
sniffer capture straight into the single-pass analysis pipeline
(:func:`repro.pipeline.run_all`) and keeps only the per-cell findings —
so a campaign's memory footprint is one drain window per worker, not
one trace per cell, and wall-clock scales with the worker count
(``benchmarks/bench_campaign.py`` measures the scaling).

Campaigns are **crash-safe and resumable** when given a ``store_dir``:
results stream into a content-addressed
:class:`~repro.campaign.store.CampaignStore` *as futures resolve*, a
cell that raises becomes a :class:`~repro.campaign.store.FailedCell`
record instead of sinking the whole run, and a re-invocation consults
the store first and dispatches only the cells it is missing.

    from repro.campaign import ParameterGrid, run_campaign

    grid = ParameterGrid("ramp", axes={"n_stations": [10, 20, 40]}, seeds=2)
    result = run_campaign(grid, workers=4, store_dir="campaign-store")
    print(result.cells[0].delivery_ratio)
    # ... Ctrl-C and re-run: only unfinished cells are simulated.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback as traceback_module
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .grid import CampaignCell, ParameterGrid
from .store import CampaignStore, FailedCell

if TYPE_CHECKING:  # pragma: no cover
    from ..core.report import CongestionReport

__all__ = ["CellResult", "CampaignResult", "Timeout", "run_campaign"]

#: Dispatch backends ``run_campaign`` routes between.
DISPATCH_MODES = ("local", "distributed")


#: Streaming defaults for campaign cells: small enough that worker
#: memory stays flat, large enough that numpy consumers amortise.
CELL_CHUNK_FRAMES = 65_536


def _safe_ratio(numerator: float, denominator: float) -> float:
    """0.0 instead of ZeroDivisionError for degenerate (empty) cells."""
    return numerator / denominator if denominator else 0.0


class Timeout(Exception):
    """A cell exceeded ``run_campaign(timeout_s=...)`` and was aborted.

    Named so the :class:`FailedCell` record reads ``type="Timeout"``.
    """


@contextmanager
def _cell_deadline(timeout_s: float | None):
    """Abort the enclosed cell with :class:`Timeout` after ``timeout_s``.

    Uses ``SIGALRM``/``setitimer``, which interrupts arbitrary Python —
    including a simulation stuck in a pathological event loop — so a
    hung cell becomes a captured ``FailedCell(type="Timeout")`` instead
    of stalling its pool slot (or a distributed worker) forever.  Only
    armable from a process's main thread (a POSIX signal constraint);
    elsewhere the cell runs unbounded, which matches the pre-timeout
    behaviour.  Pool workers and campaign workers run cells on their
    main thread, so the guard holds exactly where it matters.
    """
    if (
        not timeout_s
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    message = f"cell exceeded timeout_s={timeout_s:g}"
    expired = []

    def _expired(signum, frame):
        expired.append(True)
        raise Timeout(message)

    previous = signal.signal(signal.SIGALRM, _expired)
    # The alarm can land inside library code that swallows the exception
    # or converts it (numpy's structured-array comparison re-raises it as
    # a TypeError): re-fire every ``timeout_s``, and report any error
    # raised after expiry as the Timeout it is.
    signal.setitimer(signal.ITIMER_REAL, timeout_s, timeout_s)
    try:
        yield
    except Exception as error:
        if expired and not isinstance(error, Timeout):
            raise Timeout(message) from error
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class CellResult:
    """The findings of one campaign cell, aggregated and picklable.

    Ratios are guarded: degenerate cells (zero frames captured or
    transmitted) report 0.0 rather than raising.
    """

    cell: CampaignCell
    n_frames: int                      # frames captured and analyzed
    frames_transmitted: int            # simulator ground-truth count
    offered_packets: int               # MSDUs offered by all sources
    duration_s: float
    delivery_ratio: float              # MAC DATA successes / attempts
    capture_ratio: float               # captured / transmitted
    mode_utilization: float            # % — the paper's headline mode
    peak_throughput_mbps: float
    peak_throughput_utilization: float  # % — the Fig 6 knee position
    high_congestion_fraction: float
    unrecorded_percent: float
    elapsed_s: float
    report: "CongestionReport | None" = None
    #: Simulator event-loop diagnostics, surfaced in the summary table
    #: (``events`` column) so wall-clock outliers are attributable to
    #: event churn.
    events_processed: int = 0
    events_cancelled: int = 0

    @property
    def cell_frames_per_sec(self) -> float:
        """Whole-cell throughput: frames simulated per wall-second of
        the cell's *combined* simulate-and-analyze run.

        Not comparable to ``BENCH_sim.json`` frames/sec, which times
        trace generation alone — a cell's elapsed time includes the
        full analysis pipeline consuming the stream.
        """
        return _safe_ratio(self.frames_transmitted, self.elapsed_s)

    @property
    def name(self) -> str:
        return self.cell.name

    @property
    def offered_pps(self) -> float:
        """Offered load normalised per second of simulated time."""
        return _safe_ratio(self.offered_packets, self.duration_s)

    def as_row(self) -> dict[str, object]:
        """One summary-table row."""
        return {
            "cell": self.name,
            "frames": self.n_frames,
            "offered_pps": round(self.offered_pps, 1),
            "delivery": round(self.delivery_ratio, 3),
            "mode_util_%": round(self.mode_utilization, 1),
            "peak_mbps": round(self.peak_throughput_mbps, 3),
            "knee_util_%": round(self.peak_throughput_utilization, 1),
            "high_cong": round(self.high_congestion_fraction, 3),
            "capture_%": round(100.0 * self.capture_ratio, 1),
            "events": self.events_processed,
            "wall_s": round(self.elapsed_s, 2),
        }


@dataclass
class CampaignResult:
    """Everything a finished campaign produced, input order preserved.

    ``cells`` holds the successful results; cells whose simulation
    raised are in ``failed`` (the campaign itself always completes).
    ``store_hits`` counts cells answered from the store without any
    simulation work, ``dispatched`` the cells actually simulated this
    invocation — a fully-stored campaign has ``dispatched == 0``.
    """

    cells: list[CellResult]
    workers: int
    elapsed_s: float
    failed: list[FailedCell] = field(default_factory=list)
    store_hits: int = 0
    dispatched: int = 0
    store_dir: str | None = None
    #: Corrupt store records quarantined (renamed ``*.corrupt``) while
    #: this campaign consulted its store — nonzero means disk trouble.
    quarantined: int = 0

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    @property
    def n_total(self) -> int:
        """All cells the campaign covered, successful or failed."""
        return len(self.cells) + len(self.failed)

    def by_name(self) -> dict[str, CellResult]:
        return {cell.name: cell for cell in self.cells}

    def scenarios(self) -> list[str]:
        """Distinct scenario names, first-seen order."""
        seen: dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.cell.scenario, None)
        return list(seen)


def _run_cell(job) -> tuple[str, object]:
    """Module-level cell worker (picklable for process pools).

    Returns ``("ok", CellResult)`` or ``("fail", FailedCell)`` — a
    raising cell must never sink its siblings (or, pre-store, the
    already-completed results), so the exception is captured *inside*
    the worker where its traceback is still attached.
    """
    cell, options = job
    start = time.perf_counter()
    try:
        with _cell_deadline(options.get("timeout_s")):
            return ("ok", _simulate_cell(cell, options, start))
    except Exception as error:
        return (
            "fail",
            FailedCell(
                cell=cell,
                error_type=type(error).__name__,
                error=str(error),
                traceback=traceback_module.format_exc(),
                elapsed_s=time.perf_counter() - start,
            ),
        )


def _simulate_cell(cell: CampaignCell, options: dict, start: float) -> CellResult:
    from ..pipeline import run_all
    from ..sim import build_scenario

    built = build_scenario(
        cell.scenario, fidelity=cell.fidelity or "default", **cell.kwargs
    )
    roster = built.roster
    report = run_all(
        built.stream(
            chunk_frames=options["chunk_frames"],
            window_s=options["window_s"],
        ),
        roster=roster,
        name=cell.name,
    )
    elapsed = time.perf_counter() - start
    if report.summary.n_frames:
        headline = report.headline()
    else:  # degenerate cell: nothing captured, no curves to summarise
        headline = {}
    return CellResult(
        cell=cell,
        n_frames=report.summary.n_frames,
        frames_transmitted=built.frames_transmitted,
        offered_packets=built.offered_packets,
        duration_s=built.config.duration_s,
        delivery_ratio=built.delivery_ratio,
        capture_ratio=built.capture_ratio,
        mode_utilization=float(headline.get("mode_utilization", 0.0)),
        peak_throughput_mbps=float(headline.get("throughput_peak_mbps", 0.0)),
        peak_throughput_utilization=float(
            headline.get("throughput_peak_utilization", 0.0)
        ),
        high_congestion_fraction=float(
            headline.get("high_congestion_fraction", 0.0)
        ),
        unrecorded_percent=float(headline.get("unrecorded_percent", 0.0)),
        elapsed_s=elapsed,
        report=report if options["keep_reports"] else None,
        events_processed=built.sim.events_processed,
        events_cancelled=built.sim.events_cancelled,
    )


def _expand_cells(
    grid: ParameterGrid | Sequence[CampaignCell],
) -> list[CampaignCell]:
    """Grid → cell list with the shared sanity checks (shape only)."""
    cells = grid.cells() if isinstance(grid, ParameterGrid) else list(grid)
    if not cells:
        raise ValueError("campaign has no cells")
    names = [cell.name for cell in cells]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate campaign cells: {dupes}")
    return cells


def run_campaign(
    grid: ParameterGrid | Sequence[CampaignCell],
    *,
    workers: int | None = None,
    chunk_frames: int = CELL_CHUNK_FRAMES,
    window_s: float = 1.0,
    keep_reports: bool = False,
    store_dir: str | os.PathLike | None = None,
    resume: bool = True,
    retry_failed: bool = False,
    timeout_s: float | None = None,
    dispatch: str = "local",
) -> CampaignResult:
    """Run every cell of ``grid`` and collect per-cell findings.

    ``workers`` > 1 fans cells across a process pool (simulation is
    GIL-bound Python, so processes give true parallelism); ``None``
    uses the pool default, 1 runs serially in-process.  Results are
    deterministic and identical for any worker count — cells carry
    their own seeds.  ``keep_reports=True`` attaches each cell's full
    :class:`~repro.core.report.CongestionReport` (heavier pickles;
    leave off for wide sweeps).

    With ``store_dir`` every finished cell is persisted immediately
    (atomic write) to a content-addressed
    :class:`~repro.campaign.store.CampaignStore`, so an interrupted
    campaign loses at most the cells in flight.  ``resume=True`` (the
    default) answers cells from the store when their content key
    matches; ``resume=False`` recomputes (and overwrites) everything.
    Recorded failures are *not* retried on resume unless
    ``retry_failed=True``.

    A cell that raises never aborts the campaign: it is captured as a
    :class:`FailedCell` (config + traceback) in ``result.failed`` and —
    when a store is attached — persisted alongside the results.

    ``timeout_s`` bounds each cell's wall-clock: a cell still running
    at the deadline is aborted and captured as a
    ``FailedCell(type="Timeout")`` instead of stalling its pool slot.

    ``dispatch="distributed"`` routes the same grid through the
    fault-tolerant coordinator/worker protocol
    (:func:`repro.campaign.dispatch.run_distributed_campaign`): worker
    *subprocesses* lease cell batches over a socket, results land in
    per-worker store shards merged losslessly into ``store_dir``, and
    dead workers are survived via lease reclaim + bounded retries.
    """
    if dispatch not in DISPATCH_MODES:
        from .._suggest import unknown_name_message

        raise ValueError(
            unknown_name_message("dispatch mode", dispatch, DISPATCH_MODES)
        )
    if dispatch == "distributed":
        from .dispatch import run_distributed_campaign

        return run_distributed_campaign(
            grid,
            workers=workers,
            chunk_frames=chunk_frames,
            window_s=window_s,
            keep_reports=keep_reports,
            store_dir=store_dir,
            resume=resume,
            retry_failed=retry_failed,
            timeout_s=timeout_s,
        )
    cells = _expand_cells(grid)

    store = CampaignStore(store_dir) if store_dir is not None else None
    options = {
        "chunk_frames": chunk_frames,
        "window_s": window_s,
        "keep_reports": keep_reports,
        "timeout_s": timeout_s,
    }

    start = time.perf_counter()
    results: dict[int, CellResult] = {}
    failures: dict[int, FailedCell] = {}
    keys: dict[int, str] = {}
    to_run: list[tuple[int, CampaignCell]] = []
    store_hits = 0
    if store is not None:
        for index, cell in enumerate(cells):
            key = store.key_for(cell)
            keys[index] = key
            if resume:
                hit = store.get(cell, key=key, with_report=keep_reports)
                if hit is not None:
                    results[index] = hit
                    store_hits += 1
                    continue
                if not retry_failed:
                    failure = store.get_failure(cell, key=key)
                    if failure is not None:
                        failures[index] = failure
                        continue
            to_run.append((index, cell))
    else:
        to_run = list(enumerate(cells))

    def record(
        index: int, outcome: tuple[str, object], persist: bool = True
    ) -> None:
        status, payload = outcome
        if status == "ok":
            results[index] = payload  # type: ignore[assignment]
            if store is not None:
                store.put(payload, key=keys.get(index))  # type: ignore[arg-type]
        else:
            failures[index] = payload  # type: ignore[assignment]
            if store is not None and persist:
                store.put_failure(payload, key=keys.get(index))  # type: ignore[arg-type]

    if len(to_run) <= 1 or workers == 1:
        pool_size = 1
        for index, cell in to_run:
            record(index, _run_cell((cell, options)))
    else:
        pool_size = workers if workers is not None else (os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            pending = {
                pool.submit(_run_cell, (cell, options)): (index, cell)
                for index, cell in to_run
            }
            # Streaming collection: each result is recorded (and stored)
            # the moment its future resolves, so a crash loses only the
            # cells still in flight — never the finished ones.
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    index, cell = pending.pop(future)
                    try:
                        outcome = future.result()
                    except Exception as error:
                        # The worker process died (e.g. OOM-kill,
                        # BrokenProcessPool): synthesize a failure so
                        # the campaign still completes — but do NOT
                        # persist it.  A broken pool fails every queued
                        # future, including cells that never started;
                        # storing those records would make a plain
                        # resume report them as failed instead of
                        # re-running them.  (Cell code that raises is
                        # captured *inside* the worker and does
                        # persist.)
                        record(
                            index,
                            (
                                "fail",
                                FailedCell(
                                    cell=cell,
                                    error_type=type(error).__name__,
                                    error=str(error),
                                    traceback="",
                                    elapsed_s=0.0,
                                ),
                            ),
                            persist=False,
                        )
                        continue
                    record(index, outcome)

    return CampaignResult(
        cells=[results[i] for i in sorted(results)],
        workers=pool_size,
        elapsed_s=time.perf_counter() - start,
        failed=[failures[i] for i in sorted(failures)],
        store_hits=store_hits,
        dispatched=len(to_run),
        store_dir=os.fspath(store_dir) if store_dir is not None else None,
        quarantined=store.quarantined if store is not None else 0,
    )
