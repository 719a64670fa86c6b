"""Shared fixtures: hand-built traces and one small cached scenario run."""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

from repro.frames import BROADCAST, FrameRow, FrameType, NodeInfo, NodeRoster, Trace
from repro.sim import ConstantRate, ScenarioConfig, run_scenario


REPO_ROOT = Path(__file__).resolve().parent.parent


def _untracked_paths() -> set[str] | None:
    """Untracked, unignored paths in the checkout (None outside git)."""
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return {line[3:] for line in out.stdout.splitlines() if line.startswith("?? ")}


@pytest.fixture(scope="session", autouse=True)
def no_stray_files(tmp_path_factory):
    """Fail the session if tests leave new untracked files in the tree.

    Files under pytest's own temporary directories do not count, and
    the guard is skipped when the tree is not a git checkout.
    """
    before = _untracked_paths()
    yield
    if before is None:
        return
    after = _untracked_paths() or set()
    basetemp = tmp_path_factory.getbasetemp().resolve()
    stray = sorted(
        path
        for path in after - before
        if not (REPO_ROOT / path).resolve().is_relative_to(basetemp)
    )
    if stray:
        pytest.fail(f"tests left untracked files in the tree: {stray}")


def data(t, src, dst, size=1000, rate=11.0, retry=False, seq=0, channel=1, snr=25.0):
    """Shorthand DATA frame row."""
    return FrameRow(
        time_us=t, ftype=FrameType.DATA, rate_mbps=rate, size=size,
        src=src, dst=dst, retry=retry, seq=seq, channel=channel, snr_db=snr,
    )


def ack(t, src, dst, channel=1):
    """Shorthand ACK frame row (src = acker, dst = data sender)."""
    return FrameRow(
        time_us=t, ftype=FrameType.ACK, rate_mbps=1.0, size=14,
        src=src, dst=dst, channel=channel,
    )


def rts(t, src, dst, channel=1):
    return FrameRow(
        time_us=t, ftype=FrameType.RTS, rate_mbps=1.0, size=20,
        src=src, dst=dst, channel=channel,
    )


def cts(t, src, dst, channel=1):
    return FrameRow(
        time_us=t, ftype=FrameType.CTS, rate_mbps=1.0, size=14,
        src=src, dst=dst, channel=channel,
    )


def beacon(t, src, channel=1):
    return FrameRow(
        time_us=t, ftype=FrameType.BEACON, rate_mbps=1.0, size=80,
        src=src, dst=BROADCAST, channel=channel,
    )


@pytest.fixture
def tiny_roster():
    """One AP (id 1) and two stations (ids 10, 11)."""
    return NodeRoster(
        [
            NodeInfo(node_id=1, is_ap=True, name="ap-1"),
            NodeInfo(node_id=10, is_ap=False, name="sta-10"),
            NodeInfo(node_id=11, is_ap=False, name="sta-11", uses_rtscts=True),
        ]
    )


@pytest.fixture
def exchange_trace():
    """A clean DATA->ACK, RTS->CTS->DATA->ACK capture plus a beacon."""
    rows = [
        beacon(0, src=1),
        data(1_000, src=10, dst=1, size=1400, rate=11.0, seq=5),
        ack(2_400, src=1, dst=10),
        rts(10_000, src=11, dst=1),
        cts(10_400, src=1, dst=11),
        data(10_800, src=11, dst=1, size=300, rate=1.0, seq=9),
        ack(13_600, src=1, dst=11),
    ]
    return Trace.from_rows(rows)


@pytest.fixture(scope="session")
def small_scenario():
    """One cached 8-second simulated capture (6 stations, 1 AP)."""
    config = ScenarioConfig(
        n_stations=6,
        n_aps=1,
        duration_s=8.0,
        seed=42,
        uplink=ConstantRate(12.0),
        downlink=ConstantRate(14.0),
        obstructed_fraction=0.2,
    )
    return run_scenario(config)
