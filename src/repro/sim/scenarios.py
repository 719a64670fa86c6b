"""Scenario configs and runners: assembled networks that emit traces.
Three config families reproduce the paper's measurement settings at
laptop scale (simulated minutes standing in for the paper's multi-hour
IETF sessions):

* :func:`run_scenario` / :func:`stream_scenario` — one room, one or
  more AP/channel cells, configurable traffic, rate adaptation and
  RTS/CTS population; the general-purpose entry points (buffered
  result vs live bounded-memory chunk stream).
* :func:`load_ramp_config` — offered load climbing over the run so the
  captured trace sweeps channel utilization across the paper's 30-99 %
  analysis range (the workload behind Figures 6-15).
* :func:`ietf_day_config` / :func:`ietf_plenary_config` — scaled
  analogues of the two IETF data sets: three channels, multiple APs,
  station populations that rise and fall like the meeting schedule.

The assembly itself lives in :mod:`repro.sim.builder`
(:class:`~repro.sim.builder.ScenarioBuilder`); both runners here are
thin conveniences over it, and custom topologies/populations/traffic
programs compose through the builder directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator
import numpy as np

from ..frames import NodeRoster, Trace
from .dcf import MacConfig
from .engine import Simulator
from .medium import Medium
from .node import AccessPoint, Station
from .builder import ScenarioBuilder, _DEFAULT_CHUNK_FRAMES, MAX_FRAME_AIRTIME_US
from .channel_manager import ChannelManager
from .roaming import RoamingManager
from .sniffer import Sniffer, SnifferConfig
from .traffic import (
    CONFERENCE_MIX,
    ConstantRate,
    LinearRamp,
    ModulatedRate,
    RateSchedule,
    SizeSampler,
    class_mixture,
)

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
    "stream_scenario",
    "load_ramp_config",
    "ietf_day_config",
    "ietf_plenary_config",
]


@dataclass
class ScenarioConfig:
    """Everything needed to build and run one simulated capture session."""
    n_stations: int = 10
    n_aps: int = 1
    duration_s: float = 30.0
    seed: int = 7
    channels: tuple[int, ...] = (1,)
    room_width_m: float = 25.0
    room_depth_m: float = 20.0
    rate_algorithm: str = "arf"
    rate_adaptation_kwargs: dict = field(default_factory=dict)
    rtscts_fraction: float = 0.0

    #: Fraction of stations with a heavily attenuated link (bodies,
    #: bags, partition walls) — these live at the low data rates, the
    #: population behind the paper's persistent 1 Mbps airtime share.
    obstructed_fraction: float = 0.0

    #: Obstructed stations have their link budget *calibrated* so the
    #: weaker link direction lands in this SNR band (dB): workable at
    #: 1-2 Mbps with occasional bit-error losses, hopeless at 5.5/11.
    #: Calibration (rather than a fixed extra loss) keeps the low-rate
    #: population seed-robust; it models users at the edge of coverage
    #: wherever they happen to sit.
    obstructed_snr_band_db: tuple[float, float] = (-1.0, 3.0)

    #: Offered-load multiplier for obstructed stations (their upper
    #: layers would back off on a bad link; keeping this < 1 stops two
    #: bad links from consuming the whole channel at 1 Mbps).
    obstructed_load_factor: float = 0.35
    uplink: RateSchedule = field(default_factory=lambda: ConstantRate(8.0))
    downlink: RateSchedule = field(default_factory=lambda: ConstantRate(8.0))
    size_mix: SizeSampler = CONFERENCE_MIX
    station_tx_power_dbm: float = 15.0
    ap_tx_power_dbm: float = 18.0
    #: Enable closed-loop transmit power control on stations (the
    #: paper's §7 second recommendation).
    power_control: bool = False
    #: Enable Airespace-style dynamic channel rebalancing (§4.1).
    channel_management: bool = False
    #: Enable station roaming/handoff to the strongest-beacon AP
    #: (Mishra et al. [15] behaviour; only meaningful with several APs).
    roaming: bool = False
    path_loss_exponent: float = 3.0
    shadowing_sigma_db: float = 4.0
    mac_config: MacConfig = field(default_factory=MacConfig)
    sniffer_config: SnifferConfig = field(default_factory=SnifferConfig)

    #: Optional per-station activity window factory: given (station
    #: index, rng) return (start_us, end_us).  Default: always active.
    activity: Callable[[int, np.random.Generator], tuple[int, int]] | None = None

    def __post_init__(self) -> None:
        if self.n_stations < 1 or self.n_aps < 1:
            raise ValueError("need at least one station and one AP")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 <= self.rtscts_fraction <= 1.0:
            raise ValueError("rtscts_fraction must be in [0, 1]")
        if not 0.0 <= self.obstructed_fraction <= 1.0:
            raise ValueError("obstructed_fraction must be in [0, 1]")
        if not self.channels:
            raise ValueError("need at least one channel")

    @property
    def duration_us(self) -> int:
        return int(self.duration_s * 1_000_000)


@dataclass
class ScenarioResult:
    """Artifacts of one scenario run."""
    trace: Trace                 # merged sniffer captures (what the paper had)
    ground_truth: Trace          # every frame actually transmitted
    roster: NodeRoster
    stations: list[Station]
    aps: list[AccessPoint]
    sniffers: list[Sniffer]
    medium: Medium
    sim: Simulator
    config: ScenarioConfig
    channel_manager: "ChannelManager | None" = None
    roaming_manager: "RoamingManager | None" = None

    @property
    def capture_ratio(self) -> float:
        """Fraction of transmitted frames the sniffers recorded.

        Guarded against zero-frame ground truth: a degenerate config
        (e.g. zero offered load over a short run) reports 0.0 rather
        than raising ``ZeroDivisionError``.
        """
        total = len(self.ground_truth)
        return len(self.trace) / total if total else 0.0


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build the network described by ``config``, run it, collect traces.

    Buffers the full capture and ground truth in memory; for day-long
    runs feed :func:`stream_scenario` to the analysis pipeline instead.
    """
    return ScenarioBuilder(config).build().run()


def stream_scenario(
    config: ScenarioConfig,
    chunk_frames: int = _DEFAULT_CHUNK_FRAMES,
    window_s: float = 1.0,
    drain_guard_us: int = MAX_FRAME_AIRTIME_US,
) -> Iterator[Trace]:
    """Run ``config`` live, yielding the merged sniffer capture as
    bounded time-sorted chunks while the simulation advances.

    The concatenated chunks equal
    ``run_scenario(config).trace.sorted_by_time()`` — the row order
    every analysis works on — but no full-run trace (or per-frame
    ground truth) is ever materialised: peak memory is one drain window
    however long the session.  Feed the iterator straight to
    :func:`repro.pipeline.run_all`.
    """
    yield from ScenarioBuilder(config).build().stream(
        chunk_frames=chunk_frames,
        window_s=window_s,
        drain_guard_us=drain_guard_us,
    )


#: Size mixture calibrated for the load-ramp scenario: S and XL dominate


#: (TCP acks + downloads), matching the paper's Figs 10-13 populations.
RAMP_MIX = class_mixture({"S": 0.38, "M": 0.06, "L": 0.06, "XL": 0.50})


def load_ramp_config(
    n_stations: int = 12,
    duration_s: float = 240.0,
    peak_downlink_pps: float = 50.0,
    peak_uplink_pps: float = 16.0,
    seed: int = 11,
    rate_algorithm: str = "arf",
    rtscts_fraction: float = 0.15,
    size_mix: SizeSampler | None = None,
    burst_sigma: float = 1.0,
) -> ScenarioConfig:
    """Bursty offered load ramping from near-idle to past saturation.
    This is the workload that sweeps channel utilization across the
    paper's 30-99 % analysis range; every "versus utilization" figure
    (6 through 15) is regenerated from one such run.  Calibration notes:
    * Downlink-dominated traffic (conference floors download) keeps the
      contender count low enough that the network stays healthy through
      the moderate band and collapses only near the knee.
    * Log-normal burst modulation populates the intermediate
      utilization bins; steady open-loop load snaps from underload to
      saturation and leaves the 40-80 % bins empty.
    * A quarter of the stations are obstructed (extra 22 dB link loss):
      the population that legitimately occupies the 1-2 Mbps rates and
      produces the paper's persistent 1 Mbps airtime share (Fig 8).
    """
    duration_us = int(duration_s * 1e6)
    up = ModulatedRate(
        LinearRamp(0.3, peak_uplink_pps, duration_us),
        sigma=burst_sigma,
        period_us=1_000_000,
        seed=seed + 51,
    )
    down = ModulatedRate(
        LinearRamp(1.0, peak_downlink_pps, duration_us),
        sigma=burst_sigma,
        period_us=1_000_000,
        seed=seed + 52,
    )
    return ScenarioConfig(
        n_stations=n_stations,
        n_aps=1,
        duration_s=duration_s,
        seed=seed,
        channels=(1,),
        room_width_m=36.0,
        room_depth_m=24.0,
        shadowing_sigma_db=6.0,
        path_loss_exponent=3.2,
        station_tx_power_dbm=12.0,
        rate_algorithm=rate_algorithm,
        rate_adaptation_kwargs=(
            {"up_threshold": 5, "down_threshold": 3}
            if rate_algorithm in ("arf", "aarf")
            else {}
        ),
        rtscts_fraction=rtscts_fraction,
        obstructed_fraction=0.25,
        obstructed_load_factor=0.35,
        uplink=up,
        downlink=down,
        size_mix=size_mix or RAMP_MIX,
    )


def _session_activity(
    blocks: tuple[tuple[float, float], ...], duration_us: int
) -> Callable[[int, np.random.Generator], tuple[int, int]]:
    """Assign each station one attendance block (fractions of the run)."""

    def pick(index: int, rng: np.random.Generator) -> tuple[int, int]:
        start_frac, end_frac = blocks[int(rng.integers(0, len(blocks)))]
        jitter = float(rng.uniform(0.0, 0.03))
        start = int((start_frac + jitter) * duration_us)
        end = int(min(end_frac + jitter, 1.0) * duration_us)
        return start, end
    return pick


def ietf_day_config(
    n_stations: int = 36,
    duration_s: float = 120.0,
    seed: int = 21,
) -> ScenarioConfig:
    """Scaled analogue of the day session (Table 1, row 1).
    Three channels, two APs each; stations attend one of three parallel
    session blocks, so the active population rises and falls during the
    run as in Figure 4(b).
    """
    duration_us = int(duration_s * 1e6)
    blocks = ((0.0, 0.45), (0.30, 0.75), (0.55, 1.0))
    return ScenarioConfig(
        n_stations=n_stations,
        n_aps=6,
        duration_s=duration_s,
        seed=seed,
        channels=(1, 6, 11),
        room_width_m=65.0,
        room_depth_m=25.0,
        shadowing_sigma_db=6.0,
        path_loss_exponent=3.2,
        station_tx_power_dbm=12.0,
        rate_adaptation_kwargs={"up_threshold": 5, "down_threshold": 3},
        obstructed_fraction=0.2,
        size_mix=RAMP_MIX,
        uplink=ModulatedRate(ConstantRate(9.0), sigma=0.8, seed=seed + 51),
        downlink=ModulatedRate(ConstantRate(26.0), sigma=0.8, seed=seed + 52),
        activity=_session_activity(blocks, duration_us),
    )


def ietf_plenary_config(
    n_stations: int = 30,
    duration_s: float = 120.0,
    seed: int = 22,
) -> ScenarioConfig:
    """Scaled analogue of the plenary session (Table 1, row 2).
    One large room, all channels co-located, everyone attending the same
    block with heavier per-station load — the configuration that drove
    the network deep into congestion in the paper (mode ~86 %
    utilization vs ~55 % during the day).
    """
    duration_us = int(duration_s * 1e6)
    blocks = ((0.0, 1.0), (0.05, 0.95), (0.0, 0.9))
    return ScenarioConfig(
        n_stations=n_stations,
        n_aps=3,
        duration_s=duration_s,
        seed=seed,
        channels=(1, 6, 11),
        room_width_m=40.0,
        room_depth_m=25.0,
        shadowing_sigma_db=6.0,
        path_loss_exponent=3.2,
        station_tx_power_dbm=12.0,
        rate_adaptation_kwargs={"up_threshold": 5, "down_threshold": 3},
        obstructed_fraction=0.25,
        size_mix=RAMP_MIX,
        uplink=ModulatedRate(ConstantRate(14.0), sigma=0.9, seed=seed + 51),
        downlink=ModulatedRate(ConstantRate(42.0), sigma=0.9, seed=seed + 52),
        activity=_session_activity(blocks, duration_us),
    )
