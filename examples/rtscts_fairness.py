#!/usr/bin/env python
"""RTS/CTS minority-fairness experiment (paper §6.1).

The paper finds that when only a few nodes use the RTS/CTS handshake in
a congested network, those nodes fail to obtain fair channel access:
their deliveries depend on three successful frames instead of one.
This experiment sweeps the fraction of RTS/CTS stations under a
congested uplink and reports the fairness index
(goodput share / population share) of the handshake users.

Each sweep point is one ``repro.api`` experiment (the base experiment
is forked per fraction with ``.fix(rtscts_fraction=...)``); the buffered
trace is kept so the §6.1 fairness analysis can run on it directly.

Usage::

    python examples/rtscts_fairness.py
"""

from __future__ import annotations

from repro.api import Experiment
from repro.core import rts_cts_fairness
from repro.frames import FrameType
from repro.viz import bar_chart, table

FRACTIONS = (0.125, 0.25, 0.5, 1.0)

#: The congested-uplink cell every sweep point shares.
BASE = Experiment.scenario(
    "uniform",
    n_stations=16,
    duration_s=20.0,
    seed=53,
    uplink_pps=20.0,   # uplink-heavy: stations contend hard
    downlink_pps=2.0,
    obstructed_fraction=0.0,
).fix(
    room_width_m=36.0,
    room_depth_m=24.0,
    shadowing_sigma_db=6.0,
    path_loss_exponent=3.2,
    station_tx_power_dbm=12.0,
    rate_adaptation_kwargs={"up_threshold": 5, "down_threshold": 3},
).analyses("summary")  # fairness reads the trace directly; skip the full report


def run_fraction(fraction: float) -> dict:
    result = BASE.fix(rtscts_fraction=fraction).run(keep_trace=True)
    sim = result.scenario_result
    fairness = rts_cts_fairness(sim.trace, sim.roster)
    rts = len(sim.trace.only_type(FrameType.RTS))
    cts = len(sim.trace.only_type(FrameType.CTS))
    return {
        "rtscts_fraction": fraction,
        "pop_share": round(fairness.rtscts_population, 3),
        "goodput_share": round(fairness.rtscts_share, 3),
        "fairness_index": round(fairness.fairness_index, 3),
        "airtime_per_frame_us": round(fairness.rtscts_airtime_per_delivery_us),
        "overhead_ratio": round(fairness.airtime_overhead_ratio, 2),
        "rts_seen": rts,
        "cts_seen": cts,
    }


def main() -> None:
    rows = []
    for fraction in FRACTIONS:
        print(f"running with {fraction:.0%} RTS/CTS stations ...")
        rows.append(run_fraction(fraction))

    print()
    print(table(rows, title="RTS/CTS users' channel share under congestion"))
    print(
        bar_chart(
            [f"{r['rtscts_fraction']:.0%}" for r in rows],
            [r["overhead_ratio"] for r in rows],
            title="airtime cost per delivered frame vs plain users (1.0 = equal)",
        )
    )
    print(
        "Paper §6.1 finds the RTS/CTS minority is denied fair access.  In\n"
        "this reproduction the frame-count fairness index dips only slightly\n"
        "below 1 (our collision model has no hidden-terminal loss among the\n"
        "co-located stations), but the *airtime* cost per delivered frame\n"
        "shows the structural penalty directly: every handshake delivery\n"
        "pays RTS + CTS + two SIFS, ~1.5-1.7x the plain users' channel\n"
        "time — the efficiency deficit behind the paper's advice to avoid\n"
        "RTS/CTS during congestion."
    )


if __name__ == "__main__":
    main()
