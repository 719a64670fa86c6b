"""Self-test of the benchmark in tiny-size mode.

Runs every workload untraced and traced on tiny inputs and asserts
that every metric named in ``BENCHMARK.json`` is printed with its unit,
that every output check ran and passed, that the Chrome trace loads,
that the simulator and dispatch counts repeat exactly for a seed, and
that the benchmark refuses to run without the program's source.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

CHECKS = {
    "session": {
        0: {"session.digest_repeats"},
        1: {
            "session.digest_repeats",
            "session.traced_equals_api",
            "session.sim_counts_repeat",
        },
    },
    "corpus": {
        0: {
            "corpus.query_matches_all",
            "corpus.cold_dispatches_all",
            "corpus.container_matches_run_all",
            "corpus.warm_dispatches_nothing",
            "corpus.warm_equals_cold",
        },
        1: {
            "corpus.readback_frames",
            "corpus.warm_index_hashes_nothing",
            "corpus.plan_all_cached",
            "corpus.store_roundtrip",
            "corpus.pipeline_replay",
        },
    },
    "campaign": {
        0: {
            "campaign.cold_dispatches_all",
            "campaign.warm_all_store_hits",
            "campaign.warm_table_equals_cold",
        },
        1: {"campaign.store_roundtrip"},
    },
    "serve-live": {
        0: {
            "serve.feed_closed_with_all_frames",
            "serve.final_report_equals_batch",
            "serve.closed_report_stable",
            "serve.enough_polls",
            "serve.generator_on_time",
        },
        1: {"serve.replay_equals_batch"},
    },
}


def run_bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def parse(done) -> tuple[dict, set[str]]:
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    ran = {
        line.split()[1].rstrip(":")
        for line in lines
        if line.startswith("check ")
    }
    return json.loads(lines[-1]), ran


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(CHECKS))
def test_workload_prints_every_metric_and_runs_every_check(workload, trace):
    result, ran = parse(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    wanted = CHECKS[workload][0] | (CHECKS[workload][1] if trace else set())
    assert wanted <= ran


def test_trace_file_is_chrome_trace_json():
    parse(run_bench("session", 1))
    path = ROOT / ".perfbench-out" / "session-seed5-trace1.trace.json"
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {"sim.build", "sim.advance", "pipeline.close"} <= {e["name"] for e in spans}
    assert all(e["dur"] >= 0 and "run_id" in e["args"] for e in spans)


@pytest.mark.parametrize(
    "workload, counts",
    [
        ("session", ("sim.frames_transmitted", "sim.frames_captured",
                     "sim.events_processed", "sim.events_cancelled")),
        ("corpus", ("corpus.dispatched_cold", "corpus.dispatched_warm",
                    "sim.frames_captured")),
    ],
)
def test_counts_repeat_exactly_for_a_seed(workload, counts):
    first, _ = parse(run_bench(workload, 1, seed=9))
    second, _ = parse(run_bench(workload, 1, seed=9))
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    if workload == "corpus":
        assert first["metrics"]["corpus.dispatched_warm"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run_bench("session", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
