"""Tests for the command-line toolkit and the report renderer."""

import pytest

from repro.core import analyze_trace
from repro.core.render import render_report
from repro.tools import build_parser, main


class TestRenderReport:
    def test_sections_present(self, small_scenario):
        report = analyze_trace(
            small_scenario.trace, small_scenario.roster, name="render-test"
        )
        text = render_report(report)
        assert "render-test" in text
        assert "Capture summary" in text
        assert "Utilization per second" in text
        assert "Congestion classes" in text
        assert "Fig 6" in text
        assert "Unrecorded-frame estimate" in text
        assert "Most active APs" in text

    def test_render_without_roster(self, small_scenario):
        report = analyze_trace(small_scenario.trace, name="no-roster")
        text = render_report(report)
        assert "Most active APs" not in text  # AP section needs a roster


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "out.pcap", "--stations", "4"])
        assert args.command == "simulate"
        assert args.stations == 4

    def test_simulate_then_analyze_then_info(self, tmp_path, capsys):
        pcap = tmp_path / "cli.pcap"
        rc = main(
            [
                "simulate", str(pcap),
                "--stations", "4", "--duration", "4",
                "--uplink-pps", "6", "--downlink-pps", "10",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert pcap.exists()

        rc = main(["analyze", str(pcap), "--name", "cli-session"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli-session" in out
        assert "Congestion classes" in out

        rc = main(["info", str(pcap)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Capture summary" in out


    def test_analyze_empty_capture_fails(self, tmp_path, capsys):
        from repro.frames import Trace
        from repro.pcap import write_trace

        pcap = tmp_path / "empty.pcap"
        write_trace(Trace.empty(), pcap)
        rc = main(["analyze", str(pcap)])
        assert rc == 1
        assert "empty capture" in capsys.readouterr().err

    def test_analyze_mixed_empty_still_prints_nonempty(self, tmp_path, capsys):
        """One empty capture must not swallow the other reports."""
        from repro.frames import Trace
        from repro.pcap import write_trace

        good = tmp_path / "good.pcap"
        rc = main(
            [
                "simulate", str(good),
                "--stations", "3", "--duration", "3",
                "--uplink-pps", "5", "--downlink-pps", "8",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        empty = tmp_path / "empty.pcap"
        write_trace(Trace.empty(), empty)

        rc = main(["analyze", str(good), str(empty)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "Congestion classes" in captured.out  # good report printed
        assert "empty capture" in captured.err

    def test_analyze_bad_worker_and_chunk_args(self, tmp_path, capsys):
        rc = main(["analyze", "whatever.pcap", "--workers", "0"])
        assert rc == 2
        assert "--workers" in capsys.readouterr().err
        rc = main(["analyze", "whatever.pcap", "--chunk-frames", "0"])
        assert rc == 2
        assert "--chunk-frames" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCampaignCli:
    def test_list_scenarios(self, capsys):
        assert main(["campaign", "--list"]) == 0
        out = capsys.readouterr().out
        assert "ramp" in out and "hidden-terminal" in out

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["campaign", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_vary_syntax_rejected(self, capsys):
        rc = main(["campaign", "--vary", "n_stations"])
        assert rc == 2
        assert "campaign error" in capsys.readouterr().err

    def test_small_grid_runs_and_writes_summary(self, tmp_path, capsys):
        out_path = tmp_path / "campaign.txt"
        rc = main(
            [
                "campaign",
                "--scenario", "ramp",
                "--vary", "n_stations=4,6",
                "--fix", "duration_s=1.5",
                "--workers", "1",
                "--out", str(out_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 cells" in out
        assert "n_stations=4" in out
        assert out_path.exists()
        assert "utilization knee" in out_path.read_text()


class TestProfileFlag:
    def test_simulate_profile_prints_cprofile_table(self, tmp_path, capsys):
        from repro.tools import main

        rc = main(
            [
                "simulate",
                str(tmp_path / "prof.pcap"),
                "--stations", "3",
                "--duration", "1",
                "--profile",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cProfile [fidelity=default]: top 20 by cumulative time" in out
        assert "cumtime" in out

    def test_campaign_profile_forces_serial(self, capsys):
        from repro.tools import main

        rc = main(
            [
                "campaign",
                "--scenario", "ramp",
                "--vary", "n_stations=3",
                "--fix", "duration_s=1.0",
                "--workers", "4",
                "--profile",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "cProfile [fidelity=default]: top 20 by cumulative time" in captured.out
        assert "forces --workers 1" in captured.err


SPEC_TOML = """\
name = "cli-spec"
scenario = "ramp"

[params]
duration_s = 1.5

[vary]
n_stations = [3, 4]
"""


class TestRunCli:
    """The `run <spec>` subcommand (the repro.api front door on the CLI)."""

    def test_run_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "study.toml"
        spec.write_text(SPEC_TOML)
        rc = main(["run", str(spec), "--workers", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli-spec" in out
        assert "n_stations=3" in out and "n_stations=4" in out

    def test_validate_only(self, tmp_path, capsys):
        spec = tmp_path / "study.toml"
        spec.write_text(SPEC_TOML)
        rc = main(["run", str(spec), "--validate-only"])
        assert rc == 0
        assert "OK (campaign, 2 cells)" in capsys.readouterr().out

    def test_set_overrides_params(self, tmp_path, capsys):
        spec = tmp_path / "study.toml"
        spec.write_text('scenario = "ramp"\n[params]\nduration_s = 1.5\n')
        rc = main(
            ["run", str(spec), "--set", "n_stations=3", "--validate-only"]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(["run", str(spec), "--set", "n_statoins=3"])
        assert rc == 2
        assert "did you mean 'n_stations'" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        import json

        spec = tmp_path / "study.toml"
        spec.write_text(SPEC_TOML.replace("[3, 4]", "[3]"))
        rc = main(["run", str(spec), "--workers", "1", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "campaign"
        assert payload["spec"]["name"] == "cli-spec"

    def test_store_resume_round_trip(self, tmp_path, capsys):
        spec = tmp_path / "study.toml"
        spec.write_text(SPEC_TOML)
        store = tmp_path / "store"
        rc = main(["run", str(spec), "--workers", "1", "--store", str(store)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["run", str(spec), "--workers", "1", "--store", str(store)])
        assert rc == 0
        assert "2 from store" in capsys.readouterr().out

    def test_missing_spec_file(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.toml")])
        assert rc == 2
        assert "cannot read spec" in capsys.readouterr().err

    def test_unknown_spec_key_suggests(self, tmp_path, capsys):
        spec = tmp_path / "bad.toml"
        spec.write_text('scenario = "ramp"\n[varry]\nn_stations = [3]\n')
        rc = main(["run", str(spec)])
        assert rc == 2
        assert "did you mean 'vary'" in capsys.readouterr().err

    def test_out_writes_rendered_result(self, tmp_path, capsys):
        spec = tmp_path / "study.toml"
        spec.write_text(SPEC_TOML.replace("[3, 4]", "[3]"))
        out_path = tmp_path / "result.txt"
        rc = main(["run", str(spec), "--workers", "1", "--out", str(out_path)])
        assert rc == 0
        assert "n_stations=3" in out_path.read_text()


class TestTypoSuggestions:
    """Silent-typo fix: unknown keys fail fast with suggestions."""

    def test_campaign_vary_typo_suggests(self, capsys):
        rc = main(
            ["campaign", "--scenario", "ramp", "--vary", "n_statoins=3,4"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "did you mean 'n_stations'" in err

    def test_campaign_fix_typo_suggests(self, capsys):
        rc = main(
            [
                "campaign",
                "--scenario", "ramp",
                "--vary", "n_stations=3",
                "--fix", "durration_s=1.0",
            ]
        )
        assert rc == 2
        assert "did you mean 'duration_s'" in capsys.readouterr().err

    def test_campaign_scenario_typo_suggests(self, capsys):
        rc = main(["campaign", "--scenario", "rampp", "--vary", "n_stations=3"])
        assert rc == 2
        assert "did you mean 'ramp'" in capsys.readouterr().err


class TestServeCli:
    def test_parser_serve_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0"])
        assert args.command == "serve"
        assert args.port == 0
        assert args.host == "127.0.0.1"
        assert args.queue_chunks == 8
        assert args.max_feeds == 64
        assert args.port_file is None

    def test_analyze_truncated_capture_reports_failure(self, tmp_path, capsys):
        """A broken file is reported on stderr; good reports still print."""
        good = tmp_path / "good.pcap"
        rc = main(
            [
                "simulate", str(good),
                "--stations", "3", "--duration", "3",
                "--uplink-pps", "5", "--downlink-pps", "8",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        broken = tmp_path / "broken.pcap"
        broken.write_bytes(good.read_bytes()[:-11])

        rc = main(["analyze", str(good), str(broken)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "Congestion classes" in captured.out
        assert "TruncatedPcapError" in captured.err

    def test_serve_subprocess_end_to_end(self, tmp_path):
        """Boot the real daemon process, drive it with urllib, SIGINT it."""
        import json
        import os
        import signal
        import subprocess
        import sys
        import urllib.request

        from tests.waiting import wait_until

        def _assert_alive(proc):
            assert proc.poll() is None, proc.stdout.read().decode()

        port_file = tmp_path / "ports.json"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--port-file", str(port_file),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            wait_until(
                port_file.exists,
                timeout_s=60,
                message="daemon never wrote ports",
                on_tick=lambda: _assert_alive(proc),
            )
            port = json.loads(port_file.read_text())["http_port"]
            base = f"http://127.0.0.1:{port}"
            health = json.load(
                urllib.request.urlopen(base + "/health", timeout=10)
            )
            assert health["status"] == "ok"
            request = urllib.request.Request(
                base + "/feeds",
                data=json.dumps(
                    {
                        "kind": "scenario",
                        "scenario": "ramp",
                        "params": {"duration_s": 1},
                        "name": "sim",
                    }
                ).encode(),
            )
            feed = json.load(urllib.request.urlopen(request, timeout=30))
            assert feed["id"] == "sim"
            def _feed_settled():
                info = json.load(
                    urllib.request.urlopen(base + "/feeds/sim", timeout=10)
                )
                # "draining" is transient: wait for a terminal state.
                return info if info["state"] not in ("running", "draining") else None

            info = wait_until(
                _feed_settled, timeout_s=60, message="scenario never finished"
            )
            assert info["state"] == "closed"
            report = json.load(
                urllib.request.urlopen(base + "/feeds/sim/report", timeout=10)
            )
            assert report["summary"]["frames"] == info["frames_in"]
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
