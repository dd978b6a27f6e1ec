"""Tests for the CLI entry point (tiny fast settings)."""

import csv
import io
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_accepted(self):
        parser = build_parser()
        for command in ("claims", "scale", "live", "obs", "adversary"):
            assert parser.parse_args([command]).command == command

    def test_retired_subcommands_are_gone(self, capsys):
        # their tables are claim rows now: `repro claims F2 T1 ...`
        for command in (
            "fig2", "fig3", "fig4", "compare", "wan", "theorems",
            "ablations", "scalability", "availability", "throughput",
            "all",
        ):
            with pytest.raises(SystemExit) as excinfo:
                main([command])
            assert excinfo.value.code == 2
            assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_claim_ids_are_checked(self, capsys):
        with pytest.raises(SystemExit):
            main(["claims", "F9"])
        assert "unknown claim id(s) F9" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["live", "F2"])
        assert "claim ids are for the claims command" \
            in capsys.readouterr().err

    def test_format_only_where_there_is_a_table(self, capsys):
        with pytest.raises(SystemExit):
            main(["live", "--format", "json"])
        assert "--format json applies to the claims and scale" \
            in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_defaults(self):
        args = build_parser().parse_args(["claims"])
        assert args.ids == []
        assert args.repeats == 2
        assert args.requests == 20
        assert args.seed == 0
        assert not args.quick
        assert args.format == "text"
        assert args.metrics_out is None
        assert args.trace_out is None
        assert args.trace_format == "jsonl"
        assert not args.self_check
        assert args.schedules == 200
        assert args.index is None
        assert args.replay is None
        assert args.save_failures is None
        assert args.hosts is None

    def test_options(self):
        args = build_parser().parse_intermixed_args(
            ["claims", "--quick", "F4", "--seed", "9", "--requests", "5",
             "--format", "json", "T1"]
        )
        assert args.ids == ["F4", "T1"]
        assert args.quick
        assert args.seed == 9
        assert args.requests == 5
        assert args.format == "json"


class TestExecution:
    def test_fig4_quick_text(self, capsys):
        code = main(["claims", "F4", "--quick", "--requests", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "K=3" in out
        assert "all 1 verdicts as expected" in out

    def test_fig4_quick_json(self, capsys):
        main(["claims", "f4", "--quick", "--requests", "4",
              "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        (claim,) = data["claims"]
        assert claim["id"] == "F4"
        assert claim["table"]["headers"][1:] == ["K=3", "K=4", "K=5"]

    def test_fig2_quick_csv(self, capsys):
        main(["claims", "F2", "--quick", "--requests", "4",
              "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "F2"
        header = lines[1]
        assert header.startswith("mean inter-arrival")
        assert "3 servers" in header

    def test_theorems_quick(self, capsys):
        code = main(["claims", "T3", "--quick", "--requests", "5"])
        assert code == 0
        assert "T3: Theorem 3 visit bounds" in capsys.readouterr().out
        main(["claims", "T3", "--quick", "--requests", "5",
              "--format", "json"])
        (claim,) = json.loads(capsys.readouterr().out)["claims"]
        bounds = {row["N"]: (row["lower bound"], row["upper bound"])
                  for row in claim["table"]["rows"]}
        assert bounds == {3: (2, 3), 5: (3, 5)}
        assert claim["verdict"] == claim["expected"] == "holds"

    def test_scale_renders_every_format(self, tmp_path, capsys):
        base = ["scale", "--quick", "--requests", "3"]
        assert main(base) == 0
        text = capsys.readouterr().out
        assert text.startswith("SCALE: offered load")
        curves = tmp_path / "curves.json"
        assert main(base + ["--format", "csv",
                            "--scale-out", str(curves)]) == 0
        captured = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert rows[0][:2] == ["protocol", "variant"]
        assert len(rows) == 1 + 12  # 2 protocols x 2 variants x 3 loads
        assert f"written to {curves}" in captured.err  # not in the CSV
        assert json.loads(curves.read_text())["schema"] == "repro-scale/v1"
        assert main(base + ["--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 12

    def test_live_quick(self, capsys):
        code = main(["live", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "committed 6/6" in out
        assert "consistent=True" in out


class TestObsCommand:
    def test_obs_quick_report(self, capsys):
        code = main(["obs", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "marp_att_ms" in out
        assert "consistent=True" in out
        assert "[obs] " in out

    def test_obs_self_check(self, capsys):
        code = main(["obs", "--self-check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        # passed/total, never the degenerate N/N-with-failures form
        import re

        match = re.search(r"(\d+)/(\d+) checks passed", out)
        assert match is not None
        assert match.group(1) == match.group(2)  # exit 0 => all passed

    def test_obs_self_check_reports_failures(self, capsys, monkeypatch):
        """A failing check yields passed<total and a nonzero exit."""
        import repro.obs.selfcheck
        from repro.obs.selfcheck import SelfCheckReport

        def broken(verbose=False):
            return SelfCheckReport(
                passed=["a", "b"], failed=["c: boom"]
            )

        monkeypatch.setattr(repro.obs.selfcheck, "self_check", broken)
        code = main(["obs", "--self-check"])
        captured = capsys.readouterr()
        assert code == 1
        assert "2/3 checks passed" in captured.out
        assert "FAILED: c: boom" in captured.err

    def test_obs_journey_table(self, capsys):
        code = main(["obs", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "agent journeys (critical path, ms)" in out
        assert "dominant" in out

    def test_trace_out_chrome_format(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main(["obs", "--quick",
                     "--trace-out", str(trace_path),
                     "--trace-format", "chrome"])
        assert code == 0
        with open(trace_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["displayTimeUnit"] == "ms"
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert any(e["name"] == "request" for e in spans)


class TestAdversaryCommand:
    def test_small_campaign_passes(self, capsys):
        code = main(["adversary", "--schedules", "10", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "10/10 schedules ok" in out
        assert "0 violations" in out

    def test_single_index_reproduction(self, capsys):
        code = main(["adversary", "--seed", "0", "--index", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "schedule 3 (seed 0): ok" in out

    def test_replay_corpus_schedule(self, capsys):
        code = main([
            "adversary", "--replay",
            "tests/machines/corpus/three_way_tie_break.json",
        ])
        assert code == 0
        assert "ok — statuses" in capsys.readouterr().out

    def test_fixed_hosts_flag(self, capsys):
        code = main(["adversary", "--schedules", "3", "--hosts", "3"])
        assert code == 0
        assert "3/3 schedules ok" in capsys.readouterr().out

    def test_violation_exits_nonzero_and_prints_reproduction(
        self, capsys, monkeypatch, tmp_path
    ):
        # Break the kernel's majority check: the campaign must fail,
        # name the schedule, print its reproduction command, and save
        # the shrunk JSON for corpus promotion.
        from unittest import mock

        from repro.core.machines.adversary import Schedule
        from repro.core.machines.agent import AgentMachine

        with mock.patch.object(
            AgentMachine, "vote_majority", property(lambda self: 1)
        ):
            code = main([
                "adversary", "--schedules", "60", "--seed", "0",
                "--save-failures", str(tmp_path),
            ])
        captured = capsys.readouterr()
        assert code == 1
        assert "VIOLATION [safety]" in captured.err
        assert "reproduce: PYTHONPATH=src python -m repro adversary" \
            in captured.err
        saved = sorted(tmp_path.glob("*.json"))
        assert saved
        # The saved script is directly loadable (and passes once the
        # kernel is fixed — i.e. unpatched).
        schedule = Schedule.load(str(saved[0]))
        assert main([
            "adversary", "--replay", str(saved[0]),
        ]) == 0

    def test_campaign_counters_reach_the_hub(self, tmp_path, capsys):
        from repro.obs.export import read_jsonl

        metrics_path = tmp_path / "m.jsonl"
        code = main([
            "adversary", "--schedules", "4",
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        names = {r["name"] for r in read_jsonl(str(metrics_path))}
        assert "adversary_schedules_total" in names
        assert "adversary_events_total" in names

    def test_adversary_leaves_no_global_hub(self, tmp_path):
        from repro.obs import get_hub

        main(["adversary", "--schedules", "2",
              "--metrics-out", str(tmp_path / "m.jsonl")])
        assert get_hub() is None


class TestBenchCommand:
    def test_bench_command_and_flags_are_gone(self, capsys):
        # benchmarks/marpbench/run.py is the only bench harness.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        flags = {
            flag for action in build_parser()._actions
            for flag in action.option_strings
        }
        assert not flags & {"--compare", "--out-dir", "--threshold"}
        assert not any("bench" in flag for flag in flags)
        import repro.obs

        for name in ("run_suite", "write_bench", "load_bench",
                     "compare_docs", "compare_paths", "bench"):
            assert not hasattr(repro.obs, name)

    def test_obs_leaves_no_global_hub(self):
        from repro.obs import get_hub

        main(["obs", "--quick"])
        assert get_hub() is None

    def test_unwritable_export_path_fails_fast(self):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["obs", "--quick",
                  "--metrics-out", "/nonexistent-dir/m.jsonl"])

    def test_metrics_out_on_experiment_command(self, tmp_path, capsys):
        from repro.obs.export import read_jsonl

        metrics_path = tmp_path / "m.jsonl"
        trace_path = tmp_path / "t.jsonl"
        code = main([
            "claims", "F4", "--quick", "--requests", "5",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"-> {metrics_path}" in out
        metrics = read_jsonl(str(metrics_path))
        assert len({r["name"] for r in metrics}) >= 6
        assert all(r["type"] == "metric" for r in metrics)
        trace = read_jsonl(str(trace_path))
        assert {r["type"] for r in trace} <= {"span", "event"}
        assert any(r["name"] == "experiment.run" for r in trace)
