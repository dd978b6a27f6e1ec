"""The claims table: rows, verdicts, exit codes and output formats."""

import csv
import dataclasses
import io
import json

import pytest

from repro.analysis.tables import Table
from repro.cli import main
from repro.experiments import claims
from repro.experiments.runner import RunConfig, config_key, config_payload
from repro.net.faults import CrashSchedule, FaultPlan, TransientLinkFaults

IDS = ["F2", "F3", "F4", "T1", "T2", "T3", "A1", "A2", "A3", "S1", "F1",
       "X1", "X2"]


def _pin(monkeypatch, claim_id, table):
    """Make a claim 'measure' ``table`` without running anything."""
    claim = claims.CLAIMS[claim_id]
    monkeypatch.setitem(claims.CLAIMS, claim_id, dataclasses.replace(
        claim, measure=lambda runner, **grid: table,
    ))


def _t1(marp_msgs, marp_consistent=True):
    return Table(
        "T1", ["protocol", "net", "ATT(ms)", "msgs/commit", "consistent"],
        [["marp", "lan", 25.0, marp_msgs, marp_consistent],
         ["mcv", "lan", 320.0, 70.0, True],
         ["weighted-voting", "lan", 220.0, 60.0, True]],
        keys=2,
    )


def _a2(hops_on, consistent=True):
    return Table(
        "A2", ["enable_bulletin", "agent hops", "consistent"],
        [[True, hops_on, consistent], [False, 265.0, True]],
    )


class TestRows:
    def test_every_paper_statement_is_a_row(self):
        assert list(claims.CLAIMS) == IDS
        for claim in claims.CLAIMS.values():
            assert claim.quote and claim.bound
            # --quick shrinks a grid's axes, it adds none
            assert set(claim.quick) <= set(claim.full) | {"max_requests"}

    def test_only_a2_is_an_expected_failure(self):
        assert [c.id for c in claims.CLAIMS.values()
                if c.fails_because] == ["A2"]

    def test_doctored_table_flips_the_verdict(self, monkeypatch, capsys):
        t1 = claims.CLAIMS["T1"]
        assert t1.verdict(_t1(17.9)).holds
        doctored = _t1(36.0)  # more than half of MCV's 70 msgs/commit
        verdict = t1.verdict(doctored)
        assert not verdict.holds and not verdict.as_expected
        _pin(monkeypatch, "T1", doctored)
        assert main(["claims", "T1"]) == 1
        out = capsys.readouterr().out
        assert "UNEXPECTED verdicts: T1" in out

    def test_expected_failure_that_holds_exits_1(self, monkeypatch, capsys):
        sharing_helps = _a2(240.0)
        verdict = claims.CLAIMS["A2"].verdict(sharing_helps)
        assert verdict.holds and not verdict.expected
        _pin(monkeypatch, "A2", sharing_helps)
        assert main(["claims", "A2"]) == 1
        assert "UNEXPECTED verdicts: A2" in capsys.readouterr().out

    def test_expected_failure_that_fails_exits_0(self, monkeypatch, capsys):
        _pin(monkeypatch, "A2", _a2(266.0))
        assert main(["claims", "A2"]) == 0
        out = capsys.readouterr().out
        assert "A2 is expected to fail: sharing saves no visits" in out

    def test_an_inconsistent_run_fails_the_claim(self, monkeypatch, capsys):
        verdict = claims.CLAIMS["T1"].verdict(_t1(17.9, False))
        assert not verdict.holds and not verdict.as_expected
        assert verdict.measured.endswith("consistency audit VIOLATED")
        _pin(monkeypatch, "T1", _t1(17.9, False))
        assert main(["claims", "T1"]) == 1
        assert "UNEXPECTED verdicts: T1" in capsys.readouterr().out

    def test_an_inconsistent_expected_failure_exits_1(self, monkeypatch):
        verdict = claims.CLAIMS["A2"].verdict(_a2(266.0, False))
        assert not verdict.holds and not verdict.as_expected
        _pin(monkeypatch, "A2", _a2(266.0, False))
        assert main(["claims", "A2"]) == 1

    def test_a_figure_with_violations_fails(self):
        figure = Table(
            "Figure 2", ["mean inter-arrival (ms)", "3 servers"],
            [[20, 30.0], [80, 10.0]],
            note="consistency audit: all runs consistent",
        )
        assert claims.CLAIMS["F2"].verdict(figure).holds
        figure.note = "consistency audit: VIOLATIONS"
        assert not claims.CLAIMS["F2"].verdict(figure).holds

    def test_an_inconsistent_scale_run_fails_x2(self):
        def x2(consistent):
            return Table(
                "X2", ["protocol", "variant", "gap(ms)", "tput/s",
                       "consistent"],
                [["marp", "wan", 10.0, 120.0, consistent],
                 ["marp", "wan", 40.0, 60.0, True],
                 ["mcv", "wan", 10.0, 80.0, True],
                 ["mcv", "wan", 40.0, 70.0, True]],
                keys=3,
            )

        assert claims.CLAIMS["X2"].verdict(x2(True)).holds
        verdict = claims.CLAIMS["X2"].verdict(x2(False))
        assert not verdict.holds and not verdict.consistent

    def test_x2_fails_where_marp_falls_behind_the_quorum_baseline(self):
        def x2(marp_tput):
            return Table(
                "X2", ["protocol", "variant", "gap(ms)", "tput/s",
                       "consistent"],
                [["marp", "base", 10.0, marp_tput, True],
                 ["marp", "wan", 10.0, 30.0, True],
                 ["mcv", "base", 10.0, 300.0, True],
                 ["mcv", "wan", 10.0, 10.0, True]],
                keys=3,
            )

        held = claims.CLAIMS["X2"].verdict(x2(285.0))
        assert held.holds
        assert held.measured == (
            "MARP/MCV throughput at 10 ms gaps 0.95–3.00 over 2 variants"
        )
        assert not claims.CLAIMS["X2"].verdict(x2(284.0)).holds


class TestRunning:
    def test_jobs_output_is_byte_identical(self, capsys):
        argv = ["claims", "T1", "--quick", "--requests", "3"]
        main(argv)
        serial = capsys.readouterr().out
        main(argv + ["-j", "2"])
        assert capsys.readouterr().out == serial
        assert "T1: protocol comparison" in serial

    def test_shared_grids_run_once(self):
        calls = []

        class Counting:
            def run_repeats_many(self, configs, repeats):
                calls.append(len(configs))
                from repro.experiments.parallel import ParallelRunner

                return ParallelRunner().run_repeats_many(configs, repeats)

        report = claims.measure_claims(
            ["F2", "F3", "F4"], quick=True, requests=2, repeats=1,
            runner=Counting(),
        )
        # F3 sweeps F2's grid and F4 its N=5 column: nothing re-runs
        assert calls == [9, 0, 0]
        assert len(report.tables) == 3

    def test_every_claim_renders_csv_and_json(self, capsys):
        argv = ["claims", "--quick", "--requests", "2"]
        main(argv + ["--format", "csv"])
        blocks = capsys.readouterr().out.strip("\n").split("\n\n")
        assert [b.splitlines()[0] for b in blocks] == IDS + ["verdicts"]
        for block in blocks:
            label, header, *rows = list(csv.reader(io.StringIO(block)))
            assert rows and all(len(row) == len(header) for row in rows)
        # the same runs, as one JSON document
        main(argv + ["--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert [c["id"] for c in document["claims"]] == IDS
        for claim in document["claims"]:
            assert claim["verdict"] in ("holds", "fails")
            assert claim["table"]["rows"]
        assert isinstance(document["as_expected"], bool)

    def test_unknown_format_rejected(self):
        with pytest.raises(SystemExit):
            main(["claims", "--format", "xml"])


BASE = RunConfig(
    n_replicas=3, seed=5, mean_interarrival=80.0, requests_per_client=3
)

#: One changed value per RunConfig field (all different from BASE).
FIELD_CHANGES = {
    "protocol": "primary-copy",
    "n_replicas": 5,
    "seed": 6,
    "mean_interarrival": 80.5,
    "requests_per_client": 4,
    "write_fraction": 0.9,
    "keys": ("x", "y"),
    "latency": "wan",
    "topology": "random-costs",
    "horizon": 4_000_000.0,
    "faults": FaultPlan(crashes=CrashSchedule().add("s1", 10.0, 20.0)),
    "enable_bulletin": False,
    "protocol_kwargs": {"quorum": 2},
    "audit_exclude": ("s1",),
    "streaming": True,
    "key_skew": 0.8,
    "n_keys": 32,
}


def _fault_plan(drop=0.0, crash_window=(10.0, 20.0), outage=None):
    crashes = CrashSchedule().add("s1", *crash_window)
    links = TransientLinkFaults(drop_probability=drop)
    if outage is not None:
        links.add_outage("s1", "s2", *outage)
    return FaultPlan(crashes=crashes, links=links)


class TestMemoKey:
    """The memo runs a grid cell once per distinct config: the key must
    tell every two configs apart that could measure differently."""

    def test_identical_configs_same_key(self):
        assert config_key(BASE) == config_key(BASE.with_())

    def test_every_field_is_in_the_payload_even_at_its_default(self):
        payload = config_payload(RunConfig())
        assert set(payload) == {
            f.name for f in dataclasses.fields(RunConfig)
        }

    def test_every_field_change_changes_key(self):
        field_names = {f.name for f in dataclasses.fields(RunConfig)}
        assert field_names == set(FIELD_CHANGES), (
            "FIELD_CHANGES out of sync with RunConfig — add the new "
            "field so its memo-key sensitivity is covered"
        )
        base_key = config_key(BASE)
        keys = {base_key}
        for name, value in FIELD_CHANGES.items():
            key = config_key(BASE.with_(**{name: value}))
            assert key != base_key, f"changing {name!r} did not change the key"
            keys.add(key)
        # and all changes are mutually distinct
        assert len(keys) == len(FIELD_CHANGES) + 1

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda: _fault_plan(crash_window=(10.0, 25.0)),
            lambda: _fault_plan(drop=0.05),
            lambda: _fault_plan(outage=(50.0, 60.0)),
        ],
        ids=["crash-window", "drop-probability", "link-outage"],
    )
    def test_nested_fault_plan_fields_change_key(self, mutate):
        base = config_key(BASE.with_(faults=_fault_plan()))
        assert config_key(BASE.with_(faults=mutate())) != base

    def test_protocol_kwargs_without_json_form_raise(self):
        bad = BASE.with_(protocol_kwargs={"hook": lambda: None})
        with pytest.raises(TypeError):
            config_key(bad)
