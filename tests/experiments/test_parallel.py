"""Engine behaviour: seed derivation, defaults, telemetry, CLI flags.

Byte-equivalence of serial and pool execution lives in
``test_determinism.py``; this module covers the engine's own
contracts — the stream-splitting repeat-seed derivation that replaced
the colliding ``seed + i`` scheme, the process-wide default runner, the
engine's telemetry, and the CLI flag that configures it.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments.parallel import (
    ParallelRunner,
    get_default_runner,
    set_default_runner,
)
from repro.experiments.runner import (
    RunConfig,
    repeat_configs,
    repeat_seeds,
    result_fingerprint,
    run_once,
    run_repeats,
)
from repro.experiments.claims import figure
from repro.obs.hub import ObservabilityHub, set_hub
from repro.sim.rng import spawn_seed

#: The result cache's switches, which the CLI rejects now that every
#: number comes from a run (the CI grep for them skips this one line).
REMOVED_FLAGS = [["--cache-dir", "d"], ["--no-cache"]]

QUICK = RunConfig(
    n_replicas=3, seed=0, mean_interarrival=80.0, requests_per_client=3
)


class TestRunnerBasics:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ExperimentError, match="jobs"):
            ParallelRunner(jobs=0)

    @pytest.mark.parametrize(
        ("jobs", "parallel"), [(None, False), (1, False), (2, True)]
    )
    def test_parallel_property(self, jobs, parallel):
        assert ParallelRunner(jobs=jobs).parallel is parallel

    def test_serial_runner_keeps_live_deployment(self):
        result = ParallelRunner().run_one(QUICK)
        assert result.deployment is not None

    def test_close_is_idempotent(self):
        runner = ParallelRunner(jobs=2)
        runner.run_one(QUICK)
        runner.close()
        runner.close()
        # a closed runner lazily rebuilds its pool on next use
        assert result_fingerprint(runner.run_one(QUICK)) == (
            result_fingerprint(run_once(QUICK))
        )
        runner.close()


class TestRepeatSeedDerivation:
    """Regression for the old ``seed + i`` child-seed scheme.

    Under ``seed + i``, repeats of base seed ``s`` were
    ``s, s+1, ..., s+r-1`` — adjacent sweep points shared almost all
    their child seeds, silently correlating supposedly independent
    repeats. Stream splitting derives children that never collide
    across adjacent bases.
    """

    def test_adjacent_base_seeds_share_no_child_seeds(self):
        for base in (0, 1, 7, 99, 12345):
            a = set(repeat_seeds(base, 10))
            b = set(repeat_seeds(base + 1, 10))
            assert not a & b, f"bases {base}/{base + 1} collide"

    def test_children_distinct_within_base(self):
        seeds = repeat_seeds(0, 50)
        assert len(set(seeds)) == 50

    def test_derivation_is_stable(self):
        assert repeat_seeds(0, 3) == repeat_seeds(0, 3)
        assert repeat_seeds(0, 3) == [
            spawn_seed(0, "experiment.repeat", i) for i in range(3)
        ]

    def test_repeat_configs_only_change_seed(self):
        children = repeat_configs(QUICK, 3)
        assert [c.with_(seed=QUICK.seed) for c in children] == [QUICK] * 3
        assert [c.seed for c in children] == repeat_seeds(QUICK.seed, 3)

    def test_run_repeats_uses_derived_seeds(self):
        results = run_repeats(QUICK, repeats=3)
        assert [r.config.seed for r in results] == repeat_seeds(QUICK.seed, 3)

    def test_run_repeats_rejects_bad_count(self):
        with pytest.raises(ExperimentError):
            run_repeats(QUICK, repeats=0)


class TestDefaultRunner:
    def test_default_is_serial_uncached(self):
        runner = get_default_runner()
        assert runner.parallel is False
        assert get_default_runner() is runner

    def test_set_default_returns_previous(self):
        original = get_default_runner()
        replacement = ParallelRunner()
        try:
            assert set_default_runner(replacement) is original
            assert get_default_runner() is replacement
        finally:
            set_default_runner(original)

    def test_run_repeats_routes_through_installed_default(self):
        ran = []

        class Recording(ParallelRunner):
            def run_many(self, configs):
                ran.extend(configs)
                return super().run_many(configs)

        original = set_default_runner(Recording())
        try:
            run_repeats(QUICK, repeats=2)
        finally:
            set_default_runner(original)
        assert ran == repeat_configs(QUICK, 2)


class TestEngineTelemetry:
    def _run_under_hub(self, runner):
        from repro.obs.hub import get_hub

        hub = ObservabilityHub()
        previous = get_hub()
        set_hub(hub)
        try:
            with runner:
                runner.run_one(QUICK)
        finally:
            set_hub(previous)
        return hub

    @pytest.mark.parametrize("jobs,mode", [(1, "serial"), (2, "pool")])
    def test_runs_counter_and_wall_histogram(self, jobs, mode):
        hub = self._run_under_hub(ParallelRunner(jobs=jobs))
        counter = hub.registry.get("experiment_engine_runs_total")
        assert counter is not None and counter.value(mode=mode) == 1
        histogram = hub.registry.get("experiment_run_wall_ms")
        assert histogram is not None and histogram.count() == 1


class TestSweepThroughEngine:
    def test_sweep_accepts_runner(self):
        class Recording:
            """The engine, keeping every result it hands a grid."""

            def __init__(self, runner):
                self.runner, self.results = runner, []

            def run_repeats_many(self, configs, repeats):
                grouped = self.runner.run_repeats_many(configs, repeats)
                self.results += [r for rs in grouped for r in rs]
                return grouped

        grid = dict(title="t", metric="att", server_counts=(3, 5),
                    gaps=(80.0,), requests=3, repeats=2, seed=0)
        serial = Recording(ParallelRunner())
        serial_table = figure(serial, **grid)
        with ParallelRunner(jobs=2) as runner:
            pooled = Recording(runner)
            assert figure(pooled, **grid) == serial_table
        assert len(pooled.results) == 4  # every run went through it
        assert [result_fingerprint(r) for r in pooled.results] == [
            result_fingerprint(r) for r in serial.results
        ]


class TestCLIFlags:
    def test_parser_accepts_engine_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["claims", "F4", "--quick", "-j", "2"])
        assert args.jobs == 2

    @pytest.mark.parametrize("flag", REMOVED_FLAGS)
    def test_no_result_cache_flags(self, flag, capsys):
        """Every number comes from a run: there is no cache to point at."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["claims", "F4", "--quick", *flag])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_build_runner_default_is_none(self):
        from repro.cli import _build_runner, build_parser

        args = build_parser().parse_args(["claims", "F4", "--quick"])
        assert _build_runner(args) is None

    def test_build_runner_rejects_bad_jobs(self):
        from repro.cli import _build_runner, build_parser

        args = build_parser().parse_args(
            ["claims", "F4", "--quick", "-j", "0"]
        )
        with pytest.raises(SystemExit):
            _build_runner(args)

    def test_cli_jobs_output_matches_serial(self, capsys):
        from repro.cli import main

        assert main(["claims", "F4", "--quick"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["claims", "F4", "--quick", "-j", "2"]) == 0
        assert capsys.readouterr().out == serial_out
