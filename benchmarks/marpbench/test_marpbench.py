"""Tests of the benchmark itself: ``pytest benchmarks/marpbench -q`` (<60 s).

Not in the tier-1 ``testpaths``; they check the instrument, not the
program: the tail rule, the path->layer map, plane-field detection,
``--compare`` verdicts, and that every workload at 1/20 size is
consistent and repeats its simulated numbers exactly.
"""

import dataclasses
import json
import os

import pytest

import compare
import layers
import micro
import run
import workloads


# -- tail percentile ------------------------------------------------------------


@pytest.mark.parametrize("samples, expected", [
    (30_000, 99.9), (1000, 99.0), (999, 95.0), (500, 95.0), (200, 95.0),
    (199, 90.0), (150, 90.0), (100, 90.0), (99, 75.0), (10, 50.0),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(samples, expected):
    assert workloads.tail_percentile(samples) == expected


def test_tail_of_a_streaming_pass_uses_only_the_estimates_it_has():
    assert workloads.tail_percentile(1000, available=(99.0, 50.0)) == 99.0
    assert workloads.tail_percentile(650, available=(99.0, 50.0)) == 50.0


# -- layers -----------------------------------------------------------------------


def test_every_source_file_maps_to_a_layer():
    package = os.path.join(run.SRC, "repro")
    unmapped = []
    for folder, _dirs, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                relpath = os.path.relpath(os.path.join(folder, name), package)
                if layers.layer_of(relpath) not in layers.LAYERS:
                    unmapped.append(relpath)
    assert unmapped == []


def test_layer_map_special_cases():
    assert layers.layer_of("core/machines/replay.py") == "harness"
    assert layers.layer_of("core/machines/table.py") == "machines"
    assert layers.layer_of("core/update_agent.py") == "des_driver"
    assert layers.layer_of("cli.py") == "experiments"
    assert layers.layer_of("newpackage/thing.py") is None


def test_fold_profile_shares_sum_to_one_and_flag_unmapped_files():
    root = "/x/src/repro"
    stats = {
        (f"{root}/sim/core.py", 1, "step"): (10, 10, 2.0, 2.0, {}),
        (f"{root}/core/machines/table.py", 1, "update"): (5, 5, 1.0, 1.0, {}),
        (f"{root}/brandnew/mod.py", 1, "f"): (1, 1, 0.5, 0.5, {}),
        ("/usr/lib/python3/heapq.py", 1, "merge"): (2, 2, 0.5, 0.5, {}),
    }
    folded = layers.fold_profile(stats, root)
    assert folded["trace.self_total_s"] == 4.0
    assert folded["sim.self_share"] == 0.5 and folded["sim.calls"] == 10
    assert folded["python.self_share"] == 0.125
    assert folded["trace.unmapped_share"] == pytest.approx(0.125)
    shares = sum(folded[f"{layer}.self_share"] for layer in layers.LAYERS)
    assert shares + folded["trace.unmapped_share"] == pytest.approx(1.0)


# -- refactor-proofing ----------------------------------------------------------------


def test_plane_fields_are_dropped_only_when_the_dataclass_lost_them():
    @dataclasses.dataclass
    class Slim:
        seed: int = 0

    assert workloads.known_fields(Slim, seed=1, streaming=False, delta_views=True) == {
        "seed": 1
    }
    # Anything that is not an opt-in plane field must still fail loudly.
    assert workloads.known_fields(Slim, write_fraction=0.1) == {"write_fraction": 0.1}
    with pytest.raises(TypeError):
        dataclasses.replace(Slim(), **workloads.known_fields(Slim, write_fraction=0.1))


def test_configs_build_through_scale_config_today():
    tour = workloads.WORKLOADS["marp_tour_n80"].build(3, 1.0)
    assert (tour.n_replicas, tour.requests_per_client, tour.streaming) == (80, 1, False)
    assert tour.delta_views is True
    mix = workloads.WORKLOADS["marp_lightmix_n5"].build(3, 1.0)
    assert (mix.write_fraction, mix.streaming, mix.delta_views) == (0.1, True, False)
    crash = workloads.WORKLOADS["marp_crash_n5"].build(3, 1.0)
    assert crash.faults.crashes.windows("s2") == [(2000.0, 4000.0)]
    assert crash.faults.crashes.windows("s4") == [(6000.0, 8000.0)]


def test_a_micro_whose_symbol_is_gone_reports_none_with_a_reason(monkeypatch):
    def gone():
        raise ImportError("cannot import name 'decide'")

    monkeypatch.setattr(micro, "MICROS", {"machines.x": ("1/s", gone, 1),
                                          "fine": ("1/s", lambda: 2.0, 3)})
    rows = micro.run_micros()
    assert rows["machines.x"]["value"] is None
    assert "decide" in rows["machines.x"]["reason"]
    assert rows["fine"] == {"value": 2.0, "unit": "1/s", "reason": None}


# -- the contract file ------------------------------------------------------------------


def test_benchmark_json_names_what_the_benchmark_prints():
    with open(os.path.join(run.REPO_ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in contract["end_to_end"]}
    assert declared == {
        name: (compare.END_TO_END[name].unit, compare.END_TO_END[name].better)
        for name in run.CONTRACT_END_TO_END
    }
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == run.per_layer_units()
    assert contract["paths"] == ["benchmarks/marpbench"]


# -- compare ------------------------------------------------------------------------------


def _document(tmp_path, name, **metrics):
    """A one-workload document; each metric is a list of samples."""
    entry = {
        "sim_fingerprint": "f", "tail_percentile": 99.0,
        "end_to_end": {
            metric: compare.summarize(metric, values)
            for metric, values in metrics.items()
        },
    }
    path = tmp_path / name
    path.write_text(json.dumps({"schema": "marpbench/v1", "workloads": {"w": entry}}))
    return str(path)


def test_compare_accepts_equal_documents(tmp_path, capsys):
    a = _document(tmp_path, "a.json", ops_per_s=[100.0, 101.0, 99.0], att_ms_p50=[20.0, 20.0])
    b = _document(tmp_path, "b.json", ops_per_s=[100.5, 99.5, 100.0], att_ms_p50=[20.0, 20.0])
    assert compare.compare_documents(a, b) == 0
    out = capsys.readouterr().out
    assert "regression" not in out and "unresolved" not in out
    assert out.count("\nw: ") == 1  # one row per workload


def test_compare_flags_a_regression_beyond_the_bound(tmp_path, capsys):
    a = _document(tmp_path, "a.json", ops_per_s=[100.0, 101.0, 99.0], att_ms_p50=[20.0, 20.0])
    b = _document(tmp_path, "b.json", ops_per_s=[85.0, 86.0, 84.0], att_ms_p50=[20.5, 20.5])
    assert compare.compare_documents(a, b) == 1
    out = capsys.readouterr().out
    assert "REGRESSION: w.ops_per_s, w.att_ms_p50" in out


def test_compare_reports_unresolved_when_spread_exceeds_the_bound(tmp_path, capsys):
    # Passes of a run have inputs of their own: their spread is not noise ...
    a = _document(tmp_path, "a.json", ops_per_s=[80.0, 100.0, 120.0])
    same = _document(tmp_path, "same.json", ops_per_s=[81.0, 99.0, 120.0])
    assert compare.compare_documents(a, same) == 0
    assert "unresolved" not in capsys.readouterr().out
    # ... the spread of the pass-by-pass ratios is.
    noisy = _document(tmp_path, "noisy.json", ops_per_s=[64.0, 100.0, 125.0])
    assert compare.compare_documents(a, noisy) == 0
    assert "ops_per_s +0.0% unresolved" in capsys.readouterr().out
    # Unless every pass of B beats its pass of A.
    better = _document(tmp_path, "better.json", ops_per_s=[90.0, 150.0, 170.0])
    assert compare.compare_documents(a, better) == 0
    assert "unresolved" not in capsys.readouterr().out


def test_compare_refuses_documents_with_different_pass_counts(tmp_path):
    a = _document(tmp_path, "a.json", ops_per_s=[100.0, 101.0])
    b = _document(tmp_path, "b.json", ops_per_s=[100.0, 101.0, 102.0])
    assert compare.compare_documents(a, b) == 2


def test_compare_failed_share_must_not_rise(tmp_path):
    a = _document(tmp_path, "a.json", failed_share=[0.0, 0.0])
    b = _document(tmp_path, "b.json", failed_share=[0.001, 0.001])
    assert compare.compare_documents(a, b) == 1
    assert compare.compare_documents(b, a) == 0


def test_compare_rejects_malformed_input(tmp_path):
    good = _document(tmp_path, "a.json", ops_per_s=[1.0])
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"schema": "repro-bench/v1", "workloads": {}}))
    assert compare.compare_documents(good, str(bad)) == 2
    assert compare.compare_documents(good, str(other)) == 2
    assert compare.compare_documents(good, str(tmp_path / "missing.json")) == 2
    assert run.main(["--compare", good, str(bad)]) == 2


# -- the workloads, small -------------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_at_one_twentieth_is_consistent_and_deterministic(name):
    first = run._spawn("pass", name, 3, scale=0.05)
    second = run._spawn("pass", name, 3, scale=0.05)
    run._gate(name, [first, second], same_inputs=True)  # no problems, equal fingerprints
    assert first["committed"] >= 1
    assert first["attempted"] >= first["committed"] + first["failed"] + first["open"]
    if workloads.WORKLOADS[name].backend == "des":
        simulated = ("att_ms_p50", "att_ms_tail", "alt_ms_mean", "messages", "wire_bytes")
        assert [first[k] for k in simulated] == [second[k] for k in simulated]


def test_passes_of_a_run_get_distinct_seeds_fixed_by_the_run_seed():
    seeds = [run.pass_seed(seed, index) for seed in (1, 2, 3) for index in range(4)]
    assert len(set(seeds)) == len(seeds)
    assert run.pass_seed(3, 1) == run.pass_seed(3, 1)


def test_gate_refuses_problems_and_fingerprint_drift():
    clean = {"problems": [], "sim_fingerprint": "a"}
    other_inputs = {"problems": [], "sim_fingerprint": "b"}
    run._gate("w", [clean, other_inputs])  # passes of one run differ by design
    with pytest.raises(run.BenchFailure, match="fingerprint"):
        run._gate("w", [clean, other_inputs], same_inputs=True)
    with pytest.raises(run.BenchFailure, match="inconsistent"):
        run._gate("w", [clean, {"problems": ["audit: inconsistent"], "sim_fingerprint": "a"}])
