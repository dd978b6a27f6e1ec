"""Result-cache correctness: keying, invalidation, corruption handling.

The cache may only ever serve a result for a *byte-identical* config
under the *same* code version. These tests pin the key down: a hit on
an unchanged config, a miss on every single-field change (including
fields nested inside :class:`FaultPlan` and the MARP-only knobs), a
miss after a code-version bump, and a warning + live-run fallback for
corrupted or truncated entries.
"""

import pickle

import pytest

from repro._version import __version__
from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    code_version,
    config_key,
    config_payload,
    result_fingerprint,
)
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import RunConfig, run_once
from repro.net.faults import CrashSchedule, FaultPlan, TransientLinkFaults

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


class TestConfigKey:
    def test_identical_configs_same_key(self):
        assert config_key(BASE) == config_key(BASE.with_())

    def test_every_field_is_in_the_payload_even_at_its_default(self):
        import dataclasses

        payload = config_payload(RunConfig())
        assert set(payload) == {
            f.name for f in dataclasses.fields(RunConfig)
        }

    def test_every_field_change_changes_key(self):
        import dataclasses

        field_names = {f.name for f in dataclasses.fields(RunConfig)}
        assert field_names == set(FIELD_CHANGES), (
            "FIELD_CHANGES out of sync with RunConfig — add the new "
            "field so its cache-key sensitivity is covered"
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

    def test_code_version_bump_changes_key(self):
        assert config_key(BASE) != config_key(BASE, version="other-version")

    def test_uncacheable_protocol_kwargs_raise(self):
        bad = BASE.with_(protocol_kwargs={"hook": lambda: None})
        with pytest.raises(TypeError):
            config_key(bad)


class TestResultCache:
    def test_roundtrip_hit_on_identical_config(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_once(BASE)
        assert cache.get(BASE) is None  # cold
        assert cache.put(BASE, result)
        cached = cache.get(BASE.with_())  # equal but distinct object
        assert cached is not None
        assert cached.deployment is None
        assert result_fingerprint(cached) == result_fingerprint(result)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_miss_on_changed_config(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(BASE, run_once(BASE))
        assert cache.get(BASE.with_(seed=BASE.seed + 1)) is None

    def test_version_bump_invalidates(self, tmp_path):
        ResultCache(tmp_path).put(BASE, run_once(BASE))
        newer = ResultCache(tmp_path, version=code_version() + ".post1")
        assert newer.get(BASE) is None

    def _assert_old_schema_is_a_miss(self, tmp_path, schema):
        old = ResultCache(tmp_path, version=f"{__version__}+schema{schema}")
        old.put(BASE, run_once(BASE))
        cache = ResultCache(tmp_path)
        assert cache.get(BASE) is None
        # Even sitting at today's key, the envelope's version rejects it.
        old_path = old._path(config_key(BASE, old.version))
        new_path = cache._path(config_key(BASE))
        new_path.parent.mkdir(parents=True, exist_ok=True)
        old_path.rename(new_path)
        assert cache.get(BASE) is None
        assert (cache.hits, cache.misses) == (0, 2)

    def test_schema_2_envelope_is_a_miss(self, tmp_path):
        # Schema 2 keyed configs with defaults omitted and ran them on
        # the classic view plane: such an entry must never be served.
        self._assert_old_schema_is_a_miss(tmp_path, 2)

    def test_schema_3_envelope_is_a_miss(self, tmp_path):
        # Schema 3 keyed configs by ul_retention/inbox_ttl and ran the
        # default ones with neither window in force.
        self._assert_old_schema_is_a_miss(tmp_path, 3)

    def test_schema_4_envelope_is_a_miss(self, tmp_path):
        # Schema 4 pickled kernel records with a __dict__; the slotted
        # classes cannot load them.
        self._assert_old_schema_is_a_miss(tmp_path, 4)

    def test_schema_5_envelope_is_a_miss(self, tmp_path):
        # Schema 5 pickled the commit map beside the audit report, whose
        # problems were a plain list; the report now carries both.
        self._assert_old_schema_is_a_miss(tmp_path, 5)

    def test_schema_6_envelope_is_a_miss(self, tmp_path):
        # Schema 6 cached MARP runs whose lock views carried version
        # vectors; their simulated numbers are not today's.
        self._assert_old_schema_is_a_miss(tmp_path, 6)

    def test_schema_7_envelope_is_a_miss(self, tmp_path):
        # Schema 7 cached MARP runs whose suitcases charged every
        # finished id a table had met; their simulated numbers are not
        # today's.
        self._assert_old_schema_is_a_miss(tmp_path, 7)

    def test_schema_8_envelope_is_a_miss(self, tmp_path):
        # Schema 8 cached MARP runs in which every claim ran an UPDATE
        # round; their simulated numbers are not today's.
        self._assert_old_schema_is_a_miss(tmp_path, 8)

    def test_schema_9_envelope_is_a_miss(self, tmp_path):
        # Schema 9 cached crash runs whose restarted replica served at
        # once and pulled one peer's snapshot; their simulated numbers
        # are not today's.
        self._assert_old_schema_is_a_miss(tmp_path, 9)

    def test_schema_10_envelope_is_a_miss(self, tmp_path):
        # Schema 10 cached MARP runs whose agent next in line parked
        # until the winner's COMMIT woke it; their simulated numbers are
        # not today's.
        self._assert_old_schema_is_a_miss(tmp_path, 10)

    def test_schema_11_envelope_is_a_miss(self, tmp_path):
        # Schema 11 cached crash runs whose agents retried a failed
        # migration three times and let a down replica's empty Locking
        # List veto the complete-info stalemate; their simulated numbers
        # are not today's.
        self._assert_old_schema_is_a_miss(tmp_path, 11)

    def test_schema_12_envelope_is_a_miss(self, tmp_path):
        # Schema 12 cached results without their realised arrival rate,
        # which the scale knee compares throughput with.
        assert CACHE_SCHEMA_VERSION == 13
        self._assert_old_schema_is_a_miss(tmp_path, 12)

    def test_uncacheable_config_is_silently_skipped(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = BASE.with_(protocol_kwargs={"hook": lambda: None})
        result = run_once(BASE)  # any result object will do
        assert not cache.put(bad, result)
        assert cache.get(bad) is None
        assert cache.uncacheable == 2
        assert len(cache) == 0

    @pytest.mark.parametrize(
        ("corrupt", "warns"),
        [
            (lambda p: p.write_bytes(b"not a pickle"), True),
            (
                lambda p: p.write_bytes(
                    p.read_bytes()[: p.stat().st_size // 2]
                ),
                True,
            ),
            # unpickles fine but fails envelope validation: a silent miss
            (lambda p: p.write_bytes(pickle.dumps({"version": "x"})), False),
        ],
        ids=["garbage", "truncated", "wrong-envelope"],
    )
    def test_corrupt_entry_warns_and_misses(self, tmp_path, corrupt, warns):
        cache = ResultCache(tmp_path)
        result = run_once(BASE)
        cache.put(BASE, result)
        (path,) = tmp_path.glob("*/*.pkl")
        corrupt(path)
        if warns:
            with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
                assert cache.get(BASE) is None
        else:
            assert cache.get(BASE) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_replaced_by_live_run(self, tmp_path):
        """End-to-end: runner warns, re-runs, and repairs the entry."""
        cache = ResultCache(tmp_path)
        expected = result_fingerprint(run_once(BASE))
        with ParallelRunner(cache=cache) as runner:
            runner.run_one(BASE)
            (path,) = tmp_path.glob("*/*.pkl")
            path.write_bytes(b"\x00garbage")
            with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
                repaired = runner.run_one(BASE)
        assert result_fingerprint(repaired) == expected
        # the live run re-published a good entry
        assert result_fingerprint(cache.get(BASE)) == expected

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_once(BASE)
        cache.put(BASE, result)
        cache.put(BASE.with_(seed=9), run_once(BASE.with_(seed=9)))
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get(BASE) is None


class TestRunnerCacheIntegration:
    def test_hit_counts_through_runner(self, tmp_path):
        cache = ResultCache(tmp_path)
        with ParallelRunner(cache=cache) as runner:
            first = runner.run_one(BASE)
            second = runner.run_one(BASE)
        assert (cache.hits, cache.misses) == (1, 1)
        assert result_fingerprint(first) == result_fingerprint(second)

    def test_cached_equals_parallel_fresh(self, tmp_path):
        configs = [BASE.with_(seed=s) for s in (1, 2, 3)]
        with ParallelRunner(jobs=2, cache=ResultCache(tmp_path)) as cold:
            fresh = [result_fingerprint(r) for r in cold.run_many(configs)]
        warm_cache = ResultCache(tmp_path)
        with ParallelRunner(jobs=2, cache=warm_cache) as warm:
            cached = [result_fingerprint(r) for r in warm.run_many(configs)]
        assert cached == fresh
        assert warm_cache.hits == len(configs)
        assert warm_cache.misses == 0
