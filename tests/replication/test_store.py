"""Unit tests for the versioned store."""

import pytest

from repro.core.machines.structures import VersionedStore, VersionedValue


class TestReads:
    def test_missing_key_is_none(self):
        assert VersionedStore().read("ghost") is None

    def test_version_of_missing_is_zero(self):
        assert VersionedStore().version_of("ghost") == 0

    def test_last_update_time_missing_is_minus_inf(self):
        assert VersionedStore().last_update_time("ghost") == float("-inf")

    def test_read_returns_versioned_value(self):
        store = VersionedStore()
        store.apply("x", 7, 1, 5.0)
        entry = store.read("x")
        assert entry == VersionedValue(7, 1, 5.0)


class TestApply:
    def test_apply_installs(self):
        store = VersionedStore()
        assert store.apply("x", "v", 1, 0.0)
        assert store.version_of("x") == 1

    def test_newer_version_supersedes(self):
        store = VersionedStore()
        store.apply("x", "old", 1, 0.0)
        assert store.apply("x", "new", 2, 1.0)
        assert store.read("x").value == "new"

    def test_stale_version_rejected(self):
        store = VersionedStore()
        store.apply("x", "new", 2, 0.0)
        assert not store.apply("x", "old", 1, 1.0)
        assert store.read("x").value == "new"
        assert store.stale_rejections == 1

    def test_duplicate_version_rejected(self):
        store = VersionedStore()
        store.apply("x", "a", 1, 0.0)
        assert not store.apply("x", "a", 1, 1.0)

    def test_nonpositive_version_rejected(self):
        store = VersionedStore()
        with pytest.raises(ValueError):
            store.apply("x", "v", 0, 0.0)

    def test_applied_log_records_order(self):
        store = VersionedStore()
        store.apply("x", 1, 1, 0.0)
        store.apply("y", 2, 1, 1.0)
        store.apply("x", 3, 2, 2.0)
        assert store.applied_log == [("x", 1, 0.0), ("y", 1, 1.0), ("x", 2, 2.0)]

    def test_out_of_order_arrival_converges_to_max(self):
        # Apply versions in a scrambled order; final value must be the
        # highest version regardless.
        store = VersionedStore()
        for version in (3, 1, 5, 2, 4):
            store.apply("x", f"v{version}", version, float(version))
        assert store.read("x").value == "v5"
        assert store.version_of("x") == 5


class TestSnapshots:
    def test_snapshot_is_a_copy(self):
        store = VersionedStore()
        store.apply("x", 1, 1, 0.0)
        snapshot = store.snapshot()
        store.apply("x", 2, 2, 1.0)
        assert snapshot["x"].version == 1

    def test_install_snapshot_adopts_newer(self):
        source = VersionedStore()
        source.apply("x", "fresh", 3, 0.0)
        source.apply("y", "only-here", 1, 0.0)
        target = VersionedStore()
        target.apply("x", "stale", 1, 0.0)
        updated = target.install_snapshot(source.snapshot(), timestamp=5.0)
        assert updated == 2
        assert target.read("x").value == "fresh"
        assert target.read("y").value == "only-here"

    def test_install_snapshot_keeps_newer_local(self):
        source = VersionedStore()
        source.apply("x", "old", 1, 0.0)
        target = VersionedStore()
        target.apply("x", "new", 2, 0.0)
        assert target.install_snapshot(source.snapshot(), timestamp=5.0) == 0
        assert target.read("x").value == "new"

    def test_version_of(self):
        store = VersionedStore()
        store.apply("a", 1, 2, 0.0)
        store.apply("b", 1, 7, 0.0)
        assert [store.version_of(k) for k in ("a", "b", "c")] == [2, 7, 0]

    def test_keys_sorted(self):
        store = VersionedStore()
        store.apply("b", 1, 1, 0.0)
        store.apply("a", 1, 1, 0.0)
        assert store.keys() == ["a", "b"]

    def test_len(self):
        store = VersionedStore()
        store.apply("a", 1, 1, 0.0)
        store.apply("a", 2, 2, 0.0)
        assert len(store) == 1
