"""Unit tests for MARP's settings: the marp row validates them."""

import pytest

from repro.core.machines import protocol_row

HOSTS = ("s1", "s2", "s3", "s4", "s5")


def marp(**settings):
    return protocol_row("marp", HOSTS, **settings)


class TestMARPConfig:
    def test_defaults_are_valid(self):
        settings = marp().settings
        assert settings["itinerary"] == "cost-sorted"
        assert settings["read_strategy"] == "local"
        assert settings["batch_size"] == 1

    def test_bad_read_strategy(self):
        with pytest.raises(ValueError):
            marp(read_strategy="psychic")

    def test_bad_itinerary(self):
        # refused at construction, not by the first write mid-run
        with pytest.raises(ValueError, match="psychic"):
            marp(itinerary="psychic")

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            marp(batch_size=0)

    def test_quorum_read_accepted(self):
        assert marp(read_strategy="quorum").settings["read_strategy"] == (
            "quorum"
        )
