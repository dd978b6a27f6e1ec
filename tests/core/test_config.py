"""Unit tests for MARP configuration validation."""

import pytest

from repro.errors import ProtocolError
from repro.core.config import MARPConfig


class TestMARPConfig:
    def test_defaults_are_valid(self):
        config = MARPConfig()
        assert config.itinerary == "cost-sorted"
        assert config.read_strategy == "local"
        assert config.batch_size == 1

    def test_bad_read_strategy(self):
        with pytest.raises(ProtocolError):
            MARPConfig(read_strategy="psychic")

    def test_bad_itinerary(self):
        # refused at construction, not by the first write mid-run
        with pytest.raises(ProtocolError, match="psychic"):
            MARPConfig(itinerary="psychic")

    def test_bad_batch_size(self):
        with pytest.raises(ProtocolError):
            MARPConfig(batch_size=0)

    def test_bad_flush_interval(self):
        with pytest.raises(ProtocolError):
            MARPConfig(batch_flush_interval=0)

    def test_bad_park_timeout(self):
        with pytest.raises(ProtocolError):
            MARPConfig(park_timeout=0)

    def test_bad_ack_timeout(self):
        with pytest.raises(ProtocolError):
            MARPConfig(ack_timeout=-1)

    def test_bad_max_claims(self):
        with pytest.raises(ProtocolError):
            MARPConfig(max_claims=0)

    def test_bad_claim_backoff(self):
        with pytest.raises(ProtocolError):
            MARPConfig(claim_backoff=-1)

    def test_quorum_read_accepted(self):
        assert MARPConfig(read_strategy="quorum").read_strategy == "quorum"
