"""The kernel tunables are the single source of protocol defaults.

The DES's MARP agents run on :data:`DES_TUNABLES` itself, and each
backend config dataclass (``ReplicaConfig`` for the DES, ``LiveConfig``
for the live runtime) must agree field-for-field with the kernel-level
:data:`DES_TUNABLES` / :data:`LIVE_TUNABLES` it sources its defaults
from — the drift these tests prevent is exactly the duplication the
sans-IO refactor removed.
"""

import dataclasses

import pytest

from repro.core.machines.protocols import protocol_row
from repro.core.machines.config import (
    AGENT_TUNABLE_FIELDS,
    DES_TUNABLES,
    LIVE_TUNABLES,
    REPLICA_TUNABLE_FIELDS,
    ProtocolTunables,
)
from repro.errors import ProtocolError
from repro.replication.server import ReplicaConfig
from repro.runtime.host import LiveConfig


class TestDefaultsParity:
    def test_marp_config_agent_fields_match_des_tunables(self):
        row = protocol_row("marp", ("s1", "s2", "s3"))
        config = row.write(1, "x", 1, "s1").tunables
        for name in AGENT_TUNABLE_FIELDS:
            assert getattr(config, name) == getattr(DES_TUNABLES, name), name

    def test_replica_config_fields_match_des_tunables(self):
        config = ReplicaConfig()
        for name in REPLICA_TUNABLE_FIELDS:
            assert getattr(config, name) == getattr(DES_TUNABLES, name), name

    def test_live_config_fields_match_live_tunables(self):
        config = LiveConfig()
        for name in AGENT_TUNABLE_FIELDS + REPLICA_TUNABLE_FIELDS:
            assert getattr(config, name) == getattr(LIVE_TUNABLES, name), name

    def test_field_lists_cover_every_tunable(self):
        declared = {f.name for f in dataclasses.fields(ProtocolTunables)}
        assert set(AGENT_TUNABLE_FIELDS) | set(REPLICA_TUNABLE_FIELDS) == declared


class TestTunablesValidation:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DES_TUNABLES.park_timeout = 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"park_timeout": 0.0},
            {"ack_timeout": -1.0},
            {"max_claims": 0},
            {"claim_backoff": -0.5},
            {"grant_ttl": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ProtocolError):
            ProtocolTunables(**kwargs)
