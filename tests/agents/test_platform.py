"""Unit tests for the agent platform: launch, services, migration policy."""

import pytest

from repro.errors import (
    AgentDisposed,
    AgentError,
    ReplicaUnavailable,
)
from repro.agents.agent import MobileAgent
from repro.agents.directory import PlatformDirectory
from repro.agents.mobility import MigrationCostModel
from repro.agents.platform import AgentPlatform, MobilityPolicy
from repro.net.faults import CrashSchedule, FaultPlan
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim.rng import RandomStreams


class HopAgent(MobileAgent):
    """Test agent that follows a fixed route and records arrivals."""

    def __init__(self, agent_id, route):
        super().__init__(agent_id)
        self.route = route
        self.errors = []

    def behavior(self):
        for dst in self.route:
            try:
                yield from self.migrate(dst)
            except ReplicaUnavailable as err:
                self.errors.append(err)
        self.dispose()


def make_world(env, hosts=("a", "b", "c"), faults=None, policy=None):
    topo = Topology.full_mesh(list(hosts))
    network = Network(
        env, topo, latency=ConstantLatency(2.0), faults=faults,
        streams=RandomStreams(0), inbox_ttl=20_000.0,
    )
    directory = PlatformDirectory()
    platforms = {
        h: AgentPlatform(env, network, h, directory, policy=policy)
        for h in hosts
    }
    return network, directory, platforms


class TestServices:
    def test_provide_and_lookup(self, env):
        _n, _d, platforms = make_world(env)
        marker = object()
        platforms["a"].provide("replica", marker)
        assert platforms["a"].service("replica") is marker

    def test_missing_service_raises(self, env):
        _n, _d, platforms = make_world(env)
        with pytest.raises(AgentError):
            platforms["a"].service("ghost")

    def test_double_provide_rejected(self, env):
        _n, _d, platforms = make_world(env)
        platforms["a"].provide("x", 1)
        with pytest.raises(AgentError):
            platforms["a"].provide("x", 2)


class TestDirectory:
    def test_lookup(self, env):
        _n, directory, platforms = make_world(env)
        assert directory.lookup("b") is platforms["b"]

    def test_unknown_host(self, env):
        _n, directory, _p = make_world(env)
        with pytest.raises(AgentError):
            directory.lookup("zz")

    def test_duplicate_registration_rejected(self, env):
        _n, directory, platforms = make_world(env)
        with pytest.raises(AgentError):
            directory.register(platforms["a"])

    def test_len_and_hosts(self, env):
        _n, directory, _p = make_world(env)
        assert len(directory) == 3
        assert directory.hosts == ["a", "b", "c"]


class TestLaunchAndMigration:
    def test_agent_travels_route(self, env):
        _n, _d, platforms = make_world(env)
        agent = HopAgent(platforms["a"].new_agent_id(), ["b", "c"])
        platforms["a"].launch(agent)
        env.run()
        assert [h for _t, h in agent.travel_log] == ["a", "b", "c"]
        assert agent.hops == 2
        assert agent.disposed

    def test_migration_takes_network_time(self, env):
        _n, _d, platforms = make_world(env)
        agent = HopAgent(platforms["a"].new_agent_id(), ["b"])
        platforms["a"].launch(agent)
        env.run()
        times = [t for t, _h in agent.travel_log]
        assert times == [0.0, 2.0]

    def test_self_migration_is_noop(self, env):
        _n, _d, platforms = make_world(env)
        agent = HopAgent(platforms["a"].new_agent_id(), ["a"])
        platforms["a"].launch(agent)
        env.run()
        assert agent.hops == 0
        assert agent.location is None  # disposed

    def test_launch_twice_rejected(self, env):
        _n, _d, platforms = make_world(env)
        agent = HopAgent(platforms["a"].new_agent_id(), [])
        platforms["a"].launch(agent)
        with pytest.raises(AgentError):
            platforms["b"].launch(agent)

    def test_unknown_destination_rejected(self, env):
        _n, _d, platforms = make_world(env)

        class BadAgent(MobileAgent):
            def behavior(self):
                yield from self.migrate("nowhere")

        agent = BadAgent(platforms["a"].new_agent_id())
        platforms["a"].launch(agent)
        with pytest.raises(AgentError):
            env.run()

    def test_disposed_agent_cannot_migrate(self, env):
        _n, _d, platforms = make_world(env)

        class ZombieAgent(MobileAgent):
            def behavior(self):
                self.dispose()
                yield from self.migrate("b")

        agent = ZombieAgent(platforms["a"].new_agent_id())
        platforms["a"].launch(agent)
        with pytest.raises(AgentDisposed):
            env.run()

    def test_dispose_idempotent(self, env):
        _n, _d, platforms = make_world(env)
        agent = HopAgent(platforms["a"].new_agent_id(), [])
        platforms["a"].launch(agent)
        env.run()
        agent.dispose()  # second time: no error
        assert agent.disposed

    def test_resident_sets_updated(self, env):
        _n, _d, platforms = make_world(env)

        class Sitter(MobileAgent):
            def behavior(self):
                yield from self.migrate("b")
                yield self.platform.env.timeout(100)

        agent = Sitter(platforms["a"].new_agent_id())
        platforms["a"].launch(agent)
        env.run(until=50)
        assert agent not in platforms["a"].residents
        assert agent in platforms["b"].residents


class TestRetryPolicy:
    def test_unavailable_after_max_attempts(self, env):
        faults = FaultPlan(crashes=CrashSchedule().add("b", 0, 10_000))
        policy = MobilityPolicy(
            migration_timeout=10, max_attempts=3, retry_backoff=5
        )
        _n, _d, platforms = make_world(env, faults=faults, policy=policy)
        agent = HopAgent(platforms["a"].new_agent_id(), ["b"])
        platforms["a"].launch(agent)
        env.run()
        assert len(agent.errors) == 1
        assert agent.errors[0].replica == "b"
        assert platforms["a"].migrations_failed == 3
        assert agent.location is None  # disposed at home after failure

    def test_policy_validation(self):
        with pytest.raises(AgentError):
            MobilityPolicy(migration_timeout=0)
        with pytest.raises(AgentError):
            MobilityPolicy(max_attempts=0)
        with pytest.raises(AgentError):
            MobilityPolicy(retry_backoff=-1)

    def test_transfer_from_wrong_platform_rejected(self, env):
        _n, _d, platforms = make_world(env)

        class Confused(MobileAgent):
            def __init__(self, agent_id, wrong_platform):
                super().__init__(agent_id)
                self.wrong_platform = wrong_platform

            def behavior(self):
                yield from self.wrong_platform.transfer(self, "c")

        agent = Confused(platforms["a"].new_agent_id(), platforms["b"])
        platforms["a"].launch(agent)
        with pytest.raises(AgentError):
            env.run()


class TestMigrationCost:
    def test_bigger_state_bigger_size(self):
        from repro.agents.identity import AgentId

        model = MigrationCostModel(base_bytes=100)

        class Light(MobileAgent):
            def behavior(self):
                yield

        class Heavy(Light):
            def state(self):
                return {"bulk": "x" * 10_000}

        agent_id = AgentId("h", 0.0, 0)
        assert model.size_of(Heavy(agent_id)) > model.size_of(Light(agent_id))

    def test_cost_model_validation(self):
        with pytest.raises(ValueError):
            MigrationCostModel(base_bytes=-1)
        with pytest.raises(ValueError):
            MigrationCostModel(serialization_overhead=0.5)
