"""What survives of the agent platform: how the DES substrate ships an agent.

The per-host platform, its directory and its service registry are gone
(the effect interpreter hosts agents now); what they did that the
simulation depends on is the §2 migration policy and the suitcase
sizing, both in :meth:`ReplicaServer.ship_agent`. These tests drive
that method directly, with a recorder in the interpreter's place.
"""


from repro.net.faults import CrashSchedule, FaultPlan
from repro.net.latency import ConstantLatency
from repro.net.message import estimate_size
from repro.net.network import Network
from repro.net.topology import Topology
from repro.replication import server as server_mod
from repro.replication.server import ReplicaServer
from repro.sim.rng import RandomStreams


class HopAgent:
    """The little a server needs of an agent to ship it."""

    def __init__(self, bulk=""):
        self.bulk = bulk
        self.travel_log = []

    def suitcase_size(self):
        return estimate_size({"bulk": self.bulk})


class Recorder:
    """Stands where a host's interpreter would: logs what shipping
    reports, and forwards an arrived agent along ``route``."""

    def __init__(self, world, host):
        self.world = world
        self.host = host

    def arrived(self, agent):
        self.world.log.append((self.world.env.now, "arrived", self.host))
        if self.world.route:
            self.world.servers[self.host].ship_agent(
                agent, self.world.route.pop(0)
            )

    def unreachable(self, agent, dst):
        self.world.log.append((self.world.env.now, "unreachable", dst))


class World:
    def __init__(self, env, hosts=("a", "b", "c"), faults=None, route=()):
        self.env = env
        self.route = list(route)
        self.log = []
        self.network = Network(
            env, Topology.full_mesh(list(hosts)),
            latency=ConstantLatency(2.0), faults=faults,
            streams=RandomStreams(0),
        )
        self.servers = {}
        for host in hosts:
            server = ReplicaServer(
                env, host, self.network.register(host), self.network,
                peers=list(hosts), servers=self.servers,
            )
            server.interpreter = Recorder(self, host)
            self.servers[host] = server

    def ship(self, agent, src, route):
        self.route = list(route)
        self.servers[src].ship_agent(agent, self.route.pop(0))
        self.env.run()


class TestLaunchAndMigration:
    def test_agent_travels_route(self, env):
        world = World(env)
        agent = HopAgent()
        world.ship(agent, "a", ["b", "c"])
        assert [h for _t, h in agent.travel_log] == ["b", "c"]
        assert [(what, host) for _t, what, host in world.log] == [
            ("arrived", "b"), ("arrived", "c"),
        ]
        assert world.servers["a"].migrations_out == 1
        assert world.servers["b"].migrations_out == 1

    def test_migration_takes_network_time(self, env):
        world = World(env)
        agent = HopAgent()
        world.ship(agent, "a", ["b"])
        assert agent.travel_log == [(2.0, "b")]


    def test_resident_sets_updated(self):
        """Where an agent is held moves with it: mid-claim it is in the
        claim table of the host it claims from, and of no other."""
        from repro.replication.protocol import MARP
        from repro.replication.deployment import Deployment

        dep = Deployment(n_replicas=3, seed=0)
        marp = MARP(dep)
        marp.submit_write("s1", "x", 1)
        # A second writer: the two meet on their tours, so neither keeps
        # a visit grant and the first claim is an UPDATE round.
        marp.submit_write("s2", "x", 2)
        agents = list(marp.agents)

        def claiming():
            return [
                host for host in dep.hosts
                if dep.server(host).interpreter.claims
            ]

        while not claiming():
            dep.env.step()
        # The claim runs from the host where the tour won the lock.
        (host,) = claiming()
        (agent,) = dep.server(host).interpreter.claims.values()
        assert agent in agents
        assert host == agent.travel_log[-1][1] != agent.travel_log[0][1]
        dep.run(until=10_000)
        assert claiming() == [] and all(a.disposed for a in agents)


class TestRetryPolicy:
    def test_unavailable_after_max_attempts(self, env, monkeypatch):
        monkeypatch.setattr(server_mod, "MIGRATION_TIMEOUT", 10.0)
        monkeypatch.setattr(server_mod, "RETRY_BACKOFF", 5.0)
        faults = FaultPlan(crashes=CrashSchedule().add("b", 0, 10_000))
        world = World(env, faults=faults)
        agent = HopAgent()
        world.ship(agent, "a", ["b"])
        # Three attempts, each waiting out the detection timeout, with a
        # growing pause between them: 10 + 5 + 10 + 10 + 10 = 45 ms.
        assert world.log == [(45.0, "unreachable", "b")]
        assert world.servers["a"].migrations_out == 3
        assert world.servers["a"].migrations_failed == 3
        assert agent.travel_log == []  # never left

    def test_recovers_on_a_later_attempt(self, env, monkeypatch):
        monkeypatch.setattr(server_mod, "MIGRATION_TIMEOUT", 10.0)
        monkeypatch.setattr(server_mod, "RETRY_BACKOFF", 5.0)
        # Down for the first attempt only (arrival at t=2 is refused and
        # detected at t=10; the retry leaves at t=15).
        faults = FaultPlan(crashes=CrashSchedule().add("b", 0, 12))
        world = World(env, faults=faults)
        agent = HopAgent()
        world.ship(agent, "a", ["b"])
        assert world.log == [(17.0, "arrived", "b")]
        assert world.servers["a"].migrations_failed == 1


class TestMigrationCost:
    def test_bigger_state_bigger_size(self, env):
        sizes = []
        for bulk in ("", "x" * 10_000):
            world = World(env)
            world.ship(HopAgent(bulk), "a", ["b"])
            sizes.append(world.network.stats.total_bytes("agent"))
        light, heavy = sizes
        assert light >= server_mod.BASE_BYTES
        assert heavy > light + 10_000
