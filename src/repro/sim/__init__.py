"""Deterministic discrete-event simulation kernel.

A self-contained DES engine holding exactly what the MARP substrate
schedules: the :class:`~repro.sim.core.Environment` owns the clock and
a heap of callbacks (``call_in`` / ``call_urgent``), and
:class:`~repro.sim.rng.RandomStreams` names the random streams.

Quick example::

    from repro.sim.core import Environment

    def clock(env, name, tick):
        def fire(_arg):
            print(name, env.now)
            env.call_in(tick, fire)
        env.call_in(tick, fire)

    env = Environment()
    clock(env, "fast", 1)
    env.run(until=5)
"""
