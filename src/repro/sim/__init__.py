"""Discrete-event simulation kernel used by every APPLE substrate.

The original APPLE prototype runs on a physical testbed (OpenStack + Xen +
Open vSwitch).  This package provides the timing substrate that stands in for
that testbed: a deterministic event queue, generator-based processes,
periodic timers, a CBR packet source and a flow-level TCP
transfer model used by the Fig. 8 experiment.

Typical usage::

    from repro.sim.kernel import Simulator

    sim = Simulator(seed=7)
    sim.schedule(1.0, lambda: print("one second in"))
    sim.run(until=10.0)
"""
