"""APPLE: an NFV orchestration framework for interference-free policy enforcement.

A full-system Python reproduction of Li & Qian, ICDCS 2016.  APPLE places
virtual network function instances *on* the existing forwarding paths of
traffic classes — never re-routing them — so that policy chains
(firewall → IDS → proxy, ...) are enforced while routing and traffic
engineering stay untouched, and every instance is an isolated VM.

Quickstart::

    from repro import AppleController, internet2, STANDARD_CHAINS
    from repro.traffic.gravity import gravity_matrix
    from repro.traffic.classes import hashed_assignment

    topo = internet2()
    controller = AppleController(topo, hashed_assignment(STANDARD_CHAINS))
    deployment = controller.run(gravity_matrix(topo, total_mbps=20_000))
    print(deployment.plan.total_instances(), "instances placed")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

import importlib

#: Re-exported name → the module that defines it, imported on first access.
_EXPORTS = {
    "AppleController": "repro.core.controller",
    "internet2": "repro.topology.datasets",
    "STANDARD_CHAINS": "repro.vnf.chains",
}

__version__ = "1.0.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)
