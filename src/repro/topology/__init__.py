"""Network topologies used by the APPLE evaluation (Sec. IX-A).

Provides the topology model (switches, links, attached APPLE hosts), routing
(shortest path and ECMP), the four evaluation datasets — Internet2, GEANT,
UNIV1 and Rocketfuel AS-3679 — and parametric generators for data-center and
ISP-like graphs.
"""
