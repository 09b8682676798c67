"""SDN data plane: TCAM pipelines, tagging, switches, vSwitches.

Implements Sec. V-B's flow-tagging scheme end to end: the two tag fields
(host ID and sub-class ID) carried in unused header bits, the physical
switch pipeline of Table III / Fig. 2, the vSwitch
``<IncomePort, class, sub-class>`` pipeline inside APPLE hosts, and the
packet walkers that execute installed rules.  Rules live as
:class:`TcamEntry` / :class:`VSwitchRule` objects; nothing renders them
as OpenFlow text.
"""
