"""Cloud substrate: APPLE hosts, hypervisor, OpenStack/OpenDaylight facades.

The prototype (Sec. VII, Fig. 5) drives VM creation through OpenStack with
networking delegated to OpenDaylight; the measured end-to-end ClickOS boot
is 3.9–4.6 s (mean 4.2 s), dominated by Steps 1–5 of networking
orchestration, while reconfiguring an existing ClickOS VM takes only 30 ms
and installing forwarding rules 70 ms.  This package reproduces that whole
pipeline as discrete-event components with those latencies, plus the
Resource Orchestrator middleware APPLE adds between control plane and VMs
and the heartbeat liveness book-keeping the chaos failure detector uses.
"""
