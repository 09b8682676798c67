"""Virtual network functions: types, instances, ClickOS, and policy chains.

Implements Table IV's VNF datasheets (firewall, proxy, NAT, IDS), the
rate-driven capacity/loss model of Fig. 6 (loss depends on packet *rate*,
not size), the ClickOS lightweight-VM distinction (30 ms boot/reconfigure),
and the standard policy chains of Sec. IX-A.
"""
