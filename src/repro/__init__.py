"""repro: a full reproduction of *PEERING: Virtualizing BGP at the Edge
for Research* (CoNEXT 2019).

Layers, bottom-up:

* :mod:`repro.sim` — deterministic discrete-event simulation core,
* :mod:`repro.netsim` — L2/L3 substrate (Ethernet/ARP/IP, policy routing,
  links/switches, simplified TCP, netlink-like API),
* :mod:`repro.bgp` — a from-scratch BGP-4 implementation with ADD-PATH,
  communities, and a route-map policy engine,
* :mod:`repro.router` — a BIRD-like router (config language, kernel sync,
  non-disruptive reconfiguration, CLI),
* :mod:`repro.vbgp` — **the paper's contribution**: virtualization of a
  BGP edge router's data and control planes,
* :mod:`repro.security` — control/data-plane enforcement engines and the
  capability framework,
* :mod:`repro.platform` — the PEERING platform: PoPs, resources,
  experiment workflow, tunnels, backbone, CloudLab federation,
* :mod:`repro.toolkit` — the experiment-side client (Table 1),
* :mod:`repro.internet` — a synthetic Internet (Gao–Rexford ASes, IXP
  route servers, churn, PeeringDB, looking glasses),
* :mod:`repro.mgmt` — intent-based configuration management with a
  transactional network controller,
* :mod:`repro.metrics` — measurement helpers for the §6 evaluation
  (traced ingest memory, per-update cost, TCP throughput).

Quickstart::

    from repro.sim import Scheduler
    from repro.platform import PeeringPlatform
    from repro.internet import build_internet

    sched = Scheduler()
    platform = PeeringPlatform(sched)
    internet = build_internet(sched, platform)
    sched.run_for(30)  # let BGP converge
"""

__version__ = "1.0.0"

__all__ = [
    "bgp",
    "internet",
    "metrics",
    "mgmt",
    "netsim",
    "platform",
    "router",
    "security",
    "sim",
    "toolkit",
    "vbgp",
]
