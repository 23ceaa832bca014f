"""Traced memory of a real vBGP table ingest (Figure 6a).

Figure 6a is measured, not modelled: :func:`upstream_pop` builds a real
PoP whose one upstream session is up, so UPDATE bytes take the node's own
path (session decode, Adj-RIB-In, per-neighbor kernel table), and
:func:`traced_bytes` reads :mod:`tracemalloc` after each step of the
ingest.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Callable, Iterable

from repro.bgp.session import BgpSession, SessionConfig
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.state import EnforcerState
from repro.sim import Scheduler
from repro.vbgp.allocator import GlobalNeighborRegistry


def traced_bytes(steps: Iterable[Callable[[], object]]) -> list[int]:
    """Run ``steps`` in order under :mod:`tracemalloc`, the cyclic
    collector paused; return the bytes live after each one, counted from
    just before the first."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        readings = []
        for step in steps:
            step()
            readings.append(tracemalloc.get_traced_memory()[0] - base)
        return readings
    finally:
        tracemalloc.stop()
        gc.enable()


def upstream_pop() -> tuple[PointOfPresence,
                            Callable[[Iterable[bytes]], None]]:
    """A PoP with one established upstream, ``upstream``, and a function
    that sends UPDATE bytes on that session and runs the PoP until they
    are in."""
    scheduler = Scheduler()
    pop = PointOfPresence(
        scheduler, PopConfig(name="ams", pop_id=0, kind="ixp"),
        platform_asn=47065, platform_asns=frozenset({47065}),
        registry=GlobalNeighborRegistry(), enforcer_state=EnforcerState(),
    )
    port = pop.provision_neighbor("upstream", 65010)
    BgpSession(
        scheduler,
        SessionConfig(local_asn=65010, local_id=port.address,
                      peer_asn=47065),
        port.channel, on_update=lambda _session, _update: None,
    ).start()
    scheduler.run_for(5)

    def feed(wires: Iterable[bytes]) -> None:
        for wire in wires:
            port.channel.send(wire)
        scheduler.run_for(1)

    return pop, feed
