"""The linear policy-rule scan ``NetworkStack.lookup_route`` used before
it indexed rules by destination MAC: every rule in ``stack.rules``, in
list order, first table with a covering route wins.  Kept as the oracle
the indexed lookup is checked against (``test_rule_index.py``)."""

from __future__ import annotations

from typing import Optional

from repro.netsim.addr import MacAddress
from repro.netsim.frames import IPv4Packet
from repro.netsim.stack import KernelRoute, NetworkStack


def lookup_route_linear(
    stack: NetworkStack,
    packet: IPv4Packet,
    in_iface: Optional[str] = None,
    dmac: Optional[MacAddress] = None,
) -> Optional[KernelRoute]:
    for rule in stack.rules:
        if not rule.matches(packet, in_iface, dmac):
            continue
        table = stack.tables.get(rule.table)
        if table is None:
            continue
        entry = table.lookup(packet.dst)
        if entry is not None:
            return entry.value
    return None
