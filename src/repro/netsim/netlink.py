"""A netlink-like configuration API for :class:`NetworkStack`.

PEERING's network controller (§5) talks to the kernel through netlink, a
request/response protocol with no notion of intent: you can only query, add,
and remove individual objects, and the *primary* address of an interface is
simply the first one added. This module reproduces that interface (including
the quirk) so the transactional controller in :mod:`repro.mgmt.controller`
has the same problem to solve as the real one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.netsim.stack import KernelRoute, NetworkStack, RoutingRule


class NetlinkError(RuntimeError):
    """Raised when a netlink request cannot be satisfied."""


@dataclass(frozen=True)
class AddressRecord:
    iface: str
    address: IPv4Address
    length: int
    primary: bool


@dataclass(frozen=True)
class RouteRecord:
    table: int
    prefix: IPv4Prefix
    out_iface: str
    next_hop: Optional[IPv4Address]


@dataclass(frozen=True)
class RuleRecord:
    priority: int
    table: int
    match_iif: Optional[str]
    match_dst: Optional[IPv4Prefix]
    match_src: Optional[IPv4Prefix]
    match_dmac: Optional[MacAddress]


class Netlink:
    """Request/response access to one stack's network configuration."""

    def __init__(self, stack: NetworkStack) -> None:
        self._stack = stack
        self.requests = 0

    # -- queries ---------------------------------------------------------

    def dump_addresses(self, iface: Optional[str] = None) -> list[AddressRecord]:
        self.requests += 1
        records = []
        names = [iface] if iface else list(self._stack.interfaces)
        for name in names:
            interface = self._stack.interfaces.get(name)
            if interface is None:
                raise NetlinkError(f"no such interface: {name}")
            for index, assignment in enumerate(interface.addresses):
                records.append(
                    AddressRecord(
                        iface=name,
                        address=assignment.address,
                        length=assignment.length,
                        primary=index == 0,
                    )
                )
        return records

    def dump_routes(self, table: int) -> list[RouteRecord]:
        self.requests += 1
        fib = self._stack.tables.get(table)
        if fib is None:
            return []
        return [
            RouteRecord(
                table=table,
                prefix=entry.value.prefix,
                out_iface=entry.value.out_iface,
                next_hop=entry.value.next_hop,
            )
            for entry in fib.entries()
        ]

    def dump_rules(self) -> list[RuleRecord]:
        self.requests += 1
        return [
            RuleRecord(
                priority=rule.priority,
                table=rule.table,
                match_iif=rule.match_iif,
                match_dst=rule.match_dst,
                match_src=rule.match_src,
                match_dmac=rule.match_dmac,
            )
            for rule in self._stack.rules
        ]

    def list_tables(self) -> list[int]:
        self.requests += 1
        return sorted(self._stack.tables)

    # -- mutations ---------------------------------------------------------

    def add_address(self, iface: str, address: IPv4Address,
                    length: int = 32) -> None:
        self.requests += 1
        interface = self._stack.interfaces.get(iface)
        if interface is None:
            raise NetlinkError(f"no such interface: {iface}")
        if any(a.address == address for a in interface.addresses):
            raise NetlinkError(f"address exists: {address} on {iface}")
        self._stack.add_address(iface, address, length)

    def del_address(self, iface: str, address: IPv4Address) -> None:
        self.requests += 1
        interface = self._stack.interfaces.get(iface)
        if interface is None:
            raise NetlinkError(f"no such interface: {iface}")
        if not any(a.address == address for a in interface.addresses):
            raise NetlinkError(f"no such address: {address} on {iface}")
        self._stack.remove_address(iface, address)

    def add_route(self, record: RouteRecord) -> None:
        self.requests += 1
        existing = self._stack.table(record.table).get(record.prefix)
        if existing is not None:
            raise NetlinkError(f"route exists: {record.prefix} in {record.table}")
        if record.out_iface not in self._stack.interfaces:
            raise NetlinkError(f"no such interface: {record.out_iface}")
        self._stack.add_route(
            KernelRoute(
                prefix=record.prefix,
                out_iface=record.out_iface,
                next_hop=record.next_hop,
            ),
            table_id=record.table,
        )

    def del_route(self, table: int, prefix: IPv4Prefix) -> None:
        self.requests += 1
        if not self._stack.remove_route(prefix, table_id=table):
            raise NetlinkError(f"no such route: {prefix} in {table}")

    def add_rule(self, record: RuleRecord) -> None:
        self.requests += 1
        rule = RoutingRule(
            priority=record.priority,
            table=record.table,
            match_iif=record.match_iif,
            match_dst=record.match_dst,
            match_src=record.match_src,
            match_dmac=record.match_dmac,
        )
        if record in self.dump_rules():
            raise NetlinkError(f"rule exists: {record}")
        self._stack.add_rule(rule)

    def del_rule(self, record: RuleRecord) -> None:
        self.requests += 1
        for rule in self._stack.rules:
            if (
                rule.priority == record.priority
                and rule.table == record.table
                and rule.match_iif == record.match_iif
                and rule.match_dst == record.match_dst
                and rule.match_src == record.match_src
                and rule.match_dmac == record.match_dmac
            ):
                self._stack.remove_rule(rule)
                return
        raise NetlinkError(f"no such rule: {record}")

    def set_link(self, iface: str, up: bool) -> None:
        self.requests += 1
        interface = self._stack.interfaces.get(iface)
        if interface is None:
            raise NetlinkError(f"no such interface: {iface}")
        interface.up = up
