"""A simulated host network stack (the "Linux kernel" of the reproduction).

Each :class:`NetworkStack` is one network namespace: a set of interfaces,
multiple numbered routing tables, priority-ordered policy-routing rules, an
ARP subsystem with proxy entries, ingress/egress hooks (the attachment point
for vBGP's data-plane enforcement programs), and a tiny UDP/ICMP local
delivery layer used by ping/traceroute/iperf-style tools.

The stack supports the specific mechanisms vBGP relies on:

* interfaces accept frames addressed to *extra* MACs (the per-neighbor
  virtual MACs vBGP hands out),
* proxy-ARP entries answer queries for per-neighbor virtual IPs with the
  matching virtual MAC,
* policy rules can match the **destination MAC of the ingress frame**, which
  is how a frame sent to neighbor N's virtual MAC is looked up in neighbor
  N's routing table,
* the primary address of an interface is whichever address was added first
  (the kernel quirk §5 of the paper works around), and it is the source used
  for ICMP errors — so traceroute attribution works as described.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.netsim.frames import (
    ArpOp,
    ArpPacket,
    EtherType,
    EthernetFrame,
    IcmpMessage,
    IcmpType,
    IpProto,
    IPv4Packet,
    UdpDatagram,
)
from repro.netsim.link import Port
from repro.netsim.lpm import LpmTable
from repro.sim.scheduler import Scheduler

MAIN_TABLE = 254
LOCAL_TABLE = 255
RULE_PRIORITY_DEFAULT = 32766

ARP_TIMEOUT = 1.0
ARP_QUEUE_LIMIT = 32


class Verdict(enum.Enum):
    """Hook verdicts, mirroring eBPF TC actions."""

    PASS = "pass"
    DROP = "drop"


@dataclass(frozen=True)
class KernelRoute:
    """A FIB entry: where to send packets matching the prefix."""

    prefix: IPv4Prefix
    out_iface: str
    next_hop: Optional[IPv4Address] = None

    @property
    def is_direct(self) -> bool:
        return self.next_hop is None


@dataclass(frozen=True)
class RoutingRule:
    """A policy-routing rule selecting a table when its matches hold.

    ``match_dmac`` matching the destination MAC of the ingress frame is the
    vBGP table-demultiplexing mechanism (§3.2.2). Frozen: the stack indexes
    rules by ``match_dmac``, so a rule is replaced, never edited.
    """

    priority: int
    table: int
    match_iif: Optional[str] = None
    match_dst: Optional[IPv4Prefix] = None
    match_src: Optional[IPv4Prefix] = None
    match_dmac: Optional[MacAddress] = None

    def matches(
        self,
        packet: IPv4Packet,
        in_iface: Optional[str],
        dmac: Optional[MacAddress],
    ) -> bool:
        if self.match_iif is not None and self.match_iif != in_iface:
            return False
        if self.match_dst is not None and not self.match_dst.contains_address(
            packet.dst
        ):
            return False
        if self.match_src is not None and not self.match_src.contains_address(
            packet.src
        ):
            return False
        if self.match_dmac is not None and self.match_dmac != dmac:
            return False
        return True


@dataclass(frozen=True)
class InterfaceAddress:
    """An address assigned to an interface, with its subnet length."""

    address: IPv4Address
    length: int

    @property
    def subnet(self) -> IPv4Prefix:
        return IPv4Prefix.from_address(self.address, self.length)


@dataclass
class InterfaceConfig:
    """Declarative interface state used by the netlink API and controller."""

    name: str
    mac: MacAddress
    addresses: list[IPv4Prefix] = field(default_factory=list)
    up: bool = True
    mtu: int = 1500


class Interface:
    """A stack-attached network interface."""

    def __init__(self, stack: "NetworkStack", name: str, mac: MacAddress,
                 port: Port) -> None:
        self.stack = stack
        self.name = name
        self.mac = mac
        self.port = port
        self.up = True
        self.mtu = 1500
        # Address order matters: index 0 is the primary address.
        self.addresses: list[InterfaceAddress] = []
        # Extra unicast MACs this interface accepts (vBGP virtual MACs).
        self.extra_macs: set[MacAddress] = set()
        port.attach(self._receive)

    @property
    def primary_address(self) -> Optional[IPv4Address]:
        """First-added address; the source used for ICMP errors."""
        if not self.addresses:
            return None
        return self.addresses[0].address

    def accepts_mac(self, mac: MacAddress) -> bool:
        return (
            mac == self.mac
            or mac.is_broadcast
            or mac.is_multicast
            or mac in self.extra_macs
        )

    def send_frame(self, frame: EthernetFrame) -> None:
        if not self.up:
            return
        for hook in self.stack.egress_hooks:
            result = hook(frame, self)
            if result is None:
                return
            frame = result
        self.port.transmit(frame)

    def _receive(self, frame: EthernetFrame, _port: Port) -> None:
        if not self.up:
            return
        self.stack._frame_arrived(frame, self)


# Hook signatures. Ingress hooks may drop (return None) or rewrite frames.
FrameHook = Callable[[EthernetFrame, Interface], Optional[EthernetFrame]]
UdpHandler = Callable[[IPv4Packet, UdpDatagram], None]
IcmpHandler = Callable[[IPv4Packet, IcmpMessage], None]
RawHandler = Callable[[IPv4Packet, Interface], None]


@dataclass
class _ArpWaiter:
    packets: list[tuple[IPv4Packet, "KernelRoute"]] = field(default_factory=list)


class NetworkStack:
    """One simulated network namespace."""

    def __init__(self, scheduler: Scheduler, name: str = "host") -> None:
        self.scheduler = scheduler
        self.name = name
        self.interfaces: dict[str, Interface] = {}
        self.tables: dict[int, LpmTable[KernelRoute]] = {
            MAIN_TABLE: LpmTable()
        }
        self.rules: list[RoutingRule] = [
            RoutingRule(priority=RULE_PRIORITY_DEFAULT, table=MAIN_TABLE)
        ]
        self._index_rules()
        self.forwarding = True
        # ip -> (mac, iface name); the neighbor cache.
        self.arp_table: dict[IPv4Address, tuple[MacAddress, str]] = {}
        # Proxy-ARP entries per interface: ip -> mac answered on queries.
        self.proxy_arp: dict[str, dict[IPv4Address, MacAddress]] = {}
        self._arp_waiters: dict[IPv4Address, _ArpWaiter] = {}
        self.ingress_hooks: list[FrameHook] = []
        self.egress_hooks: list[FrameHook] = []
        self._udp_handlers: dict[int, UdpHandler] = {}
        self._icmp_handlers: list[IcmpHandler] = []
        self._raw_handlers: dict[IpProto, RawHandler] = {}
        # Cached set of locally assigned addresses; rebuilt on address or
        # interface changes instead of per packet in ``_handle_ip``.
        self._local_ips: set[IPv4Address] = set()
        self.counters = {
            "rx_packets": 0,
            "tx_packets": 0,
            "forwarded": 0,
            "dropped_no_route": 0,
            "dropped_hook": 0,
            "dropped_ttl": 0,
            "arp_timeouts": 0,
        }

    # ------------------------------------------------------------------
    # Configuration surface (used directly and via the netlink API)
    # ------------------------------------------------------------------

    def add_interface(self, name: str, mac: MacAddress, port: Port) -> Interface:
        if name in self.interfaces:
            raise ValueError(f"duplicate interface {name!r} on {self.name}")
        iface = Interface(self, name, mac, port)
        self.interfaces[name] = iface
        self.proxy_arp[name] = {}
        return iface

    def remove_interface(self, name: str) -> None:
        iface = self.interfaces.pop(name, None)
        if iface is None:
            return
        self.proxy_arp.pop(name, None)
        self._rebuild_local_ips()
        for table in self.tables.values():
            stale = [
                entry.prefix
                for entry in table.entries()
                if entry.value.out_iface == name
            ]
            for prefix in stale:
                table.remove(prefix)

    def add_address(self, iface_name: str, address: IPv4Address,
                    length: int) -> None:
        """Assign ``address/length`` to an interface.

        The first address added becomes the primary (kernel semantics that
        PEERING's controller must actively manage, §5). A connected route
        for the subnet is installed in the main table.
        """
        iface = self.interfaces[iface_name]
        if any(existing.address == address for existing in iface.addresses):
            return
        assignment = InterfaceAddress(address, length)
        iface.addresses.append(assignment)
        self._local_ips.add(address)
        self.add_route(KernelRoute(prefix=assignment.subnet,
                                   out_iface=iface_name))

    def remove_address(self, iface_name: str, address: IPv4Address) -> None:
        """Unassign ``address``; as in Linux, the subnet's connected route
        leaves the main table with the interface's last address in it."""
        iface = self.interfaces[iface_name]
        gone = next((a for a in iface.addresses if a.address == address), None)
        if gone is None:
            return
        iface.addresses.remove(gone)
        self._rebuild_local_ips()
        subnet = gone.subnet
        connected = KernelRoute(prefix=subnet, out_iface=iface_name)
        if (all(a.subnet != subnet for a in iface.addresses)
                and self.table(MAIN_TABLE).get(subnet) == connected):
            self.remove_route(subnet)

    def interface_addresses(self, iface_name: str) -> list[IPv4Address]:
        return [a.address for a in self.interfaces[iface_name].addresses]

    def primary_address(self, iface_name: str) -> Optional[IPv4Address]:
        iface = self.interfaces[iface_name]
        if not iface.addresses:
            return None
        return iface.addresses[0].address

    def table(self, table_id: int) -> LpmTable[KernelRoute]:
        if table_id not in self.tables:
            self.tables[table_id] = LpmTable()
        return self.tables[table_id]

    def add_route(self, route: KernelRoute, table_id: int = MAIN_TABLE) -> None:
        if route.out_iface not in self.interfaces:
            raise ValueError(
                f"route via unknown interface {route.out_iface!r}"
            )
        self.table(table_id).insert(route.prefix, route)

    def remove_route(self, prefix: IPv4Prefix,
                     table_id: int = MAIN_TABLE) -> bool:
        return self.table(table_id).remove(prefix)

    def add_rule(self, rule: RoutingRule) -> None:
        self.rules.append(rule)
        self.rules.sort(key=lambda r: r.priority)
        self._index_rules()

    def remove_rule(self, rule: RoutingRule) -> None:
        self.rules.remove(rule)
        self._index_rules()

    def _index_rules(self) -> None:
        """Per destination MAC, the rules a frame to it can match — those
        naming that MAC or none — in ``rules`` order; ``_rules_any_dmac``
        serves every other frame. A frame to neighbor N's virtual MAC so
        reaches table N in one dict step (§3.2.2). Derived from the public,
        priority-sorted ``rules``: change that through add/remove_rule."""
        any_dmac: list[RoutingRule] = []
        by_dmac: dict[MacAddress, list[RoutingRule]] = {}
        for rule in self.rules:
            if rule.match_dmac is None:
                any_dmac.append(rule)
                for rules in by_dmac.values():
                    rules.append(rule)
            else:
                by_dmac.setdefault(rule.match_dmac, any_dmac[:]).append(rule)
        self._rules_any_dmac = any_dmac
        self._rules_by_dmac = by_dmac

    def add_proxy_arp(self, iface_name: str, ip: IPv4Address,
                      mac: MacAddress) -> None:
        """Answer ARP queries for ``ip`` on ``iface`` with ``mac``."""
        self.proxy_arp[iface_name][ip] = mac

    def remove_proxy_arp(self, iface_name: str, ip: IPv4Address) -> None:
        self.proxy_arp[iface_name].pop(ip, None)

    def add_static_arp(self, ip: IPv4Address, mac: MacAddress,
                       iface_name: str) -> None:
        self.arp_table[ip] = (mac, iface_name)

    # ------------------------------------------------------------------
    # Local endpoints
    # ------------------------------------------------------------------

    def bind_udp(self, port: int, handler: UdpHandler) -> None:
        if port in self._udp_handlers:
            raise ValueError(f"UDP port {port} already bound on {self.name}")
        self._udp_handlers[port] = handler

    def unbind_udp(self, port: int) -> None:
        self._udp_handlers.pop(port, None)

    def on_icmp(self, handler: IcmpHandler) -> None:
        self._icmp_handlers.append(handler)

    def bind_raw(self, proto: IpProto, handler: RawHandler) -> None:
        self._raw_handlers[proto] = handler

    def local_ips(self) -> set[IPv4Address]:
        return self._local_ips

    def _rebuild_local_ips(self) -> None:
        ips: set[IPv4Address] = set()
        for iface in self.interfaces.values():
            ips.update(a.address for a in iface.addresses)
        self._local_ips = ips

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------

    def _frame_arrived(self, frame: EthernetFrame, iface: Interface) -> None:
        if not iface.accepts_mac(frame.dst):
            return
        for hook in self.ingress_hooks:
            result = hook(frame, iface)
            if result is None:
                self.counters["dropped_hook"] += 1
                return
            frame = result
        if frame.ethertype == EtherType.ARP and isinstance(
            frame.payload, ArpPacket
        ):
            self._handle_arp(frame.payload, iface)
            return
        if frame.ethertype == EtherType.IPV4 and isinstance(
            frame.payload, IPv4Packet
        ):
            self.counters["rx_packets"] += 1
            self._handle_ip(frame.payload, iface, frame.dst)

    # -- ARP ------------------------------------------------------------

    def _handle_arp(self, arp: ArpPacket, iface: Interface) -> None:
        # Learn the sender mapping opportunistically.
        self.arp_table[arp.sender_ip] = (arp.sender_mac, iface.name)
        waiter = self._arp_waiters.pop(arp.sender_ip, None)
        if waiter is not None:
            for packet, route in waiter.packets:
                self._transmit_ip(packet, route, arp.sender_mac)
        if arp.op != ArpOp.REQUEST:
            return
        answer_mac = self._arp_answer_for(arp.target_ip, iface)
        if answer_mac is None:
            return
        reply = ArpPacket(
            op=ArpOp.REPLY,
            sender_mac=answer_mac,
            sender_ip=arp.target_ip,
            target_mac=arp.sender_mac,
            target_ip=arp.sender_ip,
        )
        iface.send_frame(
            EthernetFrame(
                src=answer_mac,
                dst=arp.sender_mac,
                ethertype=EtherType.ARP,
                payload=reply,
            )
        )

    def _arp_answer_for(self, ip: IPv4Address,
                        iface: Interface) -> Optional[MacAddress]:
        proxied = self.proxy_arp.get(iface.name, {}).get(ip)
        if proxied is not None:
            return proxied
        if any(a.address == ip for a in iface.addresses):
            return iface.mac
        return None

    def _send_arp_request(self, target_ip: IPv4Address,
                          iface: Interface) -> None:
        sender_ip = iface.addresses[0].address if iface.addresses else (
            IPv4Address(0)
        )
        request = ArpPacket(
            op=ArpOp.REQUEST,
            sender_mac=iface.mac,
            sender_ip=sender_ip,
            target_mac=MacAddress(0),
            target_ip=target_ip,
        )
        iface.send_frame(
            EthernetFrame(
                src=iface.mac,
                dst=MacAddress.broadcast(),
                ethertype=EtherType.ARP,
                payload=request,
            )
        )

    # -- IP -------------------------------------------------------------

    def _handle_ip(self, packet: IPv4Packet, iface: Optional[Interface],
                   dmac: Optional[MacAddress]) -> None:
        if packet.dst in self.local_ips():
            self._deliver_local(packet, iface)
            return
        if not self.forwarding:
            return
        if packet.ttl <= 1:
            self.counters["dropped_ttl"] += 1
            self._send_ttl_exceeded(packet, iface)
            return
        self._route_and_forward(
            packet.decrement_ttl(),
            in_iface=iface.name if iface else None,
            dmac=dmac,
        )

    def _deliver_local(self, packet: IPv4Packet,
                       iface: Optional[Interface]) -> None:
        if packet.proto == IpProto.ICMP and isinstance(
            packet.payload, IcmpMessage
        ):
            self._handle_icmp(packet, packet.payload)
            return
        if packet.proto == IpProto.UDP and isinstance(
            packet.payload, UdpDatagram
        ):
            handler = self._udp_handlers.get(packet.payload.dst_port)
            if handler is not None:
                handler(packet, packet.payload)
            else:
                self._send_icmp_error(
                    packet, IcmpType.DEST_UNREACHABLE, code=3
                )
            return
        raw = self._raw_handlers.get(packet.proto)
        if raw is not None and iface is not None:
            raw(packet, iface)

    def _handle_icmp(self, packet: IPv4Packet, icmp: IcmpMessage) -> None:
        if icmp.icmp_type == IcmpType.ECHO_REQUEST:
            reply = IcmpMessage(
                icmp_type=IcmpType.ECHO_REPLY,
                identifier=icmp.identifier,
                sequence=icmp.sequence,
                payload=icmp.payload,
            )
            self.send_ip(
                IPv4Packet(
                    src=packet.dst, dst=packet.src,
                    proto=IpProto.ICMP, payload=reply,
                )
            )
            return
        for handler in self._icmp_handlers:
            handler(packet, icmp)

    def _send_ttl_exceeded(self, packet: IPv4Packet,
                           iface: Optional[Interface]) -> None:
        # ICMP errors are sourced from the receiving interface's *primary*
        # address — the reason PEERING's controller fights for address order.
        src = None
        if iface is not None and iface.addresses:
            src = iface.addresses[0].address
        if src is None:
            return
        error = IcmpMessage(
            icmp_type=IcmpType.TIME_EXCEEDED,
            payload=packet.encode()[:28],
        )
        self.send_ip(
            IPv4Packet(src=src, dst=packet.src, proto=IpProto.ICMP,
                       payload=error)
        )

    def _send_icmp_error(self, packet: IPv4Packet, icmp_type: IcmpType,
                         code: int = 0) -> None:
        error = IcmpMessage(
            icmp_type=icmp_type, code=code, payload=packet.encode()[:28]
        )
        self.send_ip(
            IPv4Packet(src=packet.dst, dst=packet.src, proto=IpProto.ICMP,
                       payload=error)
        )

    def lookup_route(
        self,
        packet: IPv4Packet,
        in_iface: Optional[str] = None,
        dmac: Optional[MacAddress] = None,
    ) -> Optional[KernelRoute]:
        """Apply policy rules in priority order, then LPM in the table."""
        for rule in self._rules_by_dmac.get(dmac, self._rules_any_dmac):
            if not rule.matches(packet, in_iface, dmac):
                continue
            table = self.tables.get(rule.table)
            if table is None:
                continue
            entry = table.lookup(packet.dst)
            if entry is not None:
                return entry.value
        return None

    def _route_and_forward(self, packet: IPv4Packet,
                           in_iface: Optional[str],
                           dmac: Optional[MacAddress]) -> None:
        route = self.lookup_route(packet, in_iface=in_iface, dmac=dmac)
        if route is None:
            self.counters["dropped_no_route"] += 1
            return
        self.counters["forwarded"] += 1
        self._resolve_and_send(packet, route)

    def send_ip(self, packet: IPv4Packet) -> None:
        """Send a locally generated packet."""
        if packet.dst in self.local_ips():
            self.scheduler.call_soon(self._deliver_local, packet, None)
            return
        route = self.lookup_route(packet)
        if route is None:
            self.counters["dropped_no_route"] += 1
            return
        self.counters["tx_packets"] += 1
        self._resolve_and_send(packet, route)

    def send_ip_via(self, packet: IPv4Packet, next_hop: IPv4Address,
                    out_iface: str) -> None:
        """Send bypassing the FIB (used by experiment controllers that pick
        a vBGP per-neighbor next-hop directly)."""
        route = KernelRoute(
            prefix=IPv4Prefix.parse("0.0.0.0/0"),
            out_iface=out_iface,
            next_hop=next_hop,
        )
        self.counters["tx_packets"] += 1
        self._resolve_and_send(packet, route)

    def _resolve_and_send(self, packet: IPv4Packet,
                          route: KernelRoute) -> None:
        iface = self.interfaces.get(route.out_iface)
        if iface is None or not iface.up:
            self.counters["dropped_no_route"] += 1
            return
        target = route.next_hop if route.next_hop is not None else packet.dst
        cached = self.arp_table.get(target)
        if cached is not None:
            self._transmit_ip(packet, route, cached[0])
            return
        waiter = self._arp_waiters.get(target)
        if waiter is None:
            waiter = _ArpWaiter()
            self._arp_waiters[target] = waiter
            self._send_arp_request(target, iface)
            self.scheduler.call_later(ARP_TIMEOUT, self._arp_timeout, target)
        if len(waiter.packets) < ARP_QUEUE_LIMIT:
            waiter.packets.append((packet, route))

    def _arp_timeout(self, target: IPv4Address) -> None:
        waiter = self._arp_waiters.pop(target, None)
        if waiter is not None and waiter.packets:
            self.counters["arp_timeouts"] += 1

    def _transmit_ip(self, packet: IPv4Packet, route: KernelRoute,
                     dst_mac: MacAddress) -> None:
        iface = self.interfaces.get(route.out_iface)
        if iface is None:
            return
        iface.send_frame(
            EthernetFrame(
                src=iface.mac,
                dst=dst_mac,
                ethertype=EtherType.IPV4,
                payload=packet,
            )
        )
