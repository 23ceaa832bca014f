"""Layer-2/3/4 packet formats: Ethernet, ARP, IPv4, ICMP, UDP.

Frames are passed between simulated devices as Python objects for speed, but
every format also has a real byte-level ``encode``/``decode`` pair (exercised
by the wire-format tests) so the reproduction keeps fidelity to the on-wire
protocols the paper's platform exchanges with real networks.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from repro.netsim.addr import AddressError, IPv4Address, MacAddress


class EtherType(enum.IntEnum):
    """Ethernet payload types used in the simulation."""

    IPV4 = 0x0800
    ARP = 0x0806
    VLAN = 0x8100
    IPV6 = 0x86DD


class IpProto(enum.IntEnum):
    """IP protocol numbers used in the simulation."""

    ICMP = 1
    TCP = 6
    UDP = 17


class ArpOp(enum.IntEnum):
    REQUEST = 1
    REPLY = 2


class IcmpType(enum.IntEnum):
    ECHO_REPLY = 0
    DEST_UNREACHABLE = 3
    ECHO_REQUEST = 8
    TIME_EXCEEDED = 11


@dataclass(frozen=True)
class ArpPacket:
    """An ARP request or reply for IPv4 over Ethernet."""

    op: ArpOp
    sender_mac: MacAddress
    sender_ip: IPv4Address
    target_mac: MacAddress
    target_ip: IPv4Address

    WIRE_SIZE = 28
    size = WIRE_SIZE

    def encode(self) -> bytes:
        header = struct.pack("!HHBBH", 1, EtherType.IPV4, 6, 4, self.op)
        return (
            header
            + self.sender_mac.value.to_bytes(6, "big")
            + self.sender_ip.packed()
            + self.target_mac.value.to_bytes(6, "big")
            + self.target_ip.packed()
        )

    @classmethod
    def decode(cls, data: bytes) -> "ArpPacket":
        if len(data) < cls.WIRE_SIZE:
            raise ValueError(f"ARP packet too short: {len(data)} bytes")
        htype, ptype, hlen, plen, op = struct.unpack("!HHBBH", data[:8])
        if (htype, ptype, hlen, plen) != (1, EtherType.IPV4, 6, 4):
            raise ValueError("unsupported ARP hardware/protocol types")
        return cls(
            op=ArpOp(op),
            sender_mac=MacAddress(int.from_bytes(data[8:14], "big")),
            sender_ip=IPv4Address.from_packed(data[14:18]),
            target_mac=MacAddress(int.from_bytes(data[18:24], "big")),
            target_ip=IPv4Address.from_packed(data[24:28]),
        )


@dataclass(frozen=True)
class IcmpMessage:
    """A (simplified) ICMP message.

    ``payload`` carries the triggering packet for error messages, mirroring
    how real TTL-exceeded replies quote the original header — this is what
    makes simulated traceroute work through vBGP.
    """

    icmp_type: IcmpType
    code: int = 0
    identifier: int = 0
    sequence: int = 0
    payload: bytes = b""

    def encode(self) -> bytes:
        body = struct.pack(
            "!BBHHH", self.icmp_type, self.code, 0, self.identifier, self.sequence
        ) + self.payload
        checksum = _inet_checksum(body)
        return body[:2] + struct.pack("!H", checksum) + body[4:]

    @classmethod
    def decode(cls, data: bytes) -> "IcmpMessage":
        if len(data) < 8:
            raise ValueError(f"ICMP message too short: {len(data)} bytes")
        icmp_type, code, _checksum, identifier, sequence = struct.unpack(
            "!BBHHH", data[:8]
        )
        return cls(
            icmp_type=IcmpType(icmp_type),
            code=code,
            identifier=identifier,
            sequence=sequence,
            payload=data[8:],
        )


@dataclass(frozen=True)
class UdpDatagram:
    """A UDP datagram (checksum omitted; the simulator does not corrupt)."""

    src_port: int
    dst_port: int
    payload: bytes = b""

    def encode(self) -> bytes:
        length = 8 + len(self.payload)
        return struct.pack("!HHHH", self.src_port, self.dst_port, length, 0) + (
            self.payload
        )

    @classmethod
    def decode(cls, data: bytes) -> "UdpDatagram":
        if len(data) < 8:
            raise ValueError(f"UDP datagram too short: {len(data)} bytes")
        src_port, dst_port, length, _checksum = struct.unpack("!HHHH", data[:8])
        if length != len(data):
            raise ValueError("UDP length field mismatch")
        return cls(src_port=src_port, dst_port=dst_port, payload=data[8:])


Payload = Union[IcmpMessage, UdpDatagram, bytes]


@dataclass(frozen=True)
class IPv4Packet:
    """An IPv4 packet.

    ``payload`` is a typed object for ICMP/UDP or raw bytes for everything
    else (the simplified TCP layer uses its own segment objects carried in a
    bytes envelope only when serialized).
    """

    src: IPv4Address
    dst: IPv4Address
    proto: IpProto
    payload: Payload = b""
    ttl: int = 64
    dscp: int = 0
    identification: int = 0

    HEADER_SIZE = 20

    def decrement_ttl(self) -> "IPv4Packet":
        """Return a copy with TTL reduced by one.

        Built via the constructor directly (``dataclasses.replace`` showed
        up in the forwarding profile), carrying over the memoized payload
        bytes — the payload object is unchanged.
        """
        clone = IPv4Packet(
            src=self.src,
            dst=self.dst,
            proto=self.proto,
            payload=self.payload,
            ttl=self.ttl - 1,
            dscp=self.dscp,
            identification=self.identification,
        )
        cached = self.__dict__.get("_payload_wire")
        if cached is not None:
            object.__setattr__(clone, "_payload_wire", cached)
        return clone

    @property
    def payload_bytes(self) -> bytes:
        if isinstance(self.payload, bytes):
            return self.payload
        # Memoized on the (frozen) packet: the datapath asks for the
        # serialized payload several times per hop (size accounting, frame
        # encode, enforcement), and payloads are immutable.
        cached = self.__dict__.get("_payload_wire")
        if cached is None:
            cached = self.payload.encode()
            object.__setattr__(self, "_payload_wire", cached)
        return cached

    @property
    def size(self) -> int:
        """Total packet size in bytes (used for rate accounting)."""
        return self.HEADER_SIZE + len(self.payload_bytes)

    def encode(self) -> bytes:
        cached = self.__dict__.get("_wire")
        if cached is not None:
            return cached
        payload = self.payload_bytes
        total_length = self.HEADER_SIZE + len(payload)
        header = struct.pack(
            "!BBHHHBBH4s4s",
            (4 << 4) | 5,
            self.dscp << 2,
            total_length,
            self.identification,
            0,
            self.ttl,
            self.proto,
            0,
            self.src.packed(),
            self.dst.packed(),
        )
        checksum = _inet_checksum(header)
        header = header[:10] + struct.pack("!H", checksum) + header[12:]
        wire = header + payload
        object.__setattr__(self, "_wire", wire)
        return wire

    @classmethod
    def decode(cls, data: bytes) -> "IPv4Packet":
        if len(data) < cls.HEADER_SIZE:
            raise ValueError(f"IPv4 packet too short: {len(data)} bytes")
        (
            version_ihl,
            dscp_ecn,
            total_length,
            identification,
            _flags_frag,
            ttl,
            proto,
            _checksum,
            src,
            dst,
        ) = struct.unpack("!BBHHHBBH4s4s", data[:20])
        version = version_ihl >> 4
        ihl = version_ihl & 0x0F
        if version != 4 or ihl != 5:
            raise ValueError("unsupported IPv4 header")
        if total_length != len(data):
            raise ValueError("IPv4 total length mismatch")
        raw_payload = data[20:]
        payload: Payload = raw_payload
        try:
            if proto == IpProto.ICMP:
                payload = IcmpMessage.decode(raw_payload)
            elif proto == IpProto.UDP:
                payload = UdpDatagram.decode(raw_payload)
        except ValueError:
            payload = raw_payload
        return cls(
            src=IPv4Address.from_packed(src),
            dst=IPv4Address.from_packed(dst),
            proto=IpProto(proto),
            payload=payload,
            ttl=ttl,
            dscp=dscp_ecn >> 2,
            identification=identification,
        )


@dataclass(frozen=True)
class EthernetFrame:
    """An Ethernet II frame, optionally 802.1Q tagged."""

    src: MacAddress
    dst: MacAddress
    ethertype: EtherType
    payload: Union[IPv4Packet, ArpPacket, bytes]
    vlan: Optional[int] = None

    @property
    def payload_bytes(self) -> bytes:
        if isinstance(self.payload, bytes):
            return self.payload
        return self.payload.encode()

    @cached_property
    def size(self) -> int:
        """Frame length in bytes, from the headers' fixed sizes: ports read
        it on every hop, so it must not serialise the payload."""
        payload = self.payload
        return (14 if self.vlan is None else 18) + (
            len(payload) if isinstance(payload, bytes) else payload.size
        )

    def encode(self) -> bytes:
        header = self.dst.value.to_bytes(6, "big") + self.src.value.to_bytes(6, "big")
        if self.vlan is not None:
            if not 0 <= self.vlan < 4096:
                raise ValueError(f"VLAN id out of range: {self.vlan}")
            header += struct.pack("!HH", EtherType.VLAN, self.vlan)
        header += struct.pack("!H", self.ethertype)
        return header + self.payload_bytes

    @classmethod
    def decode(cls, data: bytes) -> "EthernetFrame":
        if len(data) < 14:
            raise ValueError(f"Ethernet frame too short: {len(data)} bytes")
        dst = MacAddress(int.from_bytes(data[0:6], "big"))
        src = MacAddress(int.from_bytes(data[6:12], "big"))
        (ethertype,) = struct.unpack("!H", data[12:14])
        vlan = None
        offset = 14
        if ethertype == EtherType.VLAN:
            (tci,) = struct.unpack("!H", data[14:16])
            vlan = tci & 0x0FFF
            (ethertype,) = struct.unpack("!H", data[16:18])
            offset = 18
        raw = data[offset:]
        payload: Union[IPv4Packet, ArpPacket, bytes] = raw
        try:
            if ethertype == EtherType.IPV4:
                payload = IPv4Packet.decode(raw)
            elif ethertype == EtherType.ARP:
                payload = ArpPacket.decode(raw)
        except (ValueError, AddressError):
            payload = raw
        return cls(
            src=src, dst=dst, ethertype=EtherType(ethertype), payload=payload, vlan=vlan
        )


def _inet_checksum(data: bytes) -> int:
    """Standard Internet 16-bit one's-complement checksum."""
    if len(data) % 2:
        data += b"\x00"
    # Sum whole 16-bit words in one struct call, then fold the carries —
    # an order of magnitude faster than the per-byte loop it replaces.
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF
