"""Wire-format tests for Ethernet/ARP/IPv4/ICMP/UDP, with hypothesis
round-trip properties."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.addr import IPv4Address, MacAddress
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
    _inet_checksum,
)

MAC_A = MacAddress.parse("02:00:00:00:00:01")
MAC_B = MacAddress.parse("02:00:00:00:00:02")
IP_A = IPv4Address.parse("10.0.0.1")
IP_B = IPv4Address.parse("10.0.0.2")


class TestArp:
    def test_roundtrip_request(self):
        arp = ArpPacket(op=ArpOp.REQUEST, sender_mac=MAC_A, sender_ip=IP_A,
                        target_mac=MacAddress(0), target_ip=IP_B)
        assert ArpPacket.decode(arp.encode()) == arp

    def test_roundtrip_reply(self):
        arp = ArpPacket(op=ArpOp.REPLY, sender_mac=MAC_B, sender_ip=IP_B,
                        target_mac=MAC_A, target_ip=IP_A)
        assert ArpPacket.decode(arp.encode()) == arp

    def test_wire_size(self):
        arp = ArpPacket(op=ArpOp.REQUEST, sender_mac=MAC_A, sender_ip=IP_A,
                        target_mac=MacAddress(0), target_ip=IP_B)
        assert len(arp.encode()) == ArpPacket.WIRE_SIZE

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            ArpPacket.decode(b"\x00" * 10)


class TestIcmp:
    def test_roundtrip(self):
        icmp = IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST, identifier=7,
                           sequence=42, payload=b"hello")
        assert IcmpMessage.decode(icmp.encode()) == icmp

    def test_checksum_is_valid(self):
        data = IcmpMessage(icmp_type=IcmpType.ECHO_REPLY).encode()
        assert _inet_checksum(data) == 0

    def test_time_exceeded_carries_quote(self):
        quoted = b"\x45\x00" + b"\x00" * 26
        icmp = IcmpMessage(icmp_type=IcmpType.TIME_EXCEEDED, payload=quoted)
        assert IcmpMessage.decode(icmp.encode()).payload == quoted


class TestUdp:
    def test_roundtrip(self):
        udp = UdpDatagram(src_port=33434, dst_port=53, payload=b"query")
        assert UdpDatagram.decode(udp.encode()) == udp

    def test_length_mismatch_rejected(self):
        data = UdpDatagram(src_port=1, dst_port=2, payload=b"xy").encode()
        with pytest.raises(ValueError):
            UdpDatagram.decode(data + b"extra")


class TestIPv4:
    def make(self, **kwargs) -> IPv4Packet:
        defaults = dict(src=IP_A, dst=IP_B, proto=IpProto.UDP,
                        payload=UdpDatagram(src_port=1, dst_port=2,
                                            payload=b"data"))
        defaults.update(kwargs)
        return IPv4Packet(**defaults)

    def test_roundtrip_with_udp(self):
        packet = self.make()
        assert IPv4Packet.decode(packet.encode()) == packet

    def test_roundtrip_with_icmp(self):
        packet = self.make(
            proto=IpProto.ICMP,
            payload=IcmpMessage(icmp_type=IcmpType.ECHO_REQUEST),
        )
        decoded = IPv4Packet.decode(packet.encode())
        assert isinstance(decoded.payload, IcmpMessage)

    def test_ttl_and_dscp_preserved(self):
        packet = self.make(ttl=3, dscp=46)
        decoded = IPv4Packet.decode(packet.encode())
        assert decoded.ttl == 3
        assert decoded.dscp == 46

    def test_decrement_ttl(self):
        assert self.make(ttl=64).decrement_ttl().ttl == 63

    def test_size_accounts_header(self):
        packet = self.make(payload=b"x" * 100)
        assert packet.size == 120

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            IPv4Packet.decode(b"\x45" + b"\x00" * 10)

    def test_length_field_checked(self):
        data = self.make().encode()
        with pytest.raises(ValueError):
            IPv4Packet.decode(data + b"pad")


class TestEthernet:
    def test_roundtrip_ip(self):
        frame = EthernetFrame(
            src=MAC_A, dst=MAC_B, ethertype=EtherType.IPV4,
            payload=IPv4Packet(src=IP_A, dst=IP_B, proto=IpProto.UDP,
                               payload=UdpDatagram(1, 2, b"x")),
        )
        assert EthernetFrame.decode(frame.encode()) == frame

    def test_roundtrip_vlan_tagged(self):
        frame = EthernetFrame(
            src=MAC_A, dst=MAC_B, ethertype=EtherType.IPV4,
            payload=b"\x00" * 20, vlan=100,
        )
        decoded = EthernetFrame.decode(frame.encode())
        assert decoded.vlan == 100

    def test_roundtrip_arp(self):
        frame = EthernetFrame(
            src=MAC_A, dst=MacAddress.broadcast(), ethertype=EtherType.ARP,
            payload=ArpPacket(op=ArpOp.REQUEST, sender_mac=MAC_A,
                              sender_ip=IP_A, target_mac=MacAddress(0),
                              target_ip=IP_B),
        )
        decoded = EthernetFrame.decode(frame.encode())
        assert isinstance(decoded.payload, ArpPacket)

    def test_vlan_out_of_range(self):
        frame = EthernetFrame(src=MAC_A, dst=MAC_B,
                              ethertype=EtherType.IPV4, payload=b"",
                              vlan=5000)
        with pytest.raises(ValueError):
            frame.encode()

    def test_size_includes_vlan_tag(self):
        plain = EthernetFrame(src=MAC_A, dst=MAC_B,
                              ethertype=EtherType.IPV4, payload=b"x" * 10)
        tagged = EthernetFrame(src=MAC_A, dst=MAC_B,
                               ethertype=EtherType.IPV4, payload=b"x" * 10,
                               vlan=7)
        assert tagged.size == plain.size + 4


macs = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MacAddress)
ips = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IPv4Address)


@given(src=ips, dst=ips, ttl=st.integers(min_value=1, max_value=255),
       payload=st.binary(max_size=64))
def test_ipv4_roundtrip_property(src, dst, ttl, payload):
    packet = IPv4Packet(src=src, dst=dst, proto=IpProto.TCP,
                        payload=payload, ttl=ttl)
    assert IPv4Packet.decode(packet.encode()) == packet


@given(src=macs, dst=macs, payload=st.binary(max_size=64),
       vlan=st.one_of(st.none(), st.integers(min_value=0, max_value=4095)))
def test_ethernet_roundtrip_property(src, dst, payload, vlan):
    frame = EthernetFrame(src=src, dst=dst, ethertype=EtherType.IPV4,
                          payload=payload, vlan=vlan)
    decoded = EthernetFrame.decode(frame.encode())
    assert decoded.src == src and decoded.dst == dst
    assert decoded.vlan == vlan


@given(data=st.binary(max_size=128).filter(lambda d: len(d) % 2 == 0))
def test_checksum_verification_property(data):
    """Appending the checksum of (16-bit-aligned) data verifies to zero —
    protocols always place the checksum at an even offset."""
    checksum = _inet_checksum(data)
    combined = data + checksum.to_bytes(2, "big")
    assert _inet_checksum(combined) == 0


def _sized_frames():
    arp = ArpPacket(op=ArpOp.REQUEST, sender_mac=MAC_A, sender_ip=IP_A,
                    target_mac=MacAddress(0), target_ip=IP_B)
    payloads = {
        "udp": (EtherType.IPV4, IPv4Packet(
            src=IP_A, dst=IP_B, proto=IpProto.UDP,
            payload=UdpDatagram(4000, 53, b"query" * 7))),
        "icmp": (EtherType.IPV4, IPv4Packet(
            src=IP_A, dst=IP_B, proto=IpProto.ICMP,
            payload=IcmpMessage(icmp_type=IcmpType.TIME_EXCEEDED,
                                payload=b"q" * 28))),
        "ip-raw": (EtherType.IPV4, IPv4Packet(
            src=IP_A, dst=IP_B, proto=IpProto.TCP, payload=b"segment" * 9)),
        "ip-empty": (EtherType.IPV4, IPv4Packet(
            src=IP_A, dst=IP_B, proto=IpProto.TCP)),
        "arp": (EtherType.ARP, arp),
        "bytes": (EtherType.IPV6, b"\x60" + b"\x00" * 39),
        "empty": (EtherType.IPV4, b""),
    }
    return [
        pytest.param(ethertype, payload, vlan, id=f"{name}-vlan{vlan}")
        for name, (ethertype, payload) in payloads.items()
        for vlan in (None, 100)
    ]


@pytest.mark.parametrize("warm", [True, False])
@pytest.mark.parametrize("ethertype,payload,vlan", _sized_frames())
def test_size_is_encoded_length(ethertype, payload, vlan, warm):
    """``size`` equals the encoded length whether the payload's wire memo
    is already filled (``warm``) or still empty when ``size`` is read."""
    frame = EthernetFrame(src=MAC_A, dst=MAC_B, ethertype=ethertype,
                          payload=payload, vlan=vlan)
    if warm:
        frame.encode()
    assert frame.size == len(frame.encode())
    assert frame.size == len(frame.encode())    # and stays so, memoised
    if isinstance(payload, IPv4Packet):
        # The forwarding path's copy keeps its size.
        hop = EthernetFrame(src=MAC_B, dst=MAC_A, ethertype=ethertype,
                            payload=payload.decrement_ttl(), vlan=vlan)
        assert hop.size == frame.size == len(hop.encode())


@pytest.mark.parametrize("warm", [True, False])
def test_size_never_encodes_the_ip_packet(monkeypatch, warm):
    """Ports read ``size`` on every hop; it is header arithmetic, with or
    without the payload bytes already memoized (``warm``)."""
    calls = []
    real = IPv4Packet.encode
    monkeypatch.setattr(
        IPv4Packet, "encode",
        lambda self: calls.append(self) or real(self),
    )
    for _ethertype, payload, vlan in (p.values for p in _sized_frames()):
        if isinstance(payload, IPv4Packet):
            if warm:
                payload.payload_bytes
            frame = EthernetFrame(src=MAC_A, dst=MAC_B,
                                  ethertype=EtherType.IPV4,
                                  payload=payload, vlan=vlan)
            assert frame.size == frame.size > 14
    assert calls == []
    frame.encode()
    assert calls == [frame.payload]
