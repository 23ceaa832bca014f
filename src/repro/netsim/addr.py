"""Address types: MAC, IPv4, IPv6, and prefixes.

These are implemented from scratch (integer-backed, hashable, totally
ordered) rather than on :mod:`ipaddress` so the rest of the reproduction can
rely on exact semantics — e.g. a prefix *is* an ``int`` packing its family
tag, network and length, so every table keyed on prefixes hashes and
compares in C, and vBGP allocates virtual MAC/IP pairs arithmetically.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterator, Union


class AddressError(ValueError):
    """Raised for malformed addresses or prefixes."""


@total_ordering
class MacAddress:
    """A 48-bit Ethernet MAC address."""

    __slots__ = ("_value",)

    BROADCAST_VALUE = (1 << 48) - 1

    def __init__(self, value: int) -> None:
        if not 0 <= value < (1 << 48):
            raise AddressError(f"MAC value out of range: {value:#x}")
        self._value = value

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        """Parse ``aa:bb:cc:dd:ee:ff`` (also accepts ``-`` separators)."""
        parts = text.replace("-", ":").split(":")
        if len(parts) != 6:
            raise AddressError(f"malformed MAC address: {text!r}")
        value = 0
        for part in parts:
            if not 1 <= len(part) <= 2:
                raise AddressError(f"malformed MAC address: {text!r}")
            try:
                octet = int(part, 16)
            except ValueError as exc:
                raise AddressError(f"malformed MAC address: {text!r}") from exc
            value = (value << 8) | octet
        return cls(value)

    @classmethod
    def broadcast(cls) -> "MacAddress":
        return cls(cls.BROADCAST_VALUE)

    @property
    def value(self) -> int:
        return self._value

    @property
    def is_broadcast(self) -> bool:
        return self._value == self.BROADCAST_VALUE

    @property
    def is_multicast(self) -> bool:
        return bool((self._value >> 40) & 0x01)

    @property
    def is_locally_administered(self) -> bool:
        return bool((self._value >> 40) & 0x02)

    def __str__(self) -> str:
        octets = [(self._value >> shift) & 0xFF for shift in range(40, -8, -8)]
        return ":".join(f"{octet:02x}" for octet in octets)

    def __repr__(self) -> str:
        return f"MacAddress({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MacAddress) and self._value == other._value

    def __lt__(self, other: "MacAddress") -> bool:
        if not isinstance(other, MacAddress):
            return NotImplemented
        return self._value < other._value

    def __hash__(self) -> int:
        # Salted raw value: cheaper than hashing a ("mac", value) tuple on
        # every dict operation, distinct from the address-type hashes.
        return self._value ^ 0x6D61635F6D61635F


@total_ordering
class IPv4Address:
    """A 32-bit IPv4 address."""

    __slots__ = ("_value",)

    BITS = 32

    def __init__(self, value: int) -> None:
        if not 0 <= value < (1 << 32):
            raise AddressError(f"IPv4 value out of range: {value:#x}")
        self._value = value

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        parts = text.split(".")
        if len(parts) != 4:
            raise AddressError(f"malformed IPv4 address: {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
                raise AddressError(f"malformed IPv4 address: {text!r}")
            octet = int(part)
            if octet > 255:
                raise AddressError(f"malformed IPv4 address: {text!r}")
            value = (value << 8) | octet
        return cls(value)

    @property
    def value(self) -> int:
        return self._value

    @property
    def is_private(self) -> bool:
        return (
            IPv4Prefix.parse("10.0.0.0/8").contains_address(self)
            or IPv4Prefix.parse("172.16.0.0/12").contains_address(self)
            or IPv4Prefix.parse("192.168.0.0/16").contains_address(self)
        )

    @property
    def is_loopback(self) -> bool:
        return IPv4Prefix.parse("127.0.0.0/8").contains_address(self)

    def packed(self) -> bytes:
        return self._value.to_bytes(4, "big")

    @classmethod
    def from_packed(cls, data: bytes) -> "IPv4Address":
        if len(data) != 4:
            raise AddressError(f"need 4 bytes for IPv4, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self._value + offset)

    def __str__(self) -> str:
        octets = [(self._value >> shift) & 0xFF for shift in (24, 16, 8, 0)]
        return ".".join(str(octet) for octet in octets)

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IPv4Address) and self._value == other._value

    def __lt__(self, other: "IPv4Address") -> bool:
        if not isinstance(other, IPv4Address):
            return NotImplemented
        return self._value < other._value

    def __hash__(self) -> int:
        # Raw value (non-negative, < 2**32): avoids allocating and hashing
        # a tuple per call — addresses key nearly every hot dict.
        return self._value


@total_ordering
class IPv6Address:
    """A 128-bit IPv6 address (full and ``::``-compressed forms supported)."""

    __slots__ = ("_value",)

    BITS = 128

    def __init__(self, value: int) -> None:
        if not 0 <= value < (1 << 128):
            raise AddressError(f"IPv6 value out of range: {value:#x}")
        self._value = value

    @classmethod
    def parse(cls, text: str) -> "IPv6Address":
        if text.count("::") > 1:
            raise AddressError(f"malformed IPv6 address: {text!r}")
        if "::" in text:
            head, _, tail = text.partition("::")
            head_groups = head.split(":") if head else []
            tail_groups = tail.split(":") if tail else []
            fill = 8 - len(head_groups) - len(tail_groups)
            if fill < 1:
                raise AddressError(f"malformed IPv6 address: {text!r}")
            groups = head_groups + ["0"] * fill + tail_groups
        else:
            groups = text.split(":")
        if len(groups) != 8:
            raise AddressError(f"malformed IPv6 address: {text!r}")
        value = 0
        for group in groups:
            if not 1 <= len(group) <= 4:
                raise AddressError(f"malformed IPv6 address: {text!r}")
            try:
                word = int(group, 16)
            except ValueError as exc:
                raise AddressError(f"malformed IPv6 address: {text!r}") from exc
            value = (value << 16) | word
        return cls(value)

    @property
    def value(self) -> int:
        return self._value

    def packed(self) -> bytes:
        return self._value.to_bytes(16, "big")

    @classmethod
    def from_packed(cls, data: bytes) -> "IPv6Address":
        if len(data) != 16:
            raise AddressError(f"need 16 bytes for IPv6, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def __add__(self, offset: int) -> "IPv6Address":
        return IPv6Address(self._value + offset)

    def __str__(self) -> str:
        groups = [(self._value >> shift) & 0xFFFF for shift in range(112, -16, -16)]
        # Find the longest run of zero groups to compress with "::".
        best_start, best_len = -1, 0
        run_start, run_len = -1, 0
        for i, group in enumerate(groups):
            if group == 0:
                if run_start < 0:
                    run_start, run_len = i, 0
                run_len += 1
                if run_len > best_len:
                    best_start, best_len = run_start, run_len
            else:
                run_start, run_len = -1, 0
        if best_len < 2:
            return ":".join(f"{group:x}" for group in groups)
        head = ":".join(f"{g:x}" for g in groups[:best_start])
        tail = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
        return f"{head}::{tail}"

    def __repr__(self) -> str:
        return f"IPv6Address({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IPv6Address) and self._value == other._value

    def __lt__(self, other: "IPv6Address") -> bool:
        if not isinstance(other, IPv6Address):
            return NotImplemented
        return self._value < other._value

    def __hash__(self) -> int:
        # Salted value hash; avoids tuple allocation per call.
        return hash(self._value) ^ 0x6970365F69703636


IPAddress = Union[IPv4Address, IPv6Address]


class _Prefix(int):
    """Shared behaviour for IPv4/IPv6 prefixes.

    A prefix is an ``int`` holding ``TAG | network << 8 | length``, with
    no instance dict: hashing, equality and ordering are the int's own,
    run in C, and every RIB, path-id map and kernel table keys on it.
    ``TAG`` is one bit above the family's widest packed value, so the two
    families never compare equal (IPv4 sorts first), no prefix is falsy
    (``0.0.0.0/0`` included), and no prefix equals an int below
    ``2**40``, such as a path id or an ASN.  Within a family, int order
    is ``(network, length)`` order: :meth:`key` order.

    ``json`` writes an int subclass as its bare number: serialize a
    prefix with ``str()``, never as the object.
    """

    __slots__ = ()

    BITS: int = 0
    TAG: int = 0
    ADDRESS_CLS: type = object

    def __new__(cls, network: IPAddress, length: int):
        if not isinstance(network, cls.ADDRESS_CLS):
            raise AddressError(f"{network!r} is not a {cls.__name__} network")
        if not 0 <= length <= cls.BITS:
            raise AddressError(f"prefix length out of range: /{length}")
        value = network.value
        if value & ((1 << (cls.BITS - length)) - 1):
            raise AddressError(
                f"host bits set in prefix {network}/{length}"
            )
        return int.__new__(cls, cls.TAG | value << 8 | length)

    @classmethod
    def _mask(cls, length: int) -> int:
        if length == 0:
            return 0
        return ((1 << length) - 1) << (cls.BITS - length)

    @classmethod
    def parse(cls, text: str):
        addr_text, sep, len_text = text.partition("/")
        if not sep:
            raise AddressError(f"prefix missing length: {text!r}")
        try:
            length = int(len_text)
        except ValueError as exc:
            raise AddressError(f"malformed prefix length: {text!r}") from exc
        address = cls.ADDRESS_CLS.parse(addr_text)  # type: ignore[attr-defined]
        return cls(address, length)

    @classmethod
    def from_address(cls, address: IPAddress, length: int):
        """Build a prefix by masking ``address`` down to ``length`` bits."""
        mask = cls._mask(length)
        return cls(cls.ADDRESS_CLS(address.value & mask), length)  # type: ignore[call-arg]

    @property
    def network(self) -> IPAddress:
        return self.ADDRESS_CLS((self ^ self.TAG) >> 8)  # type: ignore[call-arg]

    @property
    def length(self) -> int:
        return self & 0xFF

    @property
    def netmask(self) -> int:
        return self._mask(self & 0xFF)

    @property
    def num_addresses(self) -> int:
        return 1 << (self.BITS - (self & 0xFF))

    def contains_address(self, address: IPAddress) -> bool:
        if not isinstance(address, self.ADDRESS_CLS):
            return False
        shift = self.BITS - (self & 0xFF)
        return address.value >> shift == (self ^ self.TAG) >> (8 + shift)

    def contains_prefix(self, other: "_Prefix") -> bool:
        if type(other) is not type(self):
            return False
        length = self & 0xFF
        if other & 0xFF < length:
            return False
        # Same family, same tag: the networks agree on the first
        # ``length`` bits iff the packed ints do above them.
        shift = 8 + self.BITS - length
        return other >> shift == self >> shift

    def subnets(self, new_length: int) -> Iterator["_Prefix"]:
        """Iterate over the subnets of this prefix at ``new_length``."""
        length = self & 0xFF
        if new_length < length or new_length > self.BITS:
            raise AddressError(
                f"cannot subnet /{length} into /{new_length}"
            )
        network = (self ^ self.TAG) >> 8
        step = 1 << (self.BITS - new_length)
        for value in range(network, network + self.num_addresses, step):
            yield type(self)(self.ADDRESS_CLS(value), new_length)  # type: ignore[call-arg]

    def address_at(self, offset: int) -> IPAddress:
        """Return the ``offset``-th address inside the prefix."""
        if not 0 <= offset < self.num_addresses:
            raise AddressError(
                f"offset {offset} outside {self}"
            )
        return self.ADDRESS_CLS(((self ^ self.TAG) >> 8) + offset)  # type: ignore[call-arg]

    def key(self) -> tuple[int, int]:
        """``(network value, length)``: the order prefixes sort in."""
        return ((self ^ self.TAG) >> 8, self & 0xFF)

    def __getnewargs__(self) -> tuple[IPAddress, int]:
        # pickle and copy rebuild through ``__new__(network, length)``.
        return self.network, self & 0xFF

    def __str__(self) -> str:
        return f"{self.network}/{self & 0xFF}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class IPv4Prefix(_Prefix):
    """An IPv4 CIDR prefix such as ``184.164.224.0/24``."""

    BITS = 32
    TAG = 1 << 40
    ADDRESS_CLS = IPv4Address


class IPv6Prefix(_Prefix):
    """An IPv6 CIDR prefix such as ``2804:269c::/32``."""

    BITS = 128
    TAG = 1 << 136
    ADDRESS_CLS = IPv6Address


Prefix = Union[IPv4Prefix, IPv6Prefix]


def parse_prefix(text: str) -> Prefix:
    """Parse either an IPv4 or IPv6 prefix based on its syntax."""
    if ":" in text:
        return IPv6Prefix.parse(text)
    return IPv4Prefix.parse(text)


def parse_address(text: str) -> IPAddress:
    """Parse either an IPv4 or IPv6 address based on its syntax."""
    if ":" in text:
        return IPv6Address.parse(text)
    return IPv4Address.parse(text)
