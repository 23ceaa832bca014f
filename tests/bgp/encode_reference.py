"""The joined-bytes UPDATE encoder, kept as the test reference.

``UpdateMessage.encode`` writes both NLRI runs into one reusable
``bytearray`` with per-prefix bytes from a memo, encodes each attribute
set once and caches the finished frame on the message.  This is the body
it replaced: every prefix encoded afresh, the attribute block encoded
afresh, the pieces joined, the header wrapped on.  It shares no cache
with the live encoder, so the live bytes are compared against it.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.bgp.messages import (
    MSG_UPDATE,
    UpdateMessage,
    _encode_attributes_uncached,
    _wrap,
)
from repro.netsim.addr import IPv4Prefix


def _encode_nlri(prefix: IPv4Prefix, path_id: Optional[int],
                 addpath: bool) -> bytes:
    nbytes = (prefix.length + 7) // 8
    wire = bytes([prefix.length]) + prefix.network.packed()[:nbytes]
    if addpath:
        return struct.pack("!I", path_id or 0) + wire
    return wire


def joined_encode(message: UpdateMessage, addpath: bool = False) -> bytes:
    """The frame ``message.encode(addpath)`` must produce."""
    withdrawn = b"".join(
        [_encode_nlri(prefix, path_id, addpath)
         for prefix, path_id in message.withdrawn]
    )
    attrs = (
        _encode_attributes_uncached(message.attributes)
        if message.nlri and message.attributes is not None else b""
    )
    nlri = b"".join(
        [_encode_nlri(prefix, path_id, addpath)
         for prefix, path_id in message.nlri]
    )
    body = (
        struct.pack("!H", len(withdrawn)) + withdrawn
        + struct.pack("!H", len(attrs)) + attrs
        + nlri
    )
    return _wrap(MSG_UPDATE, body)
