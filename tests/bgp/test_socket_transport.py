"""Socket transport tests: framing, real loopback TCP, leak hygiene.

The Hypothesis property is the framing contract the fleet rests on: TCP
may deliver a valid frame stream in *any* byte-level chunking (split
mid-marker, mid-length-field, or with several frames coalesced into one
read), and both :class:`FrameReassembler` and :class:`MessageDecoder`
must reconstruct the identical frame/message stream.

Loopback delivery is asynchronous — ``send`` returns before the peer
can read the bytes — so every socket assertion polls with short
*blocking* pumps instead of assuming a zero-timeout pump sees
everything (the fleet settle barrier instead counts ``tx_bytes`` against
``rx_bytes``).
"""

import selectors
import socket
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.errors import ErrorCode, HeaderSubcode, NotificationError
from repro.bgp.messages import (
    HEADER_SIZE,
    MAX_MESSAGE_SIZE,
    KeepaliveMessage,
    MessageDecoder,
    UpdateMessage,
)
from repro.bgp.speaker import BgpSpeaker, NeighborConfig, SpeakerConfig
from repro.bgp.transport import (
    FrameReassembler,
    FramingError,
    SocketChannel,
    SocketListener,
    SocketPoller,
    open_socket_count,
)
from repro.netsim.addr import IPv4Address, IPv4Prefix
from repro.sim.scheduler import Scheduler


def _update_frame(index: int) -> bytes:
    return UpdateMessage(
        withdrawn=((IPv4Prefix.parse(f"10.{index % 200}.{index % 250}.0/24"),
                    None),),
    ).encode()


def _valid_frames(count: int) -> list:
    frames = []
    for index in range(count):
        frames.append(_update_frame(index) if index % 3 else
                      KeepaliveMessage().encode())
    return frames


# ---------------------------------------------------------------------------
# FrameReassembler units
# ---------------------------------------------------------------------------


def test_reassembler_whole_frame():
    frame = KeepaliveMessage().encode()
    assert FrameReassembler().feed(frame) == [frame]


def test_reassembler_byte_at_a_time():
    frame = _update_frame(1)
    reassembler = FrameReassembler()
    out = []
    for offset in range(len(frame)):
        out += reassembler.feed(frame[offset:offset + 1])
    assert out == [frame]
    assert reassembler.pending() == 0


def test_reassembler_coalesced_with_partial_tail():
    frames = _valid_frames(3)
    stream = b"".join(frames)
    reassembler = FrameReassembler()
    head, tail = stream[:-5], stream[-5:]
    assert reassembler.feed(head) == frames[:-1]
    assert reassembler.pending() == len(frames[-1]) - 5
    assert reassembler.feed(tail) == frames[-1:]


def test_reassembler_rejects_bad_marker():
    with pytest.raises(FramingError):
        FrameReassembler().feed(b"\x00" * HEADER_SIZE)


def test_reassembler_rejects_bad_length():
    frame = bytearray(KeepaliveMessage().encode())
    frame[16:18] = (HEADER_SIZE - 1).to_bytes(2, "big")
    with pytest.raises(FramingError):
        FrameReassembler().feed(bytes(frame))


def test_reassembler_one_frame_chunk_is_returned_without_a_copy():
    frame = _update_frame(1)
    reassembler = FrameReassembler()
    assert reassembler.feed(frame)[0] is frame
    assert reassembler.pending() == 0


def test_reassembler_bad_marker_at_chunk_start_stays_buffered():
    reassembler = FrameReassembler()
    bad = b"\x00" * HEADER_SIZE
    with pytest.raises(FramingError, match="bad marker"):
        reassembler.feed(bad)
    assert reassembler.pending() == HEADER_SIZE
    # The stream is desynchronized for good: every later call fails the
    # same way, whatever arrives.
    with pytest.raises(FramingError, match="bad marker"):
        reassembler.feed(b"")
    with pytest.raises(FramingError, match="bad marker"):
        reassembler.feed(KeepaliveMessage().encode())


def test_reassembler_bad_marker_after_a_good_frame_in_the_same_chunk():
    good, bad = _update_frame(1), b"\x00" * (HEADER_SIZE + 3)
    reassembler = FrameReassembler()
    with pytest.raises(FramingError, match="bad marker"):
        reassembler.feed(good + bad)
    # The good frame was consumed (and lost with the exception); the
    # buffer starts at the bad header.
    assert reassembler.pending() == len(bad)
    with pytest.raises(FramingError, match="bad marker"):
        reassembler.feed(b"")


@pytest.mark.parametrize("length", [0, HEADER_SIZE - 1, MAX_MESSAGE_SIZE + 1])
def test_reassembler_bad_length_names_it_and_stays_buffered(length):
    frame = bytearray(KeepaliveMessage().encode())
    frame[16:18] = length.to_bytes(2, "big")
    good = _update_frame(2)
    reassembler = FrameReassembler()
    with pytest.raises(FramingError, match=f"bad message length {length}"):
        reassembler.feed(good + bytes(frame))
    assert reassembler.pending() == len(frame)
    with pytest.raises(FramingError, match=f"bad message length {length}"):
        reassembler.feed(b"")


def test_reassembler_header_split_across_chunks():
    frame = _update_frame(3)
    reassembler = FrameReassembler()
    assert reassembler.feed(frame[:10]) == []
    assert reassembler.pending() == 10
    assert reassembler.feed(frame[10:17]) == []     # length field cut in two
    assert reassembler.pending() == 17
    assert reassembler.feed(frame[17:] + frame[:5]) == [frame]
    assert reassembler.pending() == 5
    # A header is only judged once all 19 bytes are in.
    garbage = FrameReassembler()
    assert garbage.feed(b"\x00" * (HEADER_SIZE - 1)) == []
    with pytest.raises(FramingError, match="bad marker"):
        garbage.feed(b"\x00")


def _header_error(decoder):
    with pytest.raises(NotificationError) as caught:
        decoder.next_message()
    assert caught.value.code == ErrorCode.MESSAGE_HEADER
    return caught.value


def test_decoder_bad_marker_at_chunk_start_and_after_a_good_frame():
    bad = b"\x00" * HEADER_SIZE
    decoder = MessageDecoder()
    decoder.feed(bad)
    for _ in range(2):          # not consumed: the next call fails again
        error = _header_error(decoder)
        assert error.subcode == HeaderSubcode.CONNECTION_NOT_SYNCHRONIZED
    decoder = MessageDecoder()
    decoder.feed(KeepaliveMessage().encode() + bad)
    assert decoder.next_message() == KeepaliveMessage()
    decoder.feed(KeepaliveMessage().encode())       # more bytes do not help
    for _ in range(2):
        error = _header_error(decoder)
        assert error.subcode == HeaderSubcode.CONNECTION_NOT_SYNCHRONIZED


@pytest.mark.parametrize("length", [0, HEADER_SIZE - 1, MAX_MESSAGE_SIZE + 1])
def test_decoder_bad_length_carries_the_length(length):
    frame = bytearray(KeepaliveMessage().encode())
    frame[16:18] = length.to_bytes(2, "big")
    decoder = MessageDecoder()
    decoder.feed(_update_frame(2) + bytes(frame))
    assert isinstance(decoder.next_message(), UpdateMessage)
    for _ in range(2):
        error = _header_error(decoder)
        assert error.subcode == HeaderSubcode.BAD_MESSAGE_LENGTH
        assert error.data == struct.pack("!H", length)


def test_decoder_header_split_across_chunks():
    frame = _update_frame(3)
    decoder = MessageDecoder()
    decoder.feed(frame[:10])
    assert decoder.next_message() is None
    decoder.feed(frame[10:17])
    assert decoder.next_message() is None
    decoder.feed(frame[17:] + frame[:5])
    assert decoder.next_message() == UpdateMessage.decode(frame[HEADER_SIZE:])
    assert decoder.next_message() is None
    decoder.feed(frame[5:])
    assert decoder.next_message() == UpdateMessage.decode(frame[HEADER_SIZE:])
    assert decoder.next_message() is None


def test_decoder_a_malformed_body_is_consumed_and_the_stream_goes_on():
    """Framing is intact, so the decoder moves past the bad message: the
    session's NOTIFICATION decision is not the framer's."""
    bad_body = bytearray(KeepaliveMessage().encode() + b"\x00")
    bad_body[16:18] = (HEADER_SIZE + 1).to_bytes(2, "big")
    decoder = MessageDecoder()
    decoder.feed(bytes(bad_body) + KeepaliveMessage().encode())
    error = _header_error(decoder)
    assert error.subcode == HeaderSubcode.BAD_MESSAGE_LENGTH
    assert decoder.next_message() == KeepaliveMessage()
    assert decoder.next_message() is None


# ---------------------------------------------------------------------------
# Hypothesis: any chunking decodes to the identical stream
# ---------------------------------------------------------------------------


@st.composite
def _chunked_stream(draw):
    """A valid frame stream plus an arbitrary chunking of its bytes."""
    frames = _valid_frames(draw(st.integers(min_value=1, max_value=8)))
    stream = b"".join(frames)
    cuts = draw(st.lists(
        st.integers(min_value=1, max_value=len(stream) - 1),
        max_size=len(stream), unique=True,
    )) if len(stream) > 1 else []
    bounds = [0, *sorted(cuts), len(stream)]
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    return frames, chunks


@settings(max_examples=200, deadline=None)
@given(_chunked_stream())
def test_any_rechunking_reassembles_identically(case):
    frames, chunks = case
    reassembler = FrameReassembler()
    out = []
    for chunk in chunks:
        out += reassembler.feed(chunk)
    assert out == frames
    assert reassembler.pending() == 0


@settings(max_examples=200, deadline=None)
@given(_chunked_stream())
def test_any_rechunking_decodes_identical_messages(case):
    frames, chunks = case
    reference = MessageDecoder()
    reference.feed(b"".join(frames))
    expected = list(reference)
    decoder = MessageDecoder()
    got = []
    for chunk in chunks:
        decoder.feed(chunk)
        got += list(decoder)
    assert got == expected


# ---------------------------------------------------------------------------
# Real loopback TCP
# ---------------------------------------------------------------------------


def _pump_until(poller, predicate, timeout: float = 5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail("condition not reached within timeout")
        poller.pump(0.05)


def test_socket_echo_roundtrip():
    poller = SocketPoller()
    accepted = []
    received = []
    listener = SocketListener(poller, on_accept=accepted.append)
    try:
        client = SocketChannel.connect(poller, "127.0.0.1", listener.port)
        client.on_data = received.append
        _pump_until(poller, lambda: accepted)
        server = accepted[0]
        echoed = []
        server.on_data = lambda data: (echoed.append(data),
                                       server.send(data))
        client.send(b"ping over real tcp")
        _pump_until(poller, lambda: received)
        assert b"".join(echoed) == b"ping over real tcp"
        assert b"".join(received) == b"ping over real tcp"
        assert client.tx_bytes == server.rx_bytes == len(b"ping over real tcp")
        client.close()
        server.close()
        listener.close()
    finally:
        poller.close()


class CountingPoller(SocketPoller):
    """Records the interest mask of every ``modify`` (one ``epoll_ctl``)."""

    def __init__(self):
        super().__init__()
        self.modified = []

    def modify(self, sock, events, handler):
        self.modified.append((sock, events))
        super().modify(sock, events, handler)


def _connected_pair(poller):
    accepted = []
    listener = SocketListener(poller, on_accept=accepted.append)
    client = SocketChannel.connect(poller, "127.0.0.1", listener.port)
    _pump_until(poller, lambda: accepted and not client._connecting)
    listener.close()
    return client, accepted[0]


def test_sends_that_never_block_never_touch_the_interest_mask():
    poller = CountingPoller()
    try:
        client, server = _connected_pair(poller)
        received = bytearray()
        server.on_data = received.extend
        del poller.modified[:]      # the connect's own arm/disarm
        frame = _update_frame(1)
        for _ in range(1000):
            client.send(frame)
            poller.pump(0)
        _pump_until(poller, lambda: len(received) == 1000 * len(frame))
        assert poller.modified == []
        client.close()
        server.close()
    finally:
        poller.close()


def test_blocked_backlog_drains_byte_identical_through_partial_writes():
    """A table dump to a slow consumer: the backlog is sent from a view
    (no whole-backlog copy per attempt), in order, and ``EVENT_WRITE`` is
    armed once when the write blocks and disarmed once when it drains."""
    poller = CountingPoller()
    try:
        client, server = _connected_pair(poller)
        client.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 65536)
        received = bytearray()
        server.on_data = received.extend
        del poller.modified[:]
        payload = bytes(range(256)) * (8 * 4096)        # 8 MiB
        client.send(payload[:3_000_000])
        client.send(payload[3_000_000:])    # appended behind the backlog
        assert len(received) == 0
        _pump_until(poller, lambda: len(received) == len(payload), 30.0)
        assert bytes(received) == payload
        assert client.tx_bytes == server.rx_bytes == len(payload)
        write = selectors.EVENT_READ | selectors.EVENT_WRITE
        assert poller.modified == [
            (client.sock, write), (client.sock, selectors.EVENT_READ),
        ]
        client.close()
        server.close()
    finally:
        poller.close()


def test_bgp_session_over_real_socket():
    """Two speakers, one real TCP connection: establish and exchange."""
    scheduler = Scheduler()
    poller = SocketPoller()
    left = BgpSpeaker(scheduler, SpeakerConfig(
        asn=65001, router_id=IPv4Address.parse("192.0.2.1"), hold_time=0))
    right = BgpSpeaker(scheduler, SpeakerConfig(
        asn=65002, router_id=IPv4Address.parse("192.0.2.2"), hold_time=0))

    def on_accept(channel):
        # Attach inside the accept callback: bytes that race the accept
        # must land in the session's handler, not a void.
        right.attach_neighbor(NeighborConfig(
            name="left", peer_asn=None,
            local_address=IPv4Address.parse("192.0.2.2")), channel)

    listener = SocketListener(poller, on_accept=on_accept)
    try:
        channel = SocketChannel.connect(poller, "127.0.0.1", listener.port)
        left.attach_neighbor(NeighborConfig(
            name="right", peer_asn=None,
            local_address=IPv4Address.parse("192.0.2.1")), channel)

        def drain():
            poller.pump(0.02)
            while scheduler.run_until(scheduler.now):
                pass

        _pump_until(poller, lambda: (
            drain() or (left.neighbors["right"].established
                        and "left" in right.neighbors
                        and right.neighbors["left"].established)))
        from repro.bgp.attributes import local_route
        prefix = IPv4Prefix.parse("203.0.113.0/24")
        left.originate(local_route(prefix))
        _pump_until(poller, lambda: (
            drain() or right.best_route(prefix) is not None))
        best = right.best_route(prefix)
        assert best.as_path.segments[0].asns == (65001,)
        channel.close()
        listener.close()
        for neighbor in list(right.neighbors.values()):
            if neighbor.session is not None:
                neighbor.session.channel.close()
    finally:
        poller.close()


def test_socket_leak_accounting():
    baseline = open_socket_count()
    poller = SocketPoller()
    accepted = []
    listener = SocketListener(poller, on_accept=accepted.append)
    client = SocketChannel.connect(poller, "127.0.0.1", listener.port)
    _pump_until(poller, lambda: accepted)
    assert open_socket_count() > baseline
    client.close()
    accepted[0].close()
    listener.close()
    poller.close()
    assert open_socket_count() == baseline
