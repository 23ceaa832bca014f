"""Reliable byte-stream transport for BGP sessions.

BGP runs over TCP; inside the reproduction, sessions exchange their encoded
bytes over a :class:`Channel` pair — an in-order, reliable duplex stream
with configurable one-way latency, scheduled on the shared simulator. (The
full simulated-TCP implementation in :mod:`repro.netsim.tcp` is reserved for
the data-plane throughput experiments, where congestion behaviour matters;
control-plane fidelity lives in the BGP codec itself, which sees real bytes
either way.)

A mux fans out, so sends come in *bursts*: consecutive ``Channel.send``
calls due at the same simulated instant (one frame to each of many
channels) with no other scheduler event pushed in between.  A burst is one
scheduler event (``Scheduler.append_later``) that delivers its frames one
by one, unjoined, in send order — to every ``on_data``, timer and
``close()`` exactly what one event per send was (DESIGN.md §6b).

The fleet runtime (§6k) adds a *real* transport behind the same seam:
:class:`SocketChannel` speaks the identical ``send``/``on_data``/``on_close``
protocol over a nonblocking TCP socket on loopback, driven by a
:class:`SocketPoller`.  ``BgpSession`` and ``SessionSupervisor`` cannot tell
the two apart, which is exactly what lets the fleet differential harness
diff an in-process world against a multi-process one byte-for-byte.
:class:`FrameReassembler` recovers BGP message frames from the arbitrary
chunk boundaries a TCP stream produces, for taps and federation readers
that want frames rather than a parsed message stream.

Every live socket object registers in a module-level weak set;
:func:`open_socket_count` / :func:`close_all_sockets` back the test-suite
FD leak guard and an ``atexit`` sweep, so no test or interpreter exit
leaves a descriptor behind.
"""

from __future__ import annotations

import atexit
import errno
import selectors
import socket
import weakref
from typing import Callable, List, Optional

from repro.bgp.messages import HEADER_SIZE, MARKER, MAX_MESSAGE_SIZE
from repro.sim.scheduler import Scheduler


class Channel:
    """One endpoint of a reliable duplex byte stream."""

    def __init__(self, scheduler: Scheduler, latency: float = 0.0) -> None:
        self.scheduler = scheduler
        self.latency = latency
        self.peer: Optional["Channel"] = None
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.closed = False
        self.tx_bytes = 0
        self.rx_bytes = 0

    def send(self, data: bytes) -> None:
        """Queue bytes for in-order delivery to the peer."""
        if self.closed or self.peer is None or not data:
            return
        self.tx_bytes += len(data)
        self.scheduler.append_later(
            self.latency, Channel._deliver, self.peer, data)

    def _deliver(self, data: bytes) -> None:
        if self.closed:
            return
        self.rx_bytes += len(data)
        if self.on_data is not None:
            self.on_data(data)

    def close(self) -> None:
        """Close both directions; the peer is notified after the latency."""
        if self.closed:
            return
        self.closed = True
        peer = self.peer
        if peer is not None and not peer.closed:
            self.scheduler.call_later(self.latency, peer._peer_closed)

    def _peer_closed(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.on_close is not None:
            self.on_close()


def connect_pair(
    scheduler: Scheduler, rtt: float = 0.0
) -> tuple[Channel, Channel]:
    """Create a connected channel pair with the given round-trip time."""
    a = Channel(scheduler, latency=rtt / 2)
    b = Channel(scheduler, latency=rtt / 2)
    a.peer = b
    b.peer = a
    return a, b


class FramingError(ValueError):
    """A byte stream violated BGP message framing (bad marker/length)."""


class FrameReassembler:
    """Incremental BGP length-framing: arbitrary chunks in, frames out.

    TCP delivers a byte stream, not messages — a single ``recv`` may hold
    half a frame, three frames, or a frame boundary split mid-length-field.
    ``feed`` buffers bytes and returns every *complete* frame (header
    included) that the accumulated stream now contains, preserving order.
    The marker and length bounds are validated eagerly so a desynchronized
    stream fails at the first bad header instead of producing garbage
    frames downstream.
    """

    def __init__(self) -> None:
        self._buffer = b""

    def pending(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[bytes]:
        buffer = self._buffer + data if self._buffer else data
        end, offset = len(buffer), 0
        if (HEADER_SIZE <= end <= MAX_MESSAGE_SIZE
                and buffer.startswith(MARKER)
                and buffer[16] << 8 | buffer[17] == end):
            self._buffer = b""
            return [buffer]     # exactly one frame (a fan-out's): no copy
        # Walked by offset: one copy per frame and only an incomplete tail
        # buffered; a framing error leaves the stream buffered from the
        # bad header on, so the next call fails the same way.
        frames: List[bytes] = []
        try:
            while end - offset >= HEADER_SIZE:
                if not buffer.startswith(MARKER, offset):
                    raise FramingError(
                        "connection not synchronized: bad marker")
                length = buffer[offset + 16] << 8 | buffer[offset + 17]
                if not HEADER_SIZE <= length <= MAX_MESSAGE_SIZE:
                    raise FramingError(f"bad message length {length}")
                if end - offset < length:
                    break
                frames.append(buffer[offset:offset + length])
                offset += length
        finally:
            self._buffer = buffer[offset:]
        return frames


_LIVE_SOCKETS: "weakref.WeakSet" = weakref.WeakSet()


def open_socket_count() -> int:
    """Number of live (not yet closed) fleet transport sockets."""
    return sum(1 for sock in _LIVE_SOCKETS if not sock.closed)


def close_all_sockets() -> int:
    """Close every live transport socket (leak guard / atexit path)."""
    closed = 0
    for sock in list(_LIVE_SOCKETS):
        if not sock.closed:
            sock.close()
            closed += 1
    return closed


atexit.register(close_all_sockets)


class SocketPoller:
    """Thin readiness loop over :mod:`selectors` for the socket transport.

    Single-threaded by design: :meth:`pump` dispatches every ready
    callback once and returns the event count, so callers (the pop
    process main loop, the differential driver) interleave socket I/O
    with simulator steps deterministically instead of running a
    background thread.
    """

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self.closed = False

    def register(self, sock: socket.socket, events: int,
                 handler: Callable[[int], None]) -> None:
        self._selector.register(sock, events, handler)

    def modify(self, sock: socket.socket, events: int,
               handler: Callable[[int], None]) -> None:
        self._selector.modify(sock, events, handler)

    def unregister(self, sock: socket.socket) -> None:
        try:
            self._selector.unregister(sock)
        except KeyError:
            pass

    def pump(self, timeout: float = 0.0) -> int:
        """Dispatch ready handlers once; returns the number of events."""
        if self.closed:
            return 0
        events = self._selector.select(timeout)
        for key, mask in events:
            key.data(mask)
        return len(events)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._selector.close()


class SocketChannel:
    """A real-TCP endpoint speaking the :class:`Channel` seam.

    Duck-types ``send`` / ``close`` / ``on_data`` / ``on_close`` /
    ``closed`` / ``tx_bytes`` / ``rx_bytes`` so :class:`~repro.bgp.session.
    BgpSession` runs over it unchanged.  Differences from the simulated
    channel are confined to the transport edge:

    * bytes received before a session attaches (``on_data`` still unset)
      are buffered and replayed the moment a handler is assigned, so the
      accept side never drops the peer's OPEN;
    * a failed nonblocking connect surfaces as ``on_close`` — exactly the
      signal :class:`~repro.bgp.supervisor.SessionSupervisor` uses to
      back off and re-dial;
    * writes short of the kernel buffer are queued and flushed on the
      next writable event.
    """

    def __init__(self, poller: SocketPoller, sock: socket.socket,
                 connecting: bool = False) -> None:
        self.poller = poller
        self.sock = sock
        self.closed = False
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.on_close: Optional[Callable[[], None]] = None
        self._on_data: Optional[Callable[[bytes], None]] = None
        self._rx_pending = bytearray()
        self._tx_pending = bytearray()
        self._connecting = connecting
        sock.setblocking(False)
        events = selectors.EVENT_READ
        if connecting:
            events |= selectors.EVENT_WRITE
        poller.register(sock, events, self._handle_events)
        self._events = events  # the registered mask; modify() on change only
        _LIVE_SOCKETS.add(self)

    @classmethod
    def connect(cls, poller: SocketPoller, host: str,
                port: int) -> "SocketChannel":
        """Begin a nonblocking connect; failure is reported via on_close."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        code = sock.connect_ex((host, port))
        if code not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
            sock.close()
            raise OSError(code, f"connect to {host}:{port} failed")
        return cls(poller, sock, connecting=code != 0)

    @property
    def on_data(self) -> Optional[Callable[[bytes], None]]:
        return self._on_data

    @on_data.setter
    def on_data(self, handler: Optional[Callable[[bytes], None]]) -> None:
        self._on_data = handler
        if handler is not None and self._rx_pending:
            pending = bytes(self._rx_pending)
            self._rx_pending.clear()
            handler(pending)

    def send(self, data: bytes) -> None:
        """Queue bytes for in-order delivery over the socket."""
        if self.closed or not data:
            return
        self.tx_bytes += len(data)
        self._tx_pending += data
        if not self._connecting:
            self._flush()

    def _flush(self) -> None:
        while self._tx_pending:
            try:
                # A view (released before the resize below), not a copy
                # of the whole backlog per attempt.
                with memoryview(self._tx_pending) as view:
                    sent = self.sock.send(view)
            except BlockingIOError:
                break
            except OSError:
                self._peer_closed()
                return
            if sent <= 0:
                break
            del self._tx_pending[:sent]
        self._update_interest()

    def _update_interest(self) -> None:
        if self.closed:
            return
        events = selectors.EVENT_READ
        if self._tx_pending or self._connecting:
            events |= selectors.EVENT_WRITE
        if events != self._events:
            self._events = events
            self.poller.modify(self.sock, events, self._handle_events)

    def _handle_events(self, mask: int) -> None:
        if self.closed:
            return
        if mask & selectors.EVENT_WRITE:
            if self._connecting:
                error = self.sock.getsockopt(
                    socket.SOL_SOCKET, socket.SO_ERROR
                )
                if error:
                    self._peer_closed()
                    return
                self._connecting = False
            self._flush()
        if mask & selectors.EVENT_READ and not self.closed:
            self._read_ready()

    def _read_ready(self) -> None:
        while not self.closed:
            try:
                data = self.sock.recv(65536)
            except BlockingIOError:
                return
            except OSError:
                self._peer_closed()
                return
            if not data:
                self._peer_closed()
                return
            self.rx_bytes += len(data)
            if self._on_data is not None:
                self._on_data(data)
            else:
                self._rx_pending += data

    def close(self) -> None:
        """Close the socket; the peer observes EOF on its next read."""
        if self.closed:
            return
        self.closed = True
        self.poller.unregister(self.sock)
        try:
            self.sock.close()
        except OSError:
            pass

    def _peer_closed(self) -> None:
        """EOF / reset / failed connect: close and notify the session."""
        if self.closed:
            return
        self.close()
        if self.on_close is not None:
            self.on_close()


class SocketListener:
    """Accepting endpoint: every inbound TCP connection becomes a
    :class:`SocketChannel` handed to ``on_accept``.

    Binding port 0 picks an ephemeral port (exposed as ``.port``) — tests
    use that; the fleet compiler assigns deterministic ports from the
    spec digest instead.
    """

    def __init__(self, poller: SocketPoller, host: str = "127.0.0.1",
                 port: int = 0,
                 on_accept: Optional[
                     Callable[[SocketChannel], None]] = None) -> None:
        self.poller = poller
        self.on_accept = on_accept
        self.closed = False
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(64)
        sock.setblocking(False)
        self.sock = sock
        self.host, self.port = sock.getsockname()
        poller.register(sock, selectors.EVENT_READ, self._accept_ready)
        _LIVE_SOCKETS.add(self)

    def _accept_ready(self, mask: int) -> None:
        while not self.closed:
            try:
                conn, _addr = self.sock.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            channel = SocketChannel(self.poller, conn)
            if self.on_accept is not None:
                self.on_accept(channel)
            else:
                channel.close()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.poller.unregister(self.sock)
        try:
            self.sock.close()
        except OSError:
            pass
