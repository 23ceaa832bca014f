"""The BGP session finite-state machine (RFC 4271 §8, simplified).

A :class:`BgpSession` owns one :class:`~repro.bgp.transport.Channel`, runs
the OPEN exchange, negotiates capabilities (ADD-PATH, 4-octet AS), maintains
hold/keepalive timers, frames and parses the byte stream, and delivers
UPDATEs to its owner. Malformed input produces a NOTIFICATION and a session
teardown — reproducing the failure mode discussed in §7.3 of the paper.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, fields as dataclass_fields
from typing import TYPE_CHECKING, Callable, Optional

from repro.bgp.errors import (
    CeaseSubcode,
    ErrorCode,
    NotificationError,
    OpenSubcode,
)
from repro.bgp.messages import (
    AddPathCapability,
    FourOctetAsCapability,
    GracefulRestartCapability,
    KeepaliveMessage,
    MessageDecoder,
    MultiprotocolCapability,
    NotificationMessage,
    OpenMessage,
    RouteRefreshMessage,
    UpdateMessage,
)
from repro.bgp.transport import Channel
from repro.netsim.addr import IPv4Address
from repro.sim.scheduler import Scheduler
from repro.telemetry.station import (
    PeerDown,
    PeerUp,
    RouteMonitoring,
    StatsReport,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import TelemetryHub

# Fallback peer keys for sessions with neither description nor peer ASN.
_anonymous_peers = itertools.count(1)


class SessionState(enum.Enum):
    IDLE = "idle"
    OPEN_SENT = "open-sent"
    OPEN_CONFIRM = "open-confirm"
    ESTABLISHED = "established"
    CLOSED = "closed"


@dataclass
class SessionConfig:
    """Per-session configuration."""

    local_asn: int
    local_id: IPv4Address
    peer_asn: Optional[int] = None  # None: accept any (route-server style)
    hold_time: int = 90
    addpath: bool = False
    description: str = ""
    # Graceful Restart (RFC 4724): offer the capability; ``restart_time``
    # is how long we ask the peer to retain our routes after a drop.
    graceful_restart: bool = False
    restart_time: int = 120

    @property
    def keepalive_interval(self) -> float:
        return self.hold_time / 3


@dataclass
class SessionStats:
    updates_sent: int = 0
    updates_received: int = 0
    keepalives_sent: int = 0
    keepalives_received: int = 0
    notifications_sent: int = 0
    notifications_received: int = 0


class BgpSession:
    """One BGP session over a channel.

    Owner callbacks:

    * ``on_established(session)`` — OPEN/KEEPALIVE handshake done,
    * ``on_update(session, update)`` — a parsed, validated UPDATE,
    * ``on_end_of_rib(session)`` — the peer's End-of-RIB marker
      (RFC 4724) arrived; only fired when Graceful Restart negotiated,
    * ``on_close(session, reason)`` — session torn down (either side).

    After teardown, ``closed_admin`` tells the owner whether the close
    was administrative (local shutdown / CEASE) — Graceful Restart must
    not retain routes across a deliberate de-configuration.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        config: SessionConfig,
        channel: Channel,
        on_update: Callable[["BgpSession", UpdateMessage], None],
        on_established: Optional[Callable[["BgpSession"], None]] = None,
        on_close: Optional[Callable[["BgpSession", str], None]] = None,
        on_route_refresh: Optional[Callable[["BgpSession"], None]] = None,
        on_end_of_rib: Optional[Callable[["BgpSession"], None]] = None,
        telemetry: Optional["TelemetryHub"] = None,
    ) -> None:
        self.scheduler = scheduler
        self.config = config
        self.channel = channel
        self.state = SessionState.IDLE
        self.stats = SessionStats()
        self.telemetry = telemetry
        if config.description:
            self.peer_key = config.description
        elif config.peer_asn is not None:
            self.peer_key = f"as{config.peer_asn}"
        else:
            self.peer_key = f"session-{next(_anonymous_peers)}"
        self._m_updates_in = None
        self._m_updates_out = None
        self._m_transitions = None
        if telemetry is not None:
            updates = telemetry.registry.counter(
                "bgp_session_updates",
                "UPDATE messages per session and direction",
                labels=("peer", "direction"),
            )
            self._m_updates_in = updates.labels(self.peer_key, "in")
            self._m_updates_out = updates.labels(self.peer_key, "out")
            self._m_transitions = telemetry.registry.counter(
                "bgp_session_transitions",
                "BGP FSM transitions per session",
                labels=("peer", "state"),
            )
        self.peer_open: Optional[OpenMessage] = None
        self.negotiated_hold_time = config.hold_time
        self.addpath_active = False
        self.gr_negotiated = False
        self.peer_restart_time = 0
        self.closed_admin = False
        self._on_update = on_update
        self._on_established = on_established
        self._on_close = on_close
        self._on_route_refresh = on_route_refresh
        self._on_end_of_rib = on_end_of_rib
        self._decoder = MessageDecoder()
        self._hold_event = None
        self._keepalive_event = None
        # Optional bounded ingress queue (repro.overload, §6i): when set,
        # UPDATEs are admitted there instead of delivered inline.  None
        # (the default) keeps the pre-§6i byte-identical inline path.
        self._ingress_queue = None
        channel.on_data = self._data_received
        channel.on_close = lambda: self._teardown("peer closed connection")

    @property
    def established(self) -> bool:
        return self.state == SessionState.ESTABLISHED

    def _transition(self, state: SessionState) -> None:
        """Move the FSM; counts and traces the transition when telemetry
        is attached (the disabled path is one None test)."""
        self.state = state
        if self._m_transitions is not None:
            self._m_transitions.labels(self.peer_key, state.value).inc()
            self.telemetry.tracer.event(
                "bgp.session.fsm", peer=self.peer_key, state=state.value
            )

    @property
    def peer_asn(self) -> Optional[int]:
        if self.peer_open is not None:
            return self.peer_open.asn
        return self.config.peer_asn

    def start(self) -> None:
        """Send our OPEN (both sides start actively; collision handling is
        unnecessary because the simulation pairs channels explicitly)."""
        if self.state != SessionState.IDLE:
            return
        capabilities = [
            MultiprotocolCapability(),
            FourOctetAsCapability(asn=self.config.local_asn),
        ]
        if self.config.addpath:
            capabilities.append(AddPathCapability())
        if self.config.graceful_restart:
            capabilities.append(GracefulRestartCapability(
                restart_time=self.config.restart_time
            ))
        open_message = OpenMessage(
            asn=self.config.local_asn,
            hold_time=self.config.hold_time,
            bgp_id=self.config.local_id,
            capabilities=tuple(capabilities),
        )
        self.channel.send(open_message.encode())
        self._transition(SessionState.OPEN_SENT)
        self._arm_hold_timer()

    def send_update(self, update: UpdateMessage) -> None:
        if self.state != SessionState.ESTABLISHED:
            raise NotificationError(
                ErrorCode.FSM_ERROR, message="session not established"
            )
        self.stats.updates_sent += 1
        if self._m_updates_out is not None:
            self._m_updates_out.inc()
        self.channel.send(update.encode(addpath=self.addpath_active))

    def send_route_refresh(self) -> None:
        """Ask the peer to resend its full Adj-RIB-Out (RFC 2918)."""
        if not self.established:
            raise NotificationError(
                ErrorCode.FSM_ERROR, message="session not established"
            )
        self.channel.send(RouteRefreshMessage().encode())

    def send_keepalive(self) -> None:
        self.stats.keepalives_sent += 1
        self.channel.send(KeepaliveMessage().encode())

    def notify_and_close(self, error: NotificationError) -> None:
        """Send a NOTIFICATION for ``error`` and tear the session down."""
        message = NotificationMessage(
            code=error.code, subcode=error.subcode, data=error.data
        )
        self.stats.notifications_sent += 1
        self.channel.send(message.encode())
        self._teardown(
            f"sent NOTIFICATION: {error}",
            admin=error.code == ErrorCode.CEASE,
        )

    def send_end_of_rib(self) -> None:
        """Send the End-of-RIB marker (RFC 4724): an empty UPDATE."""
        self.send_update(UpdateMessage.end_of_rib())

    def shutdown(self, subcode: CeaseSubcode = CeaseSubcode.ADMIN_SHUTDOWN) -> None:
        if self.state == SessionState.CLOSED:
            return
        if self.state == SessionState.IDLE:
            # Never started: no NOTIFICATION to send, but teardown must
            # still be uniform — close the channel and fire on_close so
            # the owner does not leak the transport.
            self._teardown("administrative shutdown", admin=True)
            return
        self.notify_and_close(
            NotificationError(ErrorCode.CEASE, subcode, message="shutdown")
        )

    # ------------------------------------------------------------------

    def _data_received(self, data: bytes) -> None:
        self._decoder.feed(data)
        try:
            while True:
                message = self._decoder.next_message()
                if message is None:
                    return
                self._dispatch(message)
                if self.state == SessionState.CLOSED:
                    return
        except NotificationError as error:
            self.notify_and_close(error)

    def _dispatch(self, message) -> None:
        self._arm_hold_timer()
        if isinstance(message, OpenMessage):
            self._handle_open(message)
        elif isinstance(message, KeepaliveMessage):
            self.stats.keepalives_received += 1
            self._handle_keepalive()
        elif isinstance(message, UpdateMessage):
            if not self.established:
                raise NotificationError(
                    ErrorCode.FSM_ERROR, message="UPDATE before ESTABLISHED"
                )
            self.stats.updates_received += 1
            tele = self.telemetry
            if tele is not None:
                self._m_updates_in.inc()
                tele.station.publish(RouteMonitoring(
                    peer=self.peer_key,
                    time=self.scheduler.now,
                    announced=tuple(message.routes()),
                    withdrawn=tuple(message.withdrawn),
                ))
            queue = self._ingress_queue
            if queue is not None:
                # Overload mode: bounded admission, scheduler-driven
                # delivery.  KEEPALIVE/NOTIFICATION/OPEN never reach the
                # queue — the FSM branches above handle them inline, so
                # liveness survives any ingress backlog.
                queue.offer(self, message)
                return
            self.deliver_update(message)
        elif isinstance(message, RouteRefreshMessage):
            if not self.established:
                raise NotificationError(
                    ErrorCode.FSM_ERROR,
                    message="ROUTE-REFRESH before ESTABLISHED",
                )
            if self._on_route_refresh is not None:
                self._on_route_refresh(self)
        elif isinstance(message, NotificationMessage):
            self.stats.notifications_received += 1
            self._teardown(
                f"received NOTIFICATION {message.code}/{message.subcode}",
                admin=message.code == ErrorCode.CEASE,
            )

    def set_ingress_queue(self, queue) -> None:
        """Route received UPDATEs through a bounded ingress queue
        (:class:`repro.overload.IngressQueue`); ``None`` restores the
        inline path."""
        self._ingress_queue = queue

    def deliver_update(self, message: UpdateMessage) -> None:
        """Deliver one admitted UPDATE to the owner (the tail of the
        dispatch path; also the ingress queue's drain target)."""
        if self.gr_negotiated and message.is_end_of_rib:
            # End-of-RIB marker (RFC 4724): not a routing change.
            if self._on_end_of_rib is not None:
                self._on_end_of_rib(self)
            return
        self._on_update(self, message)

    def _handle_open(self, message: OpenMessage) -> None:
        if self.state != SessionState.OPEN_SENT:
            raise NotificationError(
                ErrorCode.FSM_ERROR, message="unexpected OPEN"
            )
        if (
            self.config.peer_asn is not None
            and message.asn != self.config.peer_asn
        ):
            raise NotificationError(
                ErrorCode.OPEN_MESSAGE, OpenSubcode.BAD_PEER_AS,
                message=f"expected AS{self.config.peer_asn}, got AS{message.asn}",
            )
        self.peer_open = message
        # RFC 4271 §4.2: the session uses the smaller of the two offered
        # hold times, and zero means "disable the hold and keepalive
        # timers" — it must NOT fall back to the local value.
        self.negotiated_hold_time = min(
            self.config.hold_time, message.hold_time
        )
        peer_gr = message.find_graceful_restart()
        self.gr_negotiated = self.config.graceful_restart and (
            peer_gr is not None
        )
        if peer_gr is not None:
            self.peer_restart_time = peer_gr.restart_time
        peer_addpath = message.find_addpath()
        # Per RFC 7911 the capability is directional; the reproduction uses
        # it symmetrically (both directions active when both sides offer it).
        self.addpath_active = self.config.addpath and peer_addpath is not None
        self._decoder.addpath = self.addpath_active
        self._transition(SessionState.OPEN_CONFIRM)
        self.send_keepalive()

    def _handle_keepalive(self) -> None:
        if self.state == SessionState.OPEN_CONFIRM:
            self._transition(SessionState.ESTABLISHED)
            self._arm_keepalive_timer()
            tele = self.telemetry
            if tele is not None:
                tele.station.publish(PeerUp(
                    peer=self.peer_key,
                    time=self.scheduler.now,
                    local_asn=self.config.local_asn,
                    peer_asn=self.peer_asn,
                    local_id=str(self.config.local_id),
                    addpath=self.addpath_active,
                    hold_time=self.negotiated_hold_time,
                ))
            if self._on_established is not None:
                self._on_established(self)

    # -- timers -----------------------------------------------------------

    def _arm_hold_timer(self) -> None:
        if self._hold_event is not None:
            self._hold_event.cancel()
        if self.negotiated_hold_time == 0:
            return
        self._hold_event = self.scheduler.call_later(
            float(self.negotiated_hold_time), self._hold_expired
        )

    def _hold_expired(self) -> None:
        if self.state == SessionState.CLOSED:
            return
        self.notify_and_close(
            NotificationError(
                ErrorCode.HOLD_TIMER_EXPIRED, message="hold timer expired"
            )
        )

    def _arm_keepalive_timer(self) -> None:
        if self.negotiated_hold_time == 0:
            # Negotiated hold time 0 disables both timers (RFC 4271).
            return
        self._keepalive_event = self.scheduler.call_later(
            self.negotiated_hold_time / 3, self._keepalive_tick
        )

    def _keepalive_tick(self) -> None:
        if self.state != SessionState.ESTABLISHED:
            return
        self.send_keepalive()
        self._arm_keepalive_timer()

    def publish_stats(self) -> None:
        """Stream a BMP-style Stats Report for this session now."""
        tele = self.telemetry
        if tele is None:
            return
        tele.station.publish(StatsReport(
            peer=self.peer_key,
            time=self.scheduler.now,
            stats=tuple(
                (stat.name, getattr(self.stats, stat.name))
                for stat in dataclass_fields(self.stats)
            ),
        ))

    def _teardown(self, reason: str, admin: bool = False) -> None:
        if self.state == SessionState.CLOSED:
            return
        was_established = self.state == SessionState.ESTABLISHED
        self.closed_admin = admin
        self._transition(SessionState.CLOSED)
        tele = self.telemetry
        if tele is not None and was_established:
            # BMP ordering: final stats, then Peer Down.
            self.publish_stats()
            tele.station.publish(PeerDown(
                peer=self.peer_key, time=self.scheduler.now, reason=reason
            ))
        if self._hold_event is not None:
            self._hold_event.cancel()
        if self._keepalive_event is not None:
            self._keepalive_event.cancel()
        if self._ingress_queue is not None:
            # Queued updates for a dead session are moot: the successor
            # session re-learns everything from scratch over BGP.
            self._ingress_queue.flush_session(self)
        self.channel.close()
        if self._on_close is not None:
            self._on_close(self, reason)
