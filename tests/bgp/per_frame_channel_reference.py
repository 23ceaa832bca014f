"""The one-event-per-send ``Channel.send`` used before delivery events
were tail-merged into bursts: every send is its own ``call_later``, so a
frame's place in the scheduler's ``(time, seq)`` order is explicit.  Kept
as the oracle the burst transport is checked against
(``test_transport_burst.py``, ``tests/vbgp/test_burst_counts.py``)."""

from __future__ import annotations

from repro.bgp.transport import Channel


def send_per_frame(channel: Channel, data: bytes) -> None:
    if channel.closed or channel.peer is None or not data:
        return
    channel.tx_bytes += len(data)
    channel.scheduler.call_later(channel.latency, channel.peer._deliver, data)


def install(monkeypatch) -> None:
    """Every ``Channel`` built or used under ``monkeypatch`` sends per
    frame."""
    monkeypatch.setattr(Channel, "send", send_per_frame)
