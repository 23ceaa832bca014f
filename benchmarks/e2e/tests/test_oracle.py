"""The oracle must notice what a benchmark must never time past."""

from __future__ import annotations

from benchmarks.e2e import harness, oracle
from benchmarks.e2e.run import SMOKE_SLICES
from benchmarks.e2e.workloads import ChurnFanout
from benchmarks.e2e.world import Endpoint
from repro.bgp.attributes import AsPath, Community, PathAttributes
from repro.bgp.messages import MSG_KEEPALIVE, UpdateMessage
from repro.netsim.addr import IPv4Address, IPv4Prefix

ATTRS = PathAttributes(
    as_path=AsPath.from_asns(65001, 3356, 15169),
    next_hop=IPv4Address.parse("100.64.0.10"),
    communities=frozenset({Community(65001, 7)}), med=10,
)
P1, P2 = IPv4Prefix.parse("60.1.2.0/24"), IPv4Prefix.parse("60.9.0.0/17")


def test_wire_parser_agrees_with_the_codec():
    wire = UpdateMessage(
        attributes=ATTRS, nlri=((P1, 5), (P2, 6)), withdrawn=((P2, 9),)
    ).encode(addpath=True)
    assert oracle.is_update(wire)
    withdrawn, attrs, nlri = oracle.split_update(wire)
    assert oracle.parse_nlri(withdrawn, True) == [(9, P2.key())]
    assert oracle.parse_nlri(nlri, True) == [(5, P1.key()), (6, P2.key())]
    assert oracle.count_nlri(wire, True) == 2
    parsed = oracle.parse_attrs(attrs)
    assert oracle.as_path_asns(parsed[oracle.ATTR_AS_PATH]) == (
        65001, 3356, 15169)
    assert parsed[oracle.ATTR_NEXT_HOP] == ATTRS.next_hop.packed()
    assert oracle.community_values(parsed[oracle.ATTR_COMMUNITIES]) == {
        Community(65001, 7).packed()}
    vip = IPv4Address.parse("127.65.0.1")
    rewritten = UpdateMessage(
        attributes=ATTRS.with_next_hop(vip), nlri=((P1, None),)
    ).encode()
    assert oracle.with_next_hop(attrs, vip.packed()) == (
        oracle.split_update(rewritten)[1])


def fanout(frames_for):
    model = oracle.FanoutModel(1, [IPv4Address.parse("127.65.0.1").packed()])
    wire = UpdateMessage(attributes=ATTRS, nlri=((P1, None),)).encode()
    good = UpdateMessage(
        attributes=ATTRS.with_next_hop(IPv4Address.parse("127.65.0.1")),
        nlri=((P1, 1),),
    ).encode(addpath=True)
    return model.check(0, wire, [frames_for(good)])


def test_fanout_model_verdicts():
    assert fanout(lambda good: [good])
    assert not fanout(lambda good: [])                  # lost
    assert not fanout(lambda good: [good, good])        # duplicated
    unrewritten = UpdateMessage(attributes=ATTRS, nlri=((P1, 1),)).encode(
        addpath=True)
    assert not fanout(lambda good: [unrewritten])       # next hop not rewritten


class LossyEndpoint(Endpoint):
    """Loses every 40th UPDATE it is sent."""

    seen = 0

    def on_data(self, data: bytes) -> None:
        if oracle.is_update(data):
            LossyEndpoint.seen += 1
            if LossyEndpoint.seen % 40 == 0:
                return
        super().on_data(data)


class DeafEndpoint(Endpoint):
    """Swallows KEEPALIVEs once established — the set-up trap."""

    def on_data(self, data: bytes) -> None:
        if self.session.established and data[18] == MSG_KEEPALIVE:
            return
        super().on_data(data)


def run(workload_cls) -> dict:
    return harness.run_workload(
        workload_cls(0, smoke=True), 0.0, False, max_slices=SMOKE_SLICES["default"]
    )


def test_a_lossy_sink_is_caught():
    class Lossy(ChurnFanout):
        endpoint_cls = LossyEndpoint

    record = run(Lossy)
    assert not record["correct"] and record["failed"] > 0


def test_a_sink_that_swallows_keepalives_is_caught():
    class Deaf(ChurnFanout):
        endpoint_cls = DeafEndpoint
        client_hold_time = 3    # hold timer expires within the smoke run

    record = run(Deaf)
    assert not record["correct"] and record["failed"] > 0
    assert run(ChurnFanout)["correct"]      # and the real sink is not
