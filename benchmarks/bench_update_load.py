"""§6 — sustained update load at a large IXP (the AMS-IX workload).

"During an 18h period in March 2018, Peering's vBGP router in AMS-IX
processed an average of 21.8 updates/sec (with a 99th percentile of
approximately 400 updates/sec)."

We replay a calibrated churn process through a real vBGP node (an
attached upstream session, a connected ADD-PATH experiment fan-out, and
per-neighbor kernel-table maintenance) and verify the node sustains the
p99 burst rate with headroom.
"""

import pytest

from benchmarks.reporting import format_table, report
from repro.bgp.messages import UpdateMessage
from repro.internet.churn import AMSIX_PROFILE, ChurnGenerator
from repro.metrics import measure_processing
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.state import EnforcerState
from repro.sim import Scheduler
from repro.vbgp.allocator import GlobalNeighborRegistry


@pytest.fixture(scope="module")
def loaded_node():
    """A PoP with one upstream whose session is short-circuited so we can
    inject UPDATE messages directly into the vBGP pipeline."""
    scheduler = Scheduler()
    pop = PointOfPresence(
        scheduler,
        PopConfig(name="ams", pop_id=0, kind="ixp"),
        platform_asn=47065,
        platform_asns=frozenset({47065}),
        registry=GlobalNeighborRegistry(),
        enforcer_state=EnforcerState(),
    )
    pop.provision_neighbor("upstream", 65010, kind="peer")
    # An experiment attachment so every update also fans out.
    from repro.bgp.transport import connect_pair
    from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
    from repro.bgp.session import BgpSession, SessionConfig

    ours, theirs = connect_pair(scheduler, rtt=0.001)
    pop.node.attach_experiment(
        name="x", asn=47065,
        prefixes=(IPv4Prefix.parse("184.164.224.0/24"),),
        tunnel_ip=IPv4Address.parse("100.125.0.2"),
        tunnel_mac=MacAddress.parse("02:aa:00:00:00:02"),
        channel=ours,
    )
    client = BgpSession(
        scheduler,
        SessionConfig(local_asn=47065,
                      local_id=IPv4Address.parse("100.125.0.2"),
                      peer_asn=47065, addpath=True),
        theirs, on_update=lambda _s, _u: None,
    )
    client.start()
    scheduler.run_for(5)
    return scheduler, pop


def test_amsix_update_load(loaded_node, benchmark):
    scheduler, pop = loaded_node
    generator = ChurnGenerator(AMSIX_PROFILE, prefix_count=5000, seed=77)
    updates = generator.make_updates(4000)

    def process(update: UpdateMessage):
        pop.node._upstream_update("upstream", update)
        scheduler.run_until(scheduler.now)  # drain immediate events

    measurement = benchmark.pedantic(
        lambda: measure_processing("vbgp-pipeline", process, updates),
        rounds=1, iterations=1,
    )
    sustainable = measurement.max_sustainable_rate()
    rates = generator.second_rates(18 * 3600)
    rates.sort()
    mean_rate = sum(rates) / len(rates)
    p99 = rates[int(len(rates) * 0.99)]
    rows = [
        ["average updates/s", f"{mean_rate:.1f}", "21.8"],
        ["p99 updates/s", str(p99), "~400"],
        ["utilization @ average",
         f"{measurement.utilization(mean_rate):.2f}%", "—"],
        ["utilization @ p99",
         f"{measurement.utilization(p99):.1f}%", "—"],
        ["max sustainable", f"{sustainable:,.0f}/s", "'thousands'"],
    ]
    report(
        "amsix_update_load",
        "§6 AMS-IX update workload, 18h replay through the vBGP pipeline\n"
        + format_table(["metric", "measured", "paper"], rows),
    )
    assert 18 <= mean_rate <= 26
    assert 250 <= p99 <= 500
    assert sustainable > 1000  # "thousands of updates per second"
    assert measurement.utilization(p99) < 100
