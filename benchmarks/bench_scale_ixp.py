"""§6's scalability claim, exercised end to end on a large IXP PoP.

"Our current software stack can be deployed at even the largest IXPs for
the foreseeable future on off-the-shelf servers." This bench builds one
IXP PoP with a route server fronting many members (the dominant AMS-IX
pattern: most peers are route-server-only), converges it, attaches an
experiment, and checks that the experiment sees every member's routes
with per-member next hops — then measures the whole thing.
"""


from benchmarks.reporting import format_table, report
from repro.internet.asnode import InternetAS
from repro.internet.ixp import attach_route_server, join_ixp_via_route_server
from repro.internet.overlay import AsOverlay
from repro.netsim.addr import IPv4Prefix
from repro.platform import PeeringPlatform, PopConfig
from repro.platform.experiment import ExperimentProposal
from repro.sim import Scheduler
from repro.toolkit import ExperimentClient

MEMBERS = 100
PREFIXES_PER_MEMBER = 10


def test_large_ixp_pop(benchmark):
    def build_and_converge():
        scheduler = Scheduler()
        platform = PeeringPlatform(scheduler, pop_configs=[
            PopConfig(name="bigix", pop_id=0, kind="ixp"),
        ])
        pop = platform.pops["bigix"]
        server = attach_route_server(pop)
        overlay = AsOverlay(scheduler)
        supernets = IPv4Prefix.parse("32.0.0.0/6").subnets(16)
        for index in range(MEMBERS):
            member = InternetAS(
                scheduler, overlay, asn=20000 + index,
                name=f"member-{index}",
                prefixes=tuple(
                    next(supernets) for _ in range(PREFIXES_PER_MEMBER)
                ),
            )
            member.originate_all()
            join_ixp_via_route_server(member, pop, server)
        scheduler.run_for(60)
        platform.submit_proposal(ExperimentProposal(
            name="x", contact="t", goals="scale", execution_plan="watch",
        ))
        client = ExperimentClient(scheduler, "x", platform)
        client.openvpn_up("bigix")
        client.bird_start("bigix")
        scheduler.run_for(60)
        return scheduler, platform, pop, client

    scheduler, platform, pop, client = benchmark.pedantic(
        build_and_converge, rounds=1, iterations=1
    )
    expected_routes = MEMBERS * PREFIXES_PER_MEMBER
    view = client.pops["bigix"]
    known = len(pop.node.known_routes())
    fanned = len(view.routes)
    next_hops = {
        str(route.next_hop)
        for route in pop.node.upstreams["rs-bigix"].rib.routes()
    }
    report(
        "scale_ixp",
        f"§6 scalability: one IXP PoP, {MEMBERS} route-server members, "
        f"{PREFIXES_PER_MEMBER} prefixes each\n"
        + format_table(
            ["metric", "value"],
            [
                ["routes known at the vBGP node", known],
                ["routes fanned out to the experiment", fanned],
                ["distinct member next hops preserved", len(next_hops)],
                ["kernel FIB entries", pop.node.fib_entry_count()],
            ],
        )
        + "\n(route-server transparency preserves per-member next hops, "
          "so experiments still steer traffic per member)",
    )
    assert known == expected_routes
    assert fanned == expected_routes
    assert len(next_hops) == MEMBERS  # transparency preserved per member
