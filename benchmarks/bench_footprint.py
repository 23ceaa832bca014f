"""§4.2 — footprint and connectivity.

Regenerates the paper's deployment numbers: 13 PoPs (4 IXP + 9
university), 8 ASNs (three 4-byte), 40 IPv4 /24s + one IPv6 /32, a mix
of bilateral and route-server peers, and the PeeringDB classification of
peers (33% transit, 28% cable/DSL/ISP, 23% content, …).
"""


from benchmarks.reporting import format_table, report
from repro.internet import (
    InternetConfig,
    NetworkType,
    build_internet,
    classify_peers,
    synthesize_records,
)
from repro.platform import PeeringPlatform
from repro.platform.resources import (
    PLATFORM_ASNS,
    default_prefix_allocations,
)
from repro.sim import Scheduler


def test_footprint_and_connectivity(benchmark):
    def build():
        scheduler = Scheduler()
        platform = PeeringPlatform(scheduler)
        internet = build_internet(
            scheduler, platform,
            InternetConfig(n_tier1=3, n_transit=6, n_stub=20,
                           ixp_members_per_ixp=10,
                           bilateral_fraction=0.3),
        )
        scheduler.run_for(40)
        return platform, internet

    platform, internet = benchmark.pedantic(build, rounds=1, iterations=1)

    pops = list(platform.pops.values())
    ixps = [p for p in pops if p.config.kind == "ixp"]
    universities = [p for p in pops if p.config.kind == "university"]
    four_byte = sum(1 for asn in PLATFORM_ASNS if asn >= (1 << 16))
    bilateral = len(internet.bilateral_peers)
    rs_only = len(internet.rs_only_peers)
    total_peers = bilateral + rs_only
    transit_links = len(internet.transit_gids)

    rows = [
        ["PoPs", len(pops), "13"],
        ["  at IXPs", len(ixps), "4"],
        ["  at universities", len(universities), "9"],
        ["ASNs", len(PLATFORM_ASNS), "8"],
        ["  4-byte ASNs", four_byte, "3"],
        ["IPv4 /24 prefixes", len(default_prefix_allocations()), "40"],
        ["IPv6 allocation", "2804:269c::/32 (one /32)", "one /32"],
        ["transit interconnections", transit_links, "12"],
        ["unique peers", total_peers, "923 (scaled topology)"],
        ["  bilateral sessions", bilateral, "129 (scaled)"],
        ["  via route servers only", rs_only, "794 (scaled)"],
    ]
    # PeeringDB classification at the platform's synthetic-peer scale
    # mirrors the §4.2 percentages by construction — regenerate at scale
    # so the distribution is statistically visible.
    records = synthesize_records(range(1, 924))
    mix = classify_peers(records, records.keys())
    mix_rows = [
        ["transit providers", f"{mix[NetworkType.TRANSIT] * 100:.0f}%", "33%"],
        ["cable/DSL/ISP", f"{mix[NetworkType.CABLE_DSL_ISP] * 100:.0f}%",
         "28%"],
        ["content providers", f"{mix[NetworkType.CONTENT] * 100:.0f}%",
         "23%"],
        ["unclassifiable", f"{mix[NetworkType.UNCLASSIFIED] * 100:.0f}%",
         "8%"],
    ]
    report(
        "footprint",
        "§4.2 footprint & connectivity\n"
        + format_table(["resource", "measured", "paper"], rows)
        + "\n\nPeeringDB classification of 923 synthesized peers:\n"
        + format_table(["network type", "measured", "paper"], mix_rows),
    )

    assert len(pops) == 13 and len(ixps) == 4 and len(universities) == 9
    assert len(PLATFORM_ASNS) == 8 and four_byte == 3
    assert len(default_prefix_allocations()) == 40
    assert bilateral > 0 and rs_only > 0
    assert rs_only > bilateral * 0.5  # route servers carry most peers
    assert abs(mix[NetworkType.TRANSIT] - 0.33) < 0.05
    assert abs(mix[NetworkType.CABLE_DSL_ISP] - 0.28) < 0.05
    assert abs(mix[NetworkType.CONTENT] - 0.23) < 0.05
