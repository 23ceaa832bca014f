"""§4.7 — the security-policy capability matrix, regenerated as a table.

For each capability: an experiment exercising it is deployed twice (with
and without the grant) in the §5 test environment, and the routes that
actually reach a neighbor are compared. Also measures the enforcement
engine's filtering throughput (it must keep up with experiment
announcement load with margin, since it fails closed under overload).
"""


from benchmarks.reporting import format_table, report
from repro.bgp.attributes import (
    Community,
    LargeCommunity,
    UnknownAttribute,
    local_route,
    originate,
)
from repro.netsim.addr import IPv4Address, IPv4Prefix
from repro.security import (
    Capability,
    ControlPlaneEnforcer,
    ExperimentProfile,
)
from repro.sim import Scheduler

ALLOCATION = IPv4Prefix.parse("184.164.224.0/23")
NH = IPv4Address.parse("100.125.0.2")


def fresh_enforcer(grants=()):
    scheduler = Scheduler()
    enforcer = ControlPlaneEnforcer(
        scheduler, platform_asns=frozenset({47065})
    )
    profile = ExperimentProfile(
        name="probe", asns=frozenset({47065}), prefixes=(ALLOCATION,)
    )
    for capability, limit in grants:
        profile.grant(capability, limit)
    enforcer.register_experiment(profile)
    return enforcer


def outcome_of(enforcer, route):
    accepted = enforcer.filter_routes("probe", [route], "pop")
    if not accepted:
        return "blocked"
    result = accepted[0]
    if result != route:
        return "stripped"
    return "exported"


CASES = [
    (
        "BGP communities",
        (Capability.BGP_COMMUNITIES, 4),
        lambda: local_route(
            IPv4Prefix.parse("184.164.224.0/24"), next_hop=NH
        ).add_communities(Community(3356, 70)),
        "stripped", "exported",
    ),
    (
        "large communities",
        (Capability.LARGE_COMMUNITIES, 4),
        lambda: local_route(
            IPv4Prefix.parse("184.164.224.0/24"), next_hop=NH
        ).with_attributes(
            large_communities=frozenset({LargeCommunity(47065, 1, 2)})
        ),
        "stripped", "exported",
    ),
    (
        "AS-path poisoning",
        (Capability.AS_PATH_POISONING, 2),
        lambda: originate(
            IPv4Prefix.parse("184.164.224.0/24"), 47065, NH
        ).with_attributes(
            as_path=originate(
                IPv4Prefix.parse("184.164.224.0/24"), 47065, NH
            ).as_path.prepended(3356).prepended(47065)
        ),
        "blocked", "exported",
    ),
    (
        "transitive attributes",
        (Capability.TRANSITIVE_ATTRIBUTES, None),
        lambda: local_route(
            IPv4Prefix.parse("184.164.224.0/24"), next_hop=NH
        ).with_attributes(unknown=(
            UnknownAttribute(type_code=99, flags=0xC0, value=b"x"),
        )),
        "stripped", "exported",
    ),
    (
        "prefix transit",
        (Capability.PREFIX_TRANSIT, None),
        lambda: originate(
            IPv4Prefix.parse("184.164.224.0/24"), 20001, NH
        ).prepended(1000),
        "blocked", "exported",
    ),
]


def test_security_capability_matrix(benchmark):
    def run_matrix():
        rows = []
        for label, grant, make_route, expect_without, expect_with in CASES:
            without = outcome_of(fresh_enforcer(), make_route())
            granted = outcome_of(fresh_enforcer([grant]), make_route())
            rows.append([
                label, without, granted,
                "OK" if (without, granted) == (
                    expect_without, expect_with
                ) else "MISMATCH",
            ])
        # Non-capability policies, for completeness of §4.7's table.
        hijack = local_route(IPv4Prefix.parse("8.8.8.0/24"), next_hop=NH)
        rows.append([
            "hijack (foreign prefix)",
            outcome_of(fresh_enforcer(), hijack),
            outcome_of(fresh_enforcer(
                [(Capability.PREFIX_TRANSIT, None)]
            ), hijack),
            "OK",
        ])
        return rows

    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    report(
        "security_matrix",
        "§4.7 capability matrix (route disposition at the enforcer)\n"
        + format_table(
            ["capability under test", "without grant", "with grant",
             "matches policy"],
            rows,
        ),
    )
    assert all(row[-1] == "OK" for row in rows)
    # Hijacks are blocked regardless of any grant.
    assert rows[-1][1] == "blocked" and rows[-1][2] == "blocked"


def test_enforcer_filter_throughput(benchmark):
    """Routes/second through the full filter chain."""
    enforcer = fresh_enforcer([(Capability.BGP_COMMUNITIES, 4)])
    routes = [
        local_route(prefix, next_hop=NH).add_communities(
            Community(3356, index % 100)
        )
        for index, prefix in enumerate(ALLOCATION.subnets(24))
    ]

    def run():
        for route in routes:
            enforcer.check_routes("probe", [route], "pop")

    benchmark(run)
