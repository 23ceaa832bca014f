"""Figure 6b — CPU utilization vs rate of BGP updates.

Three configurations, as in the paper:

* *accept*: decode the UPDATE and store its routes — no checks (the lower
  bound on per-update cost),
* *single-router vBGP*: the full experiment-announcement filter chain
  (prefix ownership, origin, path sanity, attribute policing, rate
  accounting) — a worst case, since in deployment most updates come from
  the Internet and see much simpler filters,
* *multi-router vBGP*: the backbone-mesh configuration's additional
  next-hop handling (global-IP rewrite + path-id allocation + re-encode).

Per-update cost is measured over real UPDATE processing and converted to
utilization of one core at the paper's rates. The shape claims we verify:
linearity in the rate, ordering accept ≤ single ≤ multi, safety filters
not dominating, and the AMS-IX load (21.8 avg / 400 p99 updates/s)
leaving ample headroom.
"""

import pytest

from benchmarks.reporting import format_table, report
from repro.bgp.messages import MessageDecoder
from repro.internet.churn import AMSIX_PROFILE, ChurnGenerator
from repro.metrics import measure_processing
from repro.netsim.addr import IPv4Prefix
from repro.security import ControlPlaneEnforcer, ExperimentProfile
from repro.sim import Scheduler
from repro.vbgp.allocator import LocalVipAllocator, global_neighbor_ip

RATES = [500, 1000, 2000, 4000]
UPDATE_COUNT = 3000


@pytest.fixture(scope="module")
def wire_updates():
    """Churn updates, wire-encoded (processing includes decode)."""
    generator = ChurnGenerator(AMSIX_PROFILE, prefix_count=2000, seed=23)
    return [update.encode() for update in generator.make_updates(
        UPDATE_COUNT
    )]


def accept_pipeline():
    store = {}

    def process(data: bytes):
        decoder = MessageDecoder()
        decoder.feed(data)
        update = decoder.next_message()
        for route in update.routes():
            store[route.prefix] = route
        for prefix, _pid in update.withdrawn:
            store.pop(prefix, None)

    return process


def single_router_pipeline():
    scheduler = Scheduler()
    enforcer = ControlPlaneEnforcer(
        scheduler, platform_asns=frozenset({47065}),
    )
    # A permissive experiment so filters run to completion without
    # rejecting (the paper's stated worst case): transit + communities
    # capabilities make foreign paths and attributes acceptable.
    enforcer.register_experiment(ExperimentProfile(
        name="bench",
        asns=frozenset({47065}),
        prefixes=(IPv4Prefix.parse("0.0.0.0/0"),),
        max_announced_length=32,
        max_as_path_length=64,
    ))
    from repro.security.capabilities import Capability

    enforcer.profiles["bench"].grant(Capability.PREFIX_TRANSIT, None)
    enforcer.profiles["bench"].grant(Capability.BGP_COMMUNITIES, None)
    store = {}

    def process(data: bytes):
        decoder = MessageDecoder()
        decoder.feed(data)
        update = decoder.next_message()
        routes = update.routes()
        if routes:
            accepted = enforcer.check_routes("bench", routes, "bench-pop")
            for route in accepted.accepted:
                store[route.prefix] = route
        for prefix, _pid in update.withdrawn:
            store.pop(prefix, None)

    return process


def multi_router_pipeline():
    single = single_router_pipeline()
    vips = LocalVipAllocator()
    path_ids = {}
    counter = [0]

    def process(data: bytes):
        single(data)
        # Backbone next-hop handling: rewrite to the global pool address,
        # allocate a stable path id, and re-encode for the mesh.
        decoder = MessageDecoder()
        decoder.feed(data)
        update = decoder.next_message()
        gid = (counter[0] % 200) + 1
        counter[0] += 1
        for route in update.routes():
            carried = route.with_next_hop(global_neighbor_ip(gid))
            key = (gid, route.prefix.key())
            if key not in path_ids:
                path_ids[key] = len(path_ids) + 1
            carried = carried.with_path_id(path_ids[key])
            vips.vip_for(gid)
            from repro.bgp.messages import UpdateMessage

            UpdateMessage.announce([carried]).encode(addpath=True)

    return process


def test_fig6b_cpu_series(wire_updates, benchmark):
    measurements = {}
    pipelines = {
        "accept": accept_pipeline(),
        "single-router vBGP": single_router_pipeline(),
        "multi-router vBGP": multi_router_pipeline(),
    }

    def run_all():
        return {
            label: measure_processing(label, pipeline, wire_updates)
            for label, pipeline in pipelines.items()
        }

    measurements = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for rate in RATES:
        rows.append([rate] + [
            f"{measurements[label].utilization(rate):.1f}%"
            for label in pipelines
        ])
    sustainable = {
        label: measurements[label].max_sustainable_rate()
        for label in pipelines
    }
    text = (
        "Figure 6b: CPU utilization (one core) vs update rate\n"
        + format_table(["updates/s"] + list(pipelines), rows)
        + "\n\nmax sustainable rates: "
        + ", ".join(f"{label} {rate:,.0f}/s"
                    for label, rate in sustainable.items())
        + "\nAMS-IX load (§6): 21.8 avg / ~400 p99 updates/s -> "
        + f"{measurements['multi-router vBGP'].utilization(400):.1f}% "
          "worst-case utilization at the p99"
    )
    report("fig6b_cpu", text)

    accept = measurements["accept"]
    single = measurements["single-router vBGP"]
    multi = measurements["multi-router vBGP"]
    # Ordering and linearity (the paper's qualitative claims).
    assert accept.seconds_per_update <= single.seconds_per_update
    assert single.seconds_per_update <= multi.seconds_per_update
    assert single.utilization(2000) == pytest.approx(
        2 * single.utilization(1000), rel=0.01
    )
    # Safety filters must not dominate: within ~8x of the accept floor
    # (the paper's figure shows roughly 1.5-2x; Python amplifies constant
    # factors but the claim is that filtering stays same-order).
    assert single.seconds_per_update < 8 * accept.seconds_per_update
    # The AMS-IX p99 load leaves headroom on one core.
    assert multi.utilization(400) < 100


def test_fig6b_single_router_throughput(wire_updates, benchmark):
    """pytest-benchmark timing of the single-router filter pipeline."""
    pipeline = single_router_pipeline()
    sample = wire_updates[:500]

    def run():
        for data in sample:
            pipeline(data)

    benchmark(run)
