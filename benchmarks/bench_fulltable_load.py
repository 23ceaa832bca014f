"""§6g — full-table ingestion through the vBGP pipeline.

The paper's muxes carry full Internet routing tables (§4.1: "mux BGP
routers maintain full Internet routing tables"), and §6 shows the
platform absorbing them with modest CPU.  This bench replays a
~900k-prefix DFZ-shaped table (plus a churn tail) through a real vBGP
node fanning out to eight ADD-PATH experiment sessions, with the
shipping pipeline (stride LPM, batched fan-out, memoized encode,
columnar Loc-RIB, incremental best-path, zero-copy encode) and reports
its ingest rate.

``FULLTABLE_PREFIXES`` / ``FULLTABLE_CHURN`` override the scale for
quick local runs (per-message rates are only mildly scale-dependent;
committed baselines use the defaults).
"""

import gc
import os
import time

from benchmarks.reporting import format_table, report, report_json
from repro.bgp.session import BgpSession, SessionConfig
from repro.bgp.transport import connect_pair
from repro.internet.fulltable import FullTableGenerator
from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.state import EnforcerState
from repro.sim import Scheduler
from repro.vbgp.allocator import GlobalNeighborRegistry

PREFIXES = int(os.environ.get("FULLTABLE_PREFIXES", "900000"))
CHURN = int(os.environ.get("FULLTABLE_CHURN", "10000"))
EXPERIMENTS = 8
SEED = 20260807


def build_node():
    """A PoP with one upstream feed and eight experiment attachments."""
    scheduler = Scheduler()
    pop = PointOfPresence(
        scheduler,
        PopConfig(name="ft", pop_id=0, kind="ixp"),
        platform_asn=47065,
        platform_asns=frozenset({47065}),
        registry=GlobalNeighborRegistry(),
        enforcer_state=EnforcerState(),
    )
    pop.provision_neighbor("upstream", 65010, kind="peer")
    for index in range(EXPERIMENTS):
        ours, theirs = connect_pair(scheduler, rtt=0.001)
        pop.node.attach_experiment(
            name=f"x{index}", asn=47065,
            prefixes=(IPv4Prefix.parse(f"184.164.{224 + index}.0/24"),),
            tunnel_ip=IPv4Address.parse(f"100.125.{index}.2"),
            tunnel_mac=MacAddress.parse(f"02:aa:00:00:00:{2 + index:02x}"),
            channel=ours,
        )
        client = BgpSession(
            scheduler,
            SessionConfig(local_asn=47065,
                          local_id=IPv4Address.parse(f"100.125.{index}.2"),
                          peer_asn=47065, addpath=True),
            theirs, on_update=lambda _s, _u: None,
        )
        client.start()
    scheduler.run_for(5)
    return scheduler, pop


def run_leg():
    """One ingestion run; returns (elapsed_s, messages, rib_size)."""
    gc.collect()
    scheduler, pop = build_node()
    generator = FullTableGenerator(prefix_count=PREFIXES, seed=SEED)
    updates = list(generator.table_updates())
    updates.extend(generator.churn(CHURN))
    start = time.perf_counter()
    for update in updates:
        pop.node._upstream_update("upstream", update)
        scheduler.run_until(scheduler.now)  # drain immediate events
    elapsed = time.perf_counter() - start
    rib_size = len(pop.node.upstreams["upstream"].rib)
    gc.collect()
    return elapsed, len(updates), rib_size


def test_fulltable_ingest_rate(benchmark):
    elapsed, messages, rib_size = benchmark.pedantic(
        run_leg, rounds=1, iterations=1,
    )
    rate = messages / elapsed
    prefixes_per_s = PREFIXES / elapsed

    rows = [
        ["table prefixes", f"{PREFIXES:,}", "~900k (full DFZ table)"],
        ["churn-tail updates", f"{CHURN:,}", "—"],
        ["UPDATE messages", f"{messages:,}", "—"],
        ["updates/s", f"{rate:,.0f}", "§6g engine"],
        ["table prefixes/s", f"{prefixes_per_s:,.0f}", "—"],
    ]
    report(
        "fulltable_load",
        "§6g full-table ingestion, vBGP pipeline with "
        f"{EXPERIMENTS}-experiment fan-out\n"
        + format_table(["metric", "measured", "note"], rows),
    )
    report_json("fulltable_load", {
        "prefixes": PREFIXES,
        "messages": messages,
        "all_on_updates_per_s": rate,
        "all_on_prefixes_per_s": prefixes_per_s,
    })

    # The table and its churn tail converged to a non-empty upstream
    # table (the wire pin proves byte-level output across commits).
    assert rib_size > 0
