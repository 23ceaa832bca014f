"""Fast-path ablation — each LPM toggle measured on/off, results equal.

The two LPM accelerations are gated behind :mod:`repro.perf` flags so
they can be ablated independently:

* ``stride_lpm``   — 8-bit stride trie vs. the binary-trie reference,
* ``lpm_cache``    — bounded LRU lookup cache on :class:`LpmTable`.

The control-plane fast paths have no toggle; DESIGN.md §6b records
their last ablation.

For each configuration this benchmark runs two workloads **and checks the
functional output is byte-for-byte identical to the all-flags-on
baseline** — an optimization that changes results is a bug, not a win:

* the §6 churn pipeline (updates/s through a vBGP node with an attached
  ADD-PATH experiment, fingerprinted by the routes the experiment
  actually receives), and
* a forwarding-table microbenchmark (lookups/s over a realistic prefix
  mix, fingerprinted by every lookup result).
"""

import contextlib
import gc
import random
import time


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic collector during a timed region (standard
    benchmarking hygiene; results must not depend on what ran before)."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()

from benchmarks.reporting import format_table, report, report_json
from repro import perf
from repro.bgp.messages import UpdateMessage
from repro.internet.churn import AMSIX_PROFILE, ChurnGenerator
from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.netsim.lpm import LpmTable
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.state import EnforcerState
from repro.sim import Scheduler
from repro.vbgp.allocator import GlobalNeighborRegistry

UPDATE_COUNT = 2000
LPM_PREFIXES = 4000
LPM_LOOKUPS = 20000

# (label, flag overrides) — baseline first, then each toggle off alone.
CONFIGS = [
    ("all_on", {}),
    ("no_stride_lpm", {"stride_lpm": False}),
    ("no_lpm_cache", {"lpm_cache": False}),
    ("all_off", {"stride_lpm": False, "lpm_cache": False}),
]


def _route_fingerprint(update: UpdateMessage) -> tuple:
    """A hashable, content-only view of one received UPDATE."""
    announced = tuple(
        (
            str(route.prefix),
            route.path_id,
            str(route.attributes.next_hop),
            route.attributes.as_path.asns,
            tuple(sorted(
                (c.asn, c.value) for c in route.attributes.communities
            )),
            route.attributes.med,
        )
        for route in update.routes()
    )
    withdrawn = tuple(
        (str(prefix), path_id) for prefix, path_id in update.withdrawn
    )
    return announced, withdrawn


def _run_pipeline() -> tuple[float, frozenset]:
    """Feed seeded churn through a vBGP node; return (seconds, result).

    The functional result is the multiset-free set of every route change
    the attached experiment received, plus the node's final kernel-route
    counters — identical across ablation configs by construction.
    """
    scheduler = Scheduler()
    pop = PointOfPresence(
        scheduler,
        PopConfig(name="abl", pop_id=0, kind="ixp"),
        platform_asn=47065,
        platform_asns=frozenset({47065}),
        registry=GlobalNeighborRegistry(),
        enforcer_state=EnforcerState(),
    )
    pop.provision_neighbor("upstream", 65010, kind="peer")
    from repro.bgp.session import BgpSession, SessionConfig
    from repro.bgp.transport import connect_pair

    ours, theirs = connect_pair(scheduler, rtt=0.001)
    pop.node.attach_experiment(
        name="x", asn=47065,
        prefixes=(IPv4Prefix.parse("184.164.224.0/24"),),
        tunnel_ip=IPv4Address.parse("100.125.0.2"),
        tunnel_mac=MacAddress.parse("02:aa:00:00:00:02"),
        channel=ours,
    )
    received: list[UpdateMessage] = []
    client = BgpSession(
        scheduler,
        SessionConfig(local_asn=47065,
                      local_id=IPv4Address.parse("100.125.0.2"),
                      peer_asn=47065, addpath=True),
        theirs, on_update=lambda _s, update: received.append(update),
    )
    client.start()
    scheduler.run_for(5)

    generator = ChurnGenerator(AMSIX_PROFILE, prefix_count=5000, seed=99)
    updates = generator.make_updates(UPDATE_COUNT)
    with _gc_paused():
        start = time.perf_counter()
        for update in updates:
            pop.node._upstream_update("upstream", update)
            scheduler.run_until(scheduler.now)
        elapsed = time.perf_counter() - start
    scheduler.run_for(5)

    changes = frozenset(
        fp for update in received for fp in _route_fingerprint(update)[0]
    ) | frozenset(
        fp for update in received for fp in _route_fingerprint(update)[1]
    )
    fingerprint = frozenset({
        ("changes", changes),
        ("installed", pop.node.counters["routes_installed"]),
        ("removed", pop.node.counters["routes_removed"]),
        ("rib", frozenset(
            str(p) for p, _ in pop.node.upstreams["upstream"].rib
        )),
    })
    return elapsed, fingerprint


def _run_lpm() -> tuple[float, tuple]:
    """Time seeded lookups on a freshly built table; return results too."""
    rng = random.Random(4242)
    table: LpmTable[int] = LpmTable()
    base = IPv4Prefix.parse("10.0.0.0/8")
    prefixes = []
    subnets = base.subnets(24)
    for _ in range(LPM_PREFIXES):
        prefixes.append(next(subnets))
    for index, prefix in enumerate(prefixes):
        table.insert(prefix, index)
    # Covering routes and a default, so lookups cross levels.
    table.insert(IPv4Prefix.parse("10.0.0.0/8"), -1)
    table.insert(IPv4Prefix.parse("0.0.0.0/0"), -2)
    # Zipf-ish mix: a hot working set plus a uniform tail (cache-relevant).
    hot = [p.address_at(1) for p in prefixes[:64]]
    queries = []
    for _ in range(LPM_LOOKUPS):
        if rng.random() < 0.8:
            queries.append(rng.choice(hot))
        else:
            queries.append(IPv4Address(rng.randint(0, (1 << 32) - 1)))
    with _gc_paused():
        start = time.perf_counter()
        results = []
        for address in queries:
            entry = table.lookup(address)
            results.append(None if entry is None else entry.value)
        elapsed = time.perf_counter() - start
    return elapsed, tuple(results)


REPEATS = 3  # best-of-N per configuration (single runs are too noisy)


def test_ablation_fastpath():
    rows = []
    metrics = {}
    baseline_pipeline = None
    baseline_lpm = None
    # Warm-up: one throwaway run so the first measured configuration does
    # not absorb import/allocator cold-start costs.
    _run_pipeline()
    _run_lpm()
    for label, overrides in CONFIGS:
        pipe_s = lpm_s = float("inf")
        with perf.flags(**overrides):
            for _ in range(REPEATS):
                elapsed, pipe_result = _run_pipeline()
                pipe_s = min(pipe_s, elapsed)
                elapsed, lpm_result = _run_lpm()
                lpm_s = min(lpm_s, elapsed)
        if baseline_pipeline is None:
            baseline_pipeline = pipe_result
            baseline_lpm = lpm_result
        else:
            # The whole point: toggles change speed, never results.
            assert pipe_result == baseline_pipeline, (
                f"{label}: pipeline output diverged from baseline"
            )
            assert lpm_result == baseline_lpm, (
                f"{label}: LPM lookups diverged from baseline"
            )
        updates_per_s = UPDATE_COUNT / pipe_s
        lookups_per_s = LPM_LOOKUPS / lpm_s
        rows.append([label, f"{updates_per_s:,.0f}", f"{lookups_per_s:,.0f}"])
        metrics[f"updates_per_s_{label}"] = updates_per_s
        metrics[f"lpm_lookups_per_s_{label}"] = lookups_per_s
    report(
        "ablation_fastpath",
        "Fast-path ablation (functional output identical in every row)\n"
        + format_table(["configuration", "updates/s", "LPM lookups/s"],
                       rows),
    )
    report_json("ablation_fastpath", metrics)
    # Headline: the full fast path beats the everything-off build.  The
    # LPM gap is wide and stable; the pipeline gap is real but this short
    # run carries scheduler noise, so allow a small tolerance.
    assert (metrics["lpm_lookups_per_s_all_on"]
            > metrics["lpm_lookups_per_s_all_off"])
    assert (metrics["updates_per_s_all_on"]
            > 0.9 * metrics["updates_per_s_all_off"])
