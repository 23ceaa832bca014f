"""Figure 6b — CPU utilization vs rate of BGP updates, measured.

Real ``repro.fleet`` PoP processes (the ``build_fleet_pop`` PoPs the
fleet differential proves byte-identical to the in-process ones) are
driven over loopback TCP through ``SocketFleetLeg``. Once the sessions
are up, an open-loop feeder writes pre-encoded AMS-IX-shaped churn
UPDATEs on the upstream session at a fixed rate, and the experiment
sink only counts the bytes it gets. Each PoP's CPU seconds per wall
second (``time.process_time`` in the ``summary`` control RPC, GC on) is
the figure. Three configurations, as in the paper:

* *accept*: a PoP with one upstream and nothing else;
* *single-router vBGP*: plus one ADD-PATH experiment session, so every
  update is named, re-encoded and fanned out;
* *multi-router vBGP*: the same PoP in a two-PoP backbone pair, so every
  update also crosses the mesh (PoP B reported beside PoP A).

The PoP being read has a CPU to itself: PoP B and the feeder run on
another.

Shape claims: CPU rises with the rate, accept costs less than the
backbone PoP A at every rate, and the AMS-IX p99 (≈400 updates/s) is far
below one core.
"""

import os
import statistics
import tempfile
import time

from benchmarks.reporting import format_table, report
from repro.fleet.compiler import compile_world
from repro.fleet.controller import live_fleet_process_count
from repro.fleet.differential import SocketFleetLeg
from repro.fleet.spec import ExperimentSpec, PopSpec, UpstreamSpec, WorldSpec
from repro.internet.churn import AMSIX_PROFILE, ChurnGenerator

RATES = [500, 1000, 2000, 4000]
WINDOW = 120  # UPDATEs per window: 0.24 s at 500/s, 0.03 s at 4,000/s
# Windows per configuration and rate, interleaved; the figure is their
# median, so one window that caught a full GC pass or a host hiccup
# does not set it.
REPEATS = 3
WARMUP = 500  # unpaced updates that load the table before the windows
UPSTREAM = (UpstreamSpec(name="up", asn=65010),)
CONFIGS = {  # label -> PoPs whose CPU is read; the first has the upstream
    "accept": ("accept",),
    "single-router vBGP": ("single",),
    "multi-router vBGP": ("multi-a", "multi-b"),
}
WORLD = WorldSpec(
    name="fig6b",
    pops=(
        PopSpec(name="accept", backbone=False, upstreams=UPSTREAM),
        PopSpec(name="single", backbone=False, upstreams=UPSTREAM),
        PopSpec(name="multi-a", upstreams=UPSTREAM),
        PopSpec(name="multi-b"),
    ),
    experiments=(ExperimentSpec(name="exp", prefix="184.164.224.0/24",
                                pops=("single", "multi-a")),),
    port_base=25500,
)


def paced(leg, channel, wires, rate: float, pops):
    """Feed ``wires`` at ``rate`` per second, open loop. Returns each
    PoP's CPU seconds per wall second over the window, and how late the
    last UPDATE left against its schedule."""
    poller = leg.controller.poller

    def cpu_seconds():
        return [leg.pop_call(pop, "summary")["cpu_s"] for pop in pops]

    before = cpu_seconds()
    start = time.monotonic()
    sent = 0
    while sent < len(wires):
        due = min(len(wires), int((time.monotonic() - start) * rate) + 1)
        if due > sent:
            channel.send(b"".join(wires[sent:due]))
            sent = due
        poller.pump(max(0.0, start + sent / rate - time.monotonic()))
    late = time.monotonic() - (start + (len(wires) - 1) / rate)
    after = cpu_seconds()
    wall = time.monotonic() - start
    return [(b - a) / wall for a, b in zip(before, after)], late


def place_on_cpus(leg) -> None:
    """Run every measured PoP (accept, single-router, multi-router A) on
    one CPU, and this process (the feeder and the sinks) and PoP B on
    another, so the PoP being read never shares its CPU. Left to the
    scheduler, PoP A read 45 % of a core at 4,000/s in some runs and
    65-80 % in others, with PoP B dropping alongside (both batching more
    per wakeup); placed, it read 60-77 % in thirteen runs out of thirteen."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    processes = leg.controller.processes
    for pops in CONFIGS.values():
        os.sched_setaffinity(processes[pops[0]].pid, {cpus[0]})
    os.sched_setaffinity(processes["multi-b"].pid, {cpus[1]})
    os.sched_setaffinity(0, {cpus[1]})


def measure(wires_warm, wires_paced):
    """CPU seconds per wall second of each configuration's PoPs at each
    rate, the median of ``REPEATS`` windows. The configurations take turns
    window by window, so a change in the host's speed during the run
    reaches all of them alike."""
    received = [0]

    def sink(data: bytes) -> None:
        received[0] += len(data)

    cpu = {}
    lateness = 0.0
    own_cpus = os.sched_getaffinity(0)
    with tempfile.TemporaryDirectory(prefix="fig6b-") as workdir:
        leg = SocketFleetLeg(compile_world(WORLD, workdir))
        try:
            place_on_cpus(leg)
            leg.wire_driver()
            assert leg.unestablished() == []
            # From here on nothing in this process decodes an UPDATE.
            for endpoint in leg.endpoints:
                endpoint.channel.on_data = sink
            for client in leg.clients.values():
                client.channel.on_data = sink
            feeders = {ep.pop: ep.channel for ep in leg.endpoints}
            for pops in CONFIGS.values():
                feeders[pops[0]].send(b"".join(wires_warm))
            leg.settle()
            offset = 0
            for rate in RATES:
                shares = {label: [] for label in CONFIGS}
                for _ in range(REPEATS):
                    wires = wires_paced[offset:offset + WINDOW]
                    offset += WINDOW
                    for label, pops in CONFIGS.items():
                        share, late = paced(
                            leg, feeders[pops[0]], wires, rate, pops)
                        lateness = max(lateness, late)
                        shares[label].append(share)
                for label, windows in shares.items():
                    cpu[label, rate] = [statistics.median(column)
                                        for column in zip(*windows)]
        finally:
            os.sched_setaffinity(0, own_cpus)
            leg.close()
    assert live_fleet_process_count() == 0
    assert received[0] > 0  # the experiment sessions heard the churn
    return cpu, lateness


def test_fig6b_cpu_series(benchmark):
    generator = ChurnGenerator(AMSIX_PROFILE, prefix_count=2000, seed=23)
    wires_warm = [u.encode() for u in generator.make_updates(WARMUP)]
    wires_paced = [u.encode() for u in generator.make_updates(
        len(RATES) * REPEATS * WINDOW)]
    cpu, late = benchmark.pedantic(
        measure, args=(wires_warm, wires_paced), rounds=1, iterations=1)

    columns = ["accept", "single-router vBGP", "multi-router vBGP",
               "multi-router PoP B"]
    rows = [
        [rate] + [f"{100 * cpu[label, rate][0]:.1f}%"
                  for label in CONFIGS]
        + [f"{100 * cpu['multi-router vBGP', rate][1]:.1f}%"]
        for rate in RATES
    ]
    low, high = RATES[0], RATES[-1]
    per_update = ", ".join(
        f"{label} {1e6 * cpu[label, low][0] / low:.0f} -> "
        f"{1e6 * cpu[label, high][0] / high:.0f}"
        for label in CONFIGS)
    text = (
        "Figure 6b: CPU of one PoP process (share of one core) vs offered "
        "update rate\n"
        + format_table(["updates/s"] + columns, rows)
        + f"\n\nfeeder: the last UPDATE of a window left at most "
          f"{1000 * late:.1f} ms after its schedule"
        + f"\nAMS-IX load (§6): 21.8 avg / ~400 p99 updates/s; at {low}/s "
          "the busiest PoP uses "
        + f"{100 * max(max(cpu[label, low]) for label in CONFIGS):.1f}% "
          "of one core   (paper: easily handled)"
        + f"\nCPU us per update, {low} -> {high}/s: {per_update}"
          "   (paper: linear in the rate)"
    )
    report("fig6b_cpu", text)

    for label in CONFIGS:
        for index in range(len(cpu[label, low])):
            series = [cpu[label, rate][index] for rate in RATES]
            assert series == sorted(series), (label, series)
    for rate in RATES:
        assert cpu["accept", rate][0] < cpu["multi-router vBGP", rate][0]
    # Above the AMS-IX p99, every PoP stays far below one core.
    assert all(max(cpu[label, low]) < 0.5 for label in CONFIGS)
