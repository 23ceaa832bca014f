"""Figure 6a — memory consumption vs number of known routes, measured.

The paper's three series, each read with ``tracemalloc`` at 10k / 20k /
40k paths of one DFZ-shaped table ingest (one upstream, multi-NLRI
UPDATEs in a seeded random order):

* *control plane*: the decoded paths held in a ``bgp.rib.AdjRibIn``
  alone;
* *per-interconnection data plane*: the UPDATE bytes fed to a real PoP's
  upstream session, so the node holds its Adj-RIB-In and the neighbor's
  kernel table;
* *with default*: the data plane plus one main-table ``KernelRoute``
  per prefix. The main table shares the routes' prefixes and nothing
  else, so its bytes are read on their own, after each chunk of the
  control-plane ingest, and added (reading them inside the node ingest
  gave the same B/path to within 1 B, and took 1.5 s longer).

Shape claims: the series are ordered, the marginal bytes per path
between checkpoints stay inside a band, and AMS-IX's 2.7M routes fit a
32 GiB server. The 100M-route figure is printed beside the paper's.
"""

import itertools
import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor

from benchmarks.reporting import format_table, report
from repro.bgp.messages import MessageDecoder
from repro.bgp.rib import AdjRibIn
from repro.internet.fulltable import FullTableGenerator
from repro.metrics import traced_bytes, upstream_pop
from repro.netsim.addr import IPv4Address
from repro.netsim.lpm import LpmTable
from repro.netsim.stack import KernelRoute

CHECKPOINTS = (10_000, 20_000, 40_000)
# Marginal B/path between checkpoints over the series' B/path at 40k.
# Five runs on a 2-vCPU VM (CPython 3.11) gave 0.945-1.006 over the series,
# within 1-2 B/path of each other from run to run (the spread is between
# checkpoints, not between runs); the band widens it by 10 % on each side.
MARGINAL_BAND = (0.85, 1.10)
GIB = 1 << 30


def table_chunks(checkpoints):
    """A table of ``checkpoints[-1]`` prefixes as UPDATE bytes, cut at the
    first message that reaches each checkpoint:
    ``[(wires, paths so far), ...]``."""
    messages = list(FullTableGenerator(
        prefix_count=checkpoints[-1], seed=11).table_updates())
    random.Random(11).shuffle(messages)
    chunks, wires, total = [], [], 0
    pending = list(checkpoints)
    for message in messages:
        wires.append(message.encode())
        total += len(message.nlri)
        if pending and total >= pending[0]:
            chunks.append((wires, total))
            wires = []
            pending.pop(0)
    return chunks


def control_plane(chunks) -> tuple[list[int], list[int]]:
    """(control plane, default table). The decoded paths held in a
    ``bgp.rib.AdjRibIn`` alone; then, read as its own step after each
    chunk, one main-table ``KernelRoute`` per new prefix. The main table
    is a structure of its own that shares the Adj-RIB-In's prefixes, so
    its bytes add to the node's (the "with default" series)."""
    rib = AdjRibIn()
    main = LpmTable()
    next_hop = IPv4Address.parse("80.249.208.1")
    installed = []

    def hold(wires):
        decoder = MessageDecoder()
        for wire in wires:
            decoder.feed(wire)
            message = decoder.next_message()
            for path in message.nlri:
                rib.update(path, message.attributes)

    def install_defaults():
        prefixes = list(rib.prefixes())[len(installed):]
        for prefix in prefixes:
            main.insert(prefix, KernelRoute(
                prefix=prefix, out_iface="ixp", next_hop=next_hop))
        installed.extend(prefixes)

    steps = []
    for wires, _ in chunks:
        steps += [lambda w=wires: hold(w), install_defaults]
    readings = traced_bytes(steps)
    default = [after - before for before, after
               in zip(readings[0::2], readings[1::2])]
    control = [reading - sum(default[:index])
               for index, reading in enumerate(readings[0::2])]
    return control, list(itertools.accumulate(default))


def data_plane(chunks) -> list[int]:
    """The UPDATE bytes on a real PoP's upstream session: the node's
    Adj-RIB-In and the neighbor's kernel table."""
    pop, feed = upstream_pop()
    readings = traced_bytes(lambda w=wires: feed(w) for wires, _ in chunks)
    assert len(pop.node.upstreams["upstream"].rib) == chunks[-1][1]
    return readings


def test_fig6a_memory_series(benchmark):
    chunks = table_chunks(CHECKPOINTS)
    counts = [paths for _, paths in chunks]

    def measure():
        # Two independent traced ingests: byte counts do not depend on
        # timing, so the control plane runs beside the node in a child.
        with ProcessPoolExecutor(1, multiprocessing.get_context("spawn")) as pool:
            beside = pool.submit(control_plane, chunks)
            data = data_plane(chunks)
            control, default = beside.result()
        return {"control plane": control, "data plane": data,
                "dp w/ default": [a + b for a, b in zip(data, default)]}

    series = benchmark.pedantic(measure, rounds=1, iterations=1)
    per_path = {name: values[-1] / counts[-1]
                for name, values in series.items()}
    marginal = {
        name: [(values[i] - values[i - 1]) / (counts[i] - counts[i - 1])
               for i in range(1, len(counts))]
        for name, values in series.items()
    }
    rows = [
        [f"{paths:,}"] + [f"{series[name][index] / 2**20:.1f}"
                          for name in series]
        for index, paths in enumerate(counts)
    ]
    rows.append(["B/path"] + [f"{per_path[name]:,.0f}" for name in series])
    rows.append(["marginal"] + [
        " / ".join(f"{value:,.0f}" for value in marginal[name])
        for name in series])
    worst = per_path["dp w/ default"]
    text = (
        "Figure 6a: traced memory (MiB) vs known paths "
        "(one DFZ-shaped ingest, one upstream)\n"
        + format_table(["paths"] + list(series), rows)
        + f"\n\ncontrol-plane bytes/path: {per_path['control plane']:,.0f}"
          "   (paper: ~327 B/route, BIRD)"
        + f"\ndata-plane bytes/path: {per_path['data plane']:,.0f}"
        + f"\nAMS-IX 2.7M routes w/ default -> {2_700_000 * worst / GIB:.1f}"
          " GiB   (paper: fits commodity RAM)"
        + "\n100M routes -> "
        + ", ".join(f"{name} {100_000_000 * per_path[name] / GIB:,.0f} GiB"
                    for name in series)
        + "   (paper: a 32 GiB server supports 100M routes)"
    )
    report("fig6a_memory", text)

    for index in range(len(counts)):
        assert (series["control plane"][index] < series["data plane"][index]
                < series["dp w/ default"][index])
    low, high = MARGINAL_BAND
    for name, values in marginal.items():
        for value in values:
            assert low <= value / per_path[name] <= high, (name, marginal)
    assert 2_700_000 * worst < 32 * GIB
