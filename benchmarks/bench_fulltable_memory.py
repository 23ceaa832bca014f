"""§6g — Loc-RIB resident memory per stored route.

Figure 6a shows memory scaling linearly with known routes; §6g attacks
the constant.  :class:`ColumnarLocRib` packs each candidate into three
ints (peer id, path id, attribute handle) and interns attribute values
per RIB, so the per-candidate cost collapses to the triple plus an
amortized share of the handle tables.

This bench loads the same DFZ-shaped table from two upstream feeds
(two candidates per prefix — distinct-but-equal attribute objects, the
worst case for naive storage and exactly what the flyweight interning
collapses) and walks the actual object graph with
:func:`repro.metrics.resident_bytes`.

``FULLTABLE_MEMORY_PREFIXES`` overrides the scale; per-route figures
are nearly scale-invariant (the handle tables amortize), committed
baselines use the default.
"""

import gc
import os

from benchmarks.reporting import format_table, report, report_json
from repro.bgp.attributes import Route
from repro.bgp.decision import best_path
from repro.bgp.rib import ColumnarLocRib
from repro.internet.fulltable import FullTableGenerator
from repro.metrics import resident_bytes

PREFIXES = int(os.environ.get("FULLTABLE_MEMORY_PREFIXES", "200000"))
FEEDS = 2
SEED = 20260807
SAMPLE = 64  # prefixes whose best entry is spot-checked


def load():
    """Load the table from ``FEEDS`` upstream feeds into a fresh RIB.

    Each feed uses its own generator instance, so equal attribute values
    arrive as distinct objects — a RIB that does not deduplicate pays
    for every copy.
    """
    gc.collect()
    rib = ColumnarLocRib(select=best_path)
    for feed in range(FEEDS):
        generator = FullTableGenerator(prefix_count=PREFIXES, seed=SEED)
        peer = f"upstream-{feed}"
        for index, prefix in enumerate(generator.prefixes):
            rib.replace(peer, Route(
                prefix=prefix, attributes=generator.attributes_for(index),
            ))
    return rib


def measure():
    rib = load()
    routes = len(rib)
    total = resident_bytes(rib)
    sample_prefixes = FullTableGenerator(
        prefix_count=PREFIXES, seed=SEED).prefixes[:SAMPLE]
    sample = [rib.best(prefix) for prefix in sample_prefixes]
    del rib
    gc.collect()
    return total, routes, sample


def test_fulltable_memory_per_route(benchmark):
    total, routes, sample = benchmark.pedantic(
        measure, rounds=1, iterations=1,
    )
    assert routes == FEEDS * PREFIXES
    # Every sampled prefix has a best path, from the first feed (equal
    # candidates: the fold keeps the earlier one).
    assert all(entry is not None and entry.peer == "upstream-0"
               for entry in sample)

    per_route = total / routes

    rows = [
        ["table prefixes", f"{PREFIXES:,}", "—"],
        ["stored candidates", f"{routes:,}",
         f"{FEEDS} feeds x {PREFIXES:,}"],
        ["columnar backend B/route", f"{per_route:,.0f}",
         "dict layout was x2.91"],
    ]
    report(
        "fulltable_memory",
        "§6g Loc-RIB resident bytes per stored route "
        "(deep object-graph walk)\n"
        + format_table(["metric", "measured", "note"], rows),
    )
    report_json("fulltable_memory", {
        "prefixes": PREFIXES,
        "routes": routes,
        "columnar_backend_bytes_per_route": per_route,
    })
