"""Figure 6a — memory consumption vs number of known routes.

The paper's series (all linear in the route count):

* *control plane*: a single global RIB — ≈327 B/route in BIRD,
* *per-interconnection data plane*: + one kernel FIB entry per route,
* *per-interconnection data plane w/ default*: + a synchronized default
  table.

We regenerate the series by building realistic routes (AS paths and
communities drawn from the churn generator's distribution) and walking
the actual data structures with the calibrated byte model, then check the
paper's headline claims: ≈327 B/route, linearity, a 32 GiB server fitting
100 M routes, and AMS-IX's 2.7 M routes fitting comfortably.
"""

import pytest

from benchmarks.reporting import format_table, report
from repro.internet.churn import AMSIX_PROFILE, ChurnGenerator
from repro.metrics import memory_report, rib_memory

ROUTE_COUNTS = [50_000, 100_000, 200_000, 400_000]


def build_routes(count: int):
    generator = ChurnGenerator(AMSIX_PROFILE, prefix_count=count, seed=11)
    routes = []
    while len(routes) < count:
        update = generator.make_update()
        routes.extend(update.routes())
    return routes[:count]


@pytest.fixture(scope="module")
def route_sets():
    return {count: build_routes(count) for count in ROUTE_COUNTS}


def test_fig6a_memory_series(route_sets, benchmark):
    reports = benchmark.pedantic(
        lambda: {
            count: memory_report(routes)
            for count, routes in route_sets.items()
        },
        rounds=1, iterations=1,
    )
    rows = []
    for count in ROUTE_COUNTS:
        control, data, default = reports[count].as_megabytes()
        rows.append([
            f"{count // 1000}k",
            f"{control:.1f}",
            f"{data:.1f}",
            f"{default:.1f}",
        ])
    per_route = (
        reports[ROUTE_COUNTS[-1]].control_plane / ROUTE_COUNTS[-1]
    )
    amsix_gb = per_route * 2_700_000 / (1 << 30)
    hundred_m_gb = per_route * 100_000_000 / (1 << 30)
    text = (
        "Figure 6a: memory (MB) vs known routes\n"
        + format_table(
            ["routes", "control-plane", "data-plane", "dp w/ default"],
            rows,
        )
        + f"\n\ncontrol-plane bytes/route: {per_route:.0f}"
          "   (paper: ~327 B/route)"
        + f"\nAMS-IX 2.7M routes -> {amsix_gb:.2f} GiB control-plane RAM"
        + f"\n100M routes control-plane -> {hundred_m_gb:.1f} GiB"
          "   (paper: a 32 GiB server supports 100M routes)"
    )
    report("fig6a_memory", text)
    assert hundred_m_gb < 32

    # Shape assertions: calibration, ordering, linearity.
    assert 300 <= per_route <= 360
    for count in ROUTE_COUNTS:
        r = reports[count]
        assert r.control_plane < r.data_plane < r.data_plane_with_default
    small = reports[ROUTE_COUNTS[0]].control_plane / ROUTE_COUNTS[0]
    large = per_route
    assert abs(small - large) / large < 0.05  # linear: constant slope


def test_fig6a_rib_memory_throughput(route_sets, benchmark):
    """How fast the accounting walks a 100k-route RIB (harness cost)."""
    routes = route_sets[100_000]
    total = benchmark(lambda: rib_memory(routes))
    assert total > 0
