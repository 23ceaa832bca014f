"""Metrics tests: memory model calibration, CPU accounting, throughput."""

import pytest

from repro.bgp.attributes import Community, originate
from repro.metrics import (
    FIB_ENTRY_BYTES,
    estimate_tcp_throughput,
    measure_processing,
    memory_report,
    rib_memory,
    route_memory_bytes,
)
from repro.netsim.addr import IPv4Address, IPv4Prefix


def typical_route(index=0):
    """A representative Internet route: 4-hop path, 2 communities."""
    return originate(
        IPv4Prefix.parse(f"10.{index % 256}.0.0/16"),
        3356,
        IPv4Address.parse("1.1.1.1"),
        communities=(Community(3356, 100), Community(3356, 200)),
    ).prepended(2914).prepended(1299).prepended(174)


class TestMemoryModel:
    def test_calibrated_to_327_bytes_per_route(self):
        """§6: 'approximately 327B/route'."""
        routes = [typical_route(i) for i in range(100)]
        per_route = rib_memory(routes) / len(routes)
        assert 300 <= per_route <= 355

    def test_longer_paths_cost_more(self):
        short = typical_route()
        long = short.prepended(65000, 10)
        assert route_memory_bytes(long) > route_memory_bytes(short)

    def test_linear_in_route_count(self):
        small = rib_memory([typical_route(i) for i in range(100)])
        large = rib_memory([typical_route(i) for i in range(200)])
        assert abs(large - 2 * small) < small * 0.01

    def test_report_ordering(self):
        """Figure 6a: control < data plane < data plane w/ default."""
        routes = [typical_route(i) for i in range(500)]
        report = memory_report(routes)
        assert report.control_plane < report.data_plane
        assert report.data_plane < report.data_plane_with_default
        assert report.data_plane == report.control_plane + (
            FIB_ENTRY_BYTES * 500
        )

    def test_32gib_supports_100m_routes(self):
        """§6: '32GiB of RAM to support 100 million routes'."""
        per_route = route_memory_bytes(typical_route())
        assert per_route * 100_000_000 < 34 * (1 << 30)


class TestCpuModel:
    def test_measurement_counts_and_times(self):
        measurement = measure_processing(
            "noop", lambda update: None, list(range(1000))
        )
        assert measurement.updates == 1000
        assert measurement.total_seconds > 0
        assert measurement.seconds_per_update > 0

    def test_utilization_linear_in_rate(self):
        measurement = measure_processing(
            "noop", lambda update: None, list(range(1000))
        )
        low = measurement.utilization(100)
        high = measurement.utilization(200)
        assert high == pytest.approx(2 * low)

    def test_utilization_capped_at_100(self):
        measurement = measure_processing(
            "slow", lambda update: sum(range(100)), list(range(10))
        )
        assert measurement.utilization(1e12) == 100.0

    def test_heavier_work_costs_more(self):
        # Wall clock on a shared box: the heavy body is > 100x the light
        # one and each side is its best of three, so one preemption
        # cannot flip the comparison.
        def best(name, body):
            return min(
                measure_processing(
                    name, body, list(range(2000))
                ).seconds_per_update
                for _ in range(3)
            )

        assert best("heavy", lambda u: sum(range(1000))) > best(
            "light", lambda u: None
        )


class TestThroughputModel:
    def test_capacity_limited_at_low_rtt(self):
        bw = estimate_tcp_throughput(0.001, 0.0, 1e9)
        assert bw == pytest.approx(0.95e9)

    def test_loss_limits_throughput(self):
        clean = estimate_tcp_throughput(0.05, 1e-5, 1e9)
        lossy = estimate_tcp_throughput(0.05, 1e-2, 1e9)
        assert lossy < clean

    def test_rtt_limits_throughput(self):
        near = estimate_tcp_throughput(0.01, 1e-3, 1e9)
        far = estimate_tcp_throughput(0.1, 1e-3, 1e9)
        assert far < near
        assert near == pytest.approx(10 * far, rel=0.01)

    def test_invalid_rtt(self):
        with pytest.raises(ValueError):
            estimate_tcp_throughput(0.0, 0.0, 1e9)
