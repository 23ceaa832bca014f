"""Metrics tests: traced ingest memory, CPU accounting, throughput."""

import pytest

from repro.internet.fulltable import FullTableGenerator
from repro.metrics import (
    estimate_tcp_throughput,
    measure_processing,
    traced_bytes,
    upstream_pop,
)

# Traced bytes per path of the 5k-path ingest below (Adj-RIB-In, decoded
# routes, the neighbor's kernel table), run directly on each interpreter
# when this bound was set: 1,073 B on CPython 3.10, 961 on 3.11, 936 on
# 3.12 and 937 on 3.13. The bound takes the largest, so it holds on every
# interpreter CI runs. The Figure 6a bench reads the same ingest at
# 10k-40k paths.
MEASURED_BYTES_PER_PATH = 1073


class TestTracedIngest:
    def test_bytes_per_path_bound(self):
        """A real PoP's upstream ingest of a fixed DFZ-shaped table stays
        within 15 % of the measured bytes per path."""
        table = FullTableGenerator(prefix_count=5000, seed=5)
        wires = [update.encode() for update in table.table_updates()]
        pop, feed = upstream_pop()
        (traced,) = traced_bytes([lambda: feed(wires)])
        assert len(pop.node.upstreams["upstream"].rib) == 5000
        assert traced / 5000 <= 1.15 * MEASURED_BYTES_PER_PATH


class TestCpuModel:
    def test_measurement_counts_and_times(self):
        measurement = measure_processing(
            "noop", lambda update: None, list(range(1000))
        )
        assert measurement.updates == 1000
        assert measurement.total_seconds > 0
        assert measurement.seconds_per_update > 0

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
