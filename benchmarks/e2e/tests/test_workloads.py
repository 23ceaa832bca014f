"""Every workload at smoke scale: correct, complete, deterministic, fast."""

from __future__ import annotations

import json
import re
from time import perf_counter

import pytest

from benchmarks.e2e import harness
from benchmarks.e2e.run import SMOKE_SLICES
from benchmarks.e2e.workloads import WORKLOADS

SPEC = harness.spec()
NAMES = [entry["name"] for entry in SPEC["workloads"]]
# Over real TCP the number of reads, and so of everything counted per
# read, depends on how the kernel coalesces segments.
TIMING_DEPENDENT = {
    "churn_loopback": ("sim.scheduler", "bgp.transport.rx", "bgp.session.rx",
                       "bgp.messages.decode"),
}


def smoke(name: str, seed: int = 0, trace: bool = False) -> dict:
    workload = WORKLOADS[name](seed, smoke=True)
    return harness.run_workload(
        workload, 0.0, trace,
        max_slices=SMOKE_SLICES.get(name, SMOKE_SLICES["default"]),
    )


def test_benchmark_json_meets_the_contract():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert set(NAMES) == set(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    listed = SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]
    assert len({entry["name"] for entry in listed}) == len(listed)
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert name.match(entry["name"]) and unit.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 6) < 3420     # 6 s: set-up, checks
    assert len(json.dumps(SPEC)) < 64 * 1024


@pytest.mark.parametrize("name", NAMES)
def test_smoke_is_correct_fast_and_complete(name):
    started = perf_counter()
    record = smoke(name)
    assert perf_counter() - started < 3.0
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] >= 1
    assert set(record["end_to_end"]) == {
        entry["name"] for entry in SPEC["end_to_end"]
    }
    # End-to-end metrics are never 0: every workload produces latencies.
    assert all(value > 0 for value in record["end_to_end"].values())
    assert record["hygiene"]["transport"] == WORKLOADS[name].transport
    for key in ("commit", "seed", "nproc", "python", "perf_flags",
                "loadavg_1m_at_start"):
        assert key in record["hygiene"]
    if name == "churn_loopback":
        assert record["hygiene"]["open_loop_rate_per_s"] == 4000.0


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_run_other_seed_other_inputs(name):
    first, again, other = (
        smoke(name, 3, trace=True), smoke(name, 3, trace=True),
        smoke(name, 4),
    )
    assert set(first["per_layer"]) == {
        entry["name"] for entry in SPEC["per_layer"]
    }
    assert first["correct"] and again["correct"]
    for key in ("input_digest", "attempted", "output_bytes"):
        assert first[key] == again[key], key
    assert first["samples"]["ops"] == again["samples"]["ops"]
    skip = TIMING_DEPENDENT.get(name, ())
    for metric, value in first["per_layer"].items():
        if metric.endswith(".calls_per_op") and not metric.startswith(skip):
            assert value == again["per_layer"][metric], metric
    for metric in ("vbgp.node.frames_out_per_update",
                   "vbgp.node.nlri_per_frame", "bgp.messages.bytes_per_route",
                   "netsim.stack.rule_checks_per_packet",
                   "security.control.rejected_share",
                   "security.data.dropped_share"):
        assert first["per_layer"][metric] == again["per_layer"][metric], metric
    assert first["per_layer"]["trace.unattributed_share"] < 0.5
    assert other["input_digest"] != first["input_digest"]
