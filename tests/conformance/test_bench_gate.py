"""Tests for ``scripts/check_bench_regression.py`` (the CI bench gate).

The acceptance criterion: the gate must fail on an injected >25%
synthetic regression, pass on identical metrics, tolerate movement
inside the band, and never gate on neutral counters.
"""

import importlib.util
import json
from pathlib import Path

_SCRIPT = (
    Path(__file__).resolve().parents[2]
    / "scripts"
    / "check_bench_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_bench_regression",
                                               _SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def test_direction_inference():
    assert gate.metric_direction("max_sustainable_updates_per_s") == "higher"
    assert gate.metric_direction("packets_per_s") == "higher"
    assert gate.metric_direction("per_packet_us") == "lower"
    assert gate.metric_direction("corruption_worst_s") == "lower"
    assert gate.metric_direction("control_bytes_per_route") == "lower"
    assert gate.metric_direction("dict_backend_bytes_per_route") == "lower"
    assert gate.metric_direction("scenarios") == "neutral"
    assert gate.metric_direction("corruption_reconnects") == "neutral"
    assert gate.metric_direction("utilization_at_p99_pct") == "neutral"
    assert gate.metric_direction("speedup_x") == "neutral"
    assert gate.metric_direction("reduction_x") == "neutral"


def test_real_metrics_and_cpu_count_are_machine_properties():
    """Wall-clock metrics from real backends never gate absolutely —
    even when their names contain ``per_s``."""
    assert gate.metric_direction("real_mp4_updates_per_s") == "neutral"
    assert gate.metric_direction("real_sync_updates_per_s") == "neutral"
    assert gate.metric_direction("real_speedup_mp4") == "neutral"
    assert gate.metric_direction("cpu_count") == "neutral"


def test_identical_metrics_pass():
    metrics = {"packets_per_s": 1000.0, "per_packet_us": 20.0}
    regressions, notes = gate.compare_metrics(metrics, dict(metrics))
    assert regressions == []
    assert notes == []


def test_movement_inside_tolerance_passes():
    baseline = {"packets_per_s": 1000.0, "per_packet_us": 20.0}
    current = {"packets_per_s": 800.0, "per_packet_us": 24.0}  # ±20-ish%
    regressions, _ = gate.compare_metrics(baseline, current, tolerance=0.25)
    assert regressions == []


def test_throughput_drop_beyond_tolerance_regresses():
    baseline = {"packets_per_s": 1000.0}
    current = {"packets_per_s": 700.0}  # 30% drop
    regressions, _ = gate.compare_metrics(baseline, current, tolerance=0.25)
    assert len(regressions) == 1
    assert "packets_per_s" in regressions[0]


def test_latency_rise_beyond_tolerance_regresses():
    baseline = {"per_packet_us": 20.0}
    current = {"per_packet_us": 30.0}  # 50% rise
    regressions, _ = gate.compare_metrics(baseline, current, tolerance=0.25)
    assert len(regressions) == 1


def test_improvement_is_note_not_regression():
    baseline = {"packets_per_s": 1000.0}
    current = {"packets_per_s": 2000.0}
    regressions, notes = gate.compare_metrics(baseline, current)
    assert regressions == []
    assert any("refreshing the baseline" in note for note in notes)


def test_neutral_metrics_never_gate():
    baseline = {"scenarios": 7, "seeds": 5, "flap_reconnects": 2}
    current = {"scenarios": 1, "seeds": 50, "flap_reconnects": 99}
    regressions, _ = gate.compare_metrics(baseline, current)
    assert regressions == []


def test_missing_metric_regresses():
    regressions, _ = gate.compare_metrics({"packets_per_s": 1.0}, {})
    assert regressions and "missing" in regressions[0]


def test_metric_missing_from_fresh_run_names_the_metric():
    regressions, _ = gate.compare_metrics(
        {"packets_per_s": 1.0, "per_packet_us": 2.0},
        {"packets_per_s": 1.0},
    )
    assert len(regressions) == 1
    assert "'per_packet_us'" in regressions[0]
    assert "missing from fresh run" in regressions[0]


def test_metric_missing_from_baseline_regresses_with_refresh_hint():
    """The vice-versa direction: a fresh metric absent from the
    committed baseline means the baseline is stale."""
    regressions, _ = gate.compare_metrics(
        {"packets_per_s": 1.0},
        {"packets_per_s": 1.0, "speedup_x4_per_s": 9.0},
    )
    assert len(regressions) == 1
    assert "'speedup_x4_per_s'" in regressions[0]
    assert "missing from baseline" in regressions[0]
    assert "refresh" in regressions[0]


def test_neutral_metric_set_mismatch_is_note_only():
    regressions, notes = gate.compare_metrics(
        {"packets_per_s": 1.0, "scenarios": 7},
        {"packets_per_s": 1.0, "seeds": 5},
    )
    assert regressions == []
    assert any("'scenarios'" in note for note in notes)
    assert any("'seeds'" in note for note in notes)


def test_non_numeric_metric_is_message_not_traceback():
    regressions, _ = gate.compare_metrics(
        {"packets_per_s": 1000.0},
        {"packets_per_s": "fast"},
    )
    assert len(regressions) == 1
    assert "not numeric" in regressions[0]


def test_run_gate_reports_metric_mismatch_per_file(tmp_path):
    import io

    baseline_dir = tmp_path / "baselines"
    current_dir = tmp_path / "fresh"
    baseline_dir.mkdir()
    current_dir.mkdir()
    _write_bench(baseline_dir, "demo", {"updates_per_s": 5000.0})
    _write_bench(current_dir, "demo", {"other_per_s": 1.0})
    output = io.StringIO()
    assert gate.run_gate(
        baseline_dir, current_dir, names=("demo",), out=output
    ) == 1
    text = output.getvalue()
    assert "demo: REGRESSED" in text
    assert "missing from fresh run" in text
    assert "missing from baseline" in text
    assert "Traceback" not in text


def _write_bench(directory: Path, name: str, metrics: dict) -> None:
    payload = {"name": name, "metrics": metrics, "timestamp": 0.0}
    (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))


def test_run_gate_exit_codes(tmp_path):
    import io

    baseline_dir = tmp_path / "baselines"
    current_dir = tmp_path / "fresh"
    baseline_dir.mkdir()
    current_dir.mkdir()
    metrics = {"updates_per_s": 5000.0, "flap_mean_s": 12.0}
    _write_bench(baseline_dir, "demo", metrics)

    # clean: identical fresh run
    _write_bench(current_dir, "demo", dict(metrics))
    assert gate.run_gate(baseline_dir, current_dir, names=("demo",)) == 0

    # the acceptance criterion: injected >25% synthetic regression fails
    _write_bench(current_dir, "demo",
                 {"updates_per_s": 5000.0 * 0.6, "flap_mean_s": 12.0})
    output = io.StringIO()
    assert gate.run_gate(
        baseline_dir, current_dir, names=("demo",), out=output
    ) == 1
    assert "REGRESSED" in output.getvalue()

    # missing fresh JSON is an infrastructure error, not a silent pass
    (current_dir / "BENCH_demo.json").unlink()
    assert gate.run_gate(baseline_dir, current_dir, names=("demo",)) == 2


def test_load_metrics_distinguishes_failure_modes(tmp_path):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"metrics": {"a_per_s": 1.0}}))
    metrics, error = gate.load_metrics(ok)
    assert metrics == {"a_per_s": 1.0} and error is None

    metrics, error = gate.load_metrics(tmp_path / "absent.json")
    assert metrics is None and "MISSING" in error

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    metrics, error = gate.load_metrics(bad_json)
    assert metrics is None and "INVALID JSON" in error

    # Valid JSON whose top level is not an object used to escape as an
    # uncaught AttributeError; it must be a clear per-file message.
    top_level_list = tmp_path / "list.json"
    top_level_list.write_text(json.dumps([1, 2, 3]))
    metrics, error = gate.load_metrics(top_level_list)
    assert metrics is None
    assert "top-level JSON is list" in error and "list.json" in error

    no_metrics = tmp_path / "nometrics.json"
    no_metrics.write_text(json.dumps({"metrics": [1]}))
    metrics, error = gate.load_metrics(no_metrics)
    assert metrics is None and "'metrics' is list" in error


def test_run_gate_reports_non_object_json_with_exit_2(tmp_path):
    import io

    baseline_dir = tmp_path / "baselines"
    current_dir = tmp_path / "fresh"
    baseline_dir.mkdir()
    current_dir.mkdir()
    _write_bench(baseline_dir, "demo", {"updates_per_s": 100.0})
    (current_dir / "BENCH_demo.json").write_text(json.dumps([1, 2]))
    output = io.StringIO()
    assert gate.run_gate(
        baseline_dir, current_dir, names=("demo",), out=output
    ) == 2
    text = output.getvalue()
    assert "demo: fresh run INVALID" in text
    assert "expected an object" in text
    assert "Traceback" not in text


def test_fleet_convergence_is_gated_relatively():
    assert "fleet_convergence" in gate.GATED_BENCHMARKS
    regressions, notes = gate.check_relative_gates(
        "fleet_convergence",
        {"cpu_count": 4, "real_updates_per_s_fleet": 2.0},
    )
    assert len(regressions) == 1 and "2.00x < 5.0x" in regressions[0]
    regressions, _ = gate.check_relative_gates(
        "fleet_convergence",
        {"cpu_count": 4, "real_updates_per_s_fleet": 9.0},
    )
    assert regressions == []


def test_relative_gate_skips_below_core_floor():
    regressions, notes = gate.check_relative_gates(
        "fleet_convergence",
        {"cpu_count": 1, "real_updates_per_s_fleet": 0.6},
    )
    assert regressions == []
    assert len(notes) == 1
    assert "skipped" in notes[0] and "1 core(s)" in notes[0]


def test_relative_gate_passes_on_enough_cores():
    regressions, notes = gate.check_relative_gates(
        "fleet_convergence",
        {"cpu_count": 8, "real_updates_per_s_fleet": 7.4},
    )
    assert regressions == []
    assert len(notes) == 1 and "7.40x" in notes[0]


def test_relative_gate_fails_slow_speedup_on_enough_cores():
    regressions, _ = gate.check_relative_gates(
        "fleet_convergence",
        {"cpu_count": 4, "real_updates_per_s_fleet": 1.2},
    )
    assert len(regressions) == 1
    assert "1.20x < 5.0x" in regressions[0]


def test_relative_gate_missing_metric_regresses():
    regressions, _ = gate.check_relative_gates(
        "fleet_convergence", {"cpu_count": 8}
    )
    assert len(regressions) == 1
    assert "missing" in regressions[0]


def test_relative_gate_unknown_bench_is_empty():
    assert gate.check_relative_gates("update_load", {"x": 1}) == ([], [])


def test_run_gate_applies_relative_gate(tmp_path):
    import io

    baseline_dir = tmp_path / "baselines"
    current_dir = tmp_path / "fresh"
    baseline_dir.mkdir()
    current_dir.mkdir()
    metrics = {
        "routes_converged": 75,
        "cpu_count": 8,
        "real_updates_per_s_fleet": 1.2,
    }
    _write_bench(baseline_dir, "fleet_convergence", metrics)
    _write_bench(current_dir, "fleet_convergence", dict(metrics))
    output = io.StringIO()
    assert gate.run_gate(
        baseline_dir, current_dir, names=("fleet_convergence",), out=output
    ) == 1
    assert "relative gate 'real_updates_per_s_fleet'" in output.getvalue()

    # On a small runner the same slow fleet only produces a notice.
    small = dict(metrics, cpu_count=1)
    _write_bench(baseline_dir, "fleet_convergence", small)
    _write_bench(current_dir, "fleet_convergence", dict(small))
    output = io.StringIO()
    assert gate.run_gate(
        baseline_dir, current_dir, names=("fleet_convergence",), out=output
    ) == 0
    assert "skipped relative gate" in output.getvalue()


def test_main_against_committed_baselines(tmp_path):
    """The committed baselines compared against themselves are clean."""
    baseline_dir = (
        Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
    )
    exit_code = gate.run_gate(baseline_dir, baseline_dir)
    assert exit_code == 0


def test_committed_baselines_exist():
    baseline_dir = (
        Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
    )
    for name in gate.GATED_BENCHMARKS:
        assert (baseline_dir / f"BENCH_{name}.json").exists()
