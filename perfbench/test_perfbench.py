"""Smoke test of the benchmark's own code, at tiny trial counts.

Keeps the benchmark runnable and its correctness gate wired: every workload
runs end to end through ``run.main`` with its command-line arguments, traced
and untraced, and the gate is shown to catch each kind of fault it checks
for.  The runs share the test process, so they pay no interpreter start-up
or import, and take one set-up probe instead of five.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
from fdtwrc import harness  # noqa: E402

# run.py pins BLAS threads in os.environ on import; keep that out of other tests
_ENV = os.environ.copy()
import run as bench_run  # noqa: E402

os.environ.clear()
os.environ.update(_ENV)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# serial trials, serial chunk, parallel trials, parallel chunk, sweep (None: the workload's)
TINY = {"sumrate_all4": (1, 1, 1, 1, None), "region9": (1, 1, 1, 1, (0.0, 0.5, 1.0)),
        "closed_form_antennas": (4, 2, 8, 4, None)}


def run_bench(name, argv, monkeypatch):
    """run.main(argv) with the workload's core batches (and region sweep) shrunk."""
    s, sc, p, pc, sweep = TINY[name]
    w = bw.WORKLOADS[name]
    monkeypatch.setitem(bw.WORKLOADS, name, replace(
        w, serial_trials=s, serial_chunk=sc, parallel_trials=p, parallel_chunk=pc,
        traced_trials=s, sweep=sweep or w.sweep))
    monkeypatch.setattr(bench_run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(sys, "path", list(sys.path))
    return bench_run.main(argv)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_prints_every_metric(name, trace, monkeypatch, capsys):
    code = run_bench(name, ["--workload", name, "--seed", "3", "--seconds", "0.1",
                            "--trace", str(trace)], monkeypatch)
    out, err = capsys.readouterr()
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads((HERE / "out" / f"{name}-seed3-trace{trace}.json").read_text())
    assert record["correct"] and record["trial_seeds"]["core_shared_with_default"] == 0
    assert not record.get("tracing", {}).get("missing")


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(bw.WORKLOADS)


def test_held_out_seed_sharing_realizations_is_refused(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_bench("closed_form_antennas", ["--workload", "closed_form_antennas",
                                           "--seed", str(bw.DEFAULT_SEED), "--seconds", "1",
                                           "--held-out"], monkeypatch)
    out, err = capsys.readouterr()
    assert exit_info.value.code == 2 and out == ""
    assert "not held out" in err


def test_seed_layout_holds_out_data():
    # raw harness master seeds differing below the trial count share every draw
    assert bw.shared_trial_seeds(20240, 20241, 1000) == 1000
    assert bw.shared_trial_seeds(bw.master_seed(20240, 0), bw.master_seed(20241, 0), 2**14) == 0
    assert bw.shared_trial_seeds(bw.master_seed(5, 0), bw.master_seed(5, 1), 2**14) == 0
    with pytest.raises(ValueError):
        bw.master_seed(bw.MAX_SEED, 0)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sumrate_all4",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.fixture(scope="module")
def closed_table():
    w = bw.WORKLOADS["closed_form_antennas"]
    return harness.run_experiment(w.spec(3, bw.master_seed(1, 0)), workers=1, keep_samples=True)


def test_gate_catches_negative_rate_and_sample_drift(closed_table):
    w = bw.WORKLOADS["closed_form_antennas"]
    assert bw.check_table(w, closed_table) == []
    values = bw.cell_values(closed_table)
    assert bw.check_overlap(values, 0, values, 0, "same") == []
    assert bw.check_overlap(values, 0, {k: v[1:] for k, v in values.items()}, 1, "tail") == []
    key = (2.0, "fd2")
    bad = replace(closed_table, samples=dict(closed_table.samples))
    bad.samples[key] = [-0.5] + list(bad.samples[key][1:])
    assert any("negative rate" in e for e in bw.check_table(w, bad))
    drift = replace(closed_table, samples=dict(closed_table.samples))
    drift.samples[key] = [float(np.nextafter(drift.samples[key][0], 10.0))] + list(
        drift.samples[key][1:])
    assert bw.check_overlap(values, 0, bw.cell_values(drift), 0, "drift")


def test_gate_catches_ub_below_proposed_and_rising_boundary():
    w = bw.WORKLOADS["sumrate_all4"]
    samples = {(10.0, "proposed"): [5.0, 4.0], (10.0, "hd"): [3.0, 3.0],
               (10.0, "fd2"): [3.5, 3.5], (10.0, "ub"): [5.0, 3.9]}
    table = harness.ResultTable(rows=[], metadata={"seed": 0}, samples=samples)
    assert any("ub" in e for e in bw.check_table(w, table))
    r = bw.WORKLOADS["region9"]
    rows = [harness.ResultRow(f, s, ra, 0.0, 1.0, 0.0, ra + 1.0, 0.0, 1.0)
            for f, ra in zip(r.sweep, [3.0, 2.0] + [2.5] * 7) for s in r.schemes]
    table = harness.ResultTable(rows=rows, metadata={}, samples={})
    assert any("rises along the boundary" in e for e in bw.check_table(r, table))


def test_tracer_wraps_every_binding_and_restores_it():
    from fdtwrc import baselines, sum_rate

    original = sum_rate.max_sum_rate
    tracer = bench_trace.Tracer()
    with tracer.installed():
        assert harness.max_sum_rate is baselines.max_sum_rate is sum_rate.max_sum_rate
        assert sum_rate.max_sum_rate is not original
    assert harness.max_sum_rate is baselines.max_sum_rate is sum_rate.max_sum_rate is original
    assert {"fdtwrc.sum_rate.max_sum_rate", "fdtwrc.harness.max_sum_rate",
            "fdtwrc.baselines.max_sum_rate"} <= set(tracer.bindings["sum_rate.max_sum_rate"])
    assert {"fdtwrc.rate_region._alpha_search", "fdtwrc.sum_rate._alpha_search",
            "fdtwrc.baselines._alpha_search"} <= set(tracer.bindings["rate_region._alpha_search"])
    assert tracer.missing == []
