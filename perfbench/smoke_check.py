"""Fast checks of the benchmark itself, on blocks of one or two trials.

Run from the repository root:

    python3 -m pytest -q perfbench/smoke_check.py

The file name keeps it out of the default test collection, so the library's
test suite does not run the benchmark.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
from beamest import harness
from checks import csv_problems
from spans import STAGES, Tracer
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SPEC_WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _tiny(name):
    return dataclasses.replace(WORKLOADS[name], trials=1)


def _report():
    return {"attempted": 0, "failed": 0, "problems": [], "csv_sha256": {}}


def _assert_matches_spec(metrics, spec_entries):
    assert set(metrics) == {m["name"] for m in spec_entries}
    for m in spec_entries:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        assert m["better"] in ("higher", "lower"), m["name"]
        assert isinstance(value, (int, float)) and value == value, m["name"]


def test_spec_names_the_workloads_the_benchmark_defines():
    assert set(SPEC_WORKLOADS) <= set(WORKLOADS)
    assert SPEC["command"][1:] == ["perfbench/run.py"]


@pytest.mark.parametrize("name", SPEC_WORKLOADS)
def test_end_to_end_metrics_emitted_with_units_and_directions(name):
    report = _report()
    metrics = run.measure_e2e(_tiny(name), 3, 0.0, report)
    assert report["problems"] == [] and report["failed"] == 0
    assert report["attempted"] >= 1
    _assert_matches_spec(metrics, SPEC["end_to_end"])
    assert metrics["setup_s"][0] > 0 and metrics["trials_per_s"][0] > 0


@pytest.mark.parametrize("name", SPEC_WORKLOADS)
def test_per_layer_metrics_emitted_with_units_and_directions(name):
    report = _report()
    metrics = run.measure_layers(_tiny(name), 3, 0.0, report)
    assert report["problems"] == [] and report["failed"] == 0
    assert len(set(report["csv_sha256"].values())) == 1
    _assert_matches_spec(metrics, SPEC["per_layer"])


def test_csv_checks_reject_broken_rows():
    w = _tiny("accept_sweep")
    good = run.run_serial(w.config(3, 0)).csv
    assert csv_problems(good, w.snr_sweep_db) == []
    lines = good.decode().splitlines()
    fields = lines[2].split(",")
    fields[4], fields[6] = "nan", "5"
    bad_rmse = "\n".join(lines[:2] + [",".join(fields)] + lines[3:]).encode()
    assert any("rmse" in p for p in csv_problems(bad_rmse, w.snr_sweep_db))
    fields = lines[2].split(",")
    fields[7] = "1.5"
    bad_rate = "\n".join(lines[:2] + [",".join(fields)] + lines[3:]).encode()
    assert any("detection_rate" in p for p in csv_problems(bad_rate, w.snr_sweep_db))
    assert csv_problems(good.replace(b"v1", b"v2", 1), w.snr_sweep_db)
    assert csv_problems(b"\n".join(good.splitlines()[:-1]), w.snr_sweep_db)


def test_tracer_restores_the_stage_functions():
    before = {name: getattr(harness, name) for name in STAGES}
    with Tracer().installed():
        assert all(getattr(harness, name) is not before[name] for name in STAGES)
    assert all(getattr(harness, name) is before[name] for name in STAGES)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", SPEC_WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
