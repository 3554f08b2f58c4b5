"""Smoke tests of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python -m pytest sievebench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from sievebench.run import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("sievebench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_its_checks_and_prints_every_metric(workload, trace):
    completed = _run(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, completed.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in listed}
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_same_seed_gives_the_same_inputs():
    from sievebench import wl_fleet_replay, wl_serve_churn

    first = wl_fleet_replay.State(5, "tiny")
    second = wl_fleet_replay.State(5, "tiny")
    assert [w.semantic_samples for w in first.workloads] == \
        [w.semantic_samples for w in second.workloads]
    assert wl_serve_churn.State(5, "tiny").chunks == \
        wl_serve_churn.State(5, "tiny").chunks


def test_fifo_recursion_matches_the_fleet_simulator():
    from repro.cluster.fleet import FleetOrchestrator
    from sievebench import checks, wl_fleet_replay
    from repro.core.deployment import DeploymentMode

    state = wl_fleet_replay.State(7, "tiny")
    simulation = state.simulations[4]
    jobs = simulation.plan_jobs(DeploymentMode.MSE_EDGE_CLOUD_NN)
    report = FleetOrchestrator(jobs, num_edge_servers=4).run()
    expected = checks.fifo_completion_times(jobs, 4, simulation.config)
    for outcome in report.outcomes:
        assert outcome.end_seconds == pytest.approx(
            expected[outcome.job.camera], rel=1e-12)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "sievebench"), tmp_path / "sievebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(str(tmp_path), "--workload", "edge_query", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
