"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

Most tests shrink the workloads (fewer ops, shorter arrival windows) so
they run in seconds; ``test_full_size_p99_sample_counts`` runs the real
sizes once.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL = {
    "RW_ROUNDS": 1, "RW_APPENDS": 40, "RW_RANDOM_READS": 30,
    "RW_OVERWRITES": 10, "SORT_RECORDS": 256, "SORT_BUFFER": 16,
    "SORT_LOOKUP_CLIENTS": 2, "SORT_LOOKUPS": 20, "TRAFFIC_DURATION": 8.0,
}

#: Layers whose work each workload does (at least one non-zero metric).
WORKING_LAYERS = {
    "naive_rw": ("sim", "machine", "storage", "efs", "core"),
    "sort": ("sim", "storage", "efs", "tools"),
    "traffic": ("sim", "core", "traffic", "obs"),
}


@pytest.fixture
def small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(workloads, name, value)


def fingerprint(rep):
    return (run.sim_metrics(rep["outcome"])[0],
            rep["after"]["events"] - rep["before"]["events"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_simulation(small, name):
    cls = workloads.WORKLOADS[name]
    first = run.run_once(cls, 7)
    second = run.run_once(cls, 7)
    assert first["outcome"].problems == []
    assert fingerprint(first) == fingerprint(second)
    # The same events, so the same timed slices to compare.
    assert len(first["slices"]) == len(second["slices"]) > 0


def test_host_s_sums_each_slices_fastest_time():
    reps = [{"slices": [1.0, 5.0, 2.0]}, {"slices": [3.0, 4.0, 2.5]}]
    assert run.fastest(reps) == 7.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reproduces_untraced(small, name):
    cls = workloads.WORKLOADS[name]
    untraced = run.run_once(cls, 3)
    tracer = Tracer()
    traced = run.run_once(cls, 3, tracer)
    assert traced["outcome"].problems == []
    assert fingerprint(traced) == fingerprint(untraced)
    metrics = run.layer_metrics(traced, tracer)
    for layer in WORKING_LAYERS[name]:
        assert any(value for key, value in metrics.items()
                   if key.startswith(layer + ".")), layer


def test_tracer_restores_entry_points(small):
    from repro.machine.rpc import Client

    original = Client.call
    run.run_once(workloads.Traffic, 1, Tracer())
    assert Client.call is original


def test_seed_changes_traffic_arrivals(small):
    logs = []
    for seed in (1, 2):
        rep = run.run_once(workloads.Traffic, seed)
        logs.append(rep["outcome"].details["arrival_log"])
    assert logs[0] and logs[1]
    assert logs[0] != logs[1]


def test_correctness_gate_catches_stale_data(small):
    workload = workloads.NaiveRW(5)
    workload.build()
    workload.drive()
    client, index = next(
        (c, i) for c, records in enumerate(workload.records)
        for i, (_latency, data) in enumerate(records) if data is not None)
    latency, _data = workload.records[client][index]
    workload.records[client][index] = (latency, b"corrupt")
    assert any("stale data" in p for p in workload.finish().problems)


def test_every_printed_metric_is_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    for section, printed in (("end_to_end", run.END_TO_END),
                             ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in bench[section]]
        assert declared == list(printed)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_full_size_p99_sample_counts():
    for cls in workloads.WORKLOADS.values():
        rep = run.run_once(cls, 11)
        assert rep["outcome"].problems == []
        _metrics, samples = run.sim_metrics(rep["outcome"])
        for name, (count, beyond) in samples.items():
            assert beyond >= 10 or not name.endswith("p99_ms"), (
                cls.name, name, count, beyond)


def test_command_prints_declared_metrics_last():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "sort",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert [name for name, _unit in run.END_TO_END] == list(result["metrics"])
