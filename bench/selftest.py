"""Tests of the benchmark itself, on a tiny size of each workload.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_reported(workload, trace, section):
    out = run.run_workload(workload, 0, 0.0, trace, tiny=True)
    assert out["result"]["correct"], out["record"]["failures"]
    assert out["result"]["failed"] == 0
    assert set(out["result"]["metrics"]) == {m["name"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_gives_same_digest(workload):
    first = run.run_workload(workload, 3, 0.0, False, tiny=True)["record"]["round_digest"]
    again = run.run_workload(workload, 3, 0.0, False, tiny=True)["record"]["round_digest"]
    other = run.run_workload(workload, 4, 0.0, False, tiny=True)["record"]["round_digest"]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_wrong_expected_value_counts_as_failed(workload):
    digests = run.run_workload(workload, 0, 0.0, False, tiny=True)["round_digests"]
    expected = ["0" * 12, *digests[1:]]
    out = run.run_workload(workload, 0, 0.0, False, tiny=True, expected=expected)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] == out["record"]["rounds"]  # task 0, once per round
    assert 0 < result["failed"] / result["attempted"] < 1


def test_pins_cover_the_default_seeds_task_for_task(tmp_path):
    pins = json.loads(run.PINS.read_text())
    for workload, build in workloads.WORKLOADS.items():
        assert sorted(pins[workload], key=int) == [str(s) for s in run.PIN_SEEDS]
        tasks = build(run.import_taublab(), 0, tmp_path)
        assert len(pins[workload]["0"]) == 12 * len(tasks)


def test_tracer_wraps_bindings_outside_the_defining_module():
    tl = run.import_taublab()
    tracer = spans.Tracer()
    tracer.bind()
    assert {"search.halo_ratio", "search.one_sided_halo_ratio", "ergodic.lattice_halo",
            "cli.halo", "cli.load_lattice_set"} <= set(tracer.sites)
    tracer.patch()
    try:
        tl.search.family_search("intervals", Fraction(1, 2), max_block=3)
    finally:
        tracer.unpatch()
    calls = [tracer.names[k] for k in tracer.name]
    assert calls.count("search.family_search") == 1
    assert calls.count("lattice.halo_ratio") == 3
    assert tl.search.halo_ratio is tl.lattice.halo_ratio  # unpatched again


def test_each_round_runs_in_a_process_of_its_own():
    pids = [run.in_child(os.getpid) for _ in range(2)]
    assert len(set(pids)) == 2 and os.getpid() not in pids
