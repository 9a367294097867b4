"""Toy-size smoke test of the benchmark itself.

    python3 -m pytest bench/test_smoke.py

Runs every workload on tiny inputs, untraced and traced, and checks that each
metric BENCHMARK.json names is reported, finite and in its unit.
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

bench.import_library()


def _units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


def _spec_units(group):
    return {m["name"]: m["unit"] for m in SPEC[group]}


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_untraced_reports_every_end_to_end_metric(name, tmp_path):
    result = bench.run(name, seed=3, seconds=0.05, trace=False, toy=True, out_dir=str(tmp_path))
    assert result["correct"], result["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert _units(result) == _spec_units("end_to_end")
    for key, m in result["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, key


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_traced_reports_every_per_layer_metric(name, tmp_path):
    runs = [bench.run(name, seed=seed, seconds=0.05, trace=True, toy=True, out_dir=str(tmp_path))
            for seed in (3, 4)]
    for result in runs:
        assert result["correct"], result["failures"]
        assert _units(result) == _spec_units("per_layer")
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        for key, value in metrics.items():
            assert math.isfinite(value), key
        # Self times account for the traced wall time; the rest is the
        # benchmark's loop between tasks.
        assert 0.9 * metrics["trace.wall_s"] <= metrics["trace.self_sum_s"] <= metrics["trace.wall_s"]
        assert os.path.isfile(tmp_path / f"spans-{name}.npz")
    # Counts come from arguments and shapes, so they repeat exactly.
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] in ("count", "B")}
              for r in runs]
    assert counts[0] == counts[1]
