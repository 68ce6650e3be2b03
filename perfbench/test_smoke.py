"""Smoke test of the benchmark on a few cases of each workload.

    python3 -m pytest perfbench/test_smoke.py

Drives the worker's measurement, the check and the report in this process on
the first cases of the default seed. Checks that every end-to-end metric is
printed with its unit, that a perturbed reference makes its case count in
fail_frac, that two traced runs give identical counts, and that the command
refuses to run without the package source.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import worker  # noqa: E402
from cases import DEFAULT_SEED, make_cases  # noqa: E402

REPORTED_METRICS = {
    "setup_s": "s", "setup_raw_s": "s", "wall_ref_s": "s", "wall_s": "s", "host_slowdown": "1",
    "case_s.p50": "s", "case_s.p95": "s", "err.max": "abs",
    "err.p50": "abs", "fail_frac": "1", "silent_err_frac": "1", "peak_rss_mb": "MB",
}


def _contract(key) -> dict:
    """name -> unit of the metrics BENCHMARK.json lists under ``key``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[key]}


def _first(workload, count):
    cases = make_cases(workload, DEFAULT_SEED)[:count]
    refs = run._references(workload, DEFAULT_SEED, cases)
    return cases, {case["id"]: refs[case["id"]] for case in cases}


def _measure(workload, count, trace=0, refs=None):
    cases, frozen = _first(workload, count)
    result = worker.measure(worker.Run(cases, refs or frozen), 0.0, trace)
    result.update(setup_s=0.5, setup_raw_s=0.5)
    probes = [dict(setup_s=s, setup_raw_s=s) for s in (0.4, 0.6)]
    return run.finish(result, probes)


def _printed(stdout) -> dict:
    """name -> (value, unit) of the metric table lines."""
    table = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("   ") and len(parts) == 3 and parts[0] not in ("env", "missed"):
            table[parts[0]] = (float(parts[1]), parts[2])
    return table


@pytest.mark.parametrize("workload", ["det-graded", "moments-small-n", "flow-grid"])
def test_every_metric_printed_with_unit(workload, capsys):
    result = _measure(workload, 1)
    metrics = run.report(workload, DEFAULT_SEED, 0, result)
    table = _printed(capsys.readouterr().out)
    for name, unit in REPORTED_METRICS.items():
        assert table[name][1] == unit, name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in metrics.items()} == _contract("end_to_end")


def test_perturbed_reference_counts_in_fail_frac(capsys):
    _, refs = _first("det-graded", 2)
    perturbed = copy.deepcopy(refs)
    perturbed["det/a1.0/n2/t5/0"]["values"]["lnF"] += 1e-6
    result = _measure("det-graded", 2, refs=perturbed)
    run.report("det-graded", DEFAULT_SEED, 0, result)
    assert result["fail_frac"] == 0.5
    assert result["silent_err_frac"] == 0.5
    assert "missed target: det/a1.0/n2/t5/0" in capsys.readouterr().out
    assert not result["correct"] and result["failed"] >= 1


def test_traced_counts_repeat():
    runs = []
    for _ in range(2):
        result = _measure("flow-grid", 2, trace=1)
        metrics = run.report("flow-grid", DEFAULT_SEED, 1, result)
        assert {k: v["unit"] for k, v in metrics.items()} == _contract("per_layer")
        runs.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert runs[0] == runs[1]
    assert runs[0]["painleve.rhs.calls"] > 0 and runs[0]["kernel.matrix.calls"] == 0


def test_refuses_to_run_without_package_source():
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "det-graded",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
