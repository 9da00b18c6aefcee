"""Smoke tests for the benchmark: tiny corpora, oracles and tracer self-check.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import corpus
import oracles
import run
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = 0.1


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    yield
    shutil.rmtree(os.path.join(ROOT, workloads.WORK_DIR), ignore_errors=True)
    try:
        os.rmdir(os.path.join(ROOT, os.path.dirname(workloads.WORK_DIR)))
    except OSError:
        pass


def _pass(workload):
    dq, ops, setup_times = run.setup(workload, 0, TINY)
    assert len(setup_times) == run.SETUP_REPEATS
    first = [None] * len(ops)
    mismatches: list[str] = []
    run.one_pass(ops, first, mismatches)
    run.one_pass(ops, first, mismatches)
    return dq, ops, first, mismatches


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_outputs_match_the_oracles(workload):
    _, ops, first, mismatches = _pass(workload)
    assert not mismatches
    problems = [p for op, data in zip(ops, first) for p in oracles.check(workload, op, data)]
    assert problems == []
    failed = [op for op, data in zip(ops, first) if workloads.is_failure(op, data)]
    assert all(op.fault for op in failed), "only the kept kernel fault may fail"


def test_kept_fault_inputs_do_not_depend_on_the_seed():
    faults = [[inv for inv in corpus.check_cli_corpus(s, TINY) if inv.fault] for s in (0, 1)]
    assert faults[0] and faults[0] == faults[1]
    grams = [[gi for gi in corpus.gram_corpus(s, TINY) if gi.fault] for s in (0, 1)]
    assert grams[0] and grams[0] == grams[1]


def test_same_seed_same_inputs():
    assert corpus.field_corpus(3, TINY) == corpus.field_corpus(3, TINY)
    assert corpus.check_cli_corpus(3, TINY) == corpus.check_cli_corpus(3, TINY)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tracer_self_check_and_metrics(workload):
    dq, ops, _ = run.setup(workload, 0, TINY)
    first = [None] * len(ops)
    mismatches: list[str] = []
    metrics, detail = tracer.traced_run(ops, first, mismatches, run.run_op)
    assert mismatches == []
    assert sorted(metrics) == sorted(name for name, _, _ in tracer.metric_specs())
    assert metrics["series.mul.calls"][0] > 0
    # the wrappers are gone again after the traced passes
    assert type(dq.series_module.Series.__mul__).__name__ == "function"
    assert dq.series_module.Series.__mul__.__name__ == "__mul__"


def test_benchmark_json_lists_the_tracer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.metric_specs()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "field_series", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
