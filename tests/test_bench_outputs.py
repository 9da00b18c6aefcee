"""The outputs of the benchmark corpus, pinned.

``bench_outputs_golden.json`` holds one SHA-256 per (workload, seed) over
the plain outputs of one pass of that workload's ops, built by
``perfbench/workloads.py`` from the seeded corpus at full scale, seeds 0-2.
The directory of the ``check_cli`` state files, which holds the process id,
is replaced by a fixed name before hashing.  A speed change must leave every
digest as it is.  Regenerate the file only for an intended change of the
outputs or of the corpus:

    PYTHONPATH=src python tests/test_bench_outputs.py
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
import tempfile
from types import SimpleNamespace

import pytest

from dq import cli, linalg
from dq.series import ComplexSeries, series

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402  (the benchmark's own module, by its name there)

GOLDEN = os.path.join(ROOT, "tests", "bench_outputs_golden.json")
SEEDS = (0, 1, 2)
STATE_DIR = "<state-dir>"


def _dq() -> SimpleNamespace:
    """The names the workload builders read off the imported package."""
    return SimpleNamespace(
        cli=cli,
        linalg=linalg,
        series_module=importlib.import_module("dq.series"),  # ``dq.series`` is the builder
        series=series,
        ComplexSeries=ComplexSeries,
    )


def _digest(workload: str, seed: int) -> str:
    make, build = workloads.WORKLOADS[workload]
    raw = make(seed, 1.0)
    if workload == "check_cli":
        workloads.write_state_files(raw)
    outputs = []
    for op in build(_dq(), raw):
        try:
            data = workloads.plain(op, op.call())
        except Exception as exc:
            data = workloads.Failure(f"{type(exc).__name__}: {exc}")
        outputs.append((op.kind, data))
    text = repr(outputs).replace(workloads.WORK_DIR, STATE_DIR)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_match_golden(workload, seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the state files go under the current directory
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert _digest(workload, seed) == golden[f"{workload} {seed}"]


def _record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        digests = {f"{w} {s}": _digest(w, s) for w in sorted(workloads.WORKLOADS) for s in SEEDS}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(_record())
