"""Closed-loop benchmark of dq: one caller, one thread, one op at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check_cli --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times whole rounds over the seeded corpus for
``--seconds`` and prints the end-to-end metrics; with ``--trace 1`` it makes
an untraced, a traced and a self-checking pass over the corpus and prints
the per-layer metrics.  Every output is checked against the oracles in ``oracles.py``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from types import SimpleNamespace

import tracer  # the benchmark's own modules sit beside this file
import workloads
from workloads import Failure, plain

#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 7
#: per-function trace dumps of ``--trace 1`` runs
OUT_DIR = ".perfbench-out"


def src_dir() -> str:
    """The checkout's ``src``; the benchmark runs from the checkout root."""
    return os.path.join(os.getcwd(), "src")


def load_dq() -> SimpleNamespace:
    """Import dq from the checkout's ``src`` and collect what the ops call."""
    import importlib

    src = src_dir()
    if src not in sys.path:
        sys.path.insert(0, src)
    pkg = importlib.import_module("dq")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise SystemExit(f"dq was imported from {pkg.__file__}, not from {src}")
    series_module = importlib.import_module("dq.series")
    return SimpleNamespace(
        cli=importlib.import_module("dq.cli"),
        linalg=importlib.import_module("dq.linalg"),
        series_module=series_module,
        series=series_module.series,
        ComplexSeries=series_module.ComplexSeries,
    )


def _purge(since: set[str]) -> None:
    for name in list(sys.modules):
        if name not in since:
            del sys.modules[name]


def setup(workload: str, seed: int, scale: float = 1.0):
    """Draw the inputs, then import dq afresh and build the workload's ops,
    SETUP_REPEATS times.

    Set-up time is dq's: each repeat drops every module imported since the
    harness started, so it pays for dq's imports (and any module dq pulls
    in) every time, and then builds the dq objects of the inputs.  Drawing
    the inputs and writing the state files is the harness's own work and is
    not timed.  Returns (dq namespace, ops, set-up seconds).
    """
    make, build = workloads.WORKLOADS[workload]
    raw = make(seed, scale)
    if workload == "check_cli":
        workloads.write_state_files(raw)
    baseline = set(sys.modules)
    times = []
    for i in range(SETUP_REPEATS):
        if i:
            _purge(baseline)
        t0 = time.perf_counter()
        dq = load_dq()
        ops = build(dq, raw)
        times.append(time.perf_counter() - t0)
    return dq, ops, times


def run_op(op):
    """Time one call; returns (nanoseconds, plain outcome)."""
    t0 = time.perf_counter_ns()
    try:
        result = op.call()
    except Exception as exc:  # the oracle decides whether a failure was allowed
        t1 = time.perf_counter_ns()
        return t1 - t0, Failure(f"{type(exc).__name__}: {exc}")
    t1 = time.perf_counter_ns()
    return t1 - t0, plain(op, result)


def one_pass(ops, first, mismatches):
    """Run every op once; compare outcomes with the first pass's."""
    lat = []
    for i, op in enumerate(ops):
        ns, data = run_op(op)
        lat.append(ns)
        if first[i] is None:
            first[i] = data
        elif data != first[i]:
            mismatches.append(f"op {i} ({op.kind}): {data!r:.200} after {first[i]!r:.200}")
    return lat


def timed_rounds(ops, seconds, first, mismatches):
    """Whole rounds over ``ops`` until ``seconds`` of wall time have passed;
    returns the latencies of each round."""
    rounds: list[list[int]] = []
    start = time.perf_counter()
    while True:
        rounds.append(one_pass(ops, first, mismatches))
        if time.perf_counter() - start >= seconds:
            return rounds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.pop("DQ_DEFAULT_ORDER", None)
    if not os.path.isdir(os.path.join(src_dir(), "dq")):
        print(f"no dq package under {src_dir()}", file=sys.stderr)
        return 2
    try:
        return _run(args)
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workloads.WORK_DIR))
        except OSError:
            pass  # another run still has its files there


def _run(args) -> int:
    _, ops, setup_times = setup(args.workload, args.seed)
    first = [None] * len(ops)
    mismatches: list[str] = []
    if args.trace:
        metrics, detail = tracer.traced_run(ops, first, mismatches, run_op)
        rounds = 1
        os.makedirs(OUT_DIR, exist_ok=True)
        dump = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1, sort_keys=True)
    else:
        per_round = timed_rounds(ops, args.seconds, first, mismatches)
        rss = peak_rss_mb()
        rounds = len(per_round)
        # throughput is taken per round and its median over the rounds
        # reported; latency is each operation's median over the rounds, so
        # that a slow spell of the host moves the percentiles less
        per_op = [statistics.median(lat) for lat in zip(*per_round)]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (statistics.median(len(r) / (sum(r) / 1e9) for r in per_round), "1/s"),
            "op_p50_ms": (statistics.median(per_op) / 1e6, "ms"),
            "op_p90_ms": (quantile(per_op, 90) / 1e6, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
    import oracles  # sympy loads only after the timed part and its RSS reading

    problems = list(mismatches[:5])
    failed_per_round = 0
    for op, data in zip(ops, first):
        if workloads.is_failure(op, data):
            failed_per_round += 1
        problems.extend(oracles.check(args.workload, op, data))
    for line in problems[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops) * rounds,
        "failed": failed_per_round * rounds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
