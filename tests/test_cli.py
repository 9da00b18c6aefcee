"""Command-line tests: golden output of ``dq check``/``dq intelligent`` and
the exit codes of ``cli.main``.

``cli_golden.json`` holds the stdout and exit code of every invocation in
``INVOCATIONS``.  Regenerate it only for an intended output change:

    PYTHONPATH=src python tests/test_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from dq import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")

#: state files the invocations name, written to the working directory
STATE_FILES = {
    "mean_state.json": {
        "d": 1,
        "mean": ["1/2", "-1 + h"],
        "cov": [["1/2*h", "0"], ["0", "1/2*h"]],
    },
    "kernel_fault.json": {
        "d": 1,
        "mean": ["0", "-1"],
        "cov": [["1/2*h", "0"], ["0", "1/2*h"]],
    },
}

INVOCATIONS = (
    ("check", "--state", "ground", "--obs=q1"),
    ("check", "--state", "ground", "--obs=q1", "--obs=p1", "--json"),
    ("intelligent", "--state", "ground", "--obs=q1", "--obs=p1"),
    ("check", "--state", "squeezed:4", "--obs=q1", "--obs=p1"),
    ("intelligent", "--state", "squeezed:1/3", "--obs=q1", "--obs=p1", "--json"),
    ("check", "--state", "mean_state.json", "--obs=q1*p1", "--obs=q1", "--json"),
    ("intelligent", "--state", "mean_state.json", "--obs=q1*p1", "--obs=p1"),
    ("check", "--state", "ground", "--obs=q1", "--obs=p1", "--obs=q1+p1", "--json"),
    ("intelligent", "--state", "ground", "--obs=q1", "--obs=p1", "--obs=2*q1-p1"),
    ("check", "--state", "squeezed:2", "--obs=q1*q1", "--obs=p1", "--obs=q1+p1"),
    ("check", "--state", "ground", "--obs=q1", "--obs=q2", "--obs=p1", "--obs=p2", "--json"),
    ("intelligent", "--state", "ground", "--obs=q1", "--obs=q2", "--obs=p1", "--obs=p2"),
    ("check", "--state", "correlated:1/4*h", "--obs=q1", "--obs=p1", "--json"),
    ("check", "--state", "ground", "--obs=q1 +* p1"),
)

#: the third observable is -x1 - 8*x2, so the covariance part is exactly
#: singular; a kernel that divided by series pivots truncated here and exited 3
KERNEL_FAULT = (
    "check", "--state", "kernel_fault.json",
    "--obs=-2*q1*p1", "--obs=-3/2-q1", "--obs=12+8*q1+2*q1*p1",
)


def _write_state_files(directory) -> None:
    for name, data in STATE_FILES.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _main(argv):
    """(exit code, stdout) of one in-process call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_state_files(tmp_path)
    return tmp_path


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {tuple(case["argv"]): case for case in json.load(fh)}


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_output_matches_golden(workdir, argv):
    case = _golden()[argv]
    assert _main(argv) == (case["exit"], case["stdout"])


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_order_does_not_change_the_output(workdir, argv):
    # the checks are exact, so --order is accepted and has no effect
    case = _golden()[argv]
    for order in ("1", "40"):
        assert _main(argv + ("--order", order)) == (case["exit"], case["stdout"])


def test_exactly_singular_covariance_is_decided(workdir):
    code, out = _main(KERNEL_FAULT)
    assert code == cli.EXIT_OK
    assert out.startswith("RS: saturated")
    assert "ideal direction: [1, 8, 1]" in out


def test_usage_error_exits_with_usage_code(workdir):
    # argparse reads "-2*q1" as an option, so the value is missing
    argv = ["check", "--state", "ground", "--obs", "-2*q1", "--obs", "p1"]
    assert _main(argv)[0] == cli.EXIT_USAGE
    assert _main(["check", "--state", "ground"])[0] == cli.EXIT_USAGE
    assert _main(["no-such-command"])[0] == cli.EXIT_USAGE
    assert _main(["check", "--state", "ground", "--obs=q1", "--order", "x"])[0] == cli.EXIT_USAGE
    assert _main(["field", "eval", "1 +* h", "--order", "3"])[0] == cli.EXIT_USAGE


def test_field_eval_order_truncates_the_literal(workdir):
    assert _main(["field", "eval", "1 + h + h^2", "--order", "2"]) == (cli.EXIT_OK, "1 + h\n")


def test_help_exits_zero(workdir):
    code, out = _main(["check", "--help"])
    assert code == cli.EXIT_OK
    assert "--obs=EXPR" in out


def test_leading_minus_observable_with_equals_form(workdir):
    code, out = _main(["check", "--state", "ground", "--obs=-2*q1", "--obs=p1"])
    assert code == cli.EXIT_OK
    assert out.startswith("RS: saturated")


def test_unary_minus_observable(workdir):
    code, out = _main(["check", "--state", "ground", "--obs=-q1", "--obs=p1"])
    assert code == cli.EXIT_OK
    assert out.startswith("RS: saturated")


def _main_err(argv):
    """(exit code, stderr) of one in-process call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


@pytest.mark.parametrize(
    "body",
    [
        {"mean": ["0", "0"], "cov": [["1/2*h", "0"], ["0", "1/2*h"]]},
        [1, ["0", "0"]],
        {"d": 1, "mean": [0, 0], "cov": [["1/2*h", "0"], ["0", "1/2*h"]]},
    ],
    ids=["no d", "top-level list", "numeric mean"],
)
def test_malformed_state_file_is_a_usage_error(workdir, body):
    with open("bad.json", "w", encoding="utf-8") as fh:
        json.dump(body, fh)
    code, err = _main_err(["check", "--state", "bad.json", "--obs=q1", "--obs=p1"])
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ")


def test_internal_consistency_error_exits_as_a_defect(monkeypatch):
    # InternalConsistencyError subclasses DQError, whose exit is a usage error
    from dq.errors import InternalConsistencyError

    def fail(state, xs):
        raise InternalConsistencyError("kernel witness must lie in the ideal")

    monkeypatch.setattr(cli, "check_relations", fail)
    code, err = _main_err(["check", "--state", "ground", "--obs=q1", "--obs=p1"])
    assert code == cli.EXIT_DEFECT == 3
    assert err == "internal error: kernel witness must lie in the ideal\n"


@pytest.mark.parametrize("dims", [("--dims", "0"), ("--dims", "-1"), ("--dims=2,0",)], ids=" ".join)
def test_proptest_dimension_below_one_is_a_usage_error(dims):
    assert _main_err(["proptest", "robertson", "--trials", "2", *dims])[0] == cli.EXIT_USAGE


@pytest.mark.parametrize("trials", ["0", "-5", "x"])
def test_proptest_trials_below_one_is_a_usage_error(trials):
    # a suite that runs no trial must not report a pass
    code, err = _main_err(["proptest", "field_axioms", "--trials", trials])
    assert code == cli.EXIT_USAGE
    assert "expected a trial count >= 1" in err


@pytest.mark.parametrize("d", ["0", "-1"])
def test_star_uses_the_given_dimension(d):
    code, err = _main_err(["star", "q1", "p1", "--d", d])
    assert code == cli.EXIT_USAGE
    assert err == f"error: 'q1' at column 1: index exceeds d={d}\n"
    assert _main(["star", "q1", "p1", "--d", "1"]) == (cli.EXIT_OK, "1/2*h*i + q1*p1\n")


def test_star_with_d_reports_the_left_syntax_error_first():
    code, err = _main_err(["star", "--d", "1", "q1 +", "p1 $"])
    assert code == cli.EXIT_USAGE
    assert err.startswith("syntax error: expected q<i>") and err.endswith("column 5\n")


@pytest.mark.parametrize("k", [1, 2, 4])
def test_check_tokenizes_each_observable_once(workdir, monkeypatch, k):
    from dq import parsing

    texts = []
    tokenize = parsing._tokenize
    monkeypatch.setattr(parsing, "_tokenize", lambda text: texts.append(text) or tokenize(text))
    obs = [f"--obs=q1 + {j}*p1" for j in range(1, k + 1)]
    assert _main(["check", "--state", "ground", *obs])[0] == cli.EXIT_OK
    assert sorted(texts) == sorted(o[len("--obs="):] for o in obs)


def test_moment_above_the_cap_is_an_error(workdir):
    code, err = _main_err(["check", "--state", "ground", "--obs=q1^7", "--obs=p1"])
    assert code == cli.EXIT_USAGE
    assert "moment of degree 14 exceeds cap 12" in err


def test_huge_power_is_refused_at_the_cap(workdir):
    # square and multiply builds q1^(10^9) in 30 squarings, and the cap is
    # checked on the degree before any index tuple is built
    code, err = _main_err(["check", "--state", "ground", "--obs=q1^1000000000", "--obs=p1"])
    assert code == cli.EXIT_USAGE
    assert "moment of degree 1000000000 exceeds cap 12" in err


def test_squeezed_state_takes_the_dimension_of_the_observables(workdir):
    code, _ = _main(["check", "--state", "squeezed:2", "--obs=q1", "--obs=q2"])
    assert code == cli.EXIT_OK
    code, out = _main(["check", "--state", "squeezed:2", "--obs=q2", "--obs=p2"])
    assert code == cli.EXIT_OK
    assert out.startswith("RS: saturated")


@pytest.mark.parametrize("suite", ["field_axioms", "moyal", "states", "uncertainty"])
def test_proptest_dims_of_an_unsized_suite_is_a_usage_error(suite):
    code, err = _main_err(["proptest", suite, "--trials", "1", "--dims", "3"])
    assert code == cli.EXIT_USAGE
    assert err == f"error: the {suite} suite takes no dimensions\n"


def test_proptest_trace_dimension_one_is_a_usage_error():
    code, err = _main_err(["proptest", "trace", "--trials", "1", "--dims", "2,1"])
    assert code == cli.EXIT_USAGE
    assert err == "error: the trace suite needs dimensions >= 2\n"
    code, out = _main(["proptest", "trace", "--trials", "2", "--dims", "2,3"])
    assert code == cli.EXIT_OK
    assert out.startswith("suite trace: trials=2 seed=0 dims=2,3\n")


@pytest.mark.parametrize("command", ["check", "intelligent"])
def test_relation_commands_do_not_import_the_suites(tmp_path, command):
    # dq proptest imports dq.proptests itself; the other commands never compile it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "import sys\n"
        "from dq import cli\n"
        f"code = cli.main([{command!r}, '--state', 'ground', '--obs=q1', '--obs=p1'])\n"
        "assert code == 0, code\n"
        "assert 'dq.proptests' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_unknown_proptest_suite_is_a_usage_error_that_lists_the_suites():
    from dq.proptests import SUITES

    code, err = _main_err(["proptest", "nope", "--trials", "1"])
    assert code == cli.EXIT_USAGE
    assert err == f"error: unknown suite 'nope'; choose from {', '.join(SUITES)}\n"


def _record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        _write_state_files(tmp)
        cases = []
        for argv in INVOCATIONS:
            code, out = _main(argv)
            cases.append({"argv": list(argv), "exit": code, "stdout": out})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(_record())
