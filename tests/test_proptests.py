"""The seeded proptest suites at a modest size."""

import pytest

from dq.errors import IndeterminateAtTruncation
from dq.proptests import run_suite

TRIALS, SEED = 20, 0


@pytest.mark.filterwarnings("error::dq.errors.AdmissibilityWarning")
@pytest.mark.parametrize("suite", ["field_axioms", "robertson", "hadamard", "trace", "moyal", "states"])
def test_suite_passes(suite):
    report = run_suite(suite, TRIALS, SEED)
    assert report.ok, "\n".join(report.lines())


@pytest.mark.xfail(
    strict=True,
    raises=IndeterminateAtTruncation,
    reason="exact kernel() truncates over series pivots on exactly singular covariance parts",
)
def test_uncertainty_suite_passes():
    report = run_suite("uncertainty", TRIALS, SEED)
    assert report.ok, "\n".join(report.lines())
