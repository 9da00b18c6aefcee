"""The seeded proptest suites at a modest size."""

import pytest

from dq.proptests import run_suite

TRIALS, SEED = 20, 0


@pytest.mark.filterwarnings("error::dq.errors.AdmissibilityWarning")
@pytest.mark.parametrize(
    "suite", ["field_axioms", "robertson", "hadamard", "trace", "moyal", "states", "uncertainty"]
)
def test_suite_passes(suite):
    report = run_suite(suite, TRIALS, SEED)
    assert report.ok, "\n".join(report.lines())
