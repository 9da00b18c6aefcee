"""The seeded proptest suites at a modest size, every suite of the table."""

import pytest

from dq.proptests import SUITES, run_suite

TRIALS, SEED = 20, 0


@pytest.mark.filterwarnings("error::dq.errors.AdmissibilityWarning")
@pytest.mark.parametrize("suite", SUITES)
def test_suite_passes(suite):
    report = run_suite(suite, TRIALS, SEED)
    assert report.ok, "\n".join(report.lines())
