"""The seeded proptest suites at a modest size, every suite of the table,
their refusal of a trial count below one, and the theorem diagnoses of the
Gram suites, each forced through a patched check."""

import pytest

from dq import proptests
from dq.linalg import HermitianForm, InequalityReport, Relation
from dq.proptests import SUITES, run_suite
from dq.series import ComplexSeries, ONE, ZERO

TRIALS, SEED = 20, 0


@pytest.mark.filterwarnings("error::dq.errors.AdmissibilityWarning")
@pytest.mark.parametrize("suite", SUITES)
def test_suite_passes(suite):
    report = run_suite(suite, TRIALS, SEED)
    assert report.ok, "\n".join(report.lines())


@pytest.mark.parametrize("trials", [0, -5])
@pytest.mark.parametrize("suite", SUITES)
def test_suite_refuses_a_trial_count_below_one(suite, trials):
    # a suite that runs no trial must not report a pass
    with pytest.raises(ValueError, match=f"expected a trial count >= 1, got {trials}$"):
        run_suite(suite, trials, SEED)


def test_robertson_reports_an_equality_on_a_positive_definite_form(monkeypatch):
    real = proptests.check_robertson
    monkeypatch.setattr(
        proptests,
        "check_robertson",
        lambda form, cls: real(form, cls)._replace(relation=Relation.EQUAL),
    )
    failures = run_suite("robertson", 4, SEED, (2,)).failures
    assert failures
    assert all(line.endswith(" positive definite but not strict") for line in failures)


def test_robertson_reports_a_vanishing_det_a_without_a_vanishing_det_b(monkeypatch):
    report = InequalityReport(ZERO, -ONE, Relation.STRICTLY_GREATER)
    monkeypatch.setattr(proptests, "check_robertson", lambda form, cls: report)
    failures = run_suite("robertson", 4, SEED, (2,)).failures
    assert failures == [
        f"trial={t} n=2 scalar={scalar} det(a)=0 but det(b)=-1"
        for t, scalar in enumerate(("rational", "series", "rational", "series"))
    ]


def test_hadamard_reports_a_strict_bound_on_a_form_without_skew_part(monkeypatch):
    real_check, real_gram = proptests.check_form_determinant_bound, proptests.rand_gram

    def real_part(*args, **kwargs):
        form = real_gram(*args, **kwargs)
        return HermitianForm(tuple(tuple(ComplexSeries(x.re) for x in row) for row in form.entries))

    monkeypatch.setattr(proptests, "rand_gram", real_part)
    monkeypatch.setattr(
        proptests,
        "check_form_determinant_bound",
        lambda form, cls: real_check(form, cls)._replace(relation=Relation.STRICTLY_GREATER),
    )
    failures = run_suite("hadamard", 3, SEED, (2, 3)).failures
    assert failures == [
        f"trial={t} n={n} scalar={scalar} det(a)=det(phi) iff det(a)=0 or b=0 fails:"
        " strictly_greater"
        for t, n, scalar in ((0, 2, "rational"), (1, 3, "rational"), (2, 2, "series"))
    ]
