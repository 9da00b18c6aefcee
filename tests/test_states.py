"""Admissibility of Gaussian states: cov + (i h/2) J non-negative definite."""

import warnings
from fractions import Fraction as F

import pytest

from dq.errors import AdmissibilityWarning
from dq.series import ZERO, h
from dq.states import GaussianState, correlated, ground, squeezed


def _diagonal_state(*variances):
    n = len(variances)
    cov = [[variances[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    return GaussianState([ZERO] * n, cov)


def test_two_mode_state_below_the_threshold_warns():
    # order (q1, q2, p1, p2): Var(q1) Var(p1) = h^2/16 < h^2/4
    with pytest.warns(AdmissibilityWarning):
        _diagonal_state(h(1, F(1, 4)), h(1, F(1, 2)), h(1, F(1, 4)), h(1, F(1, 2)))


def test_correlated_state_below_the_threshold_warns():
    with pytest.warns(AdmissibilityWarning):
        correlated(h(1, F(1, 4)))


@pytest.mark.parametrize(
    "make",
    [lambda: ground(1), lambda: ground(2), lambda: squeezed(3, 2), lambda: correlated(ZERO)],
    ids=["ground(1)", "ground(2)", "squeezed(3, 2)", "correlated(0)"],
)
def test_admissible_states_do_not_warn(make):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make()


def test_negative_covariance_is_rejected():
    with pytest.raises(ValueError, match="not non-negative definite"):
        _diagonal_state(h(1, -1), h(1, F(1, 2)))
