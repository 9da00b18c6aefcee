"""Gaussian states: admissibility (cov + (i h/2) J non-negative definite)
and the moments of ``expectation`` against a sympy oracle."""

import itertools
import random
import warnings
from fractions import Fraction as F
from math import comb

import pytest
import sympy as sp

from dq.errors import AdmissibilityWarning, MomentDegreeExceeded
from dq.observables import observable
from dq.series import ZERO, h, series
from dq.states import MOMENT_CAP, GaussianState, correlated, ground, squeezed


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


# ---------------------------------------------------------------------------
# moments against the moment generating function

H = sp.Symbol("h")


def _sym(x) -> sp.Expr:
    return sp.Add(*(sp.Rational(c.numerator, c.denominator) * H ** int(e) for e, c in x.terms))


def _rand_state(rng: random.Random, d: int) -> GaussianState:
    """Nonzero means a + b h and a correlated covariance B B^T + h (A A^T + I/2),
    which is at or above the quantum threshold."""
    n = 2 * d

    def gram(lo, hi):
        m = [[F(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        return [[sum(m[i][k] * m[j][k] for k in range(n)) for j in range(n)] for i in range(n)]

    b, a = gram(-1, 1), gram(-2, 2)
    cov = [
        [series([(0, b[i][j]), (1, a[i][j] + (F(1, 2) if i == j else 0))]) for j in range(n)]
        for i in range(n)
    ]
    mean = [
        series([(0, F(rng.randint(-3, 3), rng.randint(1, 2))), (1, rng.randint(-2, 2))])
        for _ in range(n)
    ]
    return GaussianState(mean, cov)


def _oracle_moments(state: GaussianState, degree: int) -> dict:
    """E[X^alpha] for every |alpha| <= degree: the derivative d^alpha of
    exp(mu.t + t^T cov t / 2) at t = 0.  That derivative is P_alpha exp(...)
    with P_0 = 1 and P_(alpha + e_i) = d_i P_alpha + P_alpha d_i(mu.t + t^T cov t / 2)."""
    n = 2 * state.d
    t = sp.symbols(f"t0:{n}")
    mu = [_sym(x) for x in state.mean]
    cov = [[_sym(x) for x in row] for row in state.cov]
    gen = sum(mu[i] * t[i] for i in range(n)) + sum(
        cov[i][j] * t[i] * t[j] for i in range(n) for j in range(n)
    ) / 2
    gen = sp.Poly(gen, *t, domain=sp.QQ[H])
    grad = [gen.diff(x) for x in t]
    poly = {(0,) * n: sp.Poly(1, *t, domain=sp.QQ[H])}
    for total in range(1, degree + 1):
        for alpha in itertools.product(range(total + 1), repeat=n):
            if sum(alpha) != total:
                continue
            i = next(k for k, e in enumerate(alpha) if e)
            lower = poly[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]]
            poly[alpha] = lower.diff(t[i]) + lower * grad[i]
    return {alpha: p.coeff_monomial(1).as_expr() for alpha, p in poly.items()}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d, degree", [(1, 6), (2, 4)])
def test_moments_match_the_generating_function(seed, d, degree):
    state = _rand_state(random.Random(seed), d)
    for alpha, want in _oracle_moments(state, degree).items():
        got = state.expectation(observable(d, {alpha: 1}))
        assert got.im.is_zero, alpha
        assert sp.expand(_sym(got.re) - want) == 0, alpha


def _one_mode_state():
    # mean (1, 0), covariance (h/2) I
    return GaussianState([series([(0, 1)]), ZERO], [[h(1, F(1, 2)), ZERO], [ZERO, h(1, F(1, 2))]])


def test_moment_of_cap_degree_evaluates():
    # E[X^k] = sum_j C(k, 2j) m^(k-2j) v^j (2j-1)!! for X ~ N(m = 1, v = h/2)
    k = MOMENT_CAP
    want = sum(
        comb(k, 2 * j) * sp.factorial2(2 * j - 1) * (H / 2) ** j for j in range(k // 2 + 1)
    )
    got = _one_mode_state().expectation(observable(1, {(k, 0): 1}))
    assert sp.expand(_sym(got.re) - want) == 0


@pytest.mark.parametrize("mono", [(MOMENT_CAP + 1, 0), (6, 7)])
def test_moment_above_the_cap_raises(mono):
    with pytest.raises(MomentDegreeExceeded, match=f"moment of degree 13 exceeds cap {MOMENT_CAP}"):
        _one_mode_state().expectation(observable(1, {mono: 1}))
