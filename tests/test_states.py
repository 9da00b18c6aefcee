"""Gaussian states: admissibility (cov + (i h/2) J non-negative definite)
and its witness, the moments of ``expectation`` against a sympy oracle,
and the star moments of ``star_expectation`` against the star path."""

import itertools
import random
import warnings
from fractions import Fraction as F
from math import comb

import pytest
import sympy as sp

from dq import states
from dq.errors import AdmissibilityWarning, InternalConsistencyError, MomentDegreeExceeded
from dq.observables import moyal_bracket, observable, star
from dq.series import ComplexSeries, ZERO, h, series
from dq.states import (
    HALF_H,
    MOMENT_CAP,
    GaussianState,
    correlated,
    gelfand_norm,
    ground,
    squeezed,
)
from dq.uncertainty import moment_matrices


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


def test_the_warning_names_an_observable_of_negative_norm():
    # cov + (i h/2) J = [[h/2, h/4 + i h/2], [h/4 - i h/2, h/2]] has a negative
    # eigenvalue; its witness v spells f = v_1 q1 + v_2 p1
    with pytest.warns(AdmissibilityWarning) as record:
        state = correlated(h(1, F(1, 4)))
    v1 = ComplexSeries(h(1, F(-1, 4)), h(1, F(-1, 2)))
    f = observable(1, {(1, 0): v1, (0, 1): h(1, F(1, 2))})
    assert gelfand_norm(state, f) == h(3, F(-1, 32))
    assert str(record[0].message) == (
        "cov + (i h/2) J is not non-negative definite: positivity fails, "
        "rho(conj(f) * f) = -1/32*h^3 < 0 for f = "
        "Observable[d=1: 1/2*h*p1 - 1/4*h*q1 - 1/2*h*i*q1]"
    )


def test_the_warning_counts_the_terms_of_a_witness_it_cannot_spell():
    # Var(q1) Var(p1) = h^2/8 < h^2/4 with the powers h^(1/2) and h^(3/2):
    # the witness's coefficients carry fractional powers of h
    want = r"= -1/32\*h\^\(5/2\) < 0 for f = Observable\[d=1: 2 terms\]$"
    with pytest.warns(AdmissibilityWarning, match=want):
        _diagonal_state(h(F(1, 2), F(1, 4)), h(F(3, 2), F(1, 2)))


def test_a_witness_of_nonnegative_norm_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(states, "gelfand_norm", lambda state, f: ZERO)
    with pytest.raises(InternalConsistencyError, match="positivity witness"):
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


#: the d = 2 product case of the random-state tests
PRODUCT = "1+1"


def _product_state(rng: random.Random) -> GaussianState:
    """A d = 2 product of two random d = 1 blocks, the first uncorrelated.

    Every cov and cross-block entry between the two modes is the exact zero,
    and so is cov(q1, p1), while its cross-block entry is i h/2: the Wick
    recursions must skip the first kind and keep the second.
    """
    first, second = _rand_state(rng, 1), _rand_state(rng, 1)
    blocks = [[[first.cov[0][0], ZERO], [ZERO, first.cov[1][1]]], second.cov]
    means = [first.mean, second.mean]
    # order (q1, q2, p1, p2): mode m holds the indices m and m + 2
    mean = [means[i % 2][i // 2] for i in range(4)]
    cov = [
        [blocks[i % 2][i // 2][j // 2] if i % 2 == j % 2 else ZERO for j in range(4)]
        for i in range(4)
    ]
    return GaussianState(mean, cov)


def _case(base: int, d, seed: int) -> tuple[random.Random, GaussianState]:
    """A test case's stream ``base * d + seed`` and its random state:
    ``_rand_state`` at d, or for d = PRODUCT the product state, which takes
    the stream of d = 4."""
    rng = random.Random(base * (4 if d == PRODUCT else d) + seed)
    return rng, (_product_state(rng) if d == PRODUCT else _rand_state(rng, d))


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
@pytest.mark.parametrize("d, degree", [(1, 6), (2, 4), (PRODUCT, 4)])
def test_moments_match_the_generating_function(seed, d, degree):
    _, state = _case(0, d, seed)
    for alpha, want in _oracle_moments(state, degree).items():
        got = state.expectation(observable(state.d, {alpha: 1}))
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


# ---------------------------------------------------------------------------
# the Gaussian pairing against the star path


def _rand_observable(rng: random.Random, d: int, real: bool):
    """Up to four monomials of degree <= 3 with coefficients a + b h + i (c + e h)."""

    def part():
        return series([(0, F(rng.randint(-3, 3), rng.randint(1, 2))), (1, rng.randint(-1, 1))])

    n = 2 * d
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = [0] * n
        for _ in range(rng.randint(0, 3)):
            mono[rng.randrange(n)] += 1
        terms[tuple(mono)] = ComplexSeries(part(), ZERO if real else part())
    return observable(d, terms)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 2, 3, PRODUCT])
def test_the_pairing_equals_the_star_path(seed, d):
    rng, state = _case(1000, d, seed)
    fs = [_rand_observable(rng, state.d, real=False) for _ in range(4)]
    for f in fs:
        for g in fs:
            assert state.star_expectation(f, g) == state.expectation(star(f, g))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 2, 3, PRODUCT])
def test_phi_is_the_star_moment_and_its_imaginary_part_the_bracket(seed, d):
    rng, state = _case(2000, d, seed)
    xs = [_rand_observable(rng, state.d, real=True) for _ in range(3)]
    mm = moment_matrices(state, xs)
    for j, dj in enumerate(mm.devs):
        for k, dk in enumerate(mm.devs):
            assert mm.phi.entries[j][k] == state.expectation(star(dj, dk))
            bracket = state.expect_real(moyal_bracket(xs[j], xs[k]))
            assert mm.b[j][k] == HALF_H * bracket


def test_the_pairing_caps_the_total_degree():
    q7, p6 = observable(1, {(7, 0): 1}), observable(1, {(0, 6): 1})
    assert not _one_mode_state().star_expectation(p6, p6).is_zero
    with pytest.raises(MomentDegreeExceeded, match=f"moment of degree 13 exceeds cap {MOMENT_CAP}"):
        _one_mode_state().star_expectation(q7, p6)
