"""Arithmetic, order, valuation, and metric laws of the series field."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from conftest import complex_series_values, exact_series, nonzero_series, series_values

from dq.errors import (
    IndeterminateAtTruncation,
    InexactDivision,
    IrrationalLeadingCoefficient,
    NotPositive,
)
from dq.series import (
    HBAR,
    INF,
    I_UNIT,
    ComplexSeries,
    ONE,
    Series,
    Sign,
    ZERO,
    agree_mod_trunc,
    compare,
    exact_div,
    h,
    metric,
    rational,
    series,
    valuation,
)


class TestArithmeticExamples:
    def test_add_coefficientwise(self):
        a = series({0: 1, 1: 2})
        b = series({1: 3, 2: -1})
        assert a + b == series({0: 1, 1: 5, 2: -1})

    def test_add_identity(self):
        a = series({F(1, 2): 3, 2: -1})
        assert a + ZERO == a

    def test_add_inverse_cancels_to_empty_support(self):
        a = h(F(1, 2))
        assert (a + (-a)) == ZERO

    def test_mul_difference_of_squares(self):
        assert (ONE + h(F(1, 2))) * (ONE - h(F(1, 2))) == ONE - HBAR

    def test_mul_exponents_add_in_group(self):
        assert h(F(1, 2)) * h(F(1, 3)) == h(F(5, 6))

    def test_mul_identity(self):
        a = series({-1: 2, F(3, 2): 5})
        assert a * ONE == a

    def test_inv_monomial(self):
        assert h(1, 2).inv() == h(-1, F(1, 2))

    def test_inv_geometric(self):
        # oracle: mul(a, inv(a)) equals 1 modulo truncation
        a = ONE - HBAR
        b = a.inv(order=8)
        assert b.coefficient(0) == 1 and b.coefficient(1) == 1 and b.coefficient(7) == 1
        assert agree_mod_trunc(a * b, ONE)

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inv()

    def test_inv_truncated_zero_indeterminate(self):
        with pytest.raises(IndeterminateAtTruncation):
            series({}, trunc=8).inv()

    def test_inv_and_sqrt_of_exact_input_need_an_order(self):
        with pytest.raises(InexactDivision):
            (ONE + HBAR).inv()
        with pytest.raises(InexactDivision):
            (ONE + HBAR).sqrt()

    def test_inv_of_truncated_input_keeps_its_window(self):
        b = series({0: 1, 1: -1}, trunc=3).inv()
        assert b == series({0: 1, 1: 1, 2: 1}, trunc=3)


class TestOrder:
    def test_positive_leading_coefficient(self):
        assert compare(series({F(1, 2): 2, 1: -3}), ZERO) is Sign.POSITIVE

    def test_h_is_infinitesimal(self):
        assert compare(HBAR, F(1, 1000000)) is Sign.NEGATIVE

    def test_abs(self):
        assert abs(h(1, -3)) == h(1, 3)

    def test_indeterminate_difference(self):
        a = series({1: 1}, trunc=4)
        assert compare(a, series({1: 1}, trunc=6)) is Sign.INDETERMINATE

    def test_dunder_comparisons(self):
        assert HBAR < F(1, 100)
        assert h(1, 3) > h(2, 5)
        with pytest.raises(IndeterminateAtTruncation):
            series({}, trunc=3) < ZERO


class TestValuationMetric:
    def test_least_support_element(self):
        assert valuation(series({2: 3, 3: -1})) == 2

    def test_zero_has_infinite_valuation(self):
        assert valuation(ZERO) == INF

    def test_valuation_additive_under_mul(self):
        assert valuation(h(F(1, 2)) * h(F(1, 2))) == 1

    def test_truncated_zero_raises(self):
        with pytest.raises(IndeterminateAtTruncation):
            valuation(series({}, trunc=5))

    def test_metric_values(self):
        assert metric(h(2), ZERO) == pytest.approx(math.exp(-2))
        assert metric(ONE + HBAR, ONE) == pytest.approx(math.exp(-1))
        a = series({1: 5, 2: -1})
        assert metric(a, a) == 0.0


class TestSqrt:
    def test_perfect_square_monomial(self):
        assert h(2, 4).sqrt() == h(1, 2)

    def test_exponent_halving(self):
        assert HBAR.sqrt() == h(F(1, 2))

    def test_binomial_tail(self):
        # oracle: mul(s, s) reproduces the argument modulo truncation
        a = ONE + HBAR
        s = a.sqrt(order=8)
        assert s.coefficient(0) == 1
        assert s.coefficient(1) == F(1, 2)
        assert s.coefficient(2) == F(-1, 8)
        assert agree_mod_trunc(s * s, a)

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            (-HBAR).sqrt()
        with pytest.raises(NotPositive):
            series({}, trunc=4).sqrt()

    def test_irrational_leading_coefficient(self):
        with pytest.raises(IrrationalLeadingCoefficient):
            rational(2).sqrt()


class TestComplex:
    def test_i_squared(self):
        assert I_UNIT * I_UNIT == ComplexSeries(-ONE, ZERO)

    def test_conj(self):
        z = ComplexSeries(ONE, HBAR)
        assert z.conj() == ComplexSeries(ONE, -HBAR)
        assert z.conj().conj() == z

    def test_cinv(self):
        # oracle: cmul(z, cinv(z)) = 1 modulo truncation
        z = ComplexSeries(ONE, HBAR)
        w = z * z.inv(order=8)
        assert agree_mod_trunc(w.re, ONE) and not w.im.terms

    def test_cinv_zero(self):
        with pytest.raises(ZeroDivisionError):
            ComplexSeries().inv()


class TestExactDivision:
    def test_exact_quotient(self):
        a = (ONE + HBAR) * (ONE - h(2, 3))
        assert exact_div(a, ONE + HBAR) == ONE - h(2, 3)

    def test_truediv_prefers_exact(self):
        q = ((ONE + HBAR) * (ONE + h(3))) / (ONE + HBAR)
        assert q.trunc == INF
        assert q == ONE + h(3)

    def test_truediv_of_exact_operands_is_exact_or_raises(self):
        with pytest.raises(InexactDivision):
            ONE / (ONE - HBAR)
        q = (ONE - h(2)) / (ONE - HBAR)
        assert q.trunc == INF
        assert q == ONE + HBAR

    def test_truediv_of_truncated_by_exact_keeps_the_numerator_window(self):
        q = series({1: 1, 2: 3}, trunc=4) / (ONE - HBAR)
        assert q == series({1: 1, 2: 4, 3: 4}, trunc=4)


# ---------------------------------------------------------------------------
# law properties


@settings(max_examples=150)
@given(series_values(allow_exact=True), series_values(allow_exact=True), series_values())
def test_ring_laws(a, b, c):
    assert agree_mod_trunc(a + b, b + a)
    assert agree_mod_trunc(a * b, b * a)
    assert agree_mod_trunc((a + b) + c, a + (b + c))
    assert agree_mod_trunc((a * b) * c, a * (b * c))
    assert agree_mod_trunc(a * (b + c), a * b + a * c)
    assert agree_mod_trunc(a - a, ZERO)


@settings(max_examples=150)
@given(nonzero_series(allow_exact=True))
def test_multiplicative_inverse(a):
    order = 8 if a.trunc == INF else None
    assert agree_mod_trunc(a * a.inv(order), ONE)


@settings(max_examples=150)
@given(series_values(allow_exact=True))
def test_squares_are_nonnegative(a):
    if a.sign() is not Sign.INDETERMINATE:
        assert (a * a).sign() in (Sign.POSITIVE, Sign.ZERO)


@settings(max_examples=150)
@given(series_values(), series_values())
def test_order_axioms(a, b):
    sa, sb = a.sign(), b.sign()
    if sa is Sign.INDETERMINATE or sb is Sign.INDETERMINATE:
        return
    assert (-a).sign() == {
        Sign.POSITIVE: Sign.NEGATIVE,
        Sign.NEGATIVE: Sign.POSITIVE,
        Sign.ZERO: Sign.ZERO,
    }[sa]
    pa, pb = abs(a), abs(b)
    if pa.sign() is Sign.POSITIVE and pb.sign() is Sign.POSITIVE:
        assert (pa + pb).sign() is Sign.POSITIVE
        assert (pa * pb).sign() is Sign.POSITIVE


@settings(max_examples=150)
@given(nonzero_series(), nonzero_series())
def test_valuation_laws(a, b):
    va, vb = a.valuation(), b.valuation()
    ab = a * b
    if ab.terms:
        assert ab.valuation() == va + vb
    s = a + b
    if s.terms:
        assert s.valuation() >= min(va, vb)
    if va != vb:
        assert s.valuation() == min(va, vb)


@settings(max_examples=150)
@given(nonzero_series(), nonzero_series())
def test_module_laws(a, b):
    assert abs(a * b) == abs(a) * abs(b)
    assert (abs(a) + abs(b) - abs(a + b)).sign() is not Sign.NEGATIVE
    if a.valuation() < b.valuation():
        assert compare(abs(a), abs(b)) is Sign.POSITIVE


@settings(max_examples=100)
@given(exact_series(), exact_series(), exact_series())
def test_ultrametric(a, b, c):
    assert metric(a, c) <= max(metric(a, b), metric(b, c)) + 1e-12


@settings(max_examples=100)
@given(complex_series_values(allow_exact=True), complex_series_values(allow_exact=True))
def test_complex_conjugation_distributes(z, w):
    assert (z * w).conj() == z.conj() * w.conj()
    prod = z * z.conj()
    assert not prod.im.terms


@settings(max_examples=100)
@given(nonzero_series(allow_exact=True), nonzero_series(allow_exact=True))
def test_division_roundtrip(a, b):
    if a.trunc == INF and b.trunc == INF:
        assert (a * b) / b == a
    else:
        assert agree_mod_trunc((a / b) * b, a)


def test_product_truncation_window():
    # truncated zero times truncated zero is known only to the summed order
    a = series({}, trunc=3)
    b = series({}, trunc=4)
    assert (a * b).trunc == 7
    # a truncated factor is amplified by the other factor's valuation
    c = series({-2: 5}, trunc=3)
    assert (c * c).trunc == 1
