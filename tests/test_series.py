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
from dq.observables import coordinate, observable
from dq.parsing import parse_observable
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
    decide_sign,
    decide_zero,
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
        coeffs = dict(b.terms)
        assert coeffs[0] == 1 and coeffs[1] == 1 and coeffs[7] == 1
        assert agree_mod_trunc(a * b, ONE)

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inv()
        with pytest.raises(ZeroDivisionError, match="division by exact zero"):
            ONE / ZERO

    def test_inv_truncated_zero_indeterminate(self):
        with pytest.raises(IndeterminateAtTruncation):
            series({}, trunc=8).inv()
        with pytest.raises(IndeterminateAtTruncation, match="zero modulo h\\^8"):
            ONE / series({}, trunc=8)

    def test_inv_and_sqrt_of_exact_input_need_an_order(self):
        with pytest.raises(InexactDivision):
            (ONE + HBAR).inv()
        with pytest.raises(InexactDivision):
            (ONE + HBAR).sqrt()

    def test_inv_of_truncated_input_keeps_its_window(self):
        b = series({0: 1, 1: -1}, trunc=3).inv()
        assert b == series({0: 1, 1: 1, 2: 1}, trunc=3)


class TestCanonicalForm:
    """Values built on different integer grids compare and hash equal."""

    @pytest.mark.parametrize(
        "built, direct",
        [
            (h(F(1, 2)) * h(F(1, 2)), HBAR),
            (series([(F(1, 3), 1), (F(1, 3), -1)]), ZERO),
            (rational(F(6, 4)), rational(F(3, 2))),
            # exponent grid 6 and content 6 before the fractional terms cancel
            (series({F(1, 2): F(1, 6), 1: 1, F(4, 3): 2}) - h(F(1, 2), F(1, 6)) - h(F(4, 3), 2), HBAR),
            (series({F(1, 3): F(1, 2), 2: 1}, trunc=F(5, 2)) + h(F(1, 3), F(-1, 2)), series({2: 1}, trunc=F(5, 2))),
            (series({F(1, 2): 3, F(7, 4): F(1, 4)}).truncate(1), series({F(1, 2): 3}, trunc=1)),
            (h(F(2, 3), 4) * h(F(1, 3)), h(1, 4)),
        ],
        ids=["half-half", "cancel", "6/4", "sum", "truncated sum", "truncate", "shift"],
    )
    def test_equal_values_compare_and_hash_equal(self, built, direct):
        assert built == direct
        assert hash(built) == hash(direct)

    def test_terms_are_fraction_pairs(self):
        a = series({F(5, 3): F(-1, 6), 0: 2, F(-1, 2): F(3, 4)}, trunc=F(7, 3))
        assert a.terms == ((F(-1, 2), F(3, 4)), (F(0), F(2)), (F(5, 3), F(-1, 6)))
        assert all(type(e) is F and type(c) is F for e, c in a.terms)
        assert ZERO.terms == () and series({}, trunc=2).terms == ()

    def test_storage_holds_no_fractions(self):
        a = series({F(1, 2): F(3, 4), F(5, 3): F(-1, 6)}) * h(F(1, 4), F(2, 7))
        stored = [getattr(a, name) for name in type(a).__slots__ if name != "trunc"]
        flat = [x for v in stored for x in (v if isinstance(v, list) else [v])]
        assert flat and all(type(x) is int for x in flat)


@given(series_values(allow_exact=True))
def test_terms_rebuild_the_value(a):
    rebuilt = series(a.terms, a.trunc)
    assert rebuilt == a and hash(rebuilt) == hash(a)
    exps = [e for e, _ in a.terms]
    assert exps == sorted(set(exps)) and all(c != 0 and e < a.trunc for e, c in a.terms)


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
        assert HBAR <= HBAR and HBAR <= ONE and not ONE <= HBAR
        assert HBAR >= HBAR and ONE >= HBAR and not HBAR >= ONE
        with pytest.raises(IndeterminateAtTruncation):
            series({}, trunc=3) < ZERO

    def test_decide_zero_and_sign(self):
        blur = series({}, trunc=4)
        assert decide_zero(ZERO) and decide_zero(ComplexSeries())
        assert not decide_zero(series({5: 1}, trunc=6))
        assert not decide_zero(ComplexSeries(blur, ONE))  # one part decides
        assert decide_sign(-HBAR) is Sign.NEGATIVE and decide_sign(ZERO) is Sign.ZERO
        for undecided in (blur, ComplexSeries(ZERO, blur)):
            with pytest.raises(IndeterminateAtTruncation):
                decide_zero(undecided)
        with pytest.raises(IndeterminateAtTruncation):
            decide_sign(blur)


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
        assert s.terms[:3] == ((0, 1), (1, F(1, 2)), (2, F(-1, 8)))
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

    #: complex operands: a nonzero, a truncated and a truncated-zero imaginary
    #: part, and an exact-zero one
    COMPLEX = (
        ComplexSeries(ONE + h(F(1, 2), 3), HBAR - h(2)),
        ComplexSeries(series({0: 2, 1: -1}, trunc=3), series({1: F(1, 3)}, trunc=F(5, 2))),
        ComplexSeries(h(-1, 2), series({}, trunc=2)),
        ComplexSeries(series({F(1, 3): 5}, trunc=4)),
    )
    #: real operands: ints (zero too), a Fraction, exact and truncated
    #: series, a truncated zero, and ComplexSeries with an exact-zero part
    REAL = (
        0,
        3,
        F(-2, 5),
        ZERO,
        HBAR + h(F(1, 2), 3),
        series({1: 2, 2: 1}, trunc=3),
        series({}, trunc=2),
        ComplexSeries(h(F(2, 3), -1)),
        ComplexSeries(series({0: 1}, trunc=5), ZERO),
    )

    @staticmethod
    def _parts(x):
        if isinstance(x, ComplexSeries):
            return x.re, x.im
        return (x if isinstance(x, Series) else rational(x)), ZERO

    @pytest.mark.parametrize("r", REAL, ids=repr)
    @pytest.mark.parametrize("z", COMPLEX + REAL[-2:], ids=repr)
    def test_a_real_operand_gives_the_full_formula(self, z, r):
        (a, b), (c, d) = self._parts(z), self._parts(r)
        product = ComplexSeries(a * c - b * d, a * d + b * c)
        total = ComplexSeries(a + c, b + d)
        for got, want in ((z * r, product), (r * z, product), (z + r, total), (r + z, total)):
            assert type(got) is ComplexSeries
            assert got == want and got.trunc == want.trunc

    def test_equality_contract(self):
        assert ComplexSeries(HBAR) != HBAR and HBAR != ComplexSeries(HBAR)
        built = [
            ComplexSeries(HBAR),
            ComplexSeries(h(1), ZERO),
            ComplexSeries(HBAR, HBAR - HBAR),
            I_UNIT * ComplexSeries(ZERO, -HBAR),
        ]
        assert all(x == built[0] for x in built)
        assert len({hash(x) for x in built}) == 1 and len(set(built)) == 1
        assert ComplexSeries(HBAR) != ComplexSeries(HBAR, series({}, trunc=3))

    def test_observable_terms_compare_by_value(self):
        q = coordinate(1, "q", 1)
        doubled = q * 2
        assert doubled == observable(1, {(1, 0): 2}) == q + q
        assert doubled.terms == {(1, 0): ComplexSeries(rational(2))}
        assert doubled != observable(1, {(1, 0): ComplexSeries(rational(2), HBAR)})


class TestExactDivision:
    def test_exact_quotient(self):
        a = (ONE + HBAR) * (ONE - h(2, 3))
        assert exact_div(a, ONE + HBAR) == ONE - h(2, 3)

    def test_exact_div_needs_exact_operands_and_a_nonzero_divisor(self):
        with pytest.raises(InexactDivision, match="needs exact operands"):
            exact_div(series({1: 1}, trunc=3), ONE)
        with pytest.raises(InexactDivision, match="needs exact operands"):
            exact_div(ONE, series({0: 1}, trunc=3))
        with pytest.raises(ZeroDivisionError, match="division by exact zero"):
            exact_div(ONE, ZERO)

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


# Series.literal and Observable.literal print through one signed-term
# printer; these are the forms the golden files do not reach
@pytest.mark.parametrize(
    "value, text",
    [
        (h(1, -1), "-1*h"),
        (series([(0, -1)]), "-1"),
        (h(F(1, 2), F(-3, 2)), "-3/2*h^(1/2)"),
        (series([(0, 1), (1, -1), (F(-8, 5), F(1, 4))]), "1/4*h^(-8/5) + 1 - h"),
        (series([]), "0"),
        (parse_observable("-q1"), "-1*q1"),
        (parse_observable("2/3*q1*p2 - h^2*i"), "-1*h^2*i + 2/3*q1*p2"),
        (parse_observable("-h*i*q1^2*p1 + 3"), "3 - h*i*q1^2*p1"),
        (parse_observable("0*q1"), "0"),
    ],
)
def test_printed_form(value, text):
    assert value.literal() == text
