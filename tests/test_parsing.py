"""Grammar coverage, positioned errors, and print/parse round-trips."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_series

from dq.errors import ExprSyntaxError, IndexOutOfRange
from dq.observables import constant, coordinate, observable
from dq.parsing import parse_observable, parse_observables, parse_series
from dq.series import ComplexSeries, HBAR, I_UNIT, ONE, h, rational, series


class TestSeriesGrammar:
    def test_spec_style_literal(self):
        value = parse_series("1 - 3/2*h + h^(5/2)")
        assert value == series({0: 1, 1: F(-3, 2), F(5, 2): 1})

    def test_zero(self):
        assert parse_series("0").is_zero

    def test_monomial_forms(self):
        assert parse_series("h") == HBAR
        assert parse_series("h^2") == h(2)
        assert parse_series("h^-1") == h(-1)
        assert parse_series("h^(1/2)") == h(F(1, 2))
        assert parse_series("h^1/2") == h(F(1, 2))
        assert parse_series("(3/2)") == rational(F(3, 2))
        assert parse_series("-2*h") == h(1, -2)
        assert parse_series("1 - -2*h") == ONE + h(1, 2)

    def test_no_monomial_products(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_series("h^(1/3)*h^(1/2)")
        assert err.value.column == 8

    def test_requires_star_between_coeff_and_mono(self):
        with pytest.raises(ExprSyntaxError):
            parse_series("3h")

    def test_bad_paren_rational(self):
        with pytest.raises(ExprSyntaxError):
            parse_series("(3)")

    def test_zero_denominator(self):
        with pytest.raises(ExprSyntaxError):
            parse_series("1/0")

    def test_position_reported(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_series("1 + ?")
        assert err.value.line == 1 and err.value.column == 5


@pytest.mark.parametrize(
    "parse, text, message, column",
    [
        (parse_series, "1/0 + h", "zero denominator", 3),
        (parse_series, "(1/0)", "zero denominator", 4),
        (parse_series, "h^(1/0)", "zero denominator", 6),
        (parse_observable, "q1^0 + p1", "expected a positive integer exponent", 4),
        (parse_observable, "2/0*q1", "zero denominator", 3),
    ],
)
def test_number_errors_point_at_the_number(parse, text, message, column):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert (err.value.message, err.value.column) == (message, column)


class TestObservableGrammar:
    def test_spec_example(self):
        f = parse_observable("q1*p1 + 1/2*h*i")
        q, p = coordinate(1, "q", 1), coordinate(1, "p", 1)
        assert f == q * p + constant(1, ComplexSeries(im=h(1, F(1, 2))))

    def test_two_dof(self):
        f = parse_observable("q1^2 - p2", 2)
        assert f.d == 2
        assert f.terms[(2, 0, 0, 0)].re == ONE
        assert f.terms[(0, 0, 0, 1)].re == -ONE

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            parse_observable("q3", 2)

    def test_bare_letter_invalid(self):
        with pytest.raises(ExprSyntaxError):
            parse_observable("q + p1", 1)

    def test_parenthesized_sums_and_powers(self):
        f = parse_observable("(q1 + p1)^2")
        q, p = coordinate(1, "q", 1), coordinate(1, "p", 1)
        assert f == (q + p) * (q + p)
        assert parse_observable("(q1 + p1)^5") == (q + p) * (q + p) * (q + p) * (q + p) * (q + p)

    def test_fractional_h_power_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_observable("h^(1/2)*q1", 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_observable("q1^-2", 1)

    def test_leading_negative_coefficient(self):
        f = parse_observable("-1*q1 + 2*p1")
        assert f.terms[(1, 0)].re == -ONE

    def test_unary_minus(self):
        q, p = coordinate(1, "q", 1), coordinate(1, "p", 1)
        for text in ("-q1", "-(q1)", "- q1", "-1*q1"):
            assert parse_observable(text) == -q
        assert parse_observable("-q1^2") == -(q * q)
        assert parse_observable("p1 - -q1") == p + q
        assert parse_observable("2*-(q1 + p1)") == -(q + p) * 2
        assert parse_observable("-(3/2)") == constant(1, F(-3, 2))

    def test_signed_number_literals_unchanged(self):
        assert parse_observable("-2^2") == constant(1, 4)
        assert parse_observable("-3/2") == constant(1, F(-3, 2))

    def test_lone_minus_rejected(self):
        for text in ("-", "q1 - ", "--"):
            with pytest.raises(ExprSyntaxError):
                parse_observable(text, 1)

    def test_i_arithmetic(self):
        f = parse_observable("i^2")
        assert f == constant(1, -1)

    def test_infer_dof(self):
        assert parse_observable("q1*p1").d == 1
        assert parse_observable("q2 + p3").d == 3
        assert parse_observable("1/2").d == 1
        assert [f.d for f in parse_observables(["q1", "p3 + 1", "2"])] == [3, 3, 3]

    def test_character_errors_of_all_texts_come_first_without_d(self):
        # without d every text is tokenized before any is parsed
        with pytest.raises(ExprSyntaxError, match="unexpected character '\\$'"):
            parse_observables(["q1 +", "p1 $"])
        with pytest.raises(ExprSyntaxError, match="expected q<i>"):
            parse_observables(["q1 +", "p1 $"], 1)


class TestRoundTrips:
    @settings(max_examples=200)
    @given(exact_series())
    def test_series_literal_roundtrip(self, value):
        assert parse_series(value.literal()) == value

    @settings(max_examples=200)
    @given(st.data())
    def test_observable_literal_roundtrip(self, data):
        d = data.draw(st.integers(1, 2))
        terms = {}
        for _ in range(data.draw(st.integers(1, 4))):
            mono = tuple(
                data.draw(st.integers(0, 2)) for _ in range(2 * d)
            )
            re_pairs = [
                (data.draw(st.integers(0, 3)), data.draw(st.integers(-5, 5)))
                for _ in range(data.draw(st.integers(0, 2)))
            ]
            im_pairs = [
                (data.draw(st.integers(0, 3)), data.draw(st.integers(-5, 5)))
                for _ in range(data.draw(st.integers(0, 2)))
            ]
            coeff = ComplexSeries(series(re_pairs), series(im_pairs))
            terms[mono] = terms.get(mono, ComplexSeries()) + coeff
        f = observable(d, terms)
        assert parse_observable(f.literal(), d) == f

    def test_unprintable_h_power(self):
        f = constant(1, ComplexSeries(h(-1)))
        with pytest.raises(ValueError):
            f.literal()
