"""Shared hypothesis strategies for exact series and observables."""

from fractions import Fraction

from hypothesis import settings, strategies as st

from dq.series import ComplexSeries, INF, Series, series

# no per-example time limit: a slow spell of the host is not a failure
settings.register_profile("dq", deadline=None)
settings.load_profile("dq")


@st.composite
def fractions(draw, lo=-9, hi=9, max_den=6, nonzero=False):
    num = draw(st.integers(lo, hi))
    den = draw(st.integers(1, max_den))
    if nonzero and num == 0:
        num = draw(st.integers(1, hi))
    return Fraction(num, den)


@st.composite
def exponents(draw, lo=-2, hi=6, max_den=6):
    den = draw(st.integers(1, max_den))
    return Fraction(draw(st.integers(lo * den, hi * den)), den)


@st.composite
def series_values(draw, max_terms=4, order=Fraction(8), allow_exact=False):
    pairs = draw(
        st.lists(
            st.tuples(exponents(), fractions(nonzero=True)),
            min_size=0,
            max_size=max_terms,
        )
    )
    trunc = order
    if allow_exact and draw(st.booleans()):
        trunc = INF
    return series(pairs, trunc)


@st.composite
def exact_series(draw, max_terms=4, lo=-2, hi=6):
    pairs = draw(
        st.lists(
            st.tuples(exponents(lo=lo, hi=hi), fractions(nonzero=True)),
            min_size=0,
            max_size=max_terms,
        )
    )
    return series(pairs)


@st.composite
def nonzero_series(draw, **kw):
    value = draw(series_values(**kw))
    if not value.terms:
        value = value + series([(draw(exponents()), draw(fractions(nonzero=True)))])
    return value


@st.composite
def complex_series_values(draw, **kw):
    return ComplexSeries(draw(series_values(**kw)), draw(series_values(**kw)))
