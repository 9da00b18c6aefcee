"""Exact arithmetic in an ordered field of truncated power series in h.

Elements are finite sums ``sum_g c_g * h^g`` with exact rational exponents
``g`` and exact rational coefficients ``c_g``, plus a truncation order
recording modulo which power of ``h`` the element is known (``math.inf``
means the element is exact).  Arithmetic on exact elements is exact: a
quotient of exact elements is exact or raises :class:`InexactDivision`, and
a truncation enters only through a truncated operand or an explicit
``order`` argument of :meth:`Series.inv` and :meth:`Series.sqrt`.

``h`` behaves as a positive infinitesimal: a nonzero element is positive
exactly when the coefficient at its least exponent is positive, which
orders the field but makes the order non-Archimedean (``h < 1/n`` for
every positive integer ``n``).

The companion :class:`ComplexSeries` is the complexification, a pair of
real series with ``i^2 = -1``.

This module is the one owner of truncation: :func:`decide_zero` and
:func:`decide_sign` give an exact answer or raise
:class:`~dq.errors.IndeterminateAtTruncation`, and every zero or sign
decision of the package goes through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt
from typing import Iterable, Union

from .errors import (
    IndeterminateAtTruncation,
    InexactDivision,
    IrrationalLeadingCoefficient,
    NotPositive,
)

INF = math.inf

#: exponents/coefficients are Fractions internally; ints accepted at the API
Rational = Union[int, Fraction]
#: truncation orders are Fractions, with math.inf standing for "exact"
Order = Union[Fraction, float]

class Sign(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    ZERO = "zero"
    #: all stored terms vanish but the truncation is finite, so the true
    #: sign is not decidable at this precision
    INDETERMINATE = "indeterminate"


def _as_order(value) -> Order:
    if value == INF:
        return INF
    return Fraction(value)


@dataclass(frozen=True, slots=True)
class Series:
    """A truncated power series in h, normalized and immutable.

    ``terms`` holds ``(exponent, coefficient)`` pairs sorted by strictly
    increasing exponent, with no zero coefficients and every exponent below
    ``trunc``.  Use :func:`series` (or the ``h``/``rational`` helpers) to
    build values; the raw constructor does not normalize.
    """

    terms: tuple[tuple[Fraction, Fraction], ...] = ()
    trunc: Order = INF

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True only for the exact zero element."""
        return not self.terms and self.trunc == INF

    def sign(self) -> Sign:
        if self.terms:
            return Sign.POSITIVE if self.terms[0][1] > 0 else Sign.NEGATIVE
        return Sign.ZERO if self.trunc == INF else Sign.INDETERMINATE

    def valuation(self) -> Order:
        """Least exponent of the support; ``inf`` for the exact zero."""
        if self.terms:
            return self.terms[0][0]
        if self.trunc == INF:
            return INF
        raise IndeterminateAtTruncation(
            f"valuation undecidable: zero modulo h^{self.trunc}"
        )

    def _val_or_inf(self) -> Order:
        # internal convention: empty support counts as valuation +inf
        return self.terms[0][0] if self.terms else INF

    def coefficient(self, exponent: Rational) -> Fraction:
        exponent = Fraction(exponent)
        for e, c in self.terms:
            if e == exponent:
                return c
        return Fraction(0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Series":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        acc = dict(self.terms)
        for e, c in other.terms:
            s = acc.get(e)
            if s is None:
                acc[e] = c
            elif s == -c:
                del acc[e]
            else:
                acc[e] = s + c
        return Series(tuple(sorted((e, c) for e, c in acc.items() if e < trunc)), trunc)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series(tuple((e, -c) for e, c in self.terms), self.trunc)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Series":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        trunc = _product_trunc(self, other)
        acc: dict[Fraction, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                if e >= trunc:
                    continue
                s = acc.get(e)
                if s is None:
                    acc[e] = c1 * c2
                else:
                    acc[e] = s + c1 * c2
        return Series(tuple(sorted((e, c) for e, c in acc.items() if c != 0)), trunc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Series":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __truediv__(self, other) -> "Series":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            if other.trunc == INF:
                raise ZeroDivisionError("series division by exact zero")
            raise IndeterminateAtTruncation(
                f"division by element that is zero modulo h^{other.trunc}"
            )
        if len(other.terms) == 1 and other.trunc == INF:
            g, c = other.terms[0]
            return Series(
                tuple((e - g, cc / c) for e, cc in self.terms),
                self.trunc - g if self.trunc != INF else INF,
            )
        if other.trunc != INF:
            return self * other.inv()
        if self.trunc == INF:
            return exact_div(self, other)
        if not self.terms:
            return Series((), self.trunc - other.terms[0][0])
        # the quotient is known to h^(T - val(other)); so is this product
        return self * other.inv(self.trunc - self.terms[0][0])

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # -- order, comparisons ------------------------------------------------

    def __lt__(self, other):
        return decide_sign(self - other) is Sign.NEGATIVE

    def __gt__(self, other):
        return decide_sign(self - other) is Sign.POSITIVE

    def __le__(self, other):
        return decide_sign(self - other) is not Sign.POSITIVE

    def __ge__(self, other):
        return decide_sign(self - other) is not Sign.NEGATIVE

    def __abs__(self) -> "Series":
        # an empty-support element equals its own negation, so this is
        # well defined even when the sign is indeterminate
        return -self if self.sign() is Sign.NEGATIVE else self

    # -- field operations beyond the ring ----------------------------------

    def inv(self, order: Rational | None = None) -> "Series":
        """Multiplicative inverse.

        The inverse of an exact monomial is exact.  Otherwise the geometric
        series is summed so that ``self * self.inv()`` equals 1 modulo
        ``h^w``: ``w`` is the window the input truncation supports, or
        ``order`` for an exact input, which then requires it (its inverse
        is an infinite series) and raises InexactDivision without it.
        """
        if not self.terms:
            if self.trunc == INF:
                raise ZeroDivisionError("inverse of exact zero")
            raise IndeterminateAtTruncation(
                f"inverse of element that is zero modulo h^{self.trunc}"
            )
        g0, c0 = self.terms[0]
        lead_inv = Series(((-g0, 1 / c0),))
        if len(self.terms) == 1 and self.trunc == INF:
            return lead_inv
        window = self.trunc - g0 if self.trunc != INF else _required_order(order, "inverse")
        # self = c0 h^g0 (1 + u) with val(u) > 0; invert the (1 + u) factor.
        # Terms at or above the window never influence the kept part, so the
        # running power is truncated each step to keep supports small.
        neg_u = (ONE - self * lead_inv).truncate(window)
        acc = ZERO
        p = ONE
        while p.terms and p.terms[0][0] < window:
            acc = acc + p
            p = (p * neg_u).truncate(window)
        acc = acc + p  # folds the tail truncation into acc when p is inexact
        return (lead_inv * acc).truncate(window - g0)

    def sqrt(self, order: Rational | None = None) -> "Series":
        """Positive square root.

        Requires a strictly positive element whose leading coefficient is a
        rational square; the leading exponent is halved and the remaining
        factor is expanded binomially.  The result is known to the input
        truncation, or, for an exact input that is not a monomial, to
        ``h^(val + order)`` with ``order`` required as for :meth:`inv`.
        """
        s = self.sign()
        if s is Sign.INDETERMINATE:
            raise NotPositive(
                f"sqrt of element with undecidable sign (zero modulo h^{self.trunc})"
            )
        if s is not Sign.POSITIVE:
            raise NotPositive("sqrt requires a strictly positive element")
        g0, c0 = self.terms[0]
        rn, rd = isqrt(c0.numerator), isqrt(c0.denominator)
        if rn * rn != c0.numerator or rd * rd != c0.denominator:
            raise IrrationalLeadingCoefficient(
                f"leading coefficient {c0} is not a rational square"
            )
        lead = Series(((g0 / 2, Fraction(rn, rd)),))
        if len(self.terms) == 1 and self.trunc == INF:
            return lead
        target = self.trunc if self.trunc != INF else g0 + _required_order(order, "square root")
        window = target - g0  # precision needed for the (1 + u)^(1/2) factor
        u = (self * Series(((-g0, 1 / c0),)) - ONE).truncate(window)
        acc = ZERO
        p = ONE
        coeff = Fraction(1)  # binomial(1/2, k)
        k = 0
        while p.terms and p.terms[0][0] < window:
            acc = acc + coeff * p
            k += 1
            coeff = coeff * (Fraction(1, 2) - (k - 1)) / k
            p = (p * u).truncate(window)
        acc = acc + coeff * p
        return (lead * acc).truncate(target - g0 / 2)

    def truncate(self, order: Rational | float) -> "Series":
        """Forget everything at or above ``order`` (no-op if already tighter)."""
        order = _as_order(order)
        trunc = min(self.trunc, order)
        if trunc == self.trunc:
            return self
        return Series(tuple((e, c) for e, c in self.terms if e < trunc), trunc)

    def shift(self, exponent: Rational) -> "Series":
        """Multiply by the exact monomial h^exponent."""
        exponent = Fraction(exponent)
        return Series(
            tuple((e + exponent, c) for e, c in self.terms),
            self.trunc + exponent if self.trunc != INF else INF,
        )

    # -- printing ----------------------------------------------------------

    def literal(self) -> str:
        """Canonical literal, parseable by :func:`dq.parsing.parse_series`."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for e, c in self.terms:
            mono = _mono_str(e)
            mag = _frac_str(abs(c))
            if mono is None:
                body = mag
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                if c < 0:
                    body = f"-{mag}*{mono}" if mono is not None else f"-{mag}"
                parts.append(body)
            else:
                parts.append(f"{' - ' if c < 0 else ' + '}{body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.literal()

    def __repr__(self) -> str:
        if self.trunc == INF:
            return f"Series[{self.literal()}]"
        return f"Series[{self.literal()} + O(h^{self.trunc})]"


def _mono_str(e: Fraction) -> str | None:
    if e == 0:
        return None
    if e == 1:
        return "h"
    if e.denominator == 1:
        return f"h^{e.numerator}"
    return f"h^({e.numerator}/{e.denominator})"


def _frac_str(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _required_order(order: Rational | None, what: str) -> Fraction:
    """The caller's truncation for an infinite expansion of an exact input."""
    if order is None:
        raise InexactDivision(f"the {what} of an exact non-monomial needs an order")
    return Fraction(order)


def _coerce(value):
    if isinstance(value, Series):
        return value
    if isinstance(value, (int, Fraction)):
        if value == 0:
            return ZERO
        return Series(((Fraction(0), Fraction(value)),))
    return NotImplemented


def as_series(value) -> Series:
    """A Series, or an int or Fraction as a constant series."""
    out = _coerce(value)
    if out is NotImplemented:
        raise TypeError(f"expected a series, got {type(value).__name__}")
    return out


def _product_trunc(a: Series, b: Series) -> Order:
    if a.trunc == INF and b.trunc == INF:
        return INF
    va, vb = a._val_or_inf(), b._val_or_inf()
    return min(a.trunc + vb, b.trunc + va, a.trunc + b.trunc)


def series(
    terms: Iterable[tuple[Rational, Rational]] | dict,
    trunc: Rational | float = INF,
) -> Series:
    """Build a normalized series from (exponent, coefficient) pairs."""
    trunc = _as_order(trunc)
    items = terms.items() if isinstance(terms, dict) else terms
    acc: dict[Fraction, Fraction] = {}
    for e, c in items:
        e, c = Fraction(e), Fraction(c)
        if e >= trunc:
            continue
        acc[e] = acc.get(e, Fraction(0)) + c
    return Series(tuple(sorted((e, c) for e, c in acc.items() if c != 0)), trunc)


def rational(value: Rational) -> Series:
    """The constant series with the given rational value."""
    return series([(0, value)])


def h(exponent: Rational = 1, coefficient: Rational = 1) -> Series:
    """The exact monomial coefficient * h^exponent."""
    return series([(exponent, coefficient)])


ZERO = Series()
ONE = Series(((Fraction(0), Fraction(1)),))
HBAR = Series(((Fraction(1), Fraction(1)),))


def decide_sign(x: Series) -> Sign:
    """POSITIVE, ZERO or NEGATIVE; raises IndeterminateAtTruncation when x
    is zero modulo its stored truncation, which leaves the sign open."""
    s = x.sign()
    if s is Sign.INDETERMINATE:
        raise IndeterminateAtTruncation(f"sign undecidable: zero modulo h^{x.trunc}")
    return s


def decide_zero(x: Series | ComplexSeries) -> bool:
    """Is x zero?  Raises IndeterminateAtTruncation when x is zero only
    modulo its stored truncation.

    Every zero or sign decision above this module goes through this
    function or :func:`decide_sign`.
    """
    if isinstance(x, ComplexSeries):
        if x.re.terms or x.im.terms:
            return False
    elif x.terms:
        return False
    if x.trunc == INF:
        return True
    raise IndeterminateAtTruncation(f"zero test undecidable: zero modulo h^{x.trunc}")


def compare(a: Series, b: Series | Rational) -> Sign:
    """Sign of ``a - b`` under the infinitesimal order."""
    return (a - _coerce(b)).sign()


def valuation(a: Series) -> Order:
    return a.valuation()


def metric(a: Series, b: Series) -> float:
    """Ultrametric distance ``exp(-valuation(a - b))`` as a machine float."""
    v = (a - b).valuation()
    return 0.0 if v == INF else math.exp(-float(v))


def exact_div(a: Series, b: Series) -> Series:
    """Exact quotient of exact series; raises InexactDivision otherwise.

    Long division from the low end.  The quotient's top exponent cannot
    exceed ``deg(a) - deg(b)`` (top terms of a product never cancel), which
    bounds the loop and detects inexactness early.
    """
    if a.trunc != INF or b.trunc != INF:
        raise InexactDivision("exact_div needs exact operands")
    if not b.terms:
        raise ZeroDivisionError("series division by exact zero")
    if not a.terms:
        return ZERO
    top = a.terms[-1][0] - b.terms[-1][0]
    g0, c0 = b.terms[0]
    out: dict[Fraction, Fraction] = {}
    rem = a
    while rem.terms:
        e = rem.terms[0][0] - g0
        if e > top:
            raise InexactDivision(f"{a!r} is not divisible by {b!r}")
        c = rem.terms[0][1] / c0
        out[e] = c
        rem = rem - Series(((e, c),)) * b
    return Series(tuple(sorted(out.items())))


def agree_mod_trunc(a: Series, b: Series) -> bool:
    """Do the stored terms agree below the common truncation order?"""
    w = min(a.trunc, b.trunc)
    return [t for t in a.terms if t[0] < w] == [t for t in b.terms if t[0] < w]


# ---------------------------------------------------------------------------
# complexification


@dataclass(frozen=True, slots=True)
class ComplexSeries:
    """Element of the complexified field: ``re + i*im`` with ``i^2 = -1``."""

    re: Series = ZERO
    im: Series = ZERO

    @property
    def trunc(self) -> Order:
        """Effective truncation of the pair."""
        return min(self.re.trunc, self.im.trunc)

    @property
    def is_zero(self) -> bool:
        return self.re.is_zero and self.im.is_zero

    def conj(self) -> "ComplexSeries":
        return ComplexSeries(self.re, -self.im)

    def abs2(self) -> Series:
        """Squared modulus ``re^2 + im^2`` (a real series)."""
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        other = _ccoerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexSeries(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return ComplexSeries(-self.re, -self.im)

    def __sub__(self, other):
        other = _ccoerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _ccoerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _ccoerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.im.is_zero and other.im.is_zero:
            return ComplexSeries(self.re * other.re, ZERO)
        return ComplexSeries(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _ccoerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.im.is_zero:
            return ComplexSeries(self.re / other.re, self.im / other.re)
        num = self * other.conj()
        den = other.abs2()
        return ComplexSeries(num.re / den, num.im / den)

    def inv(self, order: Rational | None = None) -> "ComplexSeries":
        den = self.abs2()
        if not den.terms and den.trunc == INF:
            raise ZeroDivisionError("inverse of exact complex zero")
        dinv = den.inv(order)
        return ComplexSeries(self.re * dinv, -self.im * dinv)

    def truncate(self, order: Rational | float) -> "ComplexSeries":
        return ComplexSeries(self.re.truncate(order), self.im.truncate(order))

    def __repr__(self) -> str:
        return f"ComplexSeries[({self.re}) + i*({self.im})]"


def _ccoerce(value):
    if isinstance(value, ComplexSeries):
        return value
    if isinstance(value, Series):
        return ComplexSeries(value, ZERO)
    if isinstance(value, (int, Fraction)):
        return ComplexSeries(_coerce(value), ZERO)
    return NotImplemented


def as_complex(value) -> ComplexSeries:
    """A ComplexSeries, or a Series, int or Fraction as a real one."""
    out = _ccoerce(value)
    if out is NotImplemented:
        raise TypeError(f"expected a complex series, got {type(value).__name__}")
    return out


C_ZERO = ComplexSeries()
C_ONE = ComplexSeries(ONE, ZERO)
I_UNIT = ComplexSeries(ZERO, ONE)
