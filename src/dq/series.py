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

A :class:`Series` is stored on an integer grid, the content/primitive-part
layout of FLINT's ``fmpq_poly``: one positive exponent denominator ``E``,
strictly increasing integer exponent numerators ``k_j``, nonzero integer
coefficient numerators ``n_j`` and one positive content denominator ``D``,
so that the element is ``sum_j (n_j / D) h^(k_j / E)``; the truncation
order stays a ``Fraction`` (or ``inf``).  The form is canonical:
``gcd(D, n_1, ...) == 1`` and ``gcd(E, k_1, ...) == 1``, and the zero
element has ``E = D = 1``.  So equal values have equal fields, and field
equality and hashing are value equality and hashing.  Operands on
different grids are rescaled to ``lcm(E1, E2)`` (and, for a sum, to
``lcm(D1, D2)``).  The exact zero is the additive identity: a sum with it
returns the other operand itself, already canonical, which the immutable
fields make safe to share.  A truncated zero (empty support, finite
truncation) is not an identity, since it lowers the truncation of the sum,
so it takes the general path; a product with the exact zero is the exact
zero, whatever the other factor.  The layout is private to this module;
:attr:`Series.terms` gives the ``(exponent, coefficient)`` pairs as
``Fraction`` for printing and tests.

The companion :class:`ComplexSeries` is the complexification, a pair of
real series with ``i^2 = -1``.

This module is the one owner of truncation: :func:`decide_zero` and
:func:`decide_sign` give an exact answer or raise
:class:`~dq.errors.IndeterminateAtTruncation`, and every zero or sign
decision of the package goes through them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Union

from .errors import (
    IndeterminateAtTruncation,
    InexactDivision,
    IrrationalLeadingCoefficient,
    NotPositive,
)

INF = math.inf

#: exponents and coefficients at the API; stored as integers on a grid
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


class Series:
    """A truncated power series in h, canonical and immutable.

    The fields are the integer grid of the module docstring; every exponent
    ``k_j / E`` lies below ``trunc``.  No field is assigned after
    ``__init__`` and the numerator lists are never modified once stored, so
    values share them; ``tests/test_series_layout.py`` rejects code that
    writes a field or a numerator list (a runtime guard would slow every
    construction).  Lists rather than tuples: CPython keeps up to 2000 freed
    tuples of each small length for reuse, and two short tuples per value
    held megabytes there.  Use :func:`series` (or the ``h``/``rational``
    helpers) to build values; the raw constructor does not normalize.
    """

    __slots__ = ("_eden", "_exps", "_nums", "_cden", "trunc")

    def __init__(self, eden: int, exps: list[int], nums: list[int], cden: int, trunc: Order = INF):
        self._eden = eden
        self._exps = exps
        self._nums = nums
        self._cden = cden
        self.trunc = trunc

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self._exps == other._exps
            and self._nums == other._nums
            and self._eden == other._eden
            and self._cden == other._cden
            and self.trunc == other.trunc
        )

    def __hash__(self):
        return hash((self._eden, tuple(self._exps), tuple(self._nums), self._cden, self.trunc))

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """``(exponent, coefficient)`` pairs by strictly increasing exponent."""
        e, d = self._eden, self._cden
        return tuple((Fraction(k, e), Fraction(n, d)) for k, n in zip(self._exps, self._nums))

    @property
    def is_zero(self) -> bool:
        """True only for the exact zero element."""
        return not self._nums and self.trunc == INF

    def sign(self) -> Sign:
        if self._nums:
            return Sign.POSITIVE if self._nums[0] > 0 else Sign.NEGATIVE
        return Sign.ZERO if self.trunc == INF else Sign.INDETERMINATE

    def valuation(self) -> Order:
        """Least exponent of the support; ``inf`` for the exact zero."""
        if self._nums:
            return Fraction(self._exps[0], self._eden)
        if self.trunc == INF:
            return INF
        raise IndeterminateAtTruncation(
            f"valuation undecidable: zero modulo h^{self.trunc}"
        )

    def _val_or_inf(self) -> Order:
        # internal convention: empty support counts as valuation +inf
        return Fraction(self._exps[0], self._eden) if self._nums else INF

    def _lead(self) -> tuple[Fraction, Fraction]:
        return Fraction(self._exps[0], self._eden), Fraction(self._nums[0], self._cden)

    def coefficient(self, exponent: Rational) -> Fraction:
        exponent = Fraction(exponent)
        k, rest = divmod(exponent.numerator * self._eden, exponent.denominator)
        i = bisect_left(self._exps, k)
        if rest or i == len(self._exps) or self._exps[i] != k:
            return Fraction(0)
        return Fraction(self._nums[i], self._cden)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Series":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # the exact zero is the additive identity; a truncated zero is not
        if not other._nums and other.trunc == INF:
            return self
        if not self._nums and self.trunc == INF:
            return other
        trunc = min(self.trunc, other.trunc)
        ea, eb, da, db = self._eden, other._eden, self._cden, other._cden
        e = ea if ea == eb else lcm(ea, eb)
        d = da if da == db else lcm(da, db)
        acc = dict(zip(_scaled(self._exps, e // ea), _scaled(self._nums, d // da)))
        for k, n in zip(_scaled(other._exps, e // eb), _scaled(other._nums, d // db)):
            s = acc.get(k)
            acc[k] = n if s is None else s + n
        cut = INF if trunc == INF else _cut(trunc, e)
        keys = sorted(k for k, n in acc.items() if n and k < cut)
        return _canonical(e, keys, [acc[k] for k in keys], d, trunc)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series(self._eden, self._exps, [-n for n in self._nums], self._cden, self.trunc)

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
        if not isinstance(other, Series):
            if isinstance(other, (int, Fraction)):
                return self._scale(other)
            return NotImplemented
        if not self._nums or not other._nums:
            # the exact zero times anything, a truncated element too, is the exact zero
            if self.trunc == INF and not self._nums or other.trunc == INF and not other._nums:
                return ZERO
            return _zero(_product_trunc(self, other))
        trunc = _product_trunc(self, other)
        ea, eb = self._eden, other._eden
        e = ea if ea == eb else lcm(ea, eb)
        ka = _scaled(self._exps, e // ea)
        xb = list(zip(_scaled(other._exps, e // eb), other._nums))
        # exponents k with k / e < trunc are kept; an exact product keeps all
        cut = ka[-1] + xb[-1][0] + 1 if trunc == INF else _cut(trunc, e)
        acc: dict[int, int] = {}
        for k1, n1 in zip(ka, self._nums):
            lim = cut - k1
            for k2, n2 in xb:
                if k2 >= lim:
                    break
                k = k1 + k2
                acc[k] = acc.get(k, 0) + n1 * n2
        keys = sorted(k for k, n in acc.items() if n)
        return _canonical(e, keys, [acc[k] for k in keys], self._cden * other._cden, trunc)

    __rmul__ = __mul__

    def _scale(self, q: Rational) -> "Series":
        """Product with the exact constant q, without building a series for it."""
        if not q:
            return ZERO
        n = q.numerator
        return _canonical(
            self._eden, self._exps, [x * n for x in self._nums], self._cden * q.denominator, self.trunc
        )

    def _monomial_mul(self, k: int, eden: int, num: int, cden: int) -> "Series":
        """Product with the exact monomial ``(num / cden) h^(k / eden)``."""
        trunc = self.trunc
        if trunc != INF:
            trunc = trunc + Fraction(k, eden)
        e = self._eden if self._eden == eden else lcm(self._eden, eden)
        shift = k * (e // eden)
        exps = [x + shift for x in _scaled(self._exps, e // self._eden)]
        return _canonical(e, exps, [x * num for x in self._nums], self._cden * cden, trunc)

    def __truediv__(self, other) -> "Series":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._nums:
            if other.trunc == INF:
                raise ZeroDivisionError("series division by exact zero")
            raise IndeterminateAtTruncation(
                f"division by element that is zero modulo h^{other.trunc}"
            )
        if len(other._nums) == 1 and other.trunc == INF:
            # times (d / n) h^(-k / E), the sign moved into the numerator
            n, d = other._nums[0], other._cden
            if n < 0:
                n, d = -n, -d
            return self._monomial_mul(-other._exps[0], other._eden, d, n)
        if other.trunc != INF:
            return self * other.inv()
        if self.trunc == INF:
            return exact_div(self, other)
        if not self._nums:
            return _zero(self.trunc - other._val_or_inf())
        # the quotient is known to h^(T - val(other)); so is this product
        return self * other.inv(self.trunc - self._val_or_inf())

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
        if not self._nums:
            if self.trunc == INF:
                raise ZeroDivisionError("inverse of exact zero")
            raise IndeterminateAtTruncation(
                f"inverse of element that is zero modulo h^{self.trunc}"
            )
        g0, c0 = self._lead()
        lead_inv = _monomial(-g0, 1 / c0)
        if len(self._nums) == 1 and self.trunc == INF:
            return lead_inv
        window = self.trunc - g0 if self.trunc != INF else _required_order(order, "inverse")
        # self = c0 h^g0 (1 + u) with val(u) > 0; invert the (1 + u) factor.
        # Terms at or above the window never influence the kept part, so the
        # running power is truncated each step to keep supports small.
        neg_u = (ONE - self * lead_inv).truncate(window)
        acc = ZERO
        p = ONE
        while p._nums and p._val_or_inf() < window:
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
        g0, c0 = self._lead()
        rn, rd = isqrt(c0.numerator), isqrt(c0.denominator)
        if rn * rn != c0.numerator or rd * rd != c0.denominator:
            raise IrrationalLeadingCoefficient(
                f"leading coefficient {c0} is not a rational square"
            )
        lead = _monomial(g0 / 2, Fraction(rn, rd))
        if len(self._nums) == 1 and self.trunc == INF:
            return lead
        target = self.trunc if self.trunc != INF else g0 + _required_order(order, "square root")
        window = target - g0  # precision needed for the (1 + u)^(1/2) factor
        u = (self * _monomial(-g0, 1 / c0) - ONE).truncate(window)
        acc = ZERO
        p = ONE
        coeff = Fraction(1)  # binomial(1/2, k)
        k = 0
        while p._nums and p._val_or_inf() < window:
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
        n = bisect_left(self._exps, _cut(trunc, self._eden))
        return _canonical(self._eden, self._exps[:n], self._nums[:n], self._cden, trunc)

    def shift(self, exponent: Rational) -> "Series":
        """Multiply by the exact monomial h^exponent."""
        exponent = Fraction(exponent)
        return self._monomial_mul(exponent.numerator, exponent.denominator, 1, 1)

    # -- printing ----------------------------------------------------------

    def literal(self) -> str:
        """Canonical literal, parseable by :func:`dq.parsing.parse_series`."""
        if not self._nums:
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


def _scaled(xs, factor: int):
    return xs if factor == 1 else [x * factor for x in xs]


def _cut(trunc: Fraction, eden: int) -> int:
    """ceil(trunc * eden): ``k / eden < trunc`` exactly when ``k < _cut``."""
    return -(-trunc.numerator * eden // trunc.denominator)


def _zero(trunc: Order) -> Series:
    """Empty support: the exact zero, or zero modulo h^trunc."""
    return Series(1, [], [], 1, trunc)


def _canonical(eden: int, exps: list[int], nums: list[int], cden: int, trunc: Order) -> Series:
    """The canonical Series of aligned exponent and nonzero coefficient
    numerators (exponents strictly increasing, ``cden > 0``); the lists are
    stored, not copied."""
    if not nums:
        return _zero(trunc)
    g = gcd(cden, *nums)
    if g != 1:
        cden //= g
        nums = [n // g for n in nums]
    g = gcd(eden, *exps)
    if g != 1:
        eden //= g
        exps = [k // g for k in exps]
    return Series(eden, exps, nums, cden, trunc)


def _monomial(exponent: Fraction, coefficient: Fraction) -> Series:
    """The exact monomial coefficient * h^exponent, coefficient nonzero."""
    return Series(
        exponent.denominator, [exponent.numerator], [coefficient.numerator], coefficient.denominator
    )


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
        return Series(1, [0], [int(value.numerator)], int(value.denominator))
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
        if e < trunc:
            s = acc.get(e)
            acc[e] = c if s is None else s + c
    pairs = [(e, c) for e, c in acc.items() if c]
    if not pairs:
        return _zero(trunc)
    # over the lcm of reduced denominators the numerators share no factor
    # with it, so this form is already canonical
    eden = lcm(*(e.denominator for e, _ in pairs))
    cden = lcm(*(c.denominator for _, c in pairs))
    grid = sorted(
        (e.numerator * (eden // e.denominator), c.numerator * (cden // c.denominator))
        for e, c in pairs
    )
    return Series(eden, [k for k, _ in grid], [n for _, n in grid], cden, trunc)


def rational(value: Rational) -> Series:
    """The constant series with the given rational value."""
    return series([(0, value)])


def h(exponent: Rational = 1, coefficient: Rational = 1) -> Series:
    """The exact monomial coefficient * h^exponent."""
    return series([(exponent, coefficient)])


ZERO = _zero(INF)
ONE = Series(1, [0], [1], 1)
HBAR = Series(1, [1], [1], 1)


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
        if x.re._nums or x.im._nums:
            return False
    elif x._nums:
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

    Integer pseudo-division from the low end on the common exponent grid.
    The remainder is a dict of integer numerators standing for
    ``remainder / s``.  Only when b's leading numerator b0 does not divide
    the leading remainder numerator r are both scaled by
    ``|b0| / gcd(r, b0)``; each quotient numerator keeps the s it was taken
    at and is brought to the final s once, at the end.  The quotient's top
    exponent cannot exceed ``deg(a) - deg(b)`` (top terms of a product never
    cancel), which bounds the loop and detects inexactness early.
    """
    if a.trunc != INF or b.trunc != INF:
        raise InexactDivision("exact_div needs exact operands")
    if not b._nums:
        raise ZeroDivisionError("series division by exact zero")
    if not a._nums:
        return ZERO
    e = lcm(a._eden, b._eden)
    ka, kb = _scaled(a._exps, e // a._eden), _scaled(b._exps, e // b._eden)
    top = ka[-1] - kb[-1]
    b0 = b._nums[0]
    tail = list(zip(kb[1:], b._nums[1:]))
    rem = dict(zip(ka, a._nums))
    scale = 1
    out: list[tuple[int, int, int]] = []  # (exponent, numerator, its scale)
    while rem:
        k0 = min(rem)
        r = rem.pop(k0)
        if not r:
            continue  # a cancelled term
        k = k0 - kb[0]
        if k > top:
            raise InexactDivision(f"{a!r} is not divisible by {b!r}")
        if r % b0:
            m = abs(b0) // gcd(r, b0)
            scale *= m
            r *= m
            rem = {x: n * m for x, n in rem.items()}
        c = r // b0
        out.append((k, c, scale))
        for x, n in tail:
            rem[x + k] = rem.get(x + k, 0) - c * n
    # a / b = (A / B) (D_b / D_a) for the integer numerators A and B
    nums = [c * (scale // s) * b._cden for _, c, s in out]
    return _canonical(e, [k for k, _, _ in out], nums, scale * a._cden, INF)


def agree_mod_trunc(a: Series, b: Series) -> bool:
    """Do the stored terms agree below the common truncation order?"""
    w = min(a.trunc, b.trunc)
    # both cut to the same order, canonical forms agree exactly when the terms do
    return a.truncate(w) == b.truncate(w)


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
