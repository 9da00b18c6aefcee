"""Sparse polynomial observables on flat phase space and their star algebra.

An observable is a finite sum of monomials ``q1^a1..qd^ad * p1^b1..pd^bd``
with coefficients in the complexified series field.  The star product is
the Weyl-ordered (Moyal) product

    f * g = sum_k (1/k!) (i h / 2)^k P_k(f, g)

with ``P_k`` the k-fold Poisson bidifferential; on polynomials the sum
terminates, so every product here is exact.  The bracket
``(f*g - g*f)/(i h)`` deforms the Poisson bracket and agrees with it
whenever one argument is at most quadratic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import DimensionMismatch, NotReal
from .series import (
    C_ONE, ComplexSeries, ZERO, _ccoerce, _mono_str, _signed_sum, as_complex, decide_zero,
    series,
)

#: q-exponents for dof 1..d, then p-exponents for dof 1..d
Monomial = tuple[int, ...]


class Observable:
    """Immutable sparse polynomial in the phase-space coordinates."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: dict[Monomial, ComplexSeries]):
        if d < 1:
            raise DimensionMismatch("need at least one degree of freedom")
        self.d = d
        self.terms = terms

    # -- inspection --------------------------------------------------------

    @property
    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    @property
    def is_real(self) -> bool:
        """Every coefficient has a zero imaginary part."""
        return all(decide_zero(c.im) for c in self.terms.values())

    def conj(self) -> "Observable":
        return Observable(self.d, {m: c.conj() for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Observable):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    __hash__ = None

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Observable):
            _check_same_d(self, other)
            return _collect(self.d, other.terms.items(), self.terms)
        scalar = _ccoerce(other)
        if scalar is NotImplemented:
            return NotImplemented
        return self + constant(self.d, scalar)

    __radd__ = __add__

    def __neg__(self):
        return Observable(self.d, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Observable) else -as_complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Pointwise (commutative) product, or scalar rescaling."""
        if isinstance(other, Observable):
            _check_same_d(self, other)
            return _collect(self.d, [
                (tuple(x + y for x, y in zip(m1, m2)), c1 * c2)
                for m1, c1 in self.terms.items()
                for m2, c2 in other.terms.items()
            ])
        scalar = _ccoerce(other)
        if scalar is NotImplemented:
            return NotImplemented
        return _collect(self.d, [(m, c * scalar) for m, c in self.terms.items()])

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = self if k else constant(self.d, C_ONE)
        for bit in bin(k)[3:]:  # square and multiply below the top bit
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def diff(self, kind: str, index: int) -> "Observable":
        """Exact partial derivative with respect to q<index> or p<index>."""
        slot = (index - 1) + (self.d if kind == "p" else 0)
        return _collect(self.d, [
            (m[:slot] + (m[slot] - 1,) + m[slot + 1 :], c * m[slot])
            for m, c in self.terms.items()
            if m[slot]
        ])

    # -- printing ----------------------------------------------------------

    def literal(self) -> str:
        """Canonical expression, parseable by ``parse_observable``.

        Raises ValueError when a coefficient carries a negative or
        fractional power of h, which the observable grammar cannot express.
        """
        flat = sorted(
            (sum(m), m, e, imag, coeff)
            for m, c in self.terms.items()
            for imag, part in ((False, c.re), (True, c.im))
            for e, coeff in part.terms
        )
        names = [f"q{j + 1}" for j in range(self.d)] + [f"p{j + 1}" for j in range(self.d)]
        terms = []
        for _, m, e, imag, coeff in flat:
            if e < 0 or e.denominator != 1:
                raise ValueError(f"h^{e} has no observable-grammar form")
            factors = [_mono_str(e), "i" if imag else ""]
            factors += [name if k == 1 else f"{name}^{k}" for name, k in zip(names, m) if k]
            terms.append((coeff, "*".join(filter(None, factors))))
        return _signed_sum(terms)

    def __repr__(self) -> str:
        try:
            return f"Observable[d={self.d}: {self.literal()}]"
        except ValueError:
            return f"Observable[d={self.d}: {len(self.terms)} terms]"


def _check_same_d(f: Observable, g: Observable):
    if f.d != g.d:
        raise DimensionMismatch(f"observables live on d={f.d} and d={g.d}")


def _collect(d: int, terms, start=()) -> Observable:
    """The observable that sums (monomial, coefficient) pairs onto the terms
    of ``start`` (a dict, for a sum), zero terms dropped."""
    acc: dict[Monomial, ComplexSeries] = dict(start)
    for m, c in terms:
        if m in acc:
            acc[m] += c
        else:
            acc[m] = c
    return Observable(d, {m: c for m, c in acc.items() if not c.is_zero})


def observable(d: int, terms: dict) -> Observable:
    """Normalized observable from {monomial: coefficient-like}."""
    pairs = []
    for m, c in terms.items():
        m = tuple(m)
        if len(m) != 2 * d or any(e < 0 for e in m):
            raise ValueError(f"bad monomial {m} for d={d}")
        pairs.append((m, as_complex(c)))
    return _collect(d, pairs)


def constant(d: int, value) -> Observable:
    c = as_complex(value)
    if c.is_zero:
        return Observable(d, {})
    return Observable(d, {(0,) * (2 * d): c})


def coordinate(d: int, kind: str, index: int) -> Observable:
    """The coordinate observable q<index> or p<index>."""
    if kind not in ("q", "p") or not 1 <= index <= d:
        raise ValueError(f"no coordinate {kind}{index} for d={d}")
    slot = (index - 1) + (d if kind == "p" else 0)
    mono = tuple(1 if i == slot else 0 for i in range(2 * d))
    return Observable(d, {mono: C_ONE})


def poisson(f: Observable, g: Observable) -> Observable:
    """Poisson bracket sum_j (df/dq_j dg/dp_j - df/dp_j dg/dq_j)."""
    _check_same_d(f, g)
    out = Observable(f.d, {})
    for j in range(1, f.d + 1):
        out = out + f.diff("q", j) * g.diff("p", j) - f.diff("p", j) * g.diff("q", j)
    return out


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


@lru_cache(maxsize=None)
def _star_1d(aq: int, ap: int, bq: int, bp: int):
    """Star product of single-dof monomials q^aq p^ap and q^bq p^bp.

    All derivative patterns at bidifferential level k land on the same
    output monomial, so the result has one term per k.
    """
    out = []
    for k in range(min(aq + ap, bq + bp), -1, -1):
        rat = Fraction(0)
        for r in range(max(0, k - min(ap, bq)), min(aq, bp, k) + 1):
            s = k - r
            rat += Fraction(
                (-1) ** s
                * _falling(aq, r)
                * _falling(bp, r)
                * _falling(ap, s)
                * _falling(bq, s),
                factorial(r) * factorial(s),
            )
        if rat == 0:
            continue
        re_sign, im_sign = _I_POWERS[k % 4]
        scale = rat / 2**k
        coeff = ComplexSeries(
            series([(k, re_sign * scale)]), series([(k, im_sign * scale)])
        )
        out.append(((aq + bq - k, ap + bp - k), coeff))
    return tuple(out)


def star(f: Observable, g: Observable) -> Observable:
    """Moyal star product; exact and finite on polynomials."""
    _check_same_d(f, g)
    d = f.d
    out = []
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            partials = [((), (), c1 * c2)]
            for j in range(d):
                table = _star_1d(m1[j], m1[d + j], m2[j], m2[d + j])
                partials = [
                    (qe + (eq,), pe + (ep,), coeff * tc)
                    for qe, pe, coeff in partials
                    for (eq, ep), tc in table
                ]
            out += [(qe + pe, coeff) for qe, pe, coeff in partials]
    return _collect(d, out)


def moyal_bracket(f: Observable, g: Observable) -> Observable:
    """Deformed bracket (f*g - g*f)/(i h).

    Division by i*h is exact in the series field (a shift of every
    h-exponent by -1), so no divisibility check is needed.
    """
    comm = star(f, g) - star(g, f)
    inv_ih = ComplexSeries(ZERO, series([(-1, -1)]))  # 1/(i h) = -i h^-1
    return _collect(comm.d, [(m, c * inv_ih) for m, c in comm.terms.items()])


def require_real(f: Observable, what: str = "observable") -> Observable:
    if not f.is_real:
        raise NotReal(f"{what} has a nonzero imaginary part")
    return f
