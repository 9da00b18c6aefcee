"""The series kernel against sympy, on seeded operands.

Operands have exponent denominators 1 to 6, and a square root halves
them, so h = t^120 turns every element into a Laurent polynomial in t with
integer exponents.  A
truncated operand stands for any element that agrees with its stored terms
below its truncation, so a result is checked only below its own
truncation, and that truncation against the order the operands support.
``inv`` and ``sqrt`` are checked through the equation that determines them
below the result's truncation (``a * r = 1``, ``r * r = a``); ``exact_div``
against ``sympy.cancel``.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
import sympy as sp

from dq.errors import InexactDivision
from dq.series import INF, exact_div, series

T = sp.Symbol("t", positive=True)
GRID = 120  # 2 * lcm(1, ..., 6)
SHIFT = 20 * GRID  # moves every exponent of the corpus above 0 for sp.Poly
TRIALS = 40


def _exponent(rng, lo=-1, hi=2):
    den = rng.randint(1, 6)
    return F(rng.randint(lo * den, hi * den), den)


def _coeff(rng):
    return F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))


def _operand(rng, truncated, positive=False):
    """Up to four terms; a truncation above the least exponent, or the
    leading coefficient a positive rational square."""
    pairs = [(_exponent(rng), _coeff(rng)) for _ in range(rng.randint(1, 4))]
    if positive:
        g0 = min(e for e, _ in pairs)
        lead = F(rng.choice([1, 4, 9, 16]), rng.choice([1, 4, 9]))
        pairs = [(g0, lead)] + [(e, c) for e, c in pairs if e > g0]
    if not truncated:
        return series(pairs)
    return series(pairs, min(e for e, _ in pairs) + F(rng.randint(1, 12), rng.randint(1, 6)))


def _sym(a) -> sp.Expr:
    return sp.Add(*(sp.Rational(c.numerator, c.denominator) * T ** _int(e * GRID) for e, c in a.terms))


def _int(x: F) -> int:
    assert x.denominator == 1, x
    return x.numerator


def _below(expr: sp.Expr, order) -> dict:
    """{exponent in h: coefficient} of a Laurent polynomial in t, below h^order."""
    if expr == 0:
        return {}
    poly = sp.Poly(sp.expand(expr * T**SHIFT), T)
    out = {}
    for (k,), c in poly.terms():
        e = F(k - SHIFT, GRID)
        if e < order:
            out[e] = F(int(c.p), int(c.q))
    return out


def _agrees(result, expr: sp.Expr) -> bool:
    got = dict(result.terms)
    return all(e < result.trunc for e in got) and got == _below(expr, result.trunc)


def _val(a):
    return a.terms[0][0] if a.terms else INF


def _product_order(a, b):
    if a.trunc == INF and b.trunc == INF:
        return INF
    return min(a.trunc + _val(b), b.trunc + _val(a), a.trunc + b.trunc)


def _pairs(seed):
    rng = random.Random(seed)
    blur = series({}, trunc=2)  # zero modulo h^2
    for trial in range(TRIALS):
        a, b = _operand(rng, rng.random() < 0.5), _operand(rng, rng.random() < 0.5)
        yield (a, blur) if trial % 10 == 9 else (a, b)


@pytest.mark.parametrize("seed", [0, 1])
def test_add_and_mul(seed):
    for a, b in _pairs(seed):
        s, p = a + b, a * b
        assert s.trunc == min(a.trunc, b.trunc) and _agrees(s, _sym(a) + _sym(b))
        assert p.trunc == _product_order(a, b) and _agrees(p, _sym(a) * _sym(b))
        assert _agrees(a - b, _sym(a) - _sym(b))


def _div_pairs(seed):
    """(numerator, divisor) pairs: a product or a sum of two drawn operands;
    products by a divisor whose integer numerators share a factor 2 to 6,
    so its lowest numerator is not +-1 and about half of them rescale;
    products with six to eight terms in the quotient; and the step-2 Bareiss
    minor of a symmetric 3 x 3 series form over its first pivot."""
    rng = random.Random(seed)
    for trial in range(TRIALS):
        a, b = _operand(rng, False), _operand(rng, False)
        yield (a * b if trial % 2 else a + b), b  # a sum is rarely divisible by b
    grid = [F(k, 6) for k in range(-6, 13)]
    for _ in range(TRIALS // 4):
        b = series((e, rng.randint(2, 6) * rng.choice([-1, 1])) for e in rng.sample(grid, 2))
        b = b * rng.randint(2, 6)
        yield _operand(rng, False) * b, b
        a = series((e, _coeff(rng)) for e in rng.sample(grid, rng.randint(6, 8)))
        yield a * b, b
        m = [[_operand(rng, False) for _ in range(3)] for _ in range(3)]
        m = [[m[min(j, k)][max(j, k)] for k in range(3)] for j in range(3)]
        m1 = [[m[0][0] * m[j][c] - m[j][0] * m[0][c] for c in (1, 2)] for j in (1, 2)]
        yield m1[0][0] * m1[1][1] - m1[1][0] * m1[0][1], m[0][0]


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_div(seed):
    for num, b in _div_pairs(seed):
        quotient = sp.cancel(_sym(num) / _sym(b))
        if len(sp.Poly(sp.fraction(quotient)[1], T).terms()) == 1:  # a Laurent polynomial
            q = exact_div(num, b)
            assert q.trunc == INF and _agrees(q, quotient)
        else:
            with pytest.raises(InexactDivision):
                exact_div(num, b)


@pytest.mark.parametrize("seed", [0, 1])
def test_inv(seed):
    rng = random.Random(seed)
    for trial in range(TRIALS):
        a = _operand(rng, trial % 2 == 0)
        order = F(rng.randint(1, 12), rng.randint(1, 6))
        r = a.inv(order) if a.trunc == INF and len(a.terms) > 1 else a.inv()
        g0 = _val(a)
        window = order if a.trunc == INF else a.trunc - g0
        assert r.trunc == (INF if a.trunc == INF and len(a.terms) == 1 else window - g0)
        assert all(e < r.trunc for e, _ in r.terms)
        # a * r = 1 below h^(trunc(r) + val(a)) determines r below trunc(r)
        assert _below(_sym(a) * _sym(r), r.trunc + g0) == {F(0): F(1)}


@pytest.mark.parametrize("seed", [0, 1])
def test_sqrt(seed):
    rng = random.Random(seed)
    for trial in range(TRIALS):
        a = _operand(rng, trial % 2 == 0, positive=True)
        order = F(rng.randint(1, 12), rng.randint(1, 6))
        r = a.sqrt(order) if a.trunc == INF and len(a.terms) > 1 else a.sqrt()
        g0 = _val(a)
        target = a.trunc if a.trunc != INF else g0 + order
        assert r.trunc == (INF if a.trunc == INF and len(a.terms) == 1 else target - g0 / 2)
        assert r.terms[0][1] > 0 and all(e < r.trunc for e, _ in r.terms)
        # r * r = a below h^(trunc(r) + val(a)/2) determines r below trunc(r)
        w = r.trunc + g0 / 2
        assert _below(_sym(r) ** 2, w) == _below(_sym(a), w)
