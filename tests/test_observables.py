"""Star product, Poisson/deformed brackets, and conjugation laws."""

import random
from fractions import Fraction as F
from math import comb

import pytest

from dq.errors import DimensionMismatch, NotReal
from dq.observables import (
    Observable,
    constant,
    coordinate,
    moyal_bracket,
    observable,
    poisson,
    require_real,
    star,
)
from dq.proptests import rand_complex_observable, rand_real_observable
from dq.series import ComplexSeries, HBAR, I_UNIT, ONE, ZERO, h, series

Q = coordinate(1, "q", 1)
P = coordinate(1, "p", 1)
IH_HALF = constant(1, ComplexSeries(im=h(1, F(1, 2))))


def _ih2_pow(k: int) -> ComplexSeries:
    """(i h / 2)^k as an exact complex coefficient."""
    re_u, im_u = [(1, 0), (0, 1), (-1, 0), (0, -1)][k % 4]
    mag = F(1, 2) ** k
    return ComplexSeries(series([(k, re_u * mag)]), series([(k, im_u * mag)]))


def star_bopp(f: Observable, g: Observable) -> Observable:
    """Independent star-product oracle via coordinate shifts.

    Replaces each q_j in f by q_j + (i h / 2) d/dp_j and each p_j by
    p_j - (i h / 2) d/dq_j acting to the right on g; a different route to
    the same product than the bidifferential tables in the implementation.
    """
    d = f.d
    total = Observable(d, {})
    for mono, coeff in f.terms.items():
        acc = g
        for j in range(d):
            aq, ap = mono[j], mono[d + j]
            new = Observable(d, {})
            for r in range(aq + 1):
                for s in range(ap + 1):
                    derived = acc
                    for _ in range(r):
                        derived = derived.diff("p", j + 1)
                    for _ in range(s):
                        derived = derived.diff("q", j + 1)
                    if not derived.terms and (r or s):
                        continue
                    lead = [0] * (2 * d)
                    lead[j] = aq - r
                    lead[d + j] = ap - s
                    factor = Observable(d, {tuple(lead): ComplexSeries(ONE)})
                    scalar = _ih2_pow(r + s) * (comb(aq, r) * comb(ap, s) * (-1) ** s)
                    new = new + factor * derived * scalar
            acc = new
        total = total + acc * coeff
    return total


class TestStarFixtures:
    def test_q_star_p(self):
        assert star(Q, P) == Q * P + IH_HALF

    def test_p_star_q(self):
        assert star(P, Q) == Q * P - IH_HALF

    def test_unit_law(self):
        f = Q**2 * P + Q
        one = constant(1, 1)
        assert star(f, one) == f
        assert star(one, f) == f

    def test_matches_bopp_oracle(self):
        rng = random.Random(21)
        for _ in range(15):
            d = rng.randint(1, 2)
            f = rand_real_observable(rng, d, max_degree=3)
            g = rand_real_observable(rng, d, max_degree=3)
            assert star(f, g) == star_bopp(f, g)

    def test_c0_is_pointwise_product(self):
        rng = random.Random(22)
        f = rand_complex_observable(rng, 2)
        g = rand_complex_observable(rng, 2)
        low = star(f, g) - f * g
        for c in low.terms.values():
            for part in (c.re, c.im):
                assert not part.terms or part.terms[0][0] >= 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            star(Q, coordinate(2, "q", 1))


class TestPoisson:
    def test_canonical_pair(self):
        assert poisson(Q, P) == constant(1, 1)

    def test_product_rule(self):
        assert poisson(Q**2, P**2) == Q * P * 4

    def test_antisymmetry(self):
        f = Q**3 + P * Q
        assert poisson(f, f) == Observable(1, {})


class TestMoyalBracket:
    def test_canonical_pair(self):
        assert moyal_bracket(Q, P) == constant(1, 1)

    def test_quadratics_reduce_to_poisson(self):
        assert moyal_bracket(Q**2, P**2) == Q * P * 4

    def test_cubic_correction_is_second_order(self):
        rng = random.Random(23)
        for _ in range(10):
            f = rand_complex_observable(rng, 1, max_degree=3)
            g = rand_complex_observable(rng, 1, max_degree=3)
            diff = moyal_bracket(f, g) - poisson(f, g)
            for c in diff.terms.values():
                for part in (c.re, c.im):
                    assert not part.terms or part.terms[0][0] >= 2

    def test_scaling_by_inverse_h_is_exact(self):
        # commutator coefficients sit at h^1; the bracket moves them to h^0
        br = moyal_bracket(Q, P)
        assert br.terms[(0, 0)] == ComplexSeries(ONE)


class TestConjugation:
    def test_coefficient_conjugation(self):
        f = Q + constant(1, I_UNIT) * P
        assert f.conj() == Q - constant(1, I_UNIT) * P

    def test_anti_homomorphism(self):
        assert star(Q, P).conj() == star(P.conj(), Q.conj())
        assert star(P, Q) == star(Q, P).conj()

    def test_real_fixed_point(self):
        f = Q**2 + P + constant(1, HBAR)
        assert f.conj() == f
        assert f.is_real

    def test_require_real(self):
        require_real(Q)
        with pytest.raises(NotReal):
            require_real(Q + constant(1, I_UNIT))


class TestAlgebraLaws:
    def test_associativity_random(self):
        rng = random.Random(24)
        for _ in range(10):
            d = rng.randint(1, 2)
            f = rand_complex_observable(rng, d)
            g = rand_complex_observable(rng, d)
            k = rand_complex_observable(rng, d)
            assert star(star(f, g), k) == star(f, star(g, k))

    def test_jacobi_random(self):
        rng = random.Random(25)
        for _ in range(6):
            f = rand_complex_observable(rng, 1, max_degree=3)
            g = rand_complex_observable(rng, 1, max_degree=3)
            k = rand_complex_observable(rng, 1, max_degree=3)
            total = (
                moyal_bracket(f, moyal_bracket(g, k))
                + moyal_bracket(g, moyal_bracket(k, f))
                + moyal_bracket(k, moyal_bracket(f, g))
            )
            assert not total.terms

    def test_scalar_coercion(self):
        f = Q * F(1, 2) + 1
        assert f.terms[(0, 0)] == ComplexSeries(ONE)
        assert f.terms[(1, 0)] == ComplexSeries(series([(0, F(1, 2))]))


def test_observable_normalization_drops_exact_zeros():
    f = observable(1, {(1, 0): ComplexSeries(ONE), (0, 1): ComplexSeries()})
    assert set(f.terms) == {(1, 0)}


def test_degree():
    assert (Q**2 * P).degree == 3
    assert Observable(1, {}).degree == 0


def test_power_edge_cases():
    f = Q + P
    assert f**0 == constant(1, ONE)
    assert f**1 == f
    assert (Q**1_000_000_000).degree == 1_000_000_000
