"""Determinants, congruence reduction, definiteness, and the determinant
inequalities for non-negative hermitian forms."""

import random
from fractions import Fraction as F
from itertools import product

import pytest
import sympy as sp
from sympy.polys.matrices import DomainMatrix

import dq.linalg
from dq.errors import (
    DimensionTooSmall,
    HermitianViolation,
    IndeterminateAtTruncation,
    PreconditionViolated,
)
from dq.linalg import (
    Definiteness,
    Relation,
    check_form_determinant_bound,
    check_hadamard_chain,
    check_robertson,
    check_trace_bounds,
    congruence_diagonalize,
    determinant,
    gram_form,
    hermitian_form,
    hermitian_quadratic,
    inequality,
    is_nonneg_definite,
    kernel,
    split,
)
from dq.proptests import classify_gram, rand_gram
from dq.series import (
    HBAR,
    I_UNIT,
    INF,
    ComplexSeries,
    ONE,
    Sign,
    ZERO,
    h,
    rational,
    series,
)

I1 = I_UNIT
BLUR = series({}, trunc=4)


def cofactor_det(m):
    """Brute-force determinant oracle by first-row expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum_entries(a[i][r] * b[r][j] for r in range(k)) for j in range(m)]
        for i in range(n)
    ]


def sum_entries(items):
    total = None
    for x in items:
        total = x if total is None else total + x
    return total


def transpose(a):
    return [list(col) for col in zip(*a)]


def rationals(rows):
    """A matrix of constant series from rational entries."""
    return [[rational(x) for x in row] for row in rows]


class TestDeterminant:
    def test_identity(self):
        m = [[rational(1) if i == j else ZERO for j in range(4)] for i in range(4)]
        assert determinant(m) == ONE

    def test_skew_2x2(self):
        assert determinant(rationals([[0, 1], [-1, 0]])) == ONE

    def test_matches_cofactor_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            m = rationals(
                [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)] for _ in range(4)]
            )
            assert determinant(m) == cofactor_det(m)

    def test_series_matches_cofactor_oracle(self):
        rng = random.Random(12)
        for _ in range(10):
            m = [
                [
                    series([(0, rng.randint(-3, 3)), (1, rng.randint(-2, 2))])
                    for _ in range(3)
                ]
                for _ in range(3)
            ]
            assert determinant(m) == cofactor_det(m)

    def test_multiplicative(self):
        rng = random.Random(13)
        for _ in range(10):
            a = rationals([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
            b = rationals([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
            assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)

    def test_exact_singular_gives_exact_zero(self):
        m = [[ONE, HBAR], [ONE + ONE, HBAR + HBAR]]
        det = determinant(m)
        assert det.is_zero

    # each is given an entry that is zero modulo h^4, so neither zero nor
    # nonzero is decidable
    @pytest.mark.parametrize(
        "decide",
        [
            lambda: determinant([[BLUR, ONE], [BLUR, ONE + HBAR]]),
            lambda: kernel([[BLUR, ONE], [BLUR, ONE + HBAR]]),
            lambda: congruence_diagonalize([[BLUR, ONE], [ONE, ONE]]),
            lambda: hermitian_form([[ONE, BLUR], [ZERO, ONE]]),
            lambda: inequality(ONE + BLUR, ONE),
        ],
        ids=["determinant", "kernel", "congruence_diagonalize", "hermitian_form", "inequality"],
    )
    def test_indeterminate_pivot_raises(self, decide):
        with pytest.raises(IndeterminateAtTruncation):
            decide()


class TestCongruence:
    def test_textbook_example(self):
        d, diag = congruence_diagonalize(rationals([[2, 1], [1, 2]]))
        assert diag == (rational(2), rational(6))
        assert d == tuple(map(tuple, rationals([[1, -1], [0, 2]])))

    def test_diagonal_input_untouched(self):
        d, diag = congruence_diagonalize(rationals([[3, 0], [0, -2]]))
        assert diag == (rational(3), rational(-18))
        assert d == tuple(map(tuple, rationals([[1, 0], [0, 3]])))

    def test_hyperbolic_split(self):
        s = rationals([[0, 1], [1, 0]])
        d, diag = congruence_diagonalize(s)
        assert diag == (rational(2), rational(-2))
        assert d == tuple(map(tuple, rationals([[1, -1], [1, 1]])))
        dt_s_d = mat_mul(transpose(d), mat_mul(s, [list(r) for r in d]))
        assert dt_s_d == rationals([[2, 0], [0, -2]])
        # the folded pair (1, 2) starts past k = 0 and is swapped into place
        s = rationals([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        d, diag = congruence_diagonalize(s)
        assert diag == (rational(2), rational(-2), ZERO)
        dt_s_d = mat_mul(transpose(d), mat_mul(s, [list(r) for r in d]))
        assert dt_s_d == rationals([[2, 0, 0], [0, -2, 0], [0, 0, 0]])
        assert is_nonneg_definite(hermitian_form(s))[0] is Definiteness.INDEFINITE

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_postcondition_random(self, seed):
        # oracle: explicit multiplication D^T S D reproduces the diagonal
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        half = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        s = rationals([[half[i][j] + half[j][i] for j in range(n)] for i in range(n)])
        d, diag = congruence_diagonalize(s)
        got = mat_mul(transpose(d), mat_mul(s, [list(r) for r in d]))
        for i in range(n):
            for j in range(n):
                assert got[i][j] == (diag[i] if i == j else ZERO)
        # det(S) det(D)^2 equals the product of diagonal entries
        prod = ONE
        for x in diag:
            prod *= x
        det_d = determinant(d)
        assert determinant(s) * det_d * det_d == prod

    def test_series_entries(self):
        s = [[h(1), h(1, F(1, 2))], [h(1, F(1, 2)), h(1)]]
        d, diag = congruence_diagonalize(s)
        got = mat_mul(transpose(d), mat_mul(s, [list(r) for r in d]))
        for i in range(2):
            for j in range(2):
                if i == j:
                    assert got[i][j] == diag[i]
                else:
                    assert not got[i][j].terms


class TestDefiniteness:
    def grid_classify(self, form):
        """Oracle: evaluate the form on all small complex integer vectors."""
        n = form.n
        values = []
        coords = [-1, 0, 1]
        for parts in product(coords, repeat=2 * n):
            v = [
                ComplexSeries(rational(parts[2 * j]), rational(parts[2 * j + 1]))
                for j in range(n)
            ]
            if all(entry.is_zero for entry in v):
                continue
            values.append(hermitian_quadratic(form, v).re.sign())
        if Sign.NEGATIVE in values:
            return Definiteness.INDEFINITE
        if Sign.ZERO in values:
            return Definiteness.NONNEG_DEFINITE
        return Definiteness.POSITIVE_DEFINITE

    def test_nonneg_with_null_vector(self):
        form = hermitian_form([[1, I1], [-I1, 1]])
        cls, witness = is_nonneg_definite(form)
        assert cls is Definiteness.NONNEG_DEFINITE and witness is None
        assert self.grid_classify(form) is Definiteness.NONNEG_DEFINITE

    def test_positive_definite(self):
        form = hermitian_form([[1, I1], [-I1, 2]])
        assert is_nonneg_definite(form)[0] is Definiteness.POSITIVE_DEFINITE
        assert self.grid_classify(form) is Definiteness.POSITIVE_DEFINITE

    def test_indefinite_with_witness(self):
        form = hermitian_form([[1, 2 * I1], [-2 * I1, 1]])
        cls, witness = is_nonneg_definite(form)
        assert cls is Definiteness.INDEFINITE
        value = hermitian_quadratic(form, witness)
        assert value.re.sign() is Sign.NEGATIVE and not value.im.terms
        assert self.grid_classify(form) is Definiteness.INDEFINITE

    def test_classifies_without_the_transform(self, monkeypatch):
        # the inertia of a non-negative form is read without building D
        def refuse(matrix):
            raise AssertionError("congruence transform built for a non-negative form")

        monkeypatch.setattr(dq.linalg, "congruence_diagonalize", refuse)
        pd = hermitian_form([[1, I1], [-I1, 2]])
        singular = hermitian_form([[1, I1, ZERO], [-I1, 1, ZERO], [ZERO, ZERO, HBAR]])
        assert is_nonneg_definite(pd) == (Definiteness.POSITIVE_DEFINITE, None)
        assert is_nonneg_definite(singular) == (Definiteness.NONNEG_DEFINITE, None)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_witness_is_the_transform_column(self, seed):
        # the witness is column j of D, j the first negative entry of diag
        rng = random.Random(seed)
        indefinite = 0
        for trial in range(9):
            n = 2 + trial % 3
            m = rand_matrix(rng, n, n, complex_entries=True)
            form = hermitian_form([[m[j][k] + m[k][j].conj() for k in range(n)] for j in range(n)])
            cls, witness = is_nonneg_definite(form)
            if cls is not Definiteness.INDEFINITE:
                continue
            indefinite += 1
            d, diag = congruence_diagonalize(form.entries)
            j = next(i for i, x in enumerate(diag) if x.re.sign() is Sign.NEGATIVE)
            assert witness == tuple(row[j] for row in d)
        assert indefinite >= 3

    def test_gram_forms_never_indefinite(self):
        rng = random.Random(5)
        for t in range(40):
            n = 2 + t % 2
            scalar = ("rational", "series")[t % 2]
            form = rand_gram(rng, n, scalar, singular=t % 5 == 4)
            cls, _ = is_nonneg_definite(form)
            assert cls is not Definiteness.INDEFINITE
            assert cls is classify_gram(form)

    def test_hermitian_violation(self):
        with pytest.raises(HermitianViolation):
            hermitian_form([[1, I1], [I1, 1]])
        with pytest.raises(HermitianViolation):
            hermitian_form([[I1, ZERO], [ZERO, 1]])


def _classified(rows):
    """A hermitian form and its class, the arguments of the check_* functions."""
    form = hermitian_form(rows)
    return form, is_nonneg_definite(form)[0]


class TestRobertson:
    def test_strict_example(self):
        rep = check_robertson(*_classified([[1, I1], [-I1, 2]]))
        assert rep.relation is Relation.STRICTLY_GREATER
        assert rep.lhs == rational(2) and rep.rhs == ONE

    def test_equality_example(self):
        rep = check_robertson(*_classified([[1, I1], [-I1, 1]]))
        assert rep.relation is Relation.EQUAL

    def test_series_example(self):
        half = h(1, F(1, 2))
        form = hermitian_form(
            [[HBAR, ComplexSeries(ZERO, half)], [ComplexSeries(ZERO, -half), HBAR]]
        )
        rep = check_robertson(form, is_nonneg_definite(form)[0])
        assert rep.relation is Relation.STRICTLY_GREATER
        assert rep.lhs == h(2) and rep.rhs == h(2, F(1, 4))

    def test_rejects_indefinite(self):
        with pytest.raises(PreconditionViolated):
            check_robertson(*_classified([[1, 2 * I1], [-2 * I1, 1]]))

    def test_requires_the_class(self):
        with pytest.raises(TypeError):
            check_robertson(hermitian_form([[1, I1], [-I1, 2]]), None)


class TestFormDeterminantBound:
    def test_example(self):
        rep = check_form_determinant_bound(*_classified([[1, I1], [-I1, 2]]))
        assert rep.relation is Relation.STRICTLY_GREATER
        assert rep.lhs == rational(2) and rep.rhs == ONE

    def test_real_symmetric_equal(self):
        rep = check_form_determinant_bound(*_classified([[2, 1], [1, 2]]))
        assert rep.relation is Relation.EQUAL

    def test_gram_generated(self):
        rng = random.Random(7)
        for _ in range(15):
            form = rand_gram(rng, 3, "rational")
            rep = check_form_determinant_bound(form, classify_gram(form))
            assert rep.relation in (Relation.STRICTLY_GREATER, Relation.EQUAL)


class TestHadamardChain:
    def test_diagonal_form_collapses(self):
        rep = check_hadamard_chain(*_classified([[1, ZERO], [ZERO, 2]]))
        assert rep.product_vs_cov.relation is Relation.EQUAL
        assert rep.cov_vs_form.relation is Relation.EQUAL
        assert rep.diagonal_equality_ok

    def test_null_direction_example(self):
        rep = check_hadamard_chain(*_classified([[1, I1], [-I1, 1]]))
        assert rep.product_vs_cov.relation is Relation.EQUAL
        assert rep.cov_vs_skew.relation is Relation.EQUAL
        assert rep.skew_equality_ok

    def test_random_series_forms(self):
        rng = random.Random(8)
        for _ in range(10):
            form = rand_gram(rng, 4, "series")
            rep = check_hadamard_chain(form, classify_gram(form))
            for link in (rep.product_vs_cov, rep.cov_vs_form, rep.cov_vs_skew):
                assert link.relation in (Relation.STRICTLY_GREATER, Relation.EQUAL)
            assert rep.diagonal_equality_ok and rep.skew_equality_ok


class TestTraceBounds:
    def test_saturated_example(self):
        general, pairing = check_trace_bounds(*_classified([[1, I1], [-I1, 1]]))
        assert general.relation is Relation.EQUAL
        assert general.lhs == rational(2) and general.rhs == rational(2)
        assert pairing.relation is Relation.EQUAL

    def test_series_example(self):
        half = h(1, F(1, 2))
        form = hermitian_form(
            [[HBAR, ComplexSeries(ZERO, half)], [ComplexSeries(ZERO, -half), HBAR]]
        )
        general, _ = check_trace_bounds(form, is_nonneg_definite(form)[0])
        assert general.relation is Relation.STRICTLY_GREATER
        assert general.lhs == h(2, 1) * rational(2) / HBAR  # 2h
        assert general.rhs == HBAR

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooSmall):
            check_trace_bounds(*_classified([[1]]))

    def test_random_nonneg(self):
        rng = random.Random(9)
        for n in (2, 3, 4):
            form = rand_gram(rng, n, "rational")
            general, pairing = check_trace_bounds(form, classify_gram(form))
            assert general.relation in (Relation.STRICTLY_GREATER, Relation.EQUAL)
            if pairing is not None:
                assert pairing.relation in (Relation.STRICTLY_GREATER, Relation.EQUAL)


class TestKernel:
    def test_rank_one(self):
        assert kernel(rationals([[1, 1], [1, 1]])) == [(ONE, -ONE)]

    def test_full_rank_empty(self):
        assert kernel([[rational(1), ZERO], [ZERO, rational(1)]]) == []

    def test_series_fixture(self):
        half = h(1, F(1, 2))
        m = [[half, ZERO, half], [ZERO, half, half], [half, half, HBAR]]
        assert kernel(m) == [(ONE, ONE, -ONE)]

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(10)
        g = rationals([[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)])
        m = mat_mul(transpose(g), g)  # rank <= 2, symmetric
        for vec in kernel(m):
            image = [sum_entries(m[i][j] * vec[j] for j in range(4)) for i in range(4)]
            assert all(x == ZERO for x in image)


T = sp.Symbol("t", positive=True)


def to_sympy(x):
    """An exact dq scalar as a polynomial in t, with h = t^2."""
    if isinstance(x, ComplexSeries):
        return to_sympy(x.re) + sp.I * to_sympy(x.im)
    assert x.trunc == INF, f"inexact {x!r}"
    out = sp.Integer(0)
    for e, c in x.terms:
        assert (2 * e).denominator == 1, f"exponent {e} off the half-integer grid"
        out += sp.Rational(c.numerator, c.denominator) * T ** int(2 * e)
    return out


def sympy_matrix(m):
    return sp.Matrix([[to_sympy(x) for x in row] for row in m])


def rand_entry(rng, complex_entries: bool):
    """An exact series with exponents in {0, 1/2, 1, 2}, or a pair of them."""
    exps = (0, F(1, 2), 1, 2)

    def part():
        return series([(rng.choice(exps), rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))])

    return ComplexSeries(part(), part()) if complex_entries else part()


def rand_matrix(rng, rows, cols, complex_entries=False):
    return [[rand_entry(rng, complex_entries) for _ in range(cols)] for _ in range(rows)]


def lowest_coefficient(expr):
    """Coefficient of the lowest power of t in a nonzero polynomial."""
    return sp.Poly(sp.expand(expr), T).terms()[-1][1]


class TestSympyOracles:
    """Elimination over series checked against sympy over Q(h), h = t^2."""

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_determinant(self, complex_entries):
        rng = random.Random(21 + complex_entries)
        for trial in range(12):
            n = 2 + trial % 3
            m = rand_matrix(rng, n, n, complex_entries)
            if trial % 4 == 3:  # an exactly singular matrix
                m[-1] = [sum_entries(x * c for x, c in zip(col, (ONE + HBAR, h(F(1, 2)))))
                         for col in zip(m[0], m[1])]
            got = determinant(m)
            want = sp.expand(sympy_matrix(m).det(method="berkowitz"))
            assert sp.expand(to_sympy(got) - want) == 0
            if want == 0:
                assert got.is_zero

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_kernel(self, complex_entries):
        rng = random.Random(31 + complex_entries)
        for trial in range(10):
            rows, cols, rank = ((3, 3, 2), (3, 4, 2), (4, 4, 2), (4, 3, 1), (2, 4, 2))[trial % 5]
            m = mat_mul(rand_matrix(rng, rows, rank, complex_entries),
                        rand_matrix(rng, rank, cols, complex_entries))
            sm = DomainMatrix.from_Matrix(sympy_matrix(m))
            basis = kernel(m)
            assert len(basis) == cols - sm.to_field().rank()
            for vec in basis:
                sv = DomainMatrix.from_Matrix(sympy_matrix([vec]).T)
                assert not sv.is_zero_matrix
                assert (sm * sv).is_zero_matrix

    def test_kernel_fraction_free_when_lead_one_is_inexact(self):
        # the null vector (1 + h, -1) has no lead-1 scaling among polynomials
        m = [[ONE, ONE + HBAR], [ONE, ONE + HBAR]]
        assert kernel(m) == [(-(ONE + HBAR), ONE)]

    def test_gram_form_class(self):
        rng = random.Random(41)
        forms = [rand_gram(rng, 2 + t % 2, "series", singular=t % 2 == 1) for t in range(12)]
        forms.append(rand_gram(random.Random(1), 3, "series", singular=True))
        seen = set()
        for form in forms:
            det_phi = sp.expand(sympy_matrix(form.entries).det(method="berkowitz"))
            cls, witness = is_nonneg_definite(form)
            assert witness is None
            want = Definiteness.POSITIVE_DEFINITE if det_phi != 0 else Definiteness.NONNEG_DEFINITE
            assert cls is want
            seen.add(cls)
        assert len(seen) == 2

    @pytest.mark.parametrize("scale", [ONE, HBAR])
    def test_imaginary_hyperbolic_pair_is_indefinite(self, scale):
        form = hermitian_form([[ZERO, I1 * scale], [-I1 * scale, ZERO]])
        cls, witness = is_nonneg_definite(form)
        assert cls is Definiteness.INDEFINITE
        s = sympy_matrix(form.entries)
        v = sp.Matrix([to_sympy(x) for x in witness])
        value = sp.expand((v.H * s * v)[0])
        assert sp.expand(sp.im(value)) == 0
        assert lowest_coefficient(value) < 0
        # the folded pair (1, 2) starts past k = 0 and is swapped into place
        form = hermitian_form([[ZERO, ZERO, ZERO], [ZERO, ZERO, I1 * scale], [ZERO, -I1 * scale, ZERO]])
        assert is_nonneg_definite(form)[0] is Definiteness.INDEFINITE
        d, diag = congruence_diagonalize(form.entries)
        s2 = scale * scale
        assert diag == (ComplexSeries(2 * s2), ComplexSeries(-2 * s2 * s2), ComplexSeries())
        dm = sympy_matrix(d)
        got = (dm.H * sympy_matrix(form.entries) * dm).applyfunc(sp.expand)
        assert got == sp.diag(*(to_sympy(x) for x in diag))


class TestMatrixJson:
    def test_split_reconstructs(self):
        form = hermitian_form([[2, 1 + I1], [1 - I1, 3]])
        a, b = split(form)
        for j in range(2):
            for k in range(2):
                assert ComplexSeries(a[j][k], b[j][k]) == form.entries[j][k]
