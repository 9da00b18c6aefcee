"""Exact linear algebra over the series field and its complexification.

Matrix entries are real series (:class:`dq.series.Series`) or complexified
series (:class:`dq.series.ComplexSeries`), used through ``+ - * /``.  Every
zero or sign decision comes from :func:`dq.series.decide_zero` and
:func:`dq.series.decide_sign`, which answer exactly or raise
IndeterminateAtTruncation.

One fraction-free (Bareiss) elimination step does all the elimination:
``determinant``, ``kernel`` and ``congruence_diagonalize`` differ only in
their pivot choice.  The step's update pivot * x - lead * y is one
:func:`dq.series.dot` before the exact division, and so are the sums of
products of ``kernel``'s back substitution, ``gram_form`` and
``hermitian_quadratic``.  Intermediate entries are minors of the input, so
for exact entries every division is exact, nothing is truncated, and an
exactly singular matrix yields an exact zero.  Hermitian congruence reduction
returns ``D`` with ``D^H S D`` diagonal; the inertia read off that diagonal
classifies hermitian forms without leaving the field.  The inertia test
builds ``D`` only for an indefinite form, whose witness is a column of it.

The check_* functions turn the determinant inequalities satisfied by
non-negative definite hermitian forms over any ordered field (det of the
real part dominating det of the form and det of the skew part, Hadamard
style products, trace bounds) into exact, reportable predicates.  Each
takes the form's class as :func:`is_nonneg_definite` returns it, so a
caller running several checks classifies the form once.  Every report of
the package, here and in :mod:`dq.uncertainty` and :mod:`dq.states`, is
built by :func:`inequality`, the one verdict constructor: its relation is
the sign of lhs - rhs.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import prod
from typing import NamedTuple

from .errors import (
    DimensionTooSmall,
    HermitianViolation,
    InexactDivision,
    InternalConsistencyError,
    PreconditionViolated,
)
from .series import (
    C_ONE,
    C_ZERO,
    ComplexSeries,
    ONE,
    Series,
    Sign,
    ZERO,
    as_complex,
    decide_sign,
    decide_zero,
    dot,
    exact_div,
)


def _units_like(sample):
    if isinstance(sample, Series):
        return ZERO, ONE
    if isinstance(sample, ComplexSeries):
        return C_ZERO, C_ONE
    raise TypeError(f"unsupported scalar {type(sample).__name__}")


def _require_square(matrix):
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    return n


# ---------------------------------------------------------------------------
# fraction-free elimination


def _bareiss_step(rows, k, start, pivot, leads, prev) -> None:
    """row_j <- (pivot * row_j - lead_j * row_k) / prev for the rows j after
    k, over the columns from ``start``; ``leads`` holds lead_j for each j.
    The numerator of each entry is one :func:`~dq.series.dot`.

    Entries stay minors of the input, so for exact entries the division by
    the previous pivot is exact and nothing truncates.
    """
    row_k = rows[k]
    width = range(start, len(row_k))
    divide = not (prev - 1).is_zero  # no division by an exact 1
    for row, lead in zip(rows[k + 1 :], leads):
        lead = -lead
        for c in width:
            x = dot(((pivot, row[c]), (lead, row_k[c])))
            row[c] = x / prev if divide else x


def _first_nonzero(entries):
    """Index of the first nonzero entry, None when every entry is zero."""
    return next((i for i, x in enumerate(entries) if not decide_zero(x)), None)


def determinant(matrix):
    """Exact determinant by fraction-free elimination with row pivoting.

    Raises IndeterminateAtTruncation when singularity cannot be decided at
    the stored truncation.
    """
    n = _require_square(matrix)
    a = [list(row) for row in matrix]
    zero, one = _units_like(a[0][0])
    prev = one
    flip = False
    for k in range(n - 1):
        piv = _first_nonzero(a[r][k] for r in range(k, n))
        if piv is None:
            return zero
        if piv:
            a[k], a[k + piv] = a[k + piv], a[k]
            flip = not flip
        pivot = a[k][k]
        _bareiss_step(a, k, k + 1, pivot, [a[j][k] for j in range(k + 1, n)], prev)
        prev = pivot
    det = a[n - 1][n - 1]
    return -det if flip else det


def kernel(matrix):
    """Basis of the null space, one vector per non-pivot column.

    A fraction-free echelon pass and fraction-free back substitution give
    each vector with the rank minor at its free column, so every entry is a
    minor of the input.  A vector is scaled to leading entry 1 when that
    division is exact; otherwise it is returned fraction-free.
    """
    rows = [list(row) for row in matrix]
    if not rows:
        return []
    ncols = len(rows[0])
    zero, one = _units_like(rows[0][0])
    pivots: list[int] = []
    prev = one
    for c in range(ncols):
        r = len(pivots)
        piv = _first_nonzero(row[c] for row in rows[r:])
        if piv is None:
            continue
        rows[r], rows[r + piv] = rows[r + piv], rows[r]
        pivot = rows[r][c]
        _bareiss_step(rows, r, c + 1, pivot, [row[c] for row in rows[r + 1 :]], prev)
        pivots.append(c)
        prev = pivot
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = prev
        for i in reversed(range(len(pivots))):
            row = rows[i]
            acc = dot((row[c], vec[c]) for c in pivots[i + 1 :] + [fc])
            vec[pivots[i]] = -acc / row[pivots[i]]
        basis.append(_lead_one(vec))
    return basis


def _lead_one(vec) -> tuple:
    """vec scaled to leading entry 1 if that division is exact, else vec."""
    lead = next(x for x in vec if not decide_zero(x))
    try:
        if isinstance(lead, Series):
            return tuple(exact_div(x, lead) for x in vec)
        den = lead.abs2()
        return tuple(
            ComplexSeries(exact_div(y.re, den), exact_div(y.im, den))
            for y in (x * lead.conj() for x in vec)
        )
    except InexactDivision:
        return tuple(vec)


def congruence_diagonalize(matrix):
    """Hermitian (or real symmetric) reduction: returns (D, diag) with
    D^H S D = diag(diag).

    Fraction-free: diag[k] = p_{k-1} p_k, the product of consecutive
    leading minors (p_{-1} = 1) of S after its repairs, and every entry of
    D is a minor, so exact input gives exact output.  Zero pivots are
    repaired by symmetric swaps to a nonzero diagonal entry, or, when the
    whole remaining diagonal vanishes, by the fold v = e_l + S[m][l] e_m
    of a nonzero off-diagonal entry, whose value is 2 |S[l][m]|^2.
    """
    dt, diag = _congruence(matrix, True)
    return tuple(zip(*dt)), diag


def _congruence(matrix, with_d: bool):
    """The reduction of :func:`congruence_diagonalize`: (columns of D, diag),
    with D built and updated only when ``with_d`` is true (else None)."""
    n = _require_square(matrix)
    a = [list(row) for row in matrix]
    zero, one = _units_like(a[0][0])
    dt = [[one if i == j else zero for j in range(n)] for i in range(n)] if with_d else None

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]
        if dt:
            dt[i], dt[j] = dt[j], dt[i]

    prev = one
    diag = [zero] * n
    for k in range(n):
        if decide_zero(a[k][k]):
            found = _first_nonzero(a[l][l] for l in range(k, n))
            if found is not None:
                swap(k, k + found)
            else:
                pairs = [(l, m) for l in range(k, n) for m in range(l + 1, n)]
                found = _first_nonzero(a[l][m] for l, m in pairs)
                if found is None:
                    break  # remaining block is exactly zero
                l, m = pairs[found]
                s, t = a[m][l], a[l][m]  # v = e_l + s e_m; t = conj(s), S hermitian
                a[l] = [x + t * y for x, y in zip(a[l], a[m])]
                for row in a:
                    row[l] = row[l] + s * row[m]
                if dt:
                    dt[l] = [x + s * y for x, y in zip(dt[l], dt[m])]
                if l != k:
                    swap(k, l)
        pivot = a[k][k]
        diag[k] = prev * pivot
        if dt:
            _bareiss_step(dt, k, 0, pivot, a[k][k + 1 :], prev)
        _bareiss_step(a, k, k + 1, pivot, [a[j][k] for j in range(k + 1, n)], prev)
        prev = pivot
    return dt, tuple(diag)


# ---------------------------------------------------------------------------
# hermitian forms


class HermitianForm(NamedTuple):
    """n x n matrix with entries conj-symmetric across the diagonal."""

    entries: tuple[tuple[ComplexSeries, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)


def hermitian_form(rows) -> HermitianForm:
    entries = tuple(tuple(as_complex(x) for x in row) for row in rows)
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise HermitianViolation("matrix must be square")
    for j in range(n):
        if not decide_zero(entries[j][j].im):
            raise HermitianViolation(f"diagonal entry {j} has an imaginary part")
        for k in range(j + 1, n):
            if not decide_zero(entries[j][k] - entries[k][j].conj()):
                raise HermitianViolation(f"entries ({j},{k}) and ({k},{j}) not conjugate")
    return HermitianForm(entries)


def split(form: HermitianForm):
    """(a, b): the symmetric real part and the skew imaginary part."""
    a = tuple(tuple(e.re for e in row) for row in form.entries)
    b = tuple(tuple(e.im for e in row) for row in form.entries)
    return a, b


def gram_form(rows) -> HermitianForm:
    """G^H G for any rectangular complex matrix G: non-negative by construction."""
    g = [[as_complex(x) for x in row] for row in rows]
    gh = [[x.conj() for x in row] for row in g]
    m, n = len(g), len(g[0])
    ent = [[dot((gh[r][j], g[r][k]) for r in range(m)) for k in range(n)] for j in range(n)]
    return hermitian_form(ent)


def hermitian_quadratic(form: HermitianForm, v) -> ComplexSeries:
    """The value of the form on v: sum_jk conj(v_j) phi_jk v_k."""
    v = [as_complex(x) for x in v]
    vh = [x.conj() for x in v]
    n = form.n
    return as_complex(dot((vh[j] * form.entries[j][k], v[k]) for j in range(n) for k in range(n)))


class Definiteness(Enum):
    POSITIVE_DEFINITE = "positive_definite"
    NONNEG_DEFINITE = "nonneg_definite"
    INDEFINITE = "indefinite"


def is_nonneg_definite(form: HermitianForm):
    """Classify the form; returns (Definiteness, witness-or-None).

    The inertia is read off the diagonal of the congruence reduction, run
    without the transform D.  Only an indefinite form pays for D: the
    witness v, with form(v, v) < 0, is the column of D (from
    :func:`congruence_diagonalize`) at the first negative diagonal entry.
    """
    _, diag = _congruence(form.entries, False)
    seen_zero = False
    for j, entry in enumerate(diag):
        if not decide_zero(entry.im):
            raise InternalConsistencyError("hermitian congruence gave a non-real diagonal")
        s = decide_sign(entry.re)
        if s is Sign.NEGATIVE:
            witness = tuple(row[j] for row in congruence_diagonalize(form.entries)[0])
            value = hermitian_quadratic(form, witness)
            if not decide_zero(value.im) or decide_sign(value.re) is not Sign.NEGATIVE:
                raise InternalConsistencyError(
                    "indefiniteness witness fails direct evaluation"
                )
            return Definiteness.INDEFINITE, witness
        if s is Sign.ZERO:
            seen_zero = True
    if seen_zero:
        return Definiteness.NONNEG_DEFINITE, None
    return Definiteness.POSITIVE_DEFINITE, None


# ---------------------------------------------------------------------------
# inequality reports


class Relation(Enum):
    STRICTLY_GREATER = "strictly_greater"
    EQUAL = "equal"
    VIOLATED = "violated"


class InequalityReport(NamedTuple):
    """Exact comparison of a dominant side against a dominated side."""

    lhs: Series
    rhs: Series
    relation: Relation
    note: str = ""


_RELATION = {
    Sign.POSITIVE: Relation.STRICTLY_GREATER,
    Sign.ZERO: Relation.EQUAL,
    Sign.NEGATIVE: Relation.VIOLATED,
}


def inequality(lhs: Series, rhs: Series) -> InequalityReport:
    """The report of lhs >= rhs, its relation decided by the sign of lhs - rhs."""
    return InequalityReport(lhs, rhs, _RELATION[decide_sign(lhs - rhs)])


def _require_nonneg(definiteness: Definiteness) -> None:
    if not isinstance(definiteness, Definiteness):
        raise TypeError("pass the form's class, as is_nonneg_definite returns it")
    if definiteness is Definiteness.INDEFINITE:
        raise PreconditionViolated("form is indefinite")


def check_robertson(form: HermitianForm, definiteness: Definiteness) -> InequalityReport:
    """det(real part) dominates det(skew part) for non-negative forms;
    strictly for positive definite ones, and both vanish together."""
    _require_nonneg(definiteness)
    a, b = split(form)
    report = inequality(determinant(a), determinant(b))
    if decide_zero(report.lhs) and not decide_zero(report.rhs):
        note = "det(a) = 0 must force det(b) = 0"
    elif report.relation is Relation.EQUAL and definiteness is Definiteness.POSITIVE_DEFINITE:
        note = "positive definite form requires a strict inequality"
    else:
        return report
    return report._replace(relation=Relation.VIOLATED, note=note)


def _real_det(form: HermitianForm) -> Series:
    det = determinant(form.entries)
    if not decide_zero(det.im):
        raise InternalConsistencyError("hermitian determinant has imaginary part")
    return det.re


def check_form_determinant_bound(
    form: HermitianForm, definiteness: Definiteness
) -> InequalityReport:
    """det(real part) dominates det(form), with equality exactly when the
    real-part determinant vanishes or the form has no skew part."""
    _require_nonneg(definiteness)
    a, b = split(form)
    report = inequality(determinant(a), _real_det(form))
    expected_equal = decide_zero(report.lhs) or all(decide_zero(x) for row in b for x in row)
    if (report.relation is Relation.EQUAL) == expected_equal:
        return report
    return report._replace(
        relation=Relation.VIOLATED,
        note="equality diagnosis failed (expects det(a)=0 or skew part zero)",
    )


class HadamardReport(NamedTuple):
    """The diagonal-product chain and its equality diagnoses."""

    product_vs_cov: InequalityReport
    cov_vs_form: InequalityReport
    cov_vs_skew: InequalityReport
    diagonal_equality_ok: bool
    skew_equality_ok: bool


def check_hadamard_chain(form: HermitianForm, definiteness: Definiteness) -> HadamardReport:
    """Diagonal product >= det(real part) >= det(form) and >= det(skew part),
    plus the equality characterizations of both chain collapses."""
    _require_nonneg(definiteness)
    a, b = split(form)
    n = form.n
    product = prod((a[k][k] for k in range(n)), start=ONE)
    det_a = determinant(a)
    det_b = determinant(b)
    det_phi = _real_det(form)
    r1 = inequality(product, det_a)
    r2 = inequality(det_a, det_phi)
    r3 = inequality(det_a, det_b)

    some_diag_zero = any(decide_zero(a[k][k]) for k in range(n))
    b_zero = all(decide_zero(x) for row in b for x in row)
    a_diagonal = all(decide_zero(a[j][k]) for j in range(n) for k in range(n) if j != k)
    full_equality = r1.relation is Relation.EQUAL and r2.relation is Relation.EQUAL
    diag_ok = full_equality == (some_diag_zero or (b_zero and a_diagonal))

    skew_equality = decide_zero(product - det_b)
    skew_ok = skew_equality == (some_diag_zero or (a_diagonal and decide_zero(det_b - det_a)))
    return HadamardReport(r1, r2, r3, diag_ok, skew_ok)


def trace_bounds(diagonal, b) -> tuple[InequalityReport, InequalityReport | None]:
    """Trace bounds from the pairwise Hadamard inequalities on a diagonal
    and a skew part b: trace >= 2/(n-1) * sum of |b| above the diagonal, and
    for even n the sharper paired-index bound trace >= 2 sum_j |b[j][m+j]|."""
    n = len(diagonal)
    if n < 2:
        raise DimensionTooSmall("trace bounds need n >= 2")
    trace = sum(diagonal, ZERO)
    total = sum((abs(b[j][k]) for j in range(n) for k in range(j + 1, n)), ZERO)
    general = inequality(trace, Fraction(2, n - 1) * total)
    pairing = None
    if n % 2 == 0:
        m = n // 2
        pairing = inequality(trace, 2 * sum((abs(b[j][m + j]) for j in range(m)), ZERO))
    return general, pairing


def check_trace_bounds(
    form: HermitianForm, definiteness: Definiteness
) -> tuple[InequalityReport, InequalityReport | None]:
    """:func:`trace_bounds` of a non-negative form."""
    _require_nonneg(definiteness)
    a, b = split(form)
    return trace_bounds([a[k][k] for k in range(form.n)], b)

