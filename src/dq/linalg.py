"""Exact linear algebra over ordered exact scalars.

Matrices may carry exact rationals (``fractions.Fraction``), real series
(:class:`dq.series.Series`), or complexified series entries; everything is
duck-typed through ``+ - * /`` plus the zero/sign classifiers below.

Determinants use fraction-free (Bareiss) elimination: intermediate entries
are minors of the input, so for exact entries every division is exact and
an exactly singular matrix yields an exact zero.  Symmetric congruence
reduction returns ``D`` with ``D^T S D`` diagonal; inertia read off the
diagonal classifies hermitian forms via the doubled real embedding, never
leaving the field.

The check_* functions turn the determinant inequalities satisfied by
non-negative definite hermitian forms over any ordered field (det of the
real part dominating det of the form and det of the skew part, Hadamard
style products, trace bounds) into exact, reportable predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    DimensionTooSmall,
    HermitianViolation,
    IndeterminateAtTruncation,
    InternalConsistencyError,
    PreconditionViolated,
)
from .series import (
    C_ONE,
    ComplexSeries,
    INF,
    ONE,
    Series,
    Sign,
    ZERO,
    cagree_mod_trunc,
)


class Zeroness(Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    UNDECIDED = "undecided"


def zeroness(x) -> Zeroness:
    if isinstance(x, Series):
        if x.terms:
            return Zeroness.NONZERO
        return Zeroness.ZERO if x.trunc == INF else Zeroness.UNDECIDED
    if isinstance(x, ComplexSeries):
        zr, zi = zeroness(x.re), zeroness(x.im)
        if Zeroness.NONZERO in (zr, zi):
            return Zeroness.NONZERO
        if zr is Zeroness.ZERO and zi is Zeroness.ZERO:
            return Zeroness.ZERO
        return Zeroness.UNDECIDED
    if isinstance(x, (int, Fraction)):
        return Zeroness.ZERO if x == 0 else Zeroness.NONZERO
    raise TypeError(f"unsupported scalar {type(x).__name__}")


def sign_of(x) -> Sign:
    if isinstance(x, Series):
        return x.sign()
    if isinstance(x, (int, Fraction)):
        if x == 0:
            return Sign.ZERO
        return Sign.POSITIVE if x > 0 else Sign.NEGATIVE
    raise TypeError(f"no order on {type(x).__name__}")


def _units_like(sample):
    if isinstance(sample, Series):
        return ZERO, ONE
    if isinstance(sample, ComplexSeries):
        return ComplexSeries(), C_ONE
    if isinstance(sample, (int, Fraction)):
        return Fraction(0), Fraction(1)
    raise TypeError(f"unsupported scalar {type(sample).__name__}")


def _require_square(matrix):
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    return n


# ---------------------------------------------------------------------------
# determinants and kernels


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
        piv = None
        undecided = False
        for r in range(k, n):
            z = zeroness(a[r][k])
            if z is Zeroness.NONZERO:
                piv = r
                break
            if z is Zeroness.UNDECIDED:
                undecided = True
        if piv is None:
            if undecided:
                raise IndeterminateAtTruncation(
                    f"pivot column {k} is zero modulo the stored truncation"
                )
            return zero
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            flip = not flip
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            lead = row_i[k]
            row_k = a[k]
            if prev is one:
                for j in range(k + 1, n):
                    row_i[j] = pivot * row_i[j] - lead * row_k[j]
            else:
                for j in range(k + 1, n):
                    row_i[j] = (pivot * row_i[j] - lead * row_k[j]) / prev
        prev = pivot
    det = a[n - 1][n - 1]
    return -det if flip else det


def kernel(matrix):
    """Basis of the null space, each vector scaled to leading entry 1."""
    rows = [list(row) for row in matrix]
    if not rows:
        return []
    ncols = len(rows[0])
    zero, one = _units_like(rows[0][0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            z = zeroness(rows[i][c])
            if z is Zeroness.NONZERO:
                piv = i
                break
            if z is Zeroness.UNDECIDED:
                raise IndeterminateAtTruncation(
                    f"rank undecidable: entry ({i},{c}) is zero modulo truncation"
                )
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and zeroness(rows[i][c]) is not Zeroness.ZERO:
                m = rows[i][c]
                rows[i] = [x - m * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for ri, pc in enumerate(pivots):
            vec[pc] = -rows[ri][fc]
        lead = next(x for x in vec if zeroness(x) is Zeroness.NONZERO)
        basis.append(tuple(x / lead for x in vec))
    return basis


def congruence_diagonalize(matrix, scaled: bool = False):
    """Symmetric reduction: returns (D, diag) with D^T S D = diag(diag).

    Zero leading pivots are repaired by symmetric swaps to a nonzero
    diagonal entry, or, when the whole remaining diagonal vanishes, by
    folding one hyperbolic off-diagonal pair into the diagonal (adding row
    and column m to row and column l turns S[l][l] into 2 S[l][m]).

    With ``scaled`` the update is division-free (column j is replaced by
    pivot * column j - S[k][j] * column k); the diagonal is rescaled by
    squares, which preserves inertia, and exact inputs stay exact even
    where a field division would have truncated.  Entries can swell, so
    this is the fallback mode, not the default.
    """
    n = _require_square(matrix)
    a = [list(row) for row in matrix]
    zero, one = _units_like(a[0][0])
    d = [[one if i == j else zero for j in range(n)] for i in range(n)]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in d:
            row[i], row[j] = row[j], row[i]

    for k in range(n):
        if zeroness(a[k][k]) is not Zeroness.NONZERO:
            found = None
            for l in range(k, n):
                z = zeroness(a[l][l])
                if z is Zeroness.NONZERO:
                    found = l
                    break
                if z is Zeroness.UNDECIDED:
                    raise IndeterminateAtTruncation(
                        f"diagonal entry {l} is zero modulo truncation"
                    )
            if found is not None:
                swap(k, found)
            else:
                pair = None
                for l in range(k, n):
                    for m in range(l + 1, n):
                        z = zeroness(a[l][m])
                        if z is Zeroness.NONZERO:
                            pair = (l, m)
                            break
                        if z is Zeroness.UNDECIDED:
                            raise IndeterminateAtTruncation(
                                f"entry ({l},{m}) is zero modulo truncation"
                            )
                    if pair:
                        break
                if pair is None:
                    break  # remaining block is exactly zero
                l, m = pair
                a[l] = [x + y for x, y in zip(a[l], a[m])]
                for row in a:
                    row[l] = row[l] + row[m]
                for row in d:
                    row[l] = row[l] + row[m]
                if l != k:
                    swap(k, l)
        pivot = a[k][k]
        leads = [a[k][j] for j in range(k + 1, n)]
        eliminate = [zeroness(x) is not Zeroness.ZERO for x in leads]
        if scaled:
            for j in range(k + 1, n):
                if not eliminate[j - k - 1]:
                    continue
                lead = leads[j - k - 1]
                for row in a:
                    row[j] = pivot * row[j] - lead * row[k]
                a[j] = [pivot * x - lead * y for x, y in zip(a[j], a[k])]
                for row in d:
                    row[j] = pivot * row[j] - lead * row[k]
        else:
            mults = [
                lead / pivot if elim else None
                for lead, elim in zip(leads, eliminate)
            ]
            for i in range(k + 1, n):
                mi = mults[i - k - 1]
                if mi is None:
                    continue
                row_k = a[k]
                a[i] = [x - mi * y for x, y in zip(a[i], row_k)]
            for row_idx in range(n):
                row = a[row_idx]
                base = row[k]
                if zeroness(base) is Zeroness.ZERO:
                    continue
                for j in range(k + 1, n):
                    mj = mults[j - k - 1]
                    if mj is not None:
                        row[j] = row[j] - mj * base
            for r in range(n):
                base = d[r][k]
                if zeroness(base) is Zeroness.ZERO:
                    continue
                for j in range(k + 1, n):
                    mj = mults[j - k - 1]
                    if mj is not None:
                        d[r][j] = d[r][j] - mj * base
        for j in range(k + 1, n):
            a[k][j] = zero
            a[j][k] = zero
    return tuple(tuple(row) for row in d), tuple(a[k][k] for k in range(n))


# ---------------------------------------------------------------------------
# hermitian forms


@dataclass(frozen=True)
class HermitianForm:
    """n x n matrix with entries conj-symmetric across the diagonal."""

    entries: tuple[tuple[ComplexSeries, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class RealSplit:
    """Symmetric real part and skew imaginary part of a hermitian form."""

    a: tuple[tuple[Series, ...], ...]
    b: tuple[tuple[Series, ...], ...]


def hermitian_form(rows) -> HermitianForm:
    entries = tuple(tuple(_as_centry(x) for x in row) for row in rows)
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise HermitianViolation("matrix must be square")
    for j in range(n):
        if entries[j][j].im.terms:
            raise HermitianViolation(f"diagonal entry {j} has an imaginary part")
        for k in range(j + 1, n):
            if not cagree_mod_trunc(entries[j][k], entries[k][j].conj()):
                raise HermitianViolation(f"entries ({j},{k}) and ({k},{j}) not conjugate")
    return HermitianForm(entries)


def _as_centry(x) -> ComplexSeries:
    if isinstance(x, ComplexSeries):
        return x
    if isinstance(x, Series):
        return ComplexSeries(x, ZERO)
    if isinstance(x, (int, Fraction)):
        return ComplexSeries(ZERO if x == 0 else Series(((Fraction(0), Fraction(x)),)), ZERO)
    raise TypeError(f"bad hermitian entry {type(x).__name__}")


def split(form: HermitianForm) -> RealSplit:
    a = tuple(tuple(e.re for e in row) for row in form.entries)
    b = tuple(tuple(e.im for e in row) for row in form.entries)
    return RealSplit(a, b)


def gram_form(rows) -> HermitianForm:
    """G^H G for any rectangular complex matrix G: non-negative by construction."""
    g = [ [_as_centry(x) for x in row] for row in rows ]
    m, n = len(g), len(g[0])
    ent = []
    for j in range(n):
        row = []
        for k in range(n):
            s = ComplexSeries()
            for r in range(m):
                s = s + g[r][j].conj() * g[r][k]
            row.append(s)
        ent.append(row)
    return hermitian_form(ent)


def hermitian_quadratic(form: HermitianForm, v) -> ComplexSeries:
    """The value of the form on v: sum_jk conj(v_j) phi_jk v_k."""
    out = ComplexSeries()
    for j in range(form.n):
        cj = _as_centry(v[j]).conj()
        for k in range(form.n):
            out = out + cj * form.entries[j][k] * _as_centry(v[k])
    return out


class Definiteness(Enum):
    POSITIVE_DEFINITE = "positive_definite"
    NONNEG_DEFINITE = "nonneg_definite"
    INDEFINITE = "indefinite"


def real_embedding(form: HermitianForm):
    """2n x 2n symmetric matrix whose quadratic form at (x, y) equals
    the hermitian form at v = x + i y."""
    rs = split(form)
    n = form.n
    top = [list(rs.a[j]) + [-rs.b[j][k] for k in range(n)] for j in range(n)]
    bot = [list(rs.b[j]) + list(rs.a[j]) for j in range(n)]
    return tuple(tuple(row) for row in top + bot)


def is_nonneg_definite(form: HermitianForm):
    """Classify the form; returns (Definiteness, witness-or-None).

    The witness v satisfies form(v, v) < 0 and is produced from the
    congruence transform column that exposes a negative diagonal entry.
    """
    n = form.n
    emb = real_embedding(form)
    try:
        d, diag = congruence_diagonalize(emb)
    except IndeterminateAtTruncation:
        # field divisions truncated away an exact cancellation; the
        # division-free reduction keeps exact inputs exact
        d, diag = congruence_diagonalize(emb, scaled=True)
    seen_zero = False
    for j, entry in enumerate(diag):
        s = sign_of(entry)
        if s is Sign.INDETERMINATE:
            raise IndeterminateAtTruncation(
                f"inertia undecidable: diagonal entry {j} has no determinate sign"
            )
        if s is Sign.NEGATIVE:
            witness = tuple(
                ComplexSeries(d[k][j], d[n + k][j]) for k in range(n)
            )
            value = hermitian_quadratic(form, witness)
            if value.im.terms or value.re.sign() is not Sign.NEGATIVE:
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
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class InequalityReport:
    """Exact comparison of a dominant side against a dominated side."""

    lhs: object
    rhs: object
    relation: Relation
    witness: tuple | None = None
    note: str = ""


def relation_of(lhs, rhs) -> Relation:
    diff = lhs - rhs
    s = sign_of(diff)
    if s is Sign.POSITIVE:
        return Relation.STRICTLY_GREATER
    if s is Sign.ZERO:
        return Relation.EQUAL
    if s is Sign.NEGATIVE:
        return Relation.VIOLATED
    return Relation.INDETERMINATE


def _classify(form: HermitianForm, definiteness: Definiteness | None) -> Definiteness:
    if definiteness is None:
        definiteness = is_nonneg_definite(form)[0]
    if definiteness is Definiteness.INDEFINITE:
        raise PreconditionViolated("form is indefinite")
    return definiteness


def check_robertson(
    form: HermitianForm, definiteness: Definiteness | None = None
) -> InequalityReport:
    """det(real part) dominates det(skew part) for non-negative forms;
    strictly for positive definite ones, and both vanish together."""
    definiteness = _classify(form, definiteness)
    rs = split(form)
    det_a = determinant(rs.a)
    det_b = determinant(rs.b)
    rel = relation_of(det_a, det_b)
    note = ""
    if rel is Relation.EQUAL and definiteness is Definiteness.POSITIVE_DEFINITE:
        rel = Relation.VIOLATED
        note = "positive definite form requires a strict inequality"
    if sign_of(det_a) is Sign.ZERO and sign_of(det_b) is not Sign.ZERO:
        rel = Relation.VIOLATED
        note = "det(a) = 0 must force det(b) = 0"
    return InequalityReport(lhs=det_a, rhs=det_b, relation=rel, note=note)


def _real_det(form: HermitianForm) -> Series:
    det = determinant(form.entries)
    if det.im.terms:
        raise InternalConsistencyError("hermitian determinant has imaginary part")
    return det.re


def _is_zero_matrix(matrix) -> bool:
    states = {zeroness(x) for row in matrix for x in row}
    if Zeroness.NONZERO in states:
        return False
    if Zeroness.UNDECIDED in states:
        raise IndeterminateAtTruncation("matrix zero-test undecidable at truncation")
    return True


def _is_diagonal(matrix) -> bool:
    n = len(matrix)
    states = {
        zeroness(matrix[j][k]) for j in range(n) for k in range(n) if j != k
    }
    if Zeroness.NONZERO in states:
        return False
    if Zeroness.UNDECIDED in states:
        raise IndeterminateAtTruncation("diagonality undecidable at truncation")
    return True


def check_form_determinant_bound(
    form: HermitianForm, definiteness: Definiteness | None = None
) -> InequalityReport:
    """det(real part) dominates det(form), with equality exactly when the
    real-part determinant vanishes or the form has no skew part."""
    _classify(form, definiteness)
    rs = split(form)
    det_a = determinant(rs.a)
    det_phi = _real_det(form)
    rel = relation_of(det_a, det_phi)
    expected_equal = sign_of(det_a) is Sign.ZERO or _is_zero_matrix(rs.b)
    note = ""
    if rel is not Relation.INDETERMINATE and (rel is Relation.EQUAL) != expected_equal:
        rel = Relation.VIOLATED
        note = "equality diagnosis failed (expects det(a)=0 or skew part zero)"
    return InequalityReport(lhs=det_a, rhs=det_phi, relation=rel, note=note)


@dataclass(frozen=True)
class HadamardReport:
    """The diagonal-product chain and its equality diagnoses."""

    product_vs_cov: InequalityReport
    cov_vs_form: InequalityReport
    cov_vs_skew: InequalityReport
    diagonal_equality_ok: bool
    skew_equality_ok: bool


def check_hadamard_chain(
    form: HermitianForm, definiteness: Definiteness | None = None
) -> HadamardReport:
    """Diagonal product >= det(real part) >= det(form) and >= det(skew part),
    plus the equality characterizations of both chain collapses."""
    definiteness = _classify(form, definiteness)
    rs = split(form)
    n = form.n
    product = ONE if isinstance(rs.a[0][0], Series) else Fraction(1)
    for k in range(n):
        product = product * form.entries[k][k].re
    det_a = determinant(rs.a)
    det_b = determinant(rs.b)
    det_phi = _real_det(form)
    r1 = InequalityReport(product, det_a, relation_of(product, det_a))
    r2 = InequalityReport(det_a, det_phi, relation_of(det_a, det_phi))
    r3 = InequalityReport(det_a, det_b, relation_of(det_a, det_b))

    some_diag_zero = any(
        sign_of(form.entries[k][k].re) is Sign.ZERO for k in range(n)
    )
    full_equality = r1.relation is Relation.EQUAL and r2.relation is Relation.EQUAL
    diagonal_case = some_diag_zero or (_is_zero_matrix(rs.b) and _is_diagonal(rs.a))
    diag_ok = full_equality == diagonal_case

    skew_equality = relation_of(product, det_b) is Relation.EQUAL
    skew_case = some_diag_zero or (
        _is_diagonal(rs.a) and relation_of(det_b, det_a) is Relation.EQUAL
    )
    skew_ok = skew_equality == skew_case
    return HadamardReport(r1, r2, r3, diag_ok, skew_ok)


def trace_bounds(diagonal, b) -> tuple[InequalityReport, InequalityReport | None]:
    """Trace bounds from the pairwise Hadamard inequalities on a diagonal
    and a skew part b: trace >= 2/(n-1) * sum of |b| above the diagonal, and
    for even n the sharper paired-index bound trace >= 2 sum_j |b[j][m+j]|."""
    n = len(diagonal)
    if n < 2:
        raise DimensionTooSmall("trace bounds need n >= 2")
    zero, _one = _units_like(diagonal[0])
    trace = zero
    for x in diagonal:
        trace = trace + x
    total = zero
    for j in range(n):
        for k in range(j + 1, n):
            total = total + abs(b[j][k])
    general_rhs = Fraction(2, n - 1) * total
    general = InequalityReport(trace, general_rhs, relation_of(trace, general_rhs))
    pairing = None
    if n % 2 == 0:
        m = n // 2
        paired = zero
        for j in range(m):
            paired = paired + abs(b[j][m + j])
        rhs = 2 * paired
        pairing = InequalityReport(trace, rhs, relation_of(trace, rhs))
    return general, pairing


def check_trace_bounds(
    form: HermitianForm, definiteness: Definiteness | None = None
) -> tuple[InequalityReport, InequalityReport | None]:
    """:func:`trace_bounds` of a non-negative form."""
    rs = split(form)
    bounds = trace_bounds([rs.a[k][k] for k in range(form.n)], rs.b)
    _classify(form, definiteness)
    return bounds


# ---------------------------------------------------------------------------
# matrix file format


def form_from_dict(obj: dict) -> HermitianForm:
    from .parsing import parse_series

    n = int(obj["n"])
    rows = obj["entries"]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"entries must form an {n}x{n} matrix")
    return hermitian_form(
        [
            [ComplexSeries(parse_series(e["re"]), parse_series(e["im"])) for e in row]
            for row in rows
        ]
    )


def form_to_dict(form: HermitianForm) -> dict:
    return {
        "n": form.n,
        "entries": [
            [{"re": e.re.literal(), "im": e.im.literal()} for e in row]
            for row in form.entries
        ],
    }

