"""Gaussian phase-space states as positive linear functionals.

A state is a normalized linear functional on polynomial observables given
by a mean vector and a symmetric covariance matrix with series entries.
Every expectation comes from one memoized recursion, Isserlis' theorem
with a mean: E[Z_a R] = mu_a E[R] + sum_b Sigma_ab E[R without Z_b], so
every expectation of a polynomial is an exact series.  It runs over the
doubled Gaussian Z = (X, Y) with mean (mu, mu), Cov(X, X) = Cov(Y, Y) = cov
and cross block Cov(X, Y) = cov + (i h/2) J, J = [[0, I], [-I, 0]].  A
plain moment is a moment of X alone, and a star moment is a mixed one:
``rho(f * g) = E[f(X) g(Y)]``, read without a star product.  The cross
block is the matrix of the quantum condition (Simon, Mukunda and Dutta
1994), whose non-negativity ``_check_admissibility`` tests.

A partner b whose entry Sigma_ab is the exact zero adds nothing and is
skipped; the coherent, squeezed and product states the relations are
checked on have mostly zero entries.  A truncated-zero entry is not
skipped, since it carries its truncation into the sum.  When the
admissibility test fails, the witness it returns is re-verified as a
linear f with ``rho(conj(f) * f) < 0`` through ``star``, so the warning
names a proof that positivity fails.  ``gelfand_norm`` keeps the star path
and is the independent check of the pairing at saturation; tier-1 compares
the two on random states.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction

from .errors import (
    AdmissibilityWarning,
    DimensionMismatch,
    DQError,
    InternalConsistencyError,
    MomentDegreeExceeded,
)
from .linalg import (
    Definiteness,
    HermitianForm,
    InequalityReport,
    inequality,
    is_nonneg_definite,
)
from .observables import Observable, constant, observable, require_real, star
from .series import (
    ComplexSeries,
    ONE,
    Series,
    Sign,
    ZERO,
    as_complex,
    as_series,
    decide_sign,
    decide_zero,
    dot,
    series,
)

#: largest monomial degree ``expectation`` evaluates, and largest
#: deg f + deg g that ``star_expectation`` pairs; the number of moments the
#: recursion visits grows quickly with the degree
MOMENT_CAP = 12

#: h/2, the scale of the canonical commutation relation
HALF_H = series([(1, Fraction(1, 2))])


def _cross_covariance(cov, d: int):
    """cov + (i h/2) J with J = [[0, I], [-I, 0]], as complex rows."""
    rows = [[ComplexSeries(x) for x in row] for row in cov]
    for j in range(d):
        rows[j][j + d] = ComplexSeries(cov[j][j + d], HALF_H)
        rows[j + d][j] = ComplexSeries(cov[j + d][j], -HALF_H)
    return tuple(tuple(row) for row in rows)


def _indices(mono) -> tuple[int, ...]:
    """The sorted index multiset of a monomial's exponent vector."""
    return tuple(i for i, e in enumerate(mono) for _ in range(e))


class GaussianState:
    """Mean vector (q1..qd, p1..pd) plus symmetric covariance matrix."""

    __slots__ = ("d", "mean", "cov", "_rows", "_central_cache")

    def __init__(self, mean, cov):
        mean = tuple(as_series(x) for x in mean)
        cov = tuple(tuple(as_series(x) for x in row) for row in cov)
        if len(mean) % 2 or not mean:
            raise DimensionMismatch("mean must list q1..qd, p1..pd")
        d = len(mean) // 2
        n = 2 * d
        if len(cov) != n or any(len(row) != n for row in cov):
            raise DimensionMismatch(f"covariance must be {n}x{n}")
        for i in range(n):
            for j in range(i):
                if cov[i][j] != cov[j][i]:
                    raise ValueError("covariance matrix must be symmetric")
        self.d = d
        self.mean = mean
        self.cov = cov
        cross = _cross_covariance(cov, d)
        # row j of the doubled Gaussian's covariance: Cov(X_j, X), Cov(X_j, Y)
        self._rows = tuple(cov[j] + cross[j] for j in range(n))
        # moments by index multiset; perfbench/tracer.py reads it by this name
        self._central_cache: dict[tuple[int, ...], Series | ComplexSeries] = {}
        self._check_admissibility(cross)

    def _check_admissibility(self, cross):
        # quantum condition for every d: cov + (i h/2) J, hermitian as cov is
        # symmetric, is non-negative definite (Simon, Mukunda and Dutta 1994)
        cls, v = is_nonneg_definite(HermitianForm(cross))
        if cls is not Definiteness.INDEFINITE:
            return
        # classical requirement: the covariance is non-negative definite
        cov = HermitianForm(tuple(tuple(map(ComplexSeries, row)) for row in self.cov))
        if is_nonneg_definite(cov)[0] is Definiteness.INDEFINITE:
            raise ValueError("covariance matrix is not non-negative definite")
        # v^H (cov + (i h/2) J) v < 0 is rho(conj(f) * f) for
        # f = sum_j v_j (xi_j - mu_j); the star path re-derives it
        n = 2 * self.d
        terms = {tuple(int(i == j) for i in range(n)): v[j] for j in range(n)}
        terms[(0,) * n] = -as_complex(dot(zip(v, self.mean)))
        f = observable(self.d, terms)
        norm = gelfand_norm(self, f)
        if decide_sign(norm) is not Sign.NEGATIVE:
            raise InternalConsistencyError(
                f"positivity witness has rho(conj(f) * f) = {norm}, not negative"
            )
        warnings.warn(
            "cov + (i h/2) J is not non-negative definite: positivity fails, "
            f"rho(conj(f) * f) = {norm} < 0 for f = {f!r}",
            AdmissibilityWarning,
            stacklevel=3,
        )

    # -- expectations --------------------------------------------------------

    def expectation(self, f: Observable) -> ComplexSeries:
        """Exact expectation of a polynomial observable."""
        if f.d != self.d:
            raise DimensionMismatch(f"observable d={f.d}, state d={self.d}")
        pairs = []
        for mono, coeff in f.terms.items():
            degree = sum(mono)
            if degree > MOMENT_CAP:
                raise MomentDegreeExceeded(f"moment of degree {degree} exceeds cap {MOMENT_CAP}")
            pairs.append((coeff, self._moment(_indices(mono))))
        return as_complex(dot(pairs))

    def expect_real(self, f: Observable, what: str = "expectation") -> Series:
        """Expectation that must be real; returns the real series."""
        value = self.expectation(f)
        if not decide_zero(value.im):
            raise InternalConsistencyError(f"{what} has imaginary part {value.im}")
        return value.re

    def _moment(self, idxs: tuple[int, ...]) -> Series | ComplexSeries:
        """E[Z_a Z_b ...] of the doubled Gaussian over the sorted index
        multiset ``idxs``: index j < 2d is X_j and 2d + j is Y_j.

        A moment of X alone is a Series; a mixed one is what
        :func:`~dq.series.dot` returns, complex once a cross-block entry
        enters it.  A moment of Y alone is the same moment of X, looked up
        under the X indices.  Otherwise the first index is an X index, and
        its partners come in the sorted order of ``idxs``: the X partners
        through cov, then the Y partners through the cross block.  A partner
        whose entry is the exact zero is skipped.  The mean term and the
        partner terms are one :func:`~dq.series.dot`.
        """
        if not idxs:
            return ONE
        n = 2 * self.d
        if idxs[0] >= n:
            return self._moment(tuple(i - n for i in idxs))
        cached = self._central_cache.get(idxs)
        if cached is not None:
            return cached
        first, rest = idxs[0], idxs[1:]
        mu = self.mean[first]
        pairs = [] if mu.is_zero else [(mu, self._moment(rest))]
        row = self._rows[first]
        for pos, b in enumerate(rest):
            if pos and b == rest[pos - 1]:
                continue  # identical partners grouped via their multiplicity
            if row[b].is_zero:
                continue
            mult = rest.count(b)
            sab = row[b] if mult == 1 else mult * row[b]
            pairs.append((sab, self._moment(rest[:pos] + rest[pos + 1 :])))
        total = dot(pairs)
        self._central_cache[idxs] = total
        return total

    def star_expectation(self, f: Observable, g: Observable) -> ComplexSeries:
        """Exact rho(f * g), read off the doubled Gaussian without forming f * g.

        With f = sum_x c_x X^x and g = sum_y d_y Y^y the value is the factored
        sum ``sum_x c_x (sum_y d_y E[X^x Y^y])``: one product by c_x per term
        of f, not one per pair of terms.  Each sum is one
        :func:`~dq.series.dot`.
        """
        for x in (f, g):
            if x.d != self.d:
                raise DimensionMismatch(f"observable d={x.d}, state d={self.d}")
        degree = f.degree + g.degree
        if degree > MOMENT_CAP:
            raise MomentDegreeExceeded(f"moment of degree {degree} exceeds cap {MOMENT_CAP}")
        n = 2 * self.d
        right = [(tuple(n + i for i in _indices(mono)), coeff) for mono, coeff in g.terms.items()]
        rows = []
        for mono, coeff in f.terms.items():
            xs = _indices(mono)
            rows.append((coeff, dot([(coeff2, self._moment(xs + ys)) for ys, coeff2 in right])))
        return as_complex(dot(rows))

    def __repr__(self) -> str:
        return f"GaussianState(d={self.d})"


# ---------------------------------------------------------------------------
# functional-analytic operations


def deviation(state: GaussianState, x: Observable) -> Observable:
    """Zero-mean shift x - rho(x) of a real observable."""
    require_real(x)
    return x - constant(x.d, ComplexSeries(state.expect_real(x, "mean of real observable")))


def gelfand_norm(state: GaussianState, f: Observable) -> Series:
    """The value rho(conj(f) * f); zero exactly when f annihilates the state."""
    return state.expect_real(star(f.conj(), f), "gelfand norm")


def in_gelfand_ideal(state: GaussianState, f: Observable) -> bool:
    """Exact membership test: does f annihilate the state?"""
    return decide_zero(gelfand_norm(state, f))


def cauchy_schwarz_check(
    state: GaussianState, f: Observable, g: Observable
) -> InequalityReport:
    """|rho(conj(f)*g)|^2 bounded by rho(conj(f)*f) rho(conj(g)*g).

    The report's lhs is the dominant product side, rhs the squared modulus,
    so Violated keeps its usual meaning (dominant side smaller).
    """
    rhs = state.expectation(star(f.conj(), g)).abs2()
    return inequality(gelfand_norm(state, f) * gelfand_norm(state, g), rhs)


# ---------------------------------------------------------------------------
# named states and file IO


def ground(d: int = 1) -> GaussianState:
    """Mean zero, covariance (h/2) * identity."""
    n = 2 * d
    cov = [[HALF_H if i == j else ZERO for j in range(n)] for i in range(n)]
    return GaussianState([ZERO] * n, cov)


def squeezed(s, d: int = 1) -> GaussianState:
    """One-mode squeezing: cov = diag(s h/2, h/(2s)) per mode, rational s > 0."""
    s = Fraction(s)
    if s <= 0:
        raise ValueError("squeeze parameter must be positive")
    n = 2 * d
    cov = [[ZERO] * n for _ in range(n)]
    for j in range(d):
        cov[j][j] = series([(1, s / 2)])
        cov[d + j][d + j] = series([(1, Fraction(1, 2) / s)])
    return GaussianState([ZERO] * n, cov)


def correlated(c) -> GaussianState:
    """d=1 state with cov [[h/2, c], [c, h/2]]; c != 0 trips the threshold warning."""
    c = as_series(c)
    return GaussianState([ZERO, ZERO], [[HALF_H, c], [c, HALF_H]])


def _strings(x) -> bool:
    return isinstance(x, list) and all(isinstance(s, str) for s in x)


def state_from_dict(obj) -> GaussianState:
    """A state from its JSON form ``{"d": int, "mean": [str], "cov": [[str]]}``,
    every entry a series literal."""
    from .parsing import parse_series

    if not (
        isinstance(obj, dict)
        and type(obj.get("d")) is int
        and _strings(obj.get("mean"))
        and isinstance(obj.get("cov"), list)
        and all(_strings(row) for row in obj["cov"])
    ):
        raise DQError('a state file holds {"d": int, "mean": [str, ...], "cov": [[str, ...], ...]}')
    d = obj["d"]
    mean = [parse_series(s) for s in obj["mean"]]
    cov = [[parse_series(s) for s in row] for row in obj["cov"]]
    if len(mean) != 2 * d:
        raise DimensionMismatch(f"mean length {len(mean)} does not match d={d}")
    return GaussianState(mean, cov)


def load_state(path: str) -> GaussianState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_dict(json.load(fh))
