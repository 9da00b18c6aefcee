"""Gaussian phase-space states as positive linear functionals.

A state is a normalized linear functional on polynomial observables given
by a mean vector and a symmetric covariance matrix with series entries.
Expectations are evaluated symbolically: shift to central moments, then
pair them up Isserlis/Wick style, so every expectation of a polynomial is
an exact series.  Positivity of ``rho(conj(f) * f)`` holds for covariances
at or above the quantum threshold and is exercised empirically by the
property suites rather than assumed.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction
from itertools import product

from .errors import (
    AdmissibilityWarning,
    DimensionMismatch,
    DQError,
    InternalConsistencyError,
    MomentDegreeExceeded,
)
from .linalg import (
    Definiteness,
    InequalityReport,
    congruence_diagonalize,
    hermitian_form,
    is_nonneg_definite,
    relation_of,
)
from .observables import Observable, constant, require_real, star
from .series import (
    ComplexSeries,
    ONE,
    Series,
    Sign,
    ZERO,
    as_series,
    decide_sign,
    decide_zero,
    series,
)

#: Wick pairing enumeration grows double-factorially; central moments stop here
MOMENT_CAP = 12


class GaussianState:
    """Mean vector (q1..qd, p1..pd) plus symmetric covariance matrix."""

    __slots__ = ("d", "mean", "cov", "_central_cache")

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
        self._central_cache: dict[tuple[int, ...], Series] = {}
        self._check_admissibility()

    def _check_admissibility(self):
        # quantum condition for every d: cov + (i h/2) J is non-negative
        # definite, J = [[0, I], [-I, 0]] (Simon, Mukunda and Dutta 1994);
        # below it positivity of the functional can fail, which the
        # relation checks then report
        d, half_h = self.d, _hbar_over(2)
        rows = [[ComplexSeries(x) for x in row] for row in self.cov]
        for j in range(d):
            rows[j][j + d] = ComplexSeries(self.cov[j][j + d], half_h)
            rows[j + d][j] = ComplexSeries(self.cov[j + d][j], -half_h)
        if is_nonneg_definite(hermitian_form(rows))[0] is not Definiteness.INDEFINITE:
            return
        # classical requirement: the covariance is non-negative definite
        _, diag = congruence_diagonalize(self.cov)
        for entry in diag:
            if decide_sign(entry) is Sign.NEGATIVE:
                raise ValueError("covariance matrix is not non-negative definite")
        warnings.warn(
            "cov + (i h/2) J is not non-negative definite: functional may fail positivity",
            AdmissibilityWarning,
            stacklevel=3,
        )

    # -- expectations --------------------------------------------------------

    def expectation(self, f: Observable) -> ComplexSeries:
        """Exact expectation of a polynomial observable."""
        if f.d != self.d:
            raise DimensionMismatch(f"observable d={f.d}, state d={self.d}")
        total = ComplexSeries()
        for mono, coeff in f.terms.items():
            total = total + coeff * self._raw_moment(mono)
        return total

    def expect_real(self, f: Observable, what: str = "expectation") -> Series:
        """Expectation that must be real; returns the real series."""
        value = self.expectation(f)
        if not decide_zero(value.im):
            raise InternalConsistencyError(f"{what} has imaginary part {value.im}")
        return value.re

    def _raw_moment(self, mono: tuple[int, ...]) -> Series:
        slots = [i for i, e in enumerate(mono) if e]
        total = ZERO
        choices = []
        for i in slots:
            # only the full central power survives when the mean vanishes
            if self.mean[i].is_zero:
                choices.append((mono[i],))
            else:
                choices.append(tuple(range(mono[i] + 1)))
        for combo in product(*choices):
            idxs = []
            for i, k in zip(slots, combo):
                idxs.extend([i] * k)
            w = self._central_moment(tuple(idxs))
            if w.is_zero:
                continue
            factor = ONE
            for i, k in zip(slots, combo):
                factor = factor * _binom(mono[i], k)
                factor = factor * self.mean[i] ** (mono[i] - k)
            total = total + factor * w
        return total

    def _central_moment(self, idxs: tuple[int, ...]) -> Series:
        """Wick pairing sum over the multiset of coordinate indices."""
        if len(idxs) % 2:
            return ZERO
        if not idxs:
            return ONE
        if len(idxs) > MOMENT_CAP:
            raise MomentDegreeExceeded(
                f"central moment of degree {len(idxs)} exceeds cap {MOMENT_CAP}"
            )
        cached = self._central_cache.get(idxs)
        if cached is not None:
            return cached
        first, rest = idxs[0], idxs[1:]
        total = ZERO
        for pos in range(len(rest)):
            if pos and rest[pos] == rest[pos - 1]:
                continue  # identical partners grouped below via multiplicity
            mult = rest.count(rest[pos])
            sub = rest[:pos] + rest[pos + mult :]
            partners = (rest[pos],) * (mult - 1)
            total = total + mult * self.cov[first][rest[pos]] * self._central_moment(
                tuple(sorted(sub + partners))
            )
        self._central_cache[idxs] = total
        return total

    def __repr__(self) -> str:
        return f"GaussianState(d={self.d})"


def _binom(n: int, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(n - i, i + 1)
    return out


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
    cross = state.expectation(star(f.conj(), g))
    rhs = cross.abs2()
    lhs = gelfand_norm(state, f) * gelfand_norm(state, g)
    return InequalityReport(lhs=lhs, rhs=rhs, relation=relation_of(lhs, rhs))


# ---------------------------------------------------------------------------
# named states and file IO


def _hbar_over(k: int) -> Series:
    return series([(1, Fraction(1, k))])


def ground(d: int = 1) -> GaussianState:
    """Mean zero, covariance (h/2) * identity."""
    n = 2 * d
    cov = [[_hbar_over(2) if i == j else ZERO for j in range(n)] for i in range(n)]
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
    half = _hbar_over(2)
    return GaussianState([ZERO, ZERO], [[half, c], [c, half]])


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
