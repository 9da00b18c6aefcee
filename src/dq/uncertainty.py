"""Uncertainty relations and intelligent-state detection.

For real observables X_1..X_n and a state rho, the matrix
``phi_jk = rho(dX_j * dX_k)`` of star-moments of the deviations splits into
a symmetric covariance part ``a = Re phi`` and a skew part ``b = Im phi``,
which equals ``(h/2) rho({X_j, X_k}_star)``.  phi is read off the Gaussian
pairing ``GaussianState.star_expectation`` (``rho(f * g) = E[f(X) g(Y)]``
with cross covariance cov + (i h/2) J), so building it takes no star
product; tier-1 compares that pairing with the star path and b with the
bracket moments on random states.  The determinant inequalities of
:mod:`dq.linalg` then read:

* ``det(a) >= det(b)``            (Robertson-Schroedinger relation)
* ``prod of variances >= det(b)`` (Heisenberg-Robertson relation)
* ``sum of variances >= h/(n-1) * sum |rho({X_j,X_k}_star)|``  (trace relation)

A state saturating the second equality is HR-intelligent, one saturating
the first RS-intelligent.  Saturation, like every zero or sign decision
here, is decided exactly by :func:`dq.series.decide_zero` and
:func:`dq.series.decide_sign`; the states the package builds have exact
moments, and on a state built from truncated series a decision the
truncation leaves open raises IndeterminateAtTruncation.  Saturation
witnesses are produced through membership of deviation combinations in the
state's annihilating (Gel'fand) ideal; that membership test keeps the star
path, so at saturation it checks the pairing at run time.
:func:`check_relations` runs all of this from one moment computation.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import NamedTuple

from .errors import DimensionTooSmall, InternalConsistencyError, SingularTransform
from .linalg import (
    Definiteness,
    HermitianForm,
    InequalityReport,
    Relation,
    determinant,
    hermitian_form,
    inequality,
    is_nonneg_definite,
    kernel,
    split,
    trace_bounds,
)
from .observables import Observable, require_real
from .series import I_UNIT, ONE, Series, as_complex, decide_zero, dot
from .states import GaussianState, deviation, gelfand_norm, in_gelfand_ideal


class MomentMatrices(NamedTuple):
    """Star-moment matrix of the deviations and its real split."""

    phi: HermitianForm
    a: tuple[tuple[Series, ...], ...]
    b: tuple[tuple[Series, ...], ...]
    variances: tuple[Series, ...]
    devs: tuple[Observable, ...]


class RelationChecks(NamedTuple):
    """Every relation check on one observable set, with its witnesses.

    ``reports`` pairs each relation name with its report, in the order RS,
    HR, Trace, TracePairing (even n), TwoObs (n = 2).  ``witness`` is the
    complex kernel vector of phi when n = 2 and the bound is saturated;
    ``direction`` the real kernel vector of the covariance part, if any.
    """

    mm: MomentMatrices
    reports: tuple[tuple[str, InequalityReport], ...]
    hr_intelligent: bool
    rs_intelligent: bool
    witness: tuple | None
    direction: tuple | None


def moment_matrices(state: GaussianState, xs) -> MomentMatrices:
    """phi, a, b, the variances and the deviations for the given real
    observables.

    phi_jk = rho(dX_j * dX_k) comes from the Gaussian pairing for j <= k,
    and phi_kj = conj(phi_jk) because the deviations are real; no star
    product is formed.  a = Re phi is the symmetrized star moment and
    b = Im phi the (h/2)-scaled bracket moment.  The pairing against the
    star path, and b against the brackets, are checked in tier-1
    (tests/test_states.py); at run time the Gel'fand-ideal membership of
    the witnesses, which goes through the star path, checks phi at
    saturation.
    """
    xs = list(xs)
    if not xs:
        raise DimensionTooSmall("need at least one observable")
    for x in xs:
        require_real(x)
    n = len(xs)
    devs = [deviation(state, x) for x in xs]
    phi = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(j):
            phi[j][k] = phi[k][j].conj()
        for k in range(j, n):
            phi[j][k] = state.star_expectation(devs[j], devs[k])
    form = hermitian_form(phi)
    a, b = split(form)
    return MomentMatrices(form, a, b, tuple(a[j][j] for j in range(n)), tuple(devs))


def _rs_report(mm: MomentMatrices) -> InequalityReport:
    return inequality(determinant(mm.a), determinant(mm.b))


def check_relations(state: GaussianState, xs) -> RelationChecks:
    """Run every relation on the observables xs from one moment computation.

    * RS: det(a) against det(b);
    * HR: the product of variances against det(b); its saturation forces
      RS saturation;
    * Trace and TracePairing (n >= 2): the trace bounds on the variances;
    * TwoObs (n = 2): Var1 Var2 against cov12^2 + b12^2.  It is compared in
      squared form because a standard deviation is seldom in the field
      (sqrt(h/2) has the irrational leading coefficient sqrt(1/2)) and a
      float detour would give up the exact sign decisions; its gap equals
      det(phi) exactly, so saturation coincides with a singular phi.

    Kernel vectors of phi (n = 2, saturated) and of a are returned as
    witnesses, each re-verified as a member of the Gel'fand ideal.
    """
    mm = moment_matrices(state, xs)
    n = len(mm.variances)
    rs = _rs_report(mm)
    hr = inequality(prod(mm.variances, start=ONE), rs.rhs)
    hr_intelligent = hr.relation is Relation.EQUAL
    rs_intelligent = rs.relation is Relation.EQUAL
    if hr_intelligent and not rs_intelligent:
        _expect_nonneg_failure(mm.phi, "HR saturation must imply RS saturation")
    reports = [("RS", rs), ("HR", hr)]
    if n >= 2:
        general, pairing = trace_bounds(mm.variances, mm.b)
        reports.append(("Trace", general))
        if pairing is not None:
            reports.append(("TracePairing", pairing))
    witness = None
    if n == 2:
        lhs = mm.variances[0] * mm.variances[1]
        rhs = dot(((mm.a[0][1], mm.a[0][1]), (mm.b[0][1], mm.b[0][1])))
        det_phi = determinant(mm.phi.entries)
        if not decide_zero(det_phi.im) or det_phi.re != lhs - rhs:
            raise InternalConsistencyError("two-observable gap must equal det(phi)")
        reports.append(("TwoObs", inequality(lhs, rhs)))
        if decide_zero(det_phi.re):
            basis = kernel(mm.phi.entries)
            if not basis:
                raise InternalConsistencyError("singular phi must have a kernel vector")
            witness = basis[0]
            _require_in_ideal(state, mm, witness, "kernel witness must lie in the ideal")
    # rs.lhs is det a; a nonsingular a has an empty kernel
    basis = kernel(mm.a) if decide_zero(rs.lhs) else []
    direction = basis[0] if basis else None
    if direction is not None:
        _require_in_ideal(state, mm, direction, "kernel direction of a must lie in the ideal")
    return RelationChecks(mm, tuple(reports), hr_intelligent, rs_intelligent, witness, direction)


def _require_in_ideal(state: GaussianState, mm: MomentMatrices, coeffs, message: str) -> None:
    """The combination sum_j coeffs[j] * dX_j must annihilate the state."""
    w = sum(dev * coeff for coeff, dev in zip(coeffs, mm.devs))
    if not in_gelfand_ideal(state, w):
        raise InternalConsistencyError(message)


class AnnihilatorResult(NamedTuple):
    """Outcome of the sufficient saturation condition for 2m observables."""

    norms: tuple[Series, ...]
    all_in_ideal: bool
    rs: InequalityReport


def check_annihilating_transform(state: GaussianState, xs, u, v) -> AnnihilatorResult:
    """Build ladder combinations dA_a = (dX_a + i dX_{a+m})/2, transform them
    by an invertible (u, v) block pair, and test whether every transformed
    combination is annihilated; if so the RS relation must be saturated."""
    xs = list(xs)
    n = len(xs)
    if n == 0 or n % 2:
        raise DimensionTooSmall("need an even number of observables")
    m = n // 2
    u = [[as_complex(x) for x in row] for row in u]
    v = [[as_complex(x) for x in row] for row in v]
    if len(u) != m or len(v) != m or any(len(r) != m for r in u + v):
        raise ValueError(f"u and v must be {m}x{m}")
    block = [u[i] + v[i] for i in range(m)] + [
        [x.conj() for x in v[i]] + [x.conj() for x in u[i]] for i in range(m)
    ]
    if decide_zero(determinant(block)):
        raise SingularTransform("the (u, v) block matrix is singular")
    mm = moment_matrices(state, xs)
    devs = mm.devs
    ladders = [
        (devs[alpha] + devs[alpha + m] * I_UNIT) * Fraction(1, 2) for alpha in range(m)
    ]
    norms = []
    for alpha in range(m):
        prime = sum(
            ladders[beta] * u[alpha][beta] + ladders[beta].conj() * v[alpha][beta]
            for beta in range(m)
        )
        norms.append(gelfand_norm(state, prime))
    all_zero = all(decide_zero(norm) for norm in norms)
    rs = _rs_report(mm)
    if all_zero and rs.relation is not Relation.EQUAL:
        _expect_nonneg_failure(
            mm.phi, "annihilated transform must saturate the RS relation"
        )
    return AnnihilatorResult(tuple(norms), all_zero, rs)


def _expect_nonneg_failure(phi: HermitianForm, message: str):
    """Theorem-implication failures are only legitimate when the moment
    form is indefinite (an inadmissible state); otherwise it's a bug."""
    cls, _ = is_nonneg_definite(phi)
    if cls is not Definiteness.INDEFINITE:
        raise InternalConsistencyError(message)
