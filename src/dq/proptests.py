"""Seeded randomized suites for the algebraic and theorem-level laws.

A suite is one row of ``_TABLE``: its trial functions and, for a suite
whose trials draw their sizes from ``dims``, the least dimension it takes.
A trial function ``(rng, t, dims)`` runs trial ``t`` and yields one line
per failed law.  :func:`run_suite` gives each trial function its own
``random.Random(seed)`` stream, so a given (suite, trials, seed, dims)
replays byte-for-byte.  Failures carry the exact operand literals, which
at these sizes already are a minimal reproduction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .errors import InternalConsistencyError
from .linalg import (
    Definiteness,
    Relation,
    check_form_determinant_bound,
    check_hadamard_chain,
    check_robertson,
    check_trace_bounds,
    determinant,
    gram_form,
)
from .observables import (
    Observable,
    constant,
    coordinate,
    moyal_bracket,
    observable,
    poisson,
    star,
)
from .series import (
    INF,
    I_UNIT,
    ComplexSeries,
    ONE,
    Series,
    Sign,
    ZERO,
    agree_mod_trunc,
    compare,
    decide_zero,
    dot,
    h,
    metric,
    rational,
    series,
)
from .states import (
    GaussianState,
    cauchy_schwarz_check,
    deviation,
    gelfand_norm,
    ground,
    in_gelfand_ideal,
    squeezed,
)
from .uncertainty import check_relations


class SuiteReport(NamedTuple):
    name: str
    trials: int
    seed: int
    dims: tuple[int, ...] | None
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        head = f"suite {self.name}: trials={self.trials} seed={self.seed}"
        if self.dims:
            head += " dims=" + ",".join(str(n) for n in self.dims)
        out = [head]
        out.extend(f"  FAIL {msg}" for msg in self.failures)
        out.append(f"failures: {len(self.failures)}")
        return out


# ---------------------------------------------------------------------------
# generators


def rand_fraction(rng: random.Random, lo=-9, hi=9, max_den=6, nonzero=False) -> Fraction:
    while True:
        f = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
        if f != 0 or not nonzero:
            return f


def rand_exponent(rng: random.Random, lo=-2, hi=6, max_den=6) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_series(
    rng: random.Random,
    order: Fraction | float = Fraction(8),
    max_terms: int = 4,
    min_terms: int = 0,
) -> Series:
    pairs = [
        (rand_exponent(rng), rand_fraction(rng, nonzero=True))
        for _ in range(rng.randint(min_terms, max_terms))
    ]
    return series(pairs, order)


def rand_scalar_entry(rng: random.Random, scalar: str) -> ComplexSeries:
    """Low-order exact entry for Gram generation over either backend."""
    if scalar == "rational":
        return ComplexSeries(
            rational(rng.randint(-3, 3)), rational(rng.randint(-3, 3))
        )
    exps = (0, Fraction(1, 2), 1, 2)
    def part():
        pairs = [
            (rng.choice(exps), rng.randint(-3, 3)) for _ in range(rng.randint(0, 2))
        ]
        return series(pairs)
    return ComplexSeries(part(), part())


def rand_gram(rng: random.Random, n: int, scalar: str, singular: bool = False):
    """Gram form G^H G; with ``singular`` the last column of G is a real
    rational combination of the others, forcing a singular covariance part."""
    g = [[rand_scalar_entry(rng, scalar) for _ in range(n)] for _ in range(n)]
    if singular and n >= 2:
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(n - 1)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = Fraction(1)
        for r in range(n):
            g[r][n - 1] = dot(zip(g[r], coeffs))
    return gram_form(g)


def classify_gram(form) -> Definiteness:
    """Gram forms are non-negative by construction; they are positive
    definite exactly when det(phi) is nonzero."""
    if decide_zero(determinant(form.entries)):
        return Definiteness.NONNEG_DEFINITE
    return Definiteness.POSITIVE_DEFINITE


def rand_real_observable(
    rng: random.Random, d: int, max_degree: int = 2, max_terms: int = 3, hbar_pow: int = 0
) -> Observable:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * (2 * d)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(2 * d)] += 1
        coeff = series(
            [(rng.randint(0, hbar_pow), rand_fraction(rng, lo=-4, hi=4, nonzero=True))]
        )
        key = tuple(mono)
        terms[key] = terms.get(key, ComplexSeries()) + ComplexSeries(coeff)
    return observable(d, terms)


def rand_complex_observable(
    rng: random.Random, d: int, max_degree: int = 4, max_terms: int = 4
) -> Observable:
    out = rand_real_observable(rng, d, max_degree, max_terms, hbar_pow=1)
    if rng.random() < 0.6:
        out = out + rand_real_observable(rng, d, max_degree, 2, hbar_pow=1) * I_UNIT
    return out


def rand_admissible_state(rng: random.Random, d: int = 1) -> GaussianState:
    if d == 2:  # a product state: mode m holds a d=1 state on (q_m, p_m)
        mean, cov = [ZERO] * 4, [[ZERO] * 4 for _ in range(4)]
        for mode in (0, 1):
            one, idx = rand_admissible_state(rng, 1), (mode, 2 + mode)
            for a, i in enumerate(idx):
                mean[i] = one.mean[a]
                for b, j in enumerate(idx):
                    cov[i][j] = one.cov[a][b]
        return GaussianState(mean, cov)
    kind = rng.randrange(3)
    mean = [rational(rand_fraction(rng, lo=-2, hi=2, max_den=2)) for _ in range(2)]
    if kind == 0:
        cov = ground(1).cov
    elif kind == 1:
        s = Fraction(rng.choice((1, 2, 3, 4, 9)), rng.choice((1, 2)))
        cov = squeezed(s).cov
    else:
        r = rng.choice((Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)))
        cov = (
            (h(1, 1), h(1, r)),
            (h(1, r), h(1, 1)),
        )  # det = (1 - r^2) h^2 >= h^2/4 for |r| <= 2/3
    return GaussianState(mean, cov)


# ---------------------------------------------------------------------------
# trial functions


def trial_field_axioms(rng: random.Random, t: int, dims):
    a = rand_series(rng)
    b = rand_series(rng)
    c = rand_series(rng)
    ctx = f"trial={t} a=[{a}] b=[{b}] c=[{c}]"
    if not agree_mod_trunc(a + b, b + a):
        yield f"{ctx} add not commutative"
    if not agree_mod_trunc(a * b, b * a):
        yield f"{ctx} mul not commutative"
    if not agree_mod_trunc((a + b) + c, a + (b + c)):
        yield f"{ctx} add not associative"
    if not agree_mod_trunc((a * b) * c, a * (b * c)):
        yield f"{ctx} mul not associative"
    if not agree_mod_trunc(a * (b + c), a * b + a * c):
        yield f"{ctx} mul not distributive"
    if not agree_mod_trunc(a + (-a), ZERO):
        yield f"{ctx} additive inverse fails"
    if a.terms and not agree_mod_trunc(a * a.inv(), ONE):
        yield f"{ctx} multiplicative inverse fails"
    # order axioms on determinate signs
    sa, sb = a.sign(), b.sign()
    if sa is not Sign.INDETERMINATE:
        if (-a).sign() is not {
            Sign.POSITIVE: Sign.NEGATIVE,
            Sign.NEGATIVE: Sign.POSITIVE,
            Sign.ZERO: Sign.ZERO,
        }[sa]:
            yield f"{ctx} negation does not flip sign"
        sq = (a * a).sign()
        if sq not in (Sign.POSITIVE, Sign.ZERO):
            yield f"{ctx} square not non-negative"
    if sa is not Sign.INDETERMINATE and sb is not Sign.INDETERMINATE:
        pa, pb = abs(a), abs(b)
        if pa.sign() is Sign.POSITIVE and pb.sign() is Sign.POSITIVE:
            if (pa + pb).sign() is not Sign.POSITIVE:
                yield f"{ctx} positives not closed under +"
            if (pa * pb).sign() is not Sign.POSITIVE:
                yield f"{ctx} positives not closed under *"


def trial_valuation_laws(rng: random.Random, t: int, dims):
    a = rand_series(rng, min_terms=1)
    b = rand_series(rng, min_terms=1)
    ctx = f"trial={t} a=[{a}] b=[{b}]"
    va, vb = a.valuation(), b.valuation()
    ab = a * b
    if ab.terms and ab.valuation() != va + vb:
        yield f"{ctx} val(ab) != val(a)+val(b)"
    s = a + b
    if s.terms and s.valuation() < min(va, vb):
        yield f"{ctx} val(a+b) < min"
    if va != vb and (not s.terms or s.valuation() != min(va, vb)):
        yield f"{ctx} val(a+b) != min despite distinct valuations"
    if abs(a * b) != abs(a) * abs(b):
        yield f"{ctx} |ab| != |a||b|"
    if (abs(a) + abs(b) - abs(a + b)).sign() is Sign.NEGATIVE:
        yield f"{ctx} triangle inequality fails"
    pa, pb = abs(a), abs(b)
    if va < vb and compare(pa, pb) is not Sign.POSITIVE:
        yield f"{ctx} lower valuation must dominate"
    # ultrametric on exact snapshots
    ea = series(a.terms)
    eb = series(b.terms)
    ec = series(rand_series(rng).terms)
    if metric(ea, ec) > max(metric(ea, eb), metric(eb, ec)) + 1e-12:
        yield f"{ctx} ultrametric inequality fails"


def _gram_shape(t: int, dims) -> tuple[int, str]:
    """Trial t of a Gram suite: its size and its scalar backend."""
    return dims[t % len(dims)], ("rational", "series")[(t // len(dims)) % 2]


def trial_robertson(rng: random.Random, t: int, dims):
    n, scalar = _gram_shape(t, dims)
    singular = t % 10 == 9
    form = rand_gram(rng, n, scalar, singular=singular)
    ctx = f"trial={t} n={n} scalar={scalar}{' singular' if singular else ''}"
    cls = classify_gram(form)
    r = check_robertson(form, cls)
    if r.relation is Relation.VIOLATED:
        yield f"{ctx} det(a)={r.lhs} det(b)={r.rhs}: {r.relation.value}"
        return
    if cls is Definiteness.POSITIVE_DEFINITE and r.relation is not Relation.STRICTLY_GREATER:
        yield f"{ctx} positive definite but not strict"
    if n % 2 == 1 and not decide_zero(r.rhs):
        yield f"{ctx} odd n needs det(b)=0, got {r.rhs}"
    if singular and not decide_zero(r.lhs):  # a real kernel of G makes both dets 0
        yield f"{ctx} crafted singular but det(a)={r.lhs}"
    elif decide_zero(r.lhs) and not decide_zero(r.rhs):
        yield f"{ctx} det(a)=0 but det(b)={r.rhs}"


def _crafted_equality_form(rng: random.Random, n: int, kind: int, scalar: str):
    if kind == 0:  # diagonal form: a diagonal, b = 0
        rows = [
            [
                ComplexSeries(rational(rng.randint(1, 4))) if i == j else ComplexSeries()
                for j in range(n)
            ]
            for i in range(n)
        ]
        return gram_form(rows)
    if kind == 1:  # some phi_kk = 0 via a zero column
        g = [[rand_scalar_entry(rng, scalar) for _ in range(n)] for _ in range(n)]
        col = rng.randrange(n)
        for r in range(n):
            g[r][col] = ComplexSeries()
        return gram_form(g)
    if kind == 2:  # real entries: b = 0, det(a) = det(phi)
        g = [
            [ComplexSeries(rational(rng.randint(-3, 3))) for _ in range(n)]
            for _ in range(n)
        ]
        return gram_form(g)
    return rand_gram(rng, n, scalar, singular=True)  # det(a) = 0


def trial_hadamard(rng: random.Random, t: int, dims):
    n, scalar = _gram_shape(t, dims)
    crafted = t % 4 == 3
    if crafted:
        form = _crafted_equality_form(rng, n, rng.randrange(4), scalar)
    else:
        form = rand_gram(rng, n, scalar)
    ctx = f"trial={t} n={n} scalar={scalar}{' crafted' if crafted else ''}"
    cls = classify_gram(form)
    lemma = check_form_determinant_bound(form, cls)
    no_skew = all(decide_zero(x.im) for row in form.entries for x in row)
    if (lemma.relation is Relation.EQUAL) != (decide_zero(lemma.lhs) or no_skew):
        yield f"{ctx} det(a)=det(phi) iff det(a)=0 or b=0 fails: {lemma.relation.value}"
    chain = check_hadamard_chain(form, cls)
    for label, link in (
        ("det(a) vs det(phi)", lemma),
        ("prod vs det(a)", chain.product_vs_cov),
        ("det(a) vs det(phi)", chain.cov_vs_form),
        ("det(a) vs det(b)", chain.cov_vs_skew),
    ):
        if link.relation is Relation.VIOLATED:
            yield f"{ctx} {label}: {link.relation.value}"
    if not chain.diagonal_equality_ok:
        yield f"{ctx} diagonal equality diagnosis failed"
    if not chain.skew_equality_ok:
        yield f"{ctx} skew equality diagnosis failed"
    if n == 2:
        det_phi_zero = decide_zero(chain.cov_vs_form.rhs)
        skew_equal = chain.cov_vs_skew.relation is Relation.EQUAL
        if det_phi_zero != skew_equal:
            yield f"{ctx} n=2 biconditional failed"


def trial_trace(rng: random.Random, t: int, dims):
    n, scalar = _gram_shape(t, dims)
    form = rand_gram(rng, n, scalar, singular=t % 7 == 6)
    ctx = f"trial={t} n={n} scalar={scalar}"
    general, pairing = check_trace_bounds(form, classify_gram(form))
    if general.relation is Relation.VIOLATED:
        yield f"{ctx} general bound: {general.relation.value}"
    if pairing is not None and pairing.relation is Relation.VIOLATED:
        yield f"{ctx} pairing bound: {pairing.relation.value}"


def _min_coeff_valuation(f: Observable):
    vals = []
    for c in f.terms.values():
        for s in (c.re, c.im):
            if s.terms:
                vals.append(s.terms[0][0])
    return min(vals) if vals else INF


def trial_moyal(rng: random.Random, t: int, dims):
    d = rng.randint(1, 2)
    f = rand_complex_observable(rng, d)
    g = rand_complex_observable(rng, d)
    k = rand_complex_observable(rng, d)
    ctx = f"trial={t} d={d}"
    if star(star(f, g), k) != star(f, star(g, k)):
        yield f"{ctx} star not associative"
    one = constant(d, 1)
    if star(f, one) != f or star(one, f) != f:
        yield f"{ctx} unit law fails"
    low = star(f, g) - f * g
    if _min_coeff_valuation(low) < 1:
        yield f"{ctx} zeroth order differs from pointwise product"
    if star(f, g).conj() != star(g.conj(), f.conj()):
        yield f"{ctx} conjugation anti-homomorphism fails"
    if moyal_bracket(f, g) != -moyal_bracket(g, f):
        yield f"{ctx} bracket not antisymmetric"
    jac = (
        moyal_bracket(f, moyal_bracket(g, k))
        + moyal_bracket(g, moyal_bracket(k, f))
        + moyal_bracket(k, moyal_bracket(f, g))
    )
    if jac.terms:
        yield f"{ctx} jacobi identity fails"
    qf = rand_real_observable(rng, d, max_degree=2)
    qg = rand_real_observable(rng, d, max_degree=2)
    if moyal_bracket(qf, qg) != poisson(qf, qg):
        yield f"{ctx} quadratic bracket differs from poisson"
    cf = rand_complex_observable(rng, d, max_degree=3)
    cg = rand_complex_observable(rng, d, max_degree=3)
    if _min_coeff_valuation(moyal_bracket(cf, cg) - poisson(cf, cg)) < 2:
        yield f"{ctx} bracket correction below h^2"


def trial_states(rng: random.Random, t: int, dims):
    d = 2 if t % 5 == 4 else 1
    state = rand_admissible_state(rng, d)
    f = rand_complex_observable(rng, d, max_degree=3)
    g = rand_complex_observable(rng, d, max_degree=3)
    ctx = f"trial={t} d={d}"
    if state.expectation(star(f, g)).conj() != state.expectation(
        star(g.conj(), f.conj())
    ):
        yield f"{ctx} hermitian symmetry fails"
    if state.expectation(f).conj() != state.expectation(f.conj()):
        yield f"{ctx} reality law fails"
    cs = cauchy_schwarz_check(state, f, g)
    if cs.relation is Relation.VIOLATED:
        yield f"{ctx} cauchy-schwarz {cs.relation.value}"
    if gelfand_norm(state, f).sign() not in (Sign.POSITIVE, Sign.ZERO):
        yield f"{ctx} positivity fails"
    alpha, beta = rand_fraction(rng), rand_fraction(rng)
    lin = state.expectation(f * alpha + g * beta)
    if lin != state.expectation(f) * alpha + state.expectation(g) * beta:
        yield f"{ctx} linearity fails"
    if d == 1:
        # annihilator of diagonal covariances: dq + i s dp with s = cov_qq/(h/2)
        cqq, cpp, cqp = state.cov[0][0], state.cov[1][1], state.cov[0][1]
        if cqp.is_zero and (cqq * cpp).terms == ((Fraction(2), Fraction(1, 4)),):
            s = cqq / h(1, Fraction(1, 2))
            q, p = coordinate(1, "q", 1), coordinate(1, "p", 1)
            w = deviation(state, q) + deviation(state, p) * ComplexSeries(ZERO, s)
            if not in_gelfand_ideal(state, w):
                yield f"{ctx} known annihilator not in ideal"
            elif not in_gelfand_ideal(state, star(g, w)):
                yield f"{ctx} left ideal property fails"
    else:
        f1 = rand_real_observable(rng, 1, max_degree=2)
        f2 = rand_real_observable(rng, 1, max_degree=2)
        joint = state.expectation(_lift_mode(f1, 0) * _lift_mode(f2, 1))
        if joint != _marginal(state, 0).expectation(f1) * _marginal(state, 1).expectation(f2):
            yield f"{ctx} product state does not factorize"


def _marginal(state: GaussianState, mode: int) -> GaussianState:
    """The d=1 marginal of a d=2 state on the given mode."""
    idx = (mode, 2 + mode)
    return GaussianState(
        [state.mean[i] for i in idx], [[state.cov[i][j] for j in idx] for i in idx]
    )


def _lift_mode(f: Observable, mode: int) -> Observable:
    """Embed a d=1 observable as acting on the given mode of a d=2 space."""
    out = {}
    for (aq, ap), c in f.terms.items():
        mono = [0, 0, 0, 0]
        mono[mode] = aq
        mono[2 + mode] = ap
        out[tuple(mono)] = c
    return observable(2, out)


def trial_uncertainty(rng: random.Random, t: int, dims):
    state = rand_admissible_state(rng, 1)
    xs = [rand_real_observable(rng, 1, max_degree=2) for _ in range(rng.randint(2, 3))]
    dependent = t % 4 == 3
    if dependent:
        alpha, beta = rand_fraction(rng, nonzero=True), rand_fraction(rng)
        xs.append(xs[0] * alpha + xs[1] * beta)
    ctx = f"trial={t} n={len(xs)}{' dependent' if dependent else ''}"
    try:
        checks = check_relations(state, xs)
    except InternalConsistencyError as exc:  # the internal cross-checks are part of the suite
        yield f"{ctx} internal cross-check failed: {exc}"
        return
    for name, r in checks.reports:
        if r.relation is Relation.VIOLATED:
            yield f"{ctx} {name} {r.relation.value}"
    if checks.hr_intelligent and not checks.rs_intelligent:
        yield f"{ctx} HR saturation without RS saturation"
    if dependent and checks.direction is None:
        yield f"{ctx} dependent set must give an ideal direction"
    if len(xs) == 2:
        two = dict(checks.reports)["TwoObs"]
        if determinant(checks.mm.phi.entries) != ComplexSeries(two.lhs - two.rhs):
            yield f"{ctx} TwoObs gap differs from det(phi)"
        saturated = two.relation is Relation.EQUAL
        if (checks.witness is not None) != saturated:
            yield f"{ctx} witness existence disagrees with saturation"


# ---------------------------------------------------------------------------
# the suite table and its driver

#: suite -> (trial functions, least dimension or None for an unsized suite)
_TABLE = {
    "field_axioms": ((trial_field_axioms, trial_valuation_laws), None),
    "robertson": ((trial_robertson,), 1),
    "hadamard": ((trial_hadamard,), 1),
    "trace": ((trial_trace,), 2),
    "moyal": ((trial_moyal,), None),
    "states": ((trial_states,), None),
    "uncertainty": ((trial_uncertainty,), None),
}
SUITES = tuple(_TABLE)
#: the suites whose trials draw their sizes from ``dims``
SIZED_SUITES = tuple(name for name, (_, least) in _TABLE.items() if least is not None)


def run_suite(name: str, trials: int, seed: int, dims=None) -> SuiteReport:
    """Run ``trials`` >= 1 trials of each trial function of the suite from
    ``seed``.  A sized suite takes ``dims`` (by default 2, 3, 4, 5), none
    below its least dimension; an unsized suite takes none."""
    if name not in _TABLE:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if trials < 1:
        raise ValueError(f"expected a trial count >= 1, got {trials}")
    trial_fns, least = _TABLE[name]
    if least is None and dims is not None:
        raise ValueError(f"the {name} suite takes no dimensions")
    if least is not None:
        dims = tuple(dims) if dims else (2, 3, 4, 5)
        if min(dims) < least:
            raise ValueError(f"the {name} suite needs dimensions >= {least}")
    rep = SuiteReport(name, trials, seed, dims, [])
    for trial in trial_fns:
        rng = random.Random(seed)
        for t in range(trials):
            rep.failures.extend(trial(rng, t, dims))
    return rep
