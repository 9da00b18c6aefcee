"""Seeded randomized suites for the algebraic and theorem-level laws.

Each suite draws its corpus from a ``random.Random(seed)`` stream, so a
given (suite, trials, seed, dims) triple replays byte-for-byte.  Failures
carry the exact operand literals, which at these sizes already are a
minimal reproduction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

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
    h,
    metric,
    rational,
    series,
)
from .states import GaussianState, cauchy_schwarz_check, gelfand_norm, ground, squeezed
from .uncertainty import check_relations

SUITES = ("field_axioms", "robertson", "hadamard", "trace", "moyal", "states", "uncertainty")
#: the suites whose trials draw their sizes from ``dims``
SIZED_SUITES = ("robertson", "hadamard", "trace")


@dataclass
class SuiteReport:
    name: str
    trials: int
    seed: int
    dims: tuple[int, ...] | None = None
    failures: list[str] = field(default_factory=list)

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
            acc = ComplexSeries()
            for j, c in enumerate(coeffs):
                acc = acc + g[r][j] * c
            g[r][n - 1] = acc
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
    if d == 2:
        s1, s2 = rand_admissible_state(rng, 1), rand_admissible_state(rng, 1)
        mean = list(s1.mean[:1]) + list(s2.mean[:1]) + list(s1.mean[1:]) + list(s2.mean[1:])
        cov = [[ZERO] * 4 for _ in range(4)]
        for a, offs in ((s1, 0), (s2, 1)):
            cov[offs][offs] = a.cov[0][0]
            cov[offs][2 + offs] = a.cov[0][1]
            cov[2 + offs][offs] = a.cov[1][0]
            cov[2 + offs][2 + offs] = a.cov[1][1]
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
# suites


def run_field_axioms(trials: int, seed: int) -> SuiteReport:
    rng = random.Random(seed)
    rep = SuiteReport("field_axioms", trials, seed)
    for t in range(trials):
        a = rand_series(rng)
        b = rand_series(rng)
        c = rand_series(rng)
        ctx = f"trial={t} a=[{a}] b=[{b}] c=[{c}]"
        if not agree_mod_trunc(a + b, b + a):
            rep.failures.append(f"{ctx} add not commutative")
        if not agree_mod_trunc(a * b, b * a):
            rep.failures.append(f"{ctx} mul not commutative")
        if not agree_mod_trunc((a + b) + c, a + (b + c)):
            rep.failures.append(f"{ctx} add not associative")
        if not agree_mod_trunc((a * b) * c, a * (b * c)):
            rep.failures.append(f"{ctx} mul not associative")
        if not agree_mod_trunc(a * (b + c), a * b + a * c):
            rep.failures.append(f"{ctx} mul not distributive")
        if not agree_mod_trunc(a + (-a), ZERO):
            rep.failures.append(f"{ctx} additive inverse fails")
        if a.terms and not agree_mod_trunc(a * a.inv(), ONE):
            rep.failures.append(f"{ctx} multiplicative inverse fails")
        # order axioms on determinate signs
        sa, sb = a.sign(), b.sign()
        if sa is not Sign.INDETERMINATE:
            if (-a).sign() is not {
                Sign.POSITIVE: Sign.NEGATIVE,
                Sign.NEGATIVE: Sign.POSITIVE,
                Sign.ZERO: Sign.ZERO,
            }[sa]:
                rep.failures.append(f"{ctx} negation does not flip sign")
            sq = (a * a).sign()
            if sq not in (Sign.POSITIVE, Sign.ZERO):
                rep.failures.append(f"{ctx} square not non-negative")
        if sa is not Sign.INDETERMINATE and sb is not Sign.INDETERMINATE:
            pa, pb = abs(a), abs(b)
            if pa.sign() is Sign.POSITIVE and pb.sign() is Sign.POSITIVE:
                if (pa + pb).sign() is not Sign.POSITIVE:
                    rep.failures.append(f"{ctx} positives not closed under +")
                if (pa * pb).sign() is not Sign.POSITIVE:
                    rep.failures.append(f"{ctx} positives not closed under *")
    return rep


def run_valuation_laws(trials: int, seed: int) -> SuiteReport:
    rng = random.Random(seed)
    rep = SuiteReport("valuation_laws", trials, seed)
    for t in range(trials):
        a = rand_series(rng, min_terms=1)
        b = rand_series(rng, min_terms=1)
        ctx = f"trial={t} a=[{a}] b=[{b}]"
        va, vb = a.valuation(), b.valuation()
        ab = a * b
        if ab.terms and ab.valuation() != va + vb:
            rep.failures.append(f"{ctx} val(ab) != val(a)+val(b)")
        s = a + b
        if s.terms and s.valuation() < min(va, vb):
            rep.failures.append(f"{ctx} val(a+b) < min")
        if va != vb and (not s.terms or s.valuation() != min(va, vb)):
            rep.failures.append(f"{ctx} val(a+b) != min despite distinct valuations")
        if abs(a * b) != abs(a) * abs(b):
            rep.failures.append(f"{ctx} |ab| != |a||b|")
        if (abs(a) + abs(b) - abs(a + b)).sign() is Sign.NEGATIVE:
            rep.failures.append(f"{ctx} triangle inequality fails")
        pa, pb = abs(a), abs(b)
        if va < vb and compare(pa, pb) is not Sign.POSITIVE:
            rep.failures.append(f"{ctx} lower valuation must dominate")
        # ultrametric on exact snapshots
        ea = series(a.terms)
        eb = series(b.terms)
        ec = series(rand_series(rng).terms)
        if metric(ea, ec) > max(metric(ea, eb), metric(eb, ec)) + 1e-12:
            rep.failures.append(f"{ctx} ultrametric inequality fails")
    return rep


def _dims_or_default(dims) -> tuple[int, ...]:
    return tuple(dims) if dims else (2, 3, 4, 5)


def run_robertson(trials: int, seed: int, dims=None) -> SuiteReport:
    rng = random.Random(seed)
    dims = _dims_or_default(dims)
    rep = SuiteReport("robertson", trials, seed, dims)
    for t in range(trials):
        n = dims[t % len(dims)]
        scalar = ("rational", "series")[(t // len(dims)) % 2]
        singular = t % 10 == 9
        form = rand_gram(rng, n, scalar, singular=singular)
        ctx = f"trial={t} n={n} scalar={scalar}{' singular' if singular else ''}"
        cls = classify_gram(form)
        r = check_robertson(form, cls)
        if r.relation is Relation.VIOLATED:
            rep.failures.append(f"{ctx} det(a)={r.lhs} det(b)={r.rhs}: {r.relation.value}")
            continue
        if cls is Definiteness.POSITIVE_DEFINITE and r.relation is not Relation.STRICTLY_GREATER:
            rep.failures.append(f"{ctx} positive definite but not strict")
        if n % 2 == 1 and not decide_zero(r.rhs):
            rep.failures.append(f"{ctx} odd n needs det(b)=0, got {r.rhs}")
        if singular:
            # a real kernel direction of G kills both determinants exactly
            if not decide_zero(r.lhs):
                rep.failures.append(f"{ctx} crafted singular but det(a)={r.lhs}")
            elif not decide_zero(r.rhs):
                rep.failures.append(f"{ctx} det(a)=0 but det(b)={r.rhs}")
    return rep


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


def run_hadamard(trials: int, seed: int, dims=None) -> SuiteReport:
    rng = random.Random(seed)
    dims = _dims_or_default(dims)
    rep = SuiteReport("hadamard", trials, seed, dims)
    for t in range(trials):
        n = dims[t % len(dims)]
        scalar = ("rational", "series")[(t // len(dims)) % 2]
        crafted = t % 4 == 3
        if crafted:
            form = _crafted_equality_form(rng, n, rng.randrange(4), scalar)
            ctx = f"trial={t} n={n} scalar={scalar} crafted"
        else:
            form = rand_gram(rng, n, scalar)
            ctx = f"trial={t} n={n} scalar={scalar}"
        cls = classify_gram(form)
        lemma = check_form_determinant_bound(form, cls)
        if lemma.relation is Relation.VIOLATED:
            rep.failures.append(f"{ctx} det(a) vs det(phi): {lemma.relation.value} {lemma.note}")
        chain = check_hadamard_chain(form, cls)
        for label, link in (
            ("prod vs det(a)", chain.product_vs_cov),
            ("det(a) vs det(phi)", chain.cov_vs_form),
            ("det(a) vs det(b)", chain.cov_vs_skew),
        ):
            if link.relation is Relation.VIOLATED:
                rep.failures.append(f"{ctx} {label}: {link.relation.value}")
        if not chain.diagonal_equality_ok:
            rep.failures.append(f"{ctx} diagonal equality diagnosis failed")
        if not chain.skew_equality_ok:
            rep.failures.append(f"{ctx} skew equality diagnosis failed")
        if n == 2:
            det_phi_zero = decide_zero(determinant(form.entries))
            skew_equal = chain.cov_vs_skew.relation is Relation.EQUAL
            if det_phi_zero != skew_equal:
                rep.failures.append(f"{ctx} n=2 biconditional failed")
    return rep


def run_trace(trials: int, seed: int, dims=None) -> SuiteReport:
    rng = random.Random(seed)
    dims = _dims_or_default(dims)
    if min(dims) < 2:
        raise ValueError("the trace suite needs dimensions >= 2")
    rep = SuiteReport("trace", trials, seed, dims)
    for t in range(trials):
        n = dims[t % len(dims)]
        scalar = ("rational", "series")[(t // len(dims)) % 2]
        form = rand_gram(rng, n, scalar, singular=t % 7 == 6)
        ctx = f"trial={t} n={n} scalar={scalar}"
        general, pairing = check_trace_bounds(form, classify_gram(form))
        if general.relation is Relation.VIOLATED:
            rep.failures.append(f"{ctx} general bound: {general.relation.value}")
        if pairing is not None and pairing.relation is Relation.VIOLATED:
            rep.failures.append(f"{ctx} pairing bound: {pairing.relation.value}")
    return rep


def _min_coeff_valuation(f: Observable):
    vals = []
    for c in f.terms.values():
        for s in (c.re, c.im):
            if s.terms:
                vals.append(s.terms[0][0])
    return min(vals) if vals else INF


def run_moyal(trials: int, seed: int) -> SuiteReport:
    rng = random.Random(seed)
    rep = SuiteReport("moyal", trials, seed)
    for t in range(trials):
        d = rng.randint(1, 2)
        f = rand_complex_observable(rng, d)
        g = rand_complex_observable(rng, d)
        k = rand_complex_observable(rng, d)
        ctx = f"trial={t} d={d}"
        if star(star(f, g), k) != star(f, star(g, k)):
            rep.failures.append(f"{ctx} star not associative")
        one = constant(d, 1)
        if star(f, one) != f or star(one, f) != f:
            rep.failures.append(f"{ctx} unit law fails")
        low = star(f, g) - f * g
        if _min_coeff_valuation(low) < 1:
            rep.failures.append(f"{ctx} zeroth order differs from pointwise product")
        if star(f, g).conj() != star(g.conj(), f.conj()):
            rep.failures.append(f"{ctx} conjugation anti-homomorphism fails")
        if moyal_bracket(f, g) != -moyal_bracket(g, f):
            rep.failures.append(f"{ctx} bracket not antisymmetric")
        jac = (
            moyal_bracket(f, moyal_bracket(g, k))
            + moyal_bracket(g, moyal_bracket(k, f))
            + moyal_bracket(k, moyal_bracket(f, g))
        )
        if jac.terms:
            rep.failures.append(f"{ctx} jacobi identity fails")
        qf = rand_real_observable(rng, d, max_degree=2)
        qg = rand_real_observable(rng, d, max_degree=2)
        if moyal_bracket(qf, qg) != poisson(qf, qg):
            rep.failures.append(f"{ctx} quadratic bracket differs from poisson")
        cf = rand_complex_observable(rng, d, max_degree=3)
        cg = rand_complex_observable(rng, d, max_degree=3)
        if _min_coeff_valuation(moyal_bracket(cf, cg) - poisson(cf, cg)) < 2:
            rep.failures.append(f"{ctx} bracket correction below h^2")
    return rep


def run_states(trials: int, seed: int) -> SuiteReport:
    rng = random.Random(seed)
    rep = SuiteReport("states", trials, seed)
    q, p = coordinate(1, "q", 1), coordinate(1, "p", 1)
    for t in range(trials):
        d = 2 if t % 5 == 4 else 1
        state = rand_admissible_state(rng, d)
        f = rand_complex_observable(rng, d, max_degree=3)
        g = rand_complex_observable(rng, d, max_degree=3)
        ctx = f"trial={t} d={d}"
        if state.expectation(star(f, g)).conj() != state.expectation(
            star(g.conj(), f.conj())
        ):
            rep.failures.append(f"{ctx} hermitian symmetry fails")
        if state.expectation(f).conj() != state.expectation(f.conj()):
            rep.failures.append(f"{ctx} reality law fails")
        cs = cauchy_schwarz_check(state, f, g)
        if cs.relation is Relation.VIOLATED:
            rep.failures.append(f"{ctx} cauchy-schwarz {cs.relation.value}")
        if gelfand_norm(state, f).sign() not in (Sign.POSITIVE, Sign.ZERO):
            rep.failures.append(f"{ctx} positivity fails")
        alpha, beta = rand_fraction(rng), rand_fraction(rng)
        lin = state.expectation(f * alpha + g * beta)
        if lin != state.expectation(f) * alpha + state.expectation(g) * beta:
            rep.failures.append(f"{ctx} linearity fails")
        if d == 1:
            # annihilator of diagonal covariances: dq + i s dp with s = cov_qq/(h/2)
            cqq, cpp, cqp = state.cov[0][0], state.cov[1][1], state.cov[0][1]
            if cqp.is_zero and (cqq * cpp).terms == ((Fraction(2), Fraction(1, 4)),):
                s = cqq / h(1, Fraction(1, 2))
                from .states import deviation, in_gelfand_ideal

                w = deviation(state, q) + deviation(state, p) * ComplexSeries(ZERO, s)
                if not in_gelfand_ideal(state, w):
                    rep.failures.append(f"{ctx} known annihilator not in ideal")
                elif not in_gelfand_ideal(state, star(g, w)):
                    rep.failures.append(f"{ctx} left ideal property fails")
        else:
            f1 = rand_real_observable(rng, 1, max_degree=2)
            f2 = rand_real_observable(rng, 1, max_degree=2)
            lift1 = _lift_mode(f1, 0)
            lift2 = _lift_mode(f2, 1)
            marg1 = GaussianState(
                [state.mean[0], state.mean[2]],
                [
                    [state.cov[0][0], state.cov[0][2]],
                    [state.cov[2][0], state.cov[2][2]],
                ],
            )
            marg2 = GaussianState(
                [state.mean[1], state.mean[3]],
                [
                    [state.cov[1][1], state.cov[1][3]],
                    [state.cov[3][1], state.cov[3][3]],
                ],
            )
            if state.expectation(lift1 * lift2) != marg1.expectation(f1) * marg2.expectation(f2):
                rep.failures.append(f"{ctx} product state does not factorize")
    return rep


def _lift_mode(f: Observable, mode: int) -> Observable:
    """Embed a d=1 observable as acting on the given mode of a d=2 space."""
    out = {}
    for (aq, ap), c in f.terms.items():
        mono = [0, 0, 0, 0]
        mono[mode] = aq
        mono[2 + mode] = ap
        out[tuple(mono)] = c
    return observable(2, out)


def run_uncertainty(trials: int, seed: int) -> SuiteReport:
    rng = random.Random(seed)
    rep = SuiteReport("uncertainty", trials, seed)
    for t in range(trials):
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
            rep.failures.append(f"{ctx} internal cross-check failed: {exc}")
            continue
        for name, r in checks.reports:
            if r.relation is Relation.VIOLATED:
                rep.failures.append(f"{ctx} {name} {r.relation.value}")
        if checks.hr_intelligent and not checks.rs_intelligent:
            rep.failures.append(f"{ctx} HR saturation without RS saturation")
        if dependent and checks.direction is None:
            rep.failures.append(f"{ctx} dependent set must give an ideal direction")
        if len(xs) == 2:
            saturated = dict(checks.reports)["TwoObs"].relation is Relation.EQUAL
            if (checks.witness is not None) != saturated:
                rep.failures.append(f"{ctx} witness existence disagrees with saturation")
    return rep


def run_suite(name: str, trials: int, seed: int, dims=None) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if dims is not None and name not in SIZED_SUITES:
        raise ValueError(f"the {name} suite takes no dimensions")
    if name == "field_axioms":
        axioms = run_field_axioms(trials, seed)
        values = run_valuation_laws(trials, seed)
        axioms.failures.extend(values.failures)
        return axioms
    if name == "robertson":
        return run_robertson(trials, seed, dims)
    if name == "hadamard":
        return run_hadamard(trials, seed, dims)
    if name == "trace":
        return run_trace(trials, seed, dims)
    if name == "moyal":
        return run_moyal(trials, seed)
    if name == "states":
        return run_states(trials, seed)
    return run_uncertainty(trials, seed)
