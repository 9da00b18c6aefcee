"""Seeded raw inputs for the three workloads.

Nothing here imports ``dq``: the inputs are plain data (strings, Fractions,
tuples) drawn from ``random.Random(seed)``, and ``dq`` only ever receives
them.  The make-up of every round is fixed; the seed only chooses values.

Every input is drawn from two streams: its shape (which monomials, which
exponents) from a stream fixed by its place in the round, and its values
(coefficients, state parameters) from the seeded stream.  So every seed
runs the same mix of work on different numbers.

A series is written ``(pairs, trunc)`` with ``pairs`` a tuple of
``(exponent, coefficient)`` Fractions and ``trunc`` a Fraction or ``None``
for an exact element.  An observable is a dict ``{monomial: Fraction}``
whose monomial lists the q-exponents for dof 1..d, then the p-exponents.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

# ---------------------------------------------------------------------------
# check_cli


@dataclass(frozen=True)
class StateSpec:
    """A state as the CLI receives it, plus its parameters for the oracle.

    ``arg`` is the ``--state`` argument; ``file`` is the JSON body to write
    for file states (``arg`` then names the file).  ``cov`` is in units of h.
    """

    d: int
    arg: str
    mean: tuple[F, ...]
    cov_h: tuple[tuple[F, ...], ...]
    file: dict | None = None


@dataclass(frozen=True)
class Invocation:
    command: str  # "check" | "intelligent"
    state: StateSpec
    obs: tuple[dict, ...]
    exprs: tuple[str, ...]
    order: int
    fault: bool = False  # input of the kept kernel fault

    def argv(self) -> list[str]:
        out = [self.command, "--state", self.state.arg, "--json", "--order", str(self.order)]
        out.extend(f"--obs={e}" for e in self.exprs)
        return out


SQUEEZES = (F(1, 2), F(2), F(3), F(1, 3), F(3, 2), F(2, 3))


def _small(rng: random.Random, lo=-4, hi=4, max_den=3) -> F:
    while True:
        f = F(rng.randint(lo, hi), rng.randint(1, max_den))
        if f:
            return f


def _lit(x: F) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def series_literal(coeff_by_exp: dict) -> str:
    """Series literal in the grammar of ``dq.parsing.parse_series``."""
    parts = []
    for e, c in sorted(coeff_by_exp.items()):
        if not c:
            continue
        mono = "" if e == 0 else ("h" if e == 1 else f"h^{_lit(e)}" if e.denominator == 1 else f"h^({_lit(e)})")
        body = _lit(abs(c)) if not mono else f"{_lit(abs(c))}*{mono}"
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign}{body}" if not parts else f" {sign} {body}")
    return "".join(parts).lstrip("+") or "0"


def obs_expr(obs: dict, d: int) -> str:
    """Expression in the grammar of ``dq.parsing.parse_observable``."""
    parts = []
    for mono, c in sorted(obs.items()):
        factors = []
        for j in range(d):
            for kind, e in (("q", mono[j]), ("p", mono[d + j])):
                if e == 1:
                    factors.append(f"{kind}{j + 1}")
                elif e > 1:
                    factors.append(f"{kind}{j + 1}^{e}")
        body = "*".join([_lit(abs(c))] + factors)
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign}{body}" if not parts else f" {sign} {body}")
    return "".join(parts).lstrip("+")


def _ordered_monos(d: int, degree: int) -> list[tuple[int, ...]]:
    out = []

    def rec(prefix, left):
        if len(prefix) == 2 * d:
            if sum(prefix) == degree:
                out.append(tuple(prefix))
            return
        for e in range(left + 1):
            rec(prefix + [e], left - e)

    rec([], degree)
    return out


def _signature_set(rng: random.Random, srng: random.Random, d: int, sig) -> list[dict]:
    """One observable per entry of ``sig``, a tuple of monomial degrees.

    The first degree of each entry is the observable's lead monomial, which
    no other observable of the set uses, so the set is linearly independent
    modulo constants.  The seed picks the monomials and coefficients; the
    shape (how many monomials of which degree) is fixed by ``sig``.  The
    monomials come from the shape stream ``srng``, the coefficients from the
    seeded ``rng``.  The set is drawn again until it mentions the last dof,
    since the CLI infers d from the largest coordinate index.
    """
    while True:
        out = _draw_signature_set(rng, srng, d, sig)
        if any(m[d - 1] or m[2 * d - 1] for obs in out for m in obs):
            return out


def _draw_signature_set(rng: random.Random, srng: random.Random, d: int, sig) -> list[dict]:
    leads: list = []
    for degs in sig:
        leads.append(srng.choice([m for m in _ordered_monos(d, degs[0]) if m not in leads]))
    out = []
    for lead, degs in zip(leads, sig):
        obs = {lead: _small(rng)}
        for deg in degs[1:]:
            free = [m for m in _ordered_monos(d, deg) if m not in leads and m not in obs]
            obs[srng.choice(free)] = _small(rng)
        out.append(obs)
    return out


def _dependent_set(rng: random.Random, srng: random.Random, d: int, n: int) -> list[dict]:
    """n degree-1 observables whose last one combines the others."""
    coords = _ordered_monos(d, 1)
    base = []
    for j in range(n - 1):
        lead = coords[j % len(coords)]
        other = srng.choice([m for m in coords if m != lead])
        base.append({lead: _small(rng), other: _small(rng)})
    while True:
        combo: dict = {(0,) * (2 * d): _small(rng)}
        for obs in base:
            w = F(srng.choice((-2, -1, 1, 2)))
            for m, c in obs.items():
                combo[m] = combo.get(m, F(0)) + w * c
        combo = {m: c for m, c in combo.items() if c}
        if any(sum(m) for m in combo):
            return base + [combo]


def _pure_cov(s: F, r: F, k: F) -> tuple[tuple[F, ...], ...]:
    """d=1 covariance in units of h: k/2 [[s, r], [r, (1 + r^2)/s]], det k^2/4."""
    return ((k * s / 2, k * r / 2), (k * r / 2, k * (1 + r * r) / s / 2))


def _state_d1(rng: random.Random, kind: str, idx: int) -> StateSpec:
    zero = (F(0), F(0))
    if kind == "ground":
        return StateSpec(1, "ground", zero, ((F(1, 2), F(0)), (F(0), F(1, 2))))
    if kind == "squeezed":
        s = rng.choice(SQUEEZES)
        return StateSpec(1, f"squeezed:{_lit(s)}", zero, ((s / 2, F(0)), (F(0), 1 / (2 * s))))
    mean = (_small(rng, -2, 2, 2), _small(rng, -2, 2, 2))
    cov = _pure_cov(rng.choice(SQUEEZES), F(rng.choice((-1, 1)), 2), rng.choice((F(1), F(3, 2))))
    return _file_state(1, mean, cov, idx)


def _file_state(d: int, mean, cov_h, idx: int) -> StateSpec:
    body = {
        "d": d,
        "mean": [series_literal({F(0): m}) for m in mean],
        "cov": [[series_literal({F(1): c}) for c in row] for row in cov_h],
    }
    return StateSpec(d, f"state{idx}.json", tuple(mean), tuple(tuple(r) for r in cov_h), body)


def _state_d2(rng: random.Random, kind: str, idx: int) -> StateSpec:
    if kind == "ground":
        cov = tuple(tuple(F(1, 2) if i == j else F(0) for j in range(4)) for i in range(4))
        return StateSpec(2, "ground", (F(0),) * 4, cov)
    cov = [[F(0)] * 4 for _ in range(4)]
    mean = [F(0)] * 4
    for mode in range(2):
        if kind == "squeezed":
            s = rng.choice(SQUEEZES)
            block = ((s / 2, F(0)), (F(0), 1 / (2 * s)))
        else:  # product of two mixed/pure d=1 states with nonzero means
            block = _pure_cov(rng.choice(SQUEEZES), F(rng.choice((-1, 1)), 2), rng.choice((F(1), F(3, 2))))
            mean[mode] = _small(rng, -2, 2, 2)
            mean[2 + mode] = _small(rng, -2, 2, 2)
        q, p = mode, 2 + mode
        cov[q][q], cov[q][p] = block[0]
        cov[p][q], cov[p][p] = block[1]
    return _file_state(2, tuple(mean), cov, idx)


#: the ROADMAP reproduction of the kernel fault: mean (0, -1), cov h/2 I
FAULT_EXPRS = ("-2*q1*p1", "-3/2 - q1", "12 + 8*q1 + 2*q1*p1")
FAULT_ORDERS = (8, 16)


def fault_invocations(start_idx: int) -> list[Invocation]:
    """Fixed inputs, independent of the seed, that hit the kernel fault."""
    cov = ((F(1, 2), F(0)), (F(0), F(1, 2)))
    state = _file_state(1, (F(0), F(-1)), cov, start_idx)
    obs = (
        {(1, 1): F(-2)},
        {(0, 0): F(-3, 2), (1, 0): F(-1)},
        {(0, 0): F(12), (1, 0): F(8), (1, 1): F(2)},
    )
    return [
        Invocation(cmd, state, obs, FAULT_EXPRS, order, fault=True)
        for cmd, order in zip(("check", "intelligent"), FAULT_ORDERS)
    ]


#: monomial degrees of each observable of a set, by number of dof; "dep"
#: marks a set of linear observables whose last one combines the others
SIGNATURES = {
    1: (
        ((1,), (1, 0)),
        ((2, 1), (2, 0)),
        ((3, 1), (2,)),
        ((1,), (2, 0), (3, 2)),
        ((2, 0), (2, 1), (3,)),
        ((1,), (2,), (2, 3), (3, 0)),
        "dep2",
        "dep3",
    ),
    2: (
        ((1, 1), (2,)),
        ((3,), (3, 1)),
        ((1,), (1,), (2, 0), (2, 1)),
        ((3,), (2, 1), (1,), (3, 0)),
        ((1,), (1,), (1,), (1,), (2,), (2, 0)),
        "dep3",
        "dep4",
    ),
}
STATE_KINDS = {1: ("ground", "squeezed", "file"), 2: ("ground", "squeezed", "product")}
#: (d, state kind, signature) per invocation of a round, each run as
#: ``check`` and as ``intelligent``
CLI_PLAN = tuple((d, k, sig) for d in (1, 2) for sig in SIGNATURES[d] for k in STATE_KINDS[d])
#: draws of each plan entry per round
CLI_REPEATS = 2
#: inadmissible correlated:<c> states (c = r h, so det(cov) = (1/4 - r^2) h^2),
#: each checked on a pair of linear observables whose RS verdict is violated
CORRELATED = (
    (F(1, 3), ({(1, 0): F(1)}, {(0, 1): F(1)})),
    (F(-1, 4), ({(0, 1): F(1)}, {(1, 0): F(1), (0, 0): F(2)})),
    (F(1, 5), ({(1, 0): F(2)}, {(0, 1): F(-1)})),
)


def check_cli_corpus(seed: int, scale: float = 1.0) -> list[Invocation]:
    rng = random.Random(seed)
    plan = list(CLI_PLAN) * CLI_REPEATS
    if scale < 1:
        plan = list(CLI_PLAN)[:: max(1, round(1 / scale))]
    out: list[Invocation] = []
    idx = 0
    for j, (d, kind, sig) in enumerate(plan):
        for command in ("check", "intelligent"):
            srng = random.Random(f"check_cli-{j}-{command}")
            state = (_state_d1 if d == 1 else _state_d2)(rng, kind, idx)
            idx += state.file is not None
            if isinstance(sig, str):  # "dep<n>"
                obs = _dependent_set(rng, srng, d, int(sig[3:]))
            else:
                obs = _signature_set(rng, srng, d, sig)
            exprs = tuple(obs_expr(o, d) for o in obs)
            out.append(Invocation(command, state, tuple(obs), exprs, 8))
    for c, obs in CORRELATED:
        arg = f"correlated:{series_literal({F(1): c})}"
        state = StateSpec(1, arg, (F(0), F(0)), ((F(1, 2), c), (c, F(1, 2))))
        out.append(Invocation("check", state, obs, tuple(obs_expr(o, 1) for o in obs), 8))
    out.extend(fault_invocations(idx))
    # interleave: spread kinds evenly instead of running them in blocks
    order = sorted(range(len(out)), key=lambda k: (k * 7919) % len(out))
    return [out[k] for k in order]


# ---------------------------------------------------------------------------
# gram_forms

#: exponents of the exact series entries; h = t^2 turns them into polynomials
GRAM_EXPS = (F(0), F(1, 2), F(1), F(2))


@dataclass(frozen=True)
class GramInput:
    """G as rows of (re, im) series; the form is G^H G."""

    n: int
    scalar: str  # "rational" | "series"
    singular: bool
    g: tuple
    fault: bool = False  # input of the kept kernel fault


def _nonzero(rng: random.Random) -> F:
    return F(rng.choice((-3, -2, -1, 1, 2, 3)))


def _gram_entry(rng: random.Random, srng: random.Random, scalar: str):
    """One entry of G as (re, im) pairs: nonzero rationals, or exact series
    with two terms in the real and one in the imaginary part (exponents from
    the shape stream ``srng``, coefficients from the seeded ``rng``)."""
    if scalar == "rational":
        return ((F(0), _nonzero(rng)),), ((F(0), _nonzero(rng)),)
    e1, e2 = srng.sample(GRAM_EXPS, 2)
    return ((e1, _nonzero(rng)), (e2, _nonzero(rng))), ((srng.choice(GRAM_EXPS), _nonzero(rng)),)


def _clean(pairs):
    return tuple(sorted((e, c) for e, c in pairs if c))


def _combine(entries, coeffs):
    """Sum of c_j * entry_j for (re, im) pair entries and rational c_j."""
    re: dict = {}
    im: dict = {}
    for (r, i), c in zip(entries, coeffs):
        for e, v in r:
            re[e] = re.get(e, F(0)) + c * v
        for e, v in i:
            im[e] = im.get(e, F(0)) + c * v
    return (_clean(re.items()), _clean(im.items()))


def gram_input(rng: random.Random, srng: random.Random, n: int, scalar: str, singular: bool) -> GramInput:
    """With ``singular`` the last column of G is a real rational combination
    of the others, so the form and its real part are singular."""
    g = [[_gram_entry(rng, srng, scalar) for _ in range(n)] for _ in range(n)]
    g = [[(_clean(r), _clean(i)) for r, i in row] for row in g]
    if singular:
        coeffs = [F(srng.randint(-2, 2)) for _ in range(n - 1)]
        if not any(coeffs):
            coeffs[0] = F(1)
        for row in g:
            row[n - 1] = _combine(row[: n - 1], coeffs)
    return GramInput(n, scalar, singular, tuple(tuple(r) for r in g))


#: a fixed singular series form (n = 3) whose real part hits the kernel
#: fault; it was drawn once and is frozen here so it does not depend on the
#: seed
FAULT_GRAMS = (
    (
        ((((F(2), F(-3)),), ()), (((F(2), F(-1)),), ()), (((F(2), F(2)),), ())),
        (
            (((F(1, 2), F(-1)), (F(1), F(1))), ()),
            (((F(0), F(3)),), ((F(0), F(-1)), (F(2), F(-1)))),
            (((F(0), F(-6)),), ((F(0), F(2)), (F(2), F(2)))),
        ),
        (
            (((F(0), F(1)), (F(2), F(2))), ((F(1), F(-2)),)),
            (((F(0), F(-2)), (F(1), F(2))), ((F(1, 2), F(1)),)),
            (((F(0), F(4)), (F(1), F(-4))), ((F(1, 2), F(-2)),)),
        ),
    ),
)

#: (n, scalar, singular) per form of a round.  Series forms stop at n = 3,
#: and singular series forms at n = 2: the inertia test takes about 1 s on
#: one n = 4 series form and seconds on singular n = 3 ones (see the README)
GRAM_PLAN = (
    [(n, "rational", False) for n in (2, 3, 4, 5)] * 4
    + [(n, "rational", True) for n in (2, 3, 4, 5)] * 2
    + [(n, "series", False) for n in (2, 2, 3, 3)] * 4
    + [(2, "series", True)] * 8
)


def gram_corpus(seed: int, scale: float = 1.0) -> list[GramInput]:
    rng = random.Random(seed)
    plan = list(GRAM_PLAN)
    if scale < 1:
        plan = plan[:: max(1, round(1 / scale))]
    out = [
        gram_input(rng, random.Random(f"gram_forms-{i}"), n, s, sing)
        for i, (n, s, sing) in enumerate(plan)
    ]
    out.extend(GramInput(len(g), "series", True, g, fault=True) for g in FAULT_GRAMS)
    order = sorted(range(len(out)), key=lambda k: (k * 7919) % len(out))
    return [out[k] for k in order]


# ---------------------------------------------------------------------------
# field_series

#: exponent offsets above the leading exponent, one shape per operand; the
#: shapes mix exponent denominators 1..6 within and across operands
SHAPES = (
    (F(0), F(1), F(2)),
    (F(0), F(1, 2), F(3, 2)),
    (F(0), F(1, 3), F(1)),
    (F(0), F(2, 3), F(5, 3)),
    (F(0), F(1, 4), F(3, 2)),
    (F(0), F(3, 5), F(1)),
    (F(0), F(1, 6), F(1, 2)),
    (F(0), F(5, 6), F(4, 3)),
)
#: truncation orders of the truncated inputs ("working orders")
FIELD_ORDERS = (F(3), F(5), F(8))
#: groups per (shape, order) pair in one round
FIELD_REPEATS = 4


def shaped(rng: random.Random, srng: random.Random, shape, trunc, positive=False):
    """Element with the given exponent offsets above a leading exponent in
    [0, 1) from the shape stream ``srng``, seeded random coefficients, and
    truncated at ``trunc``."""
    den = math.lcm(*(e.denominator for e in shape))
    lead = F(srng.randrange(den), den)
    pairs = [(lead + off, _small(rng, -6, 6, 5)) for off in shape]
    if positive:
        pairs[0] = (pairs[0][0], abs(pairs[0][1]))
    return tuple(pairs), trunc


def _mul_pairs(a, b, trunc=None):
    acc: dict = {}
    for e1, c1 in a:
        for e2, c2 in b:
            e = e1 + e2
            if trunc is None or e < trunc:
                acc[e] = acc.get(e, F(0)) + c1 * c2
    return _clean(acc.items())


@dataclass(frozen=True)
class FieldGroup:
    """Operands for one group of field operations (one of each kind)."""

    a: tuple
    b: tuple
    c: tuple  # compared against a; equal to a up to a random number of terms
    y: tuple  # sqrt(y^2) should give y back
    y2: tuple
    ea: tuple  # exact factors; exact_div(ea * eb, eb) = ea
    eb: tuple
    eab: tuple


def field_group(rng: random.Random, srng: random.Random, i: int, trunc) -> FieldGroup:
    def shape(k):
        return SHAPES[(i + k) % len(SHAPES)]

    a = shaped(rng, srng, shape(0), trunc)
    b = shaped(rng, srng, shape(3), trunc)
    keep = srng.randint(0, len(a[0]))
    c = (a[0][:keep] + tuple((e, x + 1) for e, x in a[0][keep:]), trunc)
    y = shaped(rng, srng, shape(5), trunc, positive=True)
    ypairs, yt = y
    vy = ypairs[0][0]
    y2 = (_mul_pairs(ypairs, ypairs, yt + vy), yt + vy)
    ea = (shaped(rng, srng, shape(1), None)[0], None)
    eb = (shaped(rng, srng, shape(6), None)[0], None)
    eab = (_mul_pairs(ea[0], eb[0]), None)
    return FieldGroup(a, b, _clean_pair(c), y, y2, ea, eb, eab)


def _clean_pair(x):
    return _clean(x[0]), x[1]


def field_corpus(seed: int, scale: float = 1.0) -> list[FieldGroup]:
    rng = random.Random(seed)
    reps = max(1, round(FIELD_REPEATS * scale))
    slots = [
        (i, t) for _ in range(reps) for i in range(len(SHAPES) if scale >= 1 else 2) for t in FIELD_ORDERS
    ]
    return [
        field_group(rng, random.Random(f"field_series-{k}"), i, t) for k, (i, t) in enumerate(slots)
    ]
