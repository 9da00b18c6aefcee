"""Output oracles, computed apart from dq with sympy.

``check(workload, op, data)`` returns a list of problems (empty when the
output is right).  Nothing here imports dq or reuses its algorithms:

* check_cli: Moyal products by the derivative formula on sympy polynomials,
  Gaussian moments by Isserlis' theorem (a sum over perfect matchings), and
  sympy determinants give the lhs and rhs of every relation; kernel vectors
  are checked by multiplying them back;
* gram_forms: sympy determinants after substituting h = t^2, plus the
  properties of Gram forms (never violated; positive definite exactly when
  det(phi) != 0; kernel vectors annihilated exactly);
* field_series: sympy sums and products compared modulo the truncation
  order, and the identities a * a.inv() = 1, sqrt(x)^2 = x and
  exact_div(a * b, b) = a, each modulo the precision its operands carry.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as F
from itertools import combinations

import sympy as sp
from sympy.polys.matrices import DomainMatrix

from workloads import Failure

H = sp.Symbol("h", positive=True)
T = sp.Symbol("t", positive=True)


def rat(x) -> sp.Rational:
    x = F(x)
    return sp.Rational(x.numerator, x.denominator)


def literal(text: str) -> sp.Expr:
    """A dq series literal as a sympy expression in h."""
    return sp.expand(sp.sympify(text.replace("^", "**"), locals={"h": H}))


def terms(expr, var=H) -> dict:
    """{exponent: coefficient} of a finite sum of monomials c * var^e."""
    out: dict = {}
    for term in sp.Add.make_args(sp.expand(expr)):
        if term == 0:
            continue
        c, e = term.as_coeff_exponent(var)
        if c.has(var) or not c.is_Rational:
            raise ValueError(f"not a monomial in {var}: {term}")
        out[F(int(e.p), int(e.q))] = out.get(F(int(e.p), int(e.q)), F(0)) + F(int(c.p), int(c.q))
    return {e: c for e, c in out.items() if c}


def sign(expr, var=H) -> int:
    """Sign under the order with var a positive infinitesimal."""
    ts = terms(expr, var)
    if not ts:
        return 0
    return 1 if ts[min(ts)] > 0 else -1


RELATION = {1: "strictly_greater", 0: "equal", -1: "violated"}
STATUS = {1: "strictly_above", 0: "saturated", -1: "violated"}


def _det(rows) -> sp.Expr:
    m = DomainMatrix.from_list_sympy(len(rows), len(rows), [[sp.expand(x) for x in r] for r in rows])
    return sp.expand(m.domain.to_sympy(m.det()))


def _rank(rows) -> int:
    m = DomainMatrix.from_list_sympy(len(rows), len(rows[0]), [[sp.expand(x) for x in r] for r in rows])
    return m.to_field().rank()


def _abs(expr, var):
    return -expr if sign(expr, var) < 0 else expr


def _same(a, b) -> bool:
    return sp.expand(a - b) == 0


# ---------------------------------------------------------------------------
# check_cli


def _moments(mean, cov_h, alpha) -> sp.Expr:
    """E[prod x_i^alpha_i] for a Gaussian with the given mean and cov = cov_h * h.

    Isserlis: expand prod (mu_i + y_i), and take each centred product as the
    sum over perfect matchings of the product of the paired covariances.
    """
    idx = [i for i, k in enumerate(alpha) for _ in range(k)]
    total = sp.Integer(0)
    for r in range(0, len(idx) + 1):
        for chosen in combinations(range(len(idx)), r):
            if r % 2:
                continue
            mean_part = sp.Integer(1)
            for pos in range(len(idx)):
                if pos not in chosen:
                    mean_part *= rat(mean[idx[pos]])
            if mean_part == 0:
                continue
            total += mean_part * _matchings(tuple(idx[p] for p in chosen), cov_h)
    return sp.expand(total)


def _matchings(idx: tuple, cov_h) -> sp.Expr:
    if not idx:
        return sp.Integer(1)
    first, rest = idx[0], idx[1:]
    out = sp.Integer(0)
    for k in range(len(rest)):
        c = cov_h[first][rest[k]]
        if c:
            out += rat(c) * H * _matchings(rest[:k] + rest[k + 1 :], cov_h)
    return out


class _Cli:
    """Moment matrices of one invocation, computed with sympy."""

    def __init__(self, inv):
        d = inv.state.d
        self.d = d
        self.xs = sp.symbols(" ".join([f"q{j + 1}" for j in range(d)] + [f"p{j + 1}" for j in range(d)]))
        self.mean = inv.state.mean
        self.cov_h = inv.state.cov_h
        self._mcache: dict = {}
        polys = [self._poly(o) for o in inv.obs]
        devs = [p - self.rho(p) for p in polys]
        n = len(devs)
        self.a = [[None] * n for _ in range(n)]
        self.b = [[None] * n for _ in range(n)]
        for j in range(n):
            for k in range(j, n):
                re, im = self.star(devs[j], devs[k])
                self.a[j][k] = self.a[k][j] = self.rho(re)
                self.b[j][k], self.b[k][j] = self.rho(im), -self.rho(im)

    def _poly(self, obs) -> sp.Poly:
        expr = sp.Integer(0)
        for mono, c in obs.items():
            term = rat(c)
            for x, e in zip(self.xs, mono):
                term *= x**e
            expr += term
        return sp.Poly(expr, *self.xs, H)

    def rho(self, p: sp.Poly) -> sp.Expr:
        out = sp.Integer(0)
        for monom, c in p.terms():
            alpha, hpow = monom[:-1], monom[-1]
            m = self._mcache.get(alpha)
            if m is None:
                m = self._mcache[alpha] = _moments(self.mean, self.cov_h, alpha)
            out += c * H**hpow * m
        return sp.expand(out)

    def star(self, f: sp.Poly, g: sp.Poly):
        """Real and imaginary parts of the Moyal product
        sum_k (1/k!) (i h/2)^k P^k(f, g), P = sum_j d/dq_j (x) d/dp_j - d/dp_j (x) d/dq_j."""
        d, xs = self.d, self.xs
        re, im = f * g, sp.Poly(0, *xs, H)
        pairs = [(1, f, g)]
        k = 0
        while pairs:
            k += 1
            nxt = []
            for c, u, v in pairs:
                for j in range(d):
                    for sgn, du, dv in ((1, xs[j], xs[d + j]), (-1, xs[d + j], xs[j])):
                        uu, vv = u.diff(du), v.diff(dv)
                        if not uu.is_zero and not vv.is_zero:
                            nxt.append((c * sgn, uu, vv))
            pairs = nxt
            if not pairs:
                break
            acc = sp.Poly(0, *xs, H)
            for c, u, v in pairs:
                acc += u * v * c
            scale = sp.Poly(H**k, *xs, H) * sp.Rational(1, 2**k * math.factorial(k))
            part = acc * scale * (1 if k % 4 in (0, 1) else -1)
            if k % 2:
                im += part
            else:
                re += part
        return re, im

    def reports(self):
        n = len(self.a)
        var = [self.a[j][j] for j in range(n)]
        det_a, det_b = _det(self.a), _det(self.b)
        out = [("RS", det_a, det_b), ("HR", sp.expand(sp.Mul(*var)), det_b)]
        lhs = sp.expand(sp.Add(*var))
        total = sp.Add(*[_abs(self.b[j][k], H) for j in range(n) for k in range(j + 1, n)])
        out.append(("Trace", lhs, sp.expand(sp.Rational(2, n - 1) * total)))
        if n % 2 == 0:
            m = n // 2
            paired = sp.Add(*[_abs(self.b[j][m + j], H) for j in range(m)])
            out.append(("TracePairing", lhs, sp.expand(2 * paired)))
        if n == 2:
            out.append(("TwoObs", sp.expand(var[0] * var[1]), sp.expand(self.a[0][1] ** 2 + self.b[0][1] ** 2)))
        return out, det_a


def _vector(entries, complex_ok: bool):
    out = []
    for e in entries:
        im = literal(e["im"])
        if im != 0 and not complex_ok:
            return None
        out.append(literal(e["re"]) + sp.I * im)
    return out


def _kernel_problems(name, rows, vec) -> list[str]:
    if vec is None:
        return [f"{name} is not real"]
    if all(sp.expand(v) == 0 for v in vec):
        return [f"{name} is the zero vector"]
    for j, row in enumerate(rows):
        if sp.expand(sum(r * v for r, v in zip(row, vec))) != 0:
            return [f"{name} is not annihilated by row {j}"]
    return []


def check_cli(op, data) -> list[str]:
    inv = op.ref
    where = f"{op.kind} {' '.join(inv.exprs)} on {inv.state.arg}"
    if isinstance(data, Failure):
        return [f"{where}: raised {data.what}"]
    code, out, err = data
    if inv.fault and code == 3:
        return []  # the kept kernel fault: counted in failed
    if code not in (0, 2):
        return [f"{where}: exit {code}: {err.strip()}"]
    cli = _Cli(inv)
    reports, det_a = cli.reports()
    n = len(inv.obs)
    status = {name: STATUS[sign(lhs - rhs)] for name, lhs, rhs in reports}
    problems = []
    if inv.state.arg.startswith("correlated:") and status["RS"] != "violated":
        problems.append(f"{where}: inadmissible state but the oracle finds RS {status['RS']}")
    want_code = 2 if "violated" in status.values() else 0
    if code != want_code:
        problems.append(f"{where}: exit {code}, expected {want_code}")
    payload = json.loads(out)
    if payload["observables"] != list(inv.exprs):
        problems.append(f"{where}: observables echoed as {payload['observables']}")
    flags = {"hr": status["HR"] == "saturated", "rs": status["RS"] == "saturated"}
    phi = [[cli.a[j][k] + sp.I * cli.b[j][k] for k in range(n)] for j in range(n)]
    det_phi = sp.expand(cli.a[0][0] * cli.a[1][1] - cli.a[0][1] ** 2 - cli.b[0][1] ** 2) if n == 2 else None
    if op.kind == "check":
        got = payload["reports"]
        if [r["relation"] for r in got] != [r[0] for r in reports]:
            return problems + [f"{where}: relations {[r['relation'] for r in got]}"]
        for r, (name, lhs, rhs) in zip(got, reports):
            if not _same(literal(r["lhs"]), lhs) or not _same(literal(r["rhs"]), rhs):
                problems.append(f"{where}: {name} lhs/rhs {r['lhs']} / {r['rhs']}, expected {lhs} / {rhs}")
            if r["status"] != status[name]:
                problems.append(f"{where}: {name} {r['status']}, expected {status[name]}")
            if r["intelligent"] != flags:
                problems.append(f"{where}: intelligent flags {r['intelligent']}, expected {flags}")
        witness = got[-1]["witness"] if n == 2 else None
    else:
        if payload["intelligent"] != flags:
            problems.append(f"{where}: intelligent flags {payload['intelligent']}, expected {flags}")
        witness = payload["witness"]
    if n == 2 and (witness is None) != (det_phi != 0):
        problems.append(f"{where}: witness {witness} but det(phi) = {det_phi}")
    elif witness is not None:
        problems += _kernel_problems(f"{where}: witness", phi, _vector(witness, True))
    direction = payload["ideal_direction"]
    if (direction is None) != (det_a != 0):
        problems.append(f"{where}: ideal direction {direction} but det(a) = {det_a}")
    elif direction is not None:
        problems += _kernel_problems(f"{where}: ideal direction", cli.a, _vector(direction, False))
    return problems


# ---------------------------------------------------------------------------
# gram_forms


def _t_series(pairs) -> sp.Expr:
    return sp.Add(*[rat(c) * T ** int(2 * e) for e, c in pairs])


def _t_data(data) -> sp.Expr:
    """A dq (literal, trunc) with h = t^2; exact results are required."""
    text, trunc = data
    if trunc is not None:
        raise ValueError(f"inexact result {text} + O(h^{trunc})")
    return sp.expand(literal(text).subs(H, T**2))


class _Gram:
    def __init__(self, gi):
        n = gi.n
        g = [[(_t_series(re), _t_series(im)) for re, im in row] for row in gi.g]
        self.n = n
        self.a = [[sp.expand(sum(g[r][j][0] * g[r][k][0] + g[r][j][1] * g[r][k][1] for r in range(n)))
                   for k in range(n)] for j in range(n)]
        self.b = [[sp.expand(sum(g[r][j][0] * g[r][k][1] - g[r][j][1] * g[r][k][0] for r in range(n)))
                   for k in range(n)] for j in range(n)]
        self.det_a = _det(self.a)
        self.det_b = _det(self.b)
        self.det_phi = _det([[self.a[j][k] + sp.I * self.b[j][k] for k in range(n)] for j in range(n)])
        self.trace = sp.expand(sum(self.a[k][k] for k in range(n)))
        self.prod = sp.expand(sp.Mul(*[self.a[k][k] for k in range(n)]))


def _rel(lhs, rhs) -> str:
    return RELATION[sign(lhs - rhs, T)]


def _report_problems(where, got, lhs, rhs) -> list[str]:
    glhs, grhs, rel = got
    out = []
    if not _same(_t_data(glhs), lhs) or not _same(_t_data(grhs), rhs):
        out.append(f"{where}: lhs/rhs {glhs[0]} / {grhs[0]}, expected {lhs} / {rhs} (h = t^2)")
    want = _rel(lhs, rhs)
    if rel != want:
        out.append(f"{where}: relation {rel}, expected {want}")
    if want == "violated":
        out.append(f"{where}: a Gram form violates the inequality by the oracle's count")
    return out


_GRAM_CACHE: dict = {}  # id(input) -> (input, oracle); the ops of a form share it


def check_gram(op, data) -> list[str]:
    gi = op.ref
    where = f"{op.kind} n={gi.n} {gi.scalar}{' singular' if gi.singular else ''}"
    if isinstance(data, Failure):
        if op.fault and "IndeterminateAtTruncation" in data.what:
            return []  # the kept kernel fault: counted in failed
        return [f"{where}: raised {data.what}"]
    cached = _GRAM_CACHE.get(id(gi))
    if cached is None or cached[0] is not gi:
        cached = _GRAM_CACHE[id(gi)] = (gi, _Gram(gi))
    o = cached[1]
    n, kind = o.n, op.kind
    try:
        if kind == "is_nonneg_definite":
            want = "positive_definite" if o.det_phi != 0 else "nonneg_definite"
            cls, no_witness = data
            if cls != want or not no_witness:
                return [f"{where}: class {cls}, expected {want}"]
            return []
        if kind == "check_robertson":
            return _report_problems(where, data, o.det_a, o.det_b)
        if kind == "check_form_determinant_bound":
            return _report_problems(where, data, o.det_a, o.det_phi)
        if kind == "check_hadamard_chain":
            r1, r2, r3, diag_ok, skew_ok = data
            out = _report_problems(where + " product", r1, o.prod, o.det_a)
            out += _report_problems(where + " form", r2, o.det_a, o.det_phi)
            out += _report_problems(where + " skew", r3, o.det_a, o.det_b)
            if not (diag_ok and skew_ok):
                out.append(f"{where}: equality diagnoses {diag_ok}, {skew_ok}")
            return out
        if kind == "check_trace_bounds":
            general, pairing = data
            total = sum(_abs(o.b[j][k], T) for j in range(n) for k in range(j + 1, n))
            out = _report_problems(where, general, o.trace, sp.expand(sp.Rational(2, n - 1) * total))
            if (pairing is None) != (n % 2 == 1):
                return out + [f"{where}: pairing bound {pairing} for n={n}"]
            if pairing is not None:
                m = n // 2
                paired = sum(_abs(o.b[j][m + j], T) for j in range(m))
                out += _report_problems(where + " pairing", pairing, o.trace, sp.expand(2 * paired))
            return out
        if kind == "determinant":
            re, im = _t_data(data[0]), _t_data(data[1])
            if not _same(re, o.det_phi) or im != 0:
                return [f"{where}: det {data}, expected {o.det_phi} (h = t^2)"]
            return []
        if kind == "kernel":
            vecs = [[_t_data(x) for x in v] for v in data]
            want = n - _rank(o.a)
            if len(vecs) != want:
                return [f"{where}: {len(vecs)} kernel vectors, expected {want}"]
            out = []
            for v in vecs:
                lead = next((x for x in v if x != 0), None)
                if lead != 1:
                    out.append(f"{where}: kernel vector {v} does not lead with 1")
                out += _kernel_problems(f"{where}: kernel vector", o.a, v)
            return out
    except ValueError as exc:
        return [f"{where}: {exc}"]
    return [f"{where}: no oracle for {kind}"]


# ---------------------------------------------------------------------------
# field_series

INF = math.inf


def _val(pairs):
    return pairs[0][0] if pairs else INF


def _tr(t):
    return INF if t is None else t


def _expr(pairs) -> sp.Expr:
    return sp.Add(*[rat(c) * H ** rat(e) for e, c in pairs])


def _below(expr, order) -> dict:
    return {e: c for e, c in terms(expr).items() if e < order}


def _agree(got_expr, want_expr, order) -> bool:
    return _below(got_expr, order) == _below(want_expr, order)


def check_field(op, data) -> list[str]:
    g = op.ref
    kind = op.kind
    where = f"{kind}"
    if isinstance(data, Failure):
        return [f"{where}: raised {data.what}"]
    if kind == "compare":
        d = _expr(g.a[0]) - _expr(g.c[0])
        order = min(_tr(g.a[1]), _tr(g.c[1]))
        low = _below(d, order)
        want = ("positive" if low[min(low)] > 0 else "negative") if low else ("zero" if order == INF else "indeterminate")
        return [] if data == want else [f"{where}: {data}, expected {want}"]
    text, trunc = data
    got = literal(text)
    tr = _tr(trunc)
    (ap, at), (bp, bt) = g.a, g.b
    at, bt = _tr(at), _tr(bt)
    va, vb = _val(ap), _val(bp)
    A, B = _expr(ap), _expr(bp)
    if kind == "add":
        want_t, ok = min(at, bt), _agree(got, A + B, min(at, bt))
    elif kind == "mul":
        want_t = min(at + vb, bt + va)
        ok = _agree(got, A * B, want_t)
    elif kind == "truediv":
        # q known to min(ta - vb, tb + va - 2 vb); q * b = a modulo min(ta, tb + va - vb)
        want_t = min(at - vb, bt + va - 2 * vb)
        ok = _agree(got * B, A, min(at, bt + va - vb))
    elif kind == "inv":
        want_t = at - 2 * va
        ok = _agree(got * A, sp.Integer(1), at - va)
    elif kind == "sqrt":
        (yp, yt), (xp, xt) = g.y, g.y2
        want_t = yt
        ok = _agree(got * got, _expr(xp), xt) and _agree(got, _expr(yp), yt)
    elif kind == "exact_div":
        want_t = INF
        ok = _agree(got, _expr(g.ea[0]), INF)
    else:
        return [f"{where}: no oracle"]
    out = []
    if tr != want_t:
        out.append(f"{where}: truncation O(h^{trunc}), expected O(h^{want_t})")
    if not ok:
        out.append(f"{where}: {text} + O(h^{trunc}) is wrong")
    return out


def check(workload: str, op, data) -> list[str]:
    return {"check_cli": check_cli, "gram_forms": check_gram, "field_series": check_field}[workload](op, data)
