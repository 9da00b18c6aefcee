"""Turn the raw corpora into timed calls into the public ``dq`` API.

Each workload builds a list of :class:`Op`; one op is one call into ``dq``.
Ops look functions up on their module at call time, so the tracer's
wrappers see every call.
``build_*`` runs in set-up (it constructs the ``dq`` inputs); the ops run in
the timed loop; ``plain`` turns a result into plain data for the oracles
and for comparing rounds with each other.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import corpus

#: state files of check_cli, one directory per process
WORK_DIR = os.path.join(".perfbench-work", str(os.getpid()))


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    ref: object  # the raw input the oracle checks against
    fault: bool = False  # input of the kept kernel fault


@dataclass(frozen=True)
class Failure:
    """An operation that raised or exited with a failure code."""

    what: str


# ---------------------------------------------------------------------------
# plain data


def series_data(x) -> tuple:
    """(literal, trunc) of a dq Series; trunc is None for exact elements."""
    t = x.trunc
    return x.literal(), (None if t == float("inf") else Fraction(t))


def complex_data(x) -> tuple:
    return series_data(x.re), series_data(x.im)


def report_data(r) -> tuple:
    return series_data(r.lhs), series_data(r.rhs), r.relation.value


def plain(op: Op, result) -> object:
    kind = op.kind
    if kind in ("check", "intelligent"):
        return result
    if kind == "is_nonneg_definite":
        cls, witness = result
        return cls.value, witness is None
    if kind in ("check_robertson", "check_form_determinant_bound"):
        return report_data(result)
    if kind == "check_hadamard_chain":
        return (
            report_data(result.product_vs_cov),
            report_data(result.cov_vs_form),
            report_data(result.cov_vs_skew),
            result.diagonal_equality_ok,
            result.skew_equality_ok,
        )
    if kind == "check_trace_bounds":
        general, pairing = result
        return report_data(general), None if pairing is None else report_data(pairing)
    if kind == "determinant":
        return complex_data(result)
    if kind == "kernel":
        return tuple(tuple(series_data(x) for x in vec) for vec in result)
    if kind == "compare":
        return result.value
    return series_data(result)


def is_failure(op: Op, data) -> bool:
    """Did the op fail (raise, or exit 1/3 from the CLI)?"""
    if isinstance(data, Failure):
        return True
    if op.kind in ("check", "intelligent"):
        return data[0] not in (0, 2)
    return False


# ---------------------------------------------------------------------------
# check_cli


def write_state_files(invocations) -> None:
    """Write the JSON state files the invocations name (harness I/O, untimed)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    for inv in invocations:
        if inv.state.file is not None:
            with open(os.path.join(WORK_DIR, inv.state.arg), "w", encoding="utf-8") as fh:
                json.dump(inv.state.file, fh)


def build_check_cli(dq, invocations) -> list[Op]:
    cli = dq.cli
    ops = []
    for inv in invocations:
        argv = inv.argv()
        if inv.state.file is not None:
            argv[argv.index(inv.state.arg)] = os.path.join(WORK_DIR, inv.state.arg)

        def call(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            # stderr is kept only for failures: warnings print once per process
            return code, out.getvalue(), err.getvalue() if code not in (0, 2) else ""

        ops.append(Op(inv.command, call, inv, inv.fault))
    return ops


# ---------------------------------------------------------------------------
# gram_forms


def _to_series(dq, pairs, trunc=None):
    if trunc is None:
        return dq.series(pairs)
    return dq.series(pairs, trunc)


CHECKS = (
    "check_robertson",
    "check_form_determinant_bound",
    "check_hadamard_chain",
    "check_trace_bounds",
)


def build_gram_forms(dq, inputs) -> list[Op]:
    la = dq.linalg
    ops = []
    for gi in inputs:
        rows = [
            [dq.ComplexSeries(_to_series(dq, re), _to_series(dq, im)) for re, im in row]
            for row in gi.g
        ]
        form = la.gram_form(rows)
        entries = form.entries
        real = tuple(tuple(e.re for e in row) for row in entries)
        cls = [None]  # filled by the inertia op of the same round

        def inertia(form=form, cls=cls):
            out = la.is_nonneg_definite(form)
            cls[0] = out[0]
            return out

        if not gi.fault:  # the fault forms' inertia test takes seconds (README)
            ops.append(Op("is_nonneg_definite", inertia, gi))
            for name in CHECKS:
                ops.append(Op(name, lambda n=name, f=form, c=cls: getattr(la, n)(f, c[0]), gi))
        ops.append(Op("determinant", lambda e=entries: la.determinant(e), gi))
        if gi.singular and (gi.scalar == "rational" or gi.fault):
            ops.append(Op("kernel", lambda r=real: la.kernel(r), gi, gi.fault))
    return ops


# ---------------------------------------------------------------------------
# field_series


def build_field_series(dq, groups) -> list[Op]:
    sm = dq.series_module
    ops = []

    def mk(raw):
        pairs, trunc = raw
        return _to_series(dq, pairs, trunc)

    for g in groups:
        a, b, c, y2, eab, eb = (mk(x) for x in (g.a, g.b, g.c, g.y2, g.eab, g.eb))
        ops.append(Op("add", lambda a=a, b=b: a + b, g))
        ops.append(Op("mul", lambda a=a, b=b: a * b, g))
        ops.append(Op("truediv", lambda a=a, b=b: a / b, g))
        ops.append(Op("inv", lambda a=a: a.inv(), g))
        ops.append(Op("sqrt", lambda y2=y2: y2.sqrt(), g))
        ops.append(Op("exact_div", lambda p=eab, q=eb: sm.exact_div(p, q), g))
        ops.append(Op("compare", lambda a=a, c=c: sm.compare(a, c), g))
    return ops


WORKLOADS = {
    "check_cli": (corpus.check_cli_corpus, build_check_cli),
    "gram_forms": (corpus.gram_corpus, build_gram_forms),
    "field_series": (corpus.field_corpus, build_field_series),
}
