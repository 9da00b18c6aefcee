"""Per-layer attribution for the traced run.

The tracer wraps public dq functions and the ``Series``/``ComplexSeries``
operators in counting, timing wrappers.  It replaces every reference that a
dq module holds (``from ... import`` copies included) and every class
attribute bound to the same function (``__radd__ = __add__``).  A layer's
``self_ms`` is its wrapped calls' time minus the time of wrapped calls made
inside them.

``traced_run`` makes three passes over the ops: untraced (the reference for
the tracing overhead), traced (the per-layer metrics), and traced under
``sys.setprofile`` (the self-check: each wrapper's call count must equal the
profiler's count of calls into the wrapped code object, so a reference the
wrappers missed shows as a difference).
"""

from __future__ import annotations

import sys
import time
from collections import Counter

#: (layer, module, attribute) for every wrapped callable; a dotted attribute
#: names a method.  Several callables may share one layer.
TARGETS = (
    ("parsing.parse", "dq.parsing", "parse_observable"),
    ("parsing.parse", "dq.parsing", "parse_series"),
    ("series.mul", "dq.series", "Series.__mul__"),
    ("series.add", "dq.series", "Series.__add__"),
    ("series.truediv", "dq.series", "Series.__truediv__"),
    ("series.inv", "dq.series", "Series.inv"),
    ("series.sqrt", "dq.series", "Series.sqrt"),
    ("series.cmul", "dq.series", "ComplexSeries.__mul__"),
    ("series.cadd", "dq.series", "ComplexSeries.__add__"),
    ("series.exact_div", "dq.series", "exact_div"),
    ("observables.star", "dq.observables", "star"),
    ("observables.moyal_bracket", "dq.observables", "moyal_bracket"),
    ("states.construct", "dq.states", "GaussianState.__init__"),
    ("states.expectation", "dq.states", "GaussianState.expectation"),
    ("states.gelfand_norm", "dq.states", "gelfand_norm"),
    ("linalg.determinant", "dq.linalg", "determinant"),
    ("linalg.kernel", "dq.linalg", "kernel"),
    ("linalg.congruence_diagonalize", "dq.linalg", "congruence_diagonalize"),
    ("linalg.is_nonneg_definite", "dq.linalg", "is_nonneg_definite"),
    ("linalg.checks", "dq.linalg", "check_robertson"),
    ("linalg.checks", "dq.linalg", "check_form_determinant_bound"),
    ("linalg.checks", "dq.linalg", "check_hadamard_chain"),
    ("linalg.checks", "dq.linalg", "check_trace_bounds"),
    ("uncertainty.moment_matrices", "dq.uncertainty", "moment_matrices"),
    ("uncertainty.checks", "dq.uncertainty", "check_rs"),
    ("uncertainty.checks", "dq.uncertainty", "check_hr"),
    ("uncertainty.checks", "dq.uncertainty", "check_trace"),
    ("uncertainty.checks", "dq.uncertainty", "check_two_obs"),
    ("uncertainty.witness", "dq.uncertainty", "find_ideal_direction"),
    ("uncertainty.witness", "dq.uncertainty", "two_observable_ideal_witness"),
    ("cli.main", "dq.cli", "main"),
)

#: per-layer metrics printed for every workload: (name, unit, better)
COUNTED = (
    "parsing.parse", "series.mul", "series.add", "series.truediv", "series.inv",
    "series.sqrt", "series.cmul", "series.cadd", "series.exact_div",
    "observables.star", "states.construct", "states.expectation",
    "linalg.determinant", "linalg.kernel", "linalg.congruence_diagonalize",
    "linalg.is_nonneg_definite", "uncertainty.moment_matrices",
)
TIMED = COUNTED + ("linalg.checks", "uncertainty.checks", "uncertainty.witness", "cli.main")
CALLS_ONLY = ("observables.moyal_bracket", "states.gelfand_norm")


def metric_specs():
    out = []
    for layer in COUNTED + CALLS_ONLY:
        out.append((f"{layer}.calls", "count", "lower"))
    for layer in TIMED:
        out.append((f"{layer}.self_ms", "ms", "lower"))
    out += [
        ("series.exact_div.inexact", "count", "lower"),
        ("observables.star_1d.hits", "count", "higher"),
        ("observables.star_1d.misses", "count", "lower"),
        ("states.central_cache.entries", "count", "lower"),
        ("linalg.congruence_diagonalize.scaled_calls", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()  # per target index
        self.self_ns: Counter = Counter()
        self.extra: Counter = Counter()
        self.stack: list[int] = []
        self.states: list = []  # states built during the current op
        self.patched: list = []  # (owner, attribute, original)
        self.codes: dict = {}  # code object -> target index

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        dq_modules = [m for n, m in list(sys.modules.items()) if n == "dq" or n.startswith("dq.")]
        for i, (layer, modname, attr) in enumerate(TARGETS):
            mod = sys.modules.get(modname)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            orig = vars(owner).get(name) if owner is not None else None
            if orig is None:
                print(f"tracer: {modname}.{attr} not found; {layer} misses it", file=sys.stderr)
                continue
            self.codes[orig.__code__] = i
            wrapper = self._wrap(i, layer, orig)
            holders = [owner] if owner_name else dq_modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self.patched.append((holder, key, orig))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self.patched):
            setattr(holder, key, orig)
        self.patched.clear()

    def _wrap(self, i: int, layer: str, fn):
        calls, self_ns, extra, stack = self.calls, self.self_ns, self.extra, self.stack
        clock = time.perf_counter_ns
        scaled = layer == "linalg.congruence_diagonalize"
        exact_div = layer == "series.exact_div"
        construct = layer == "states.construct"
        states = self.states

        def wrapper(*args, **kwargs):
            if scaled and (kwargs.get("scaled") or len(args) > 1 and args[1]):
                extra["scaled_calls"] += 1
            if construct:
                states.append(args[0])
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if exact_div and type(exc).__name__ == "InexactDivision":
                    extra["inexact"] += 1
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[i] += 1
                self_ns[i] += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def end_op(self) -> None:
        """Record the Wick-cache size of the states the op built."""
        for st in self.states:
            self.extra["central_cache"] += len(getattr(st, "_central_cache", ()))
        self.states.clear()

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.extra.clear()

    def by_layer(self):
        calls: Counter = Counter()
        ms: Counter = Counter()
        for i, (layer, _, _) in enumerate(TARGETS):
            calls[layer] += self.calls[i]
            ms[layer] += self.self_ns[i] / 1e6
        return calls, ms


def _star_cache():
    obs = sys.modules.get("dq.observables")
    return getattr(obs, "_star_1d", None)


def _clear_star_cache() -> None:
    cache = _star_cache()
    if cache is not None and hasattr(cache, "cache_clear"):
        cache.cache_clear()


def _cache_info():
    cache = _star_cache()
    if cache is None or not hasattr(cache, "cache_info"):
        return 0, 0
    info = cache.cache_info()
    return info.hits, info.misses


def _pass(ops, first, mismatches, run_op, tracer=None) -> float:
    start = time.perf_counter()
    for i, op in enumerate(ops):
        _, data = run_op(op)
        if tracer is not None:
            tracer.end_op()
        if first[i] is None:
            first[i] = data
        elif data != first[i]:
            mismatches.append(f"op {i} ({op.kind}): {data!r:.200} after {first[i]!r:.200}")
    return time.perf_counter() - start


def traced_run(ops, first, mismatches, run_op):
    """Untraced pass, traced pass, profiled self-check pass.

    Returns the per-layer metrics and a per-function breakdown for the dump.
    """
    _clear_star_cache()
    plain_s = _pass(ops, first, mismatches, run_op)

    tracer = Tracer()
    tracer.install()
    try:
        _clear_star_cache()
        hits0, misses0 = _cache_info()
        traced_s = _pass(ops, first, mismatches, run_op, tracer)
        hits1, misses1 = _cache_info()
        calls, ms = tracer.by_layer()
        calls_by_target = dict(tracer.calls)
        ms_by_target = {i: ns / 1e6 for i, ns in tracer.self_ns.items()}
        extra = dict(tracer.extra)

        # self-check: wrapper counts against profiler counts on one pass
        tracer.reset()
        seen: Counter = Counter()
        codes = tracer.codes

        def profile(frame, event, arg):
            if event == "call":
                i = codes.get(frame.f_code)
                if i is not None:
                    seen[i] += 1

        _clear_star_cache()
        sys.setprofile(profile)
        try:
            _pass(ops, first, mismatches, run_op, tracer)
        finally:
            sys.setprofile(None)
        for i in codes.values():
            if seen[i] != tracer.calls[i]:
                layer, mod, attr = TARGETS[i]
                mismatches.append(
                    f"tracer self-check: {mod}.{attr} ran {seen[i]} times, wrappers saw {tracer.calls[i]}"
                )
    finally:
        tracer.uninstall()

    metrics = {}
    for layer in COUNTED + CALLS_ONLY:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    for layer in TIMED:
        metrics[f"{layer}.self_ms"] = (ms[layer], "ms")
    metrics["series.exact_div.inexact"] = (extra.get("inexact", 0), "count")
    metrics["observables.star_1d.hits"] = (hits1 - hits0, "count")
    metrics["observables.star_1d.misses"] = (misses1 - misses0, "count")
    metrics["states.central_cache.entries"] = (extra.get("central_cache", 0), "count")
    metrics["linalg.congruence_diagonalize.scaled_calls"] = (extra.get("scaled_calls", 0), "count")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    detail = {
        f"{mod}.{attr}": {
            "layer": layer,
            "calls": calls_by_target.get(i, 0),
            "self_ms": ms_by_target.get(i, 0.0),
        }
        for i, (layer, mod, attr) in enumerate(TARGETS)
    }
    detail["_passes_s"] = {"untraced": plain_s, "traced": traced_s}
    return metrics, detail
