"""Spans and counters recorded from outside the package.

`install()` replaces public functions and methods of `iwa` with wrappers:
methods on their class, module functions at every import site (each `iwa.*`
module whose namespace binds the same function object), because
`plusminus`, `cli` and the package root import `divide_exact`,
`invert_unit`, `twist_gamma` and the rest by name.

A span wrapper records (name, op, start, end, parent) in memory and charges
its self time (duration minus the time of its child spans) to a category,
so self times of nested spans add up to the traced time without double
counting.  A counter wrapper only counts calls; it sits on the scalar
methods, which run millions of times per run.  Nothing is recorded while
`Tracer.on` is false, which the harness keeps false outside the timed
operations (checks, set-up).
"""

import json
import os
from collections import defaultdict
from time import perf_counter

class Tracer:
    def __init__(self):
        self.on = False
        self.op = -1
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.spans = []
        self.stack = []
        self.log_keys = set()
        self.digits_min = {}
        self.unit_inverse_depth = 0

    # -- wrappers ----------------------------------------------------------------

    def counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, fn, name, category, before=None, leave=None, after=None):
        """Time fn as a span; before(args) on entry, leave(args) on every exit,
        after(args, result) on a normal return."""

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args)
            parent = self.stack[-1][0] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                dur = end - start
                self.spans[index] = (name, self.op, start, end, parent)
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[category] += dur - frame[1]
                if self.stack:
                    self.stack[-1][1] += dur
                if leave is not None:
                    leave(self, args)
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "op", "start", "end", "parent"],
                    "spans": [list(s) for s in self.spans if s is not None],
                },
                fh,
            )


# -- hooks with arguments or results ---------------------------------------------------


def _log_key(tr, args):
    params, N = args[0], args[1]
    tr.log_keys.add((params.p, params.n, params.k, params.sign, N))


def _digits(key, pick):
    def after(tr, args, result):
        d = pick(result)
        tr.digits_min[key] = min(d, tr.digits_min.get(key, d))

    return after


def _unit_inverse_enter(tr, args):
    tr.unit_inverse_depth += 1


def _unit_inverse_leave(tr, args):
    tr.unit_inverse_depth -= 1


def _unit_inverse_found(tr, args, result):
    # None means the weight has no twisted factor: nothing was looked up
    if result is not None:
        tr.counts["plusminus.unit_inverse_lookups"] += 1


def _invert_enter(tr, args):
    if tr.unit_inverse_depth:
        tr.counts["plusminus.unit_inverse_builds"] += 1


def _bytes_in(tr, args):
    path = args[0]
    if path is not None and os.path.exists(path):
        tr.counts["cli.bytes_in"] += os.path.getsize(path)


def _bytes_out(tr, args):
    path = args[1] if len(args) > 1 else None
    if path is not None and os.path.exists(path):
        tr.counts["cli.bytes_out"] += os.path.getsize(path)


# -- installation -------------------------------------------------------------------------


def _iwa_modules():
    import sys

    return [m for name, m in sorted(sys.modules.items()) if name == "iwa" or name.startswith("iwa.")]


def _patch_function(fn, wrapper):
    hits = 0
    for mod in _iwa_modules():
        for attr, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, attr, wrapper)
                hits += 1
    if not hits:
        raise RuntimeError(f"no import site binds {fn.__qualname__}")


def _patch_method(cls, attr, make):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install(tr: Tracer):
    """Wrap the package's layers; returns the tracer for chaining."""
    from iwa import cli, cyclotomic, groupring, halflogs, padic, plusminus, qpn

    P = padic.PadicScalar
    for attr in ("__mul__", "__rmul__"):
        _patch_method(P, attr, lambda f: tr.counter(f, "padic.mul_calls"))
    _patch_method(P, "add", lambda f: tr.counter(f, "padic.add_calls"))
    _patch_method(P, "inv", lambda f: tr.counter(f, "padic.inv_calls"))

    C = cyclotomic.CyclotomicScalar
    _patch_method(C, "__mul__", lambda f: tr.counter(f, "cyclotomic.mul_calls"))
    _patch_method(C, "inv", lambda f: tr.span(f, "cyclotomic.inv", "cyclotomic.inv"))

    G = groupring.GroupRingElem
    _patch_method(G, "__mul__", lambda f: tr.span(f, "groupring.mul", "groupring.mul"))
    X = groupring.CrtContext
    _patch_method(X, "__init__", lambda f: tr.span(f, "groupring.crt_build", "groupring.crt_build"))
    _patch_method(X, "decompose", lambda f: tr.span(f, "groupring.crt_decompose", "groupring.crt_decompose"))
    _patch_method(X, "reconstruct", lambda f: tr.span(f, "groupring.reconstruct", "groupring.reconstruct"))

    decode = "cli.decode"
    encode = "cli.encode"
    for cls in (G, plusminus.AdmissiblePair):
        _patch_method(cls, "from_json", lambda f, c=cls: tr.span(f, f"{c.__name__}.from_json", decode))
    for cls in (G, C, plusminus.AdmissiblePair, plusminus.PMDecomposition,
                plusminus.AdmissibilityReport, cyclotomic.CharacterSpec, halflogs.HalfLogParams):
        _patch_method(cls, "to_json", lambda f, c=cls: tr.span(f, f"{c.__name__}.to_json", encode))

    functions = [
        (groupring.divisible_by_phi, "groupring.divisible", {}),
        (groupring.divide_exact, "groupring.divide_exact", {}),
        (groupring.invert_unit, "groupring.invert_unit", {"before": _invert_enter}),
        (groupring.twist_gamma, "groupring.twist", {}),
        (cyclotomic.eval_char, "cyclotomic.eval_char", {}),
        (halflogs.log_trunc, "halflogs.log_trunc", {"before": _log_key}),
        (halflogs.zero_factor_counts, "halflogs.zero_scan", {}),
        (plusminus.compose, "plusminus.compose",
         {"after": _digits("compose", lambda r: min(r.L1.N, r.L2.N))}),
        (plusminus.decompose, "plusminus.decompose",
         {"after": _digits("decompose", lambda r: min(r.Lplus.N, r.Lminus.N))}),
        (plusminus.check_admissible, "plusminus.check_admissible", {}),
        (plusminus._twisted_unit_inverse, "plusminus.unit_inverse",
         {"before": _unit_inverse_enter, "leave": _unit_inverse_leave,
          "after": _unit_inverse_found}),
        (qpn.trace, "qpn.trace", {}),
        (qpn.rank_of_vectors, "qpn.rank", {}),
        (qpn.kernel_basis, "qpn.kernel", {}),
        (plusminus.pm_from_json, "plusminus.pm_from_json", {"category": decode}),
        (cli._read_json, "cli.read_json", {"category": decode, "before": _bytes_in}),
        (cli._write_json, "cli.write_json", {"category": encode, "leave": _bytes_out}),
        (cli.main, "cli.main", {"category": "cli.command"}),
    ]
    for name in ("plus_minus_space", "r_space", "spaces_equal", "u_space_dim", "galois_span_dim"):
        functions.append((getattr(qpn, name), f"qpn.{name}", {"category": "qpn.subspace"}))
    for name in dir(cli):
        if name.startswith("cmd_"):
            functions.append((getattr(cli, name), f"cli.{name}", {"category": "cli.command"}))
    for fn, name, opts in functions:
        category = opts.get("category", name)
        wrapper = tr.span(fn, name, category, opts.get("before"), opts.get("leave"), opts.get("after"))
        _patch_function(fn, wrapper)
    # crt_context is a lookup, called from module functions and methods alike
    _patch_function(groupring.crt_context, tr.counter(groupring.crt_context, "groupring.crt_lookups"))
    return tr


# -- per-layer metrics --------------------------------------------------------------------

# (name, unit, how): how is ("count", key), ("self", category), ("calls", span name),
# or a special handled in per_layer()
PER_LAYER = [
    ("padic.mul_calls", "calls/op", ("count", "padic.mul_calls")),
    ("padic.add_calls", "calls/op", ("count", "padic.add_calls")),
    ("padic.inv_calls", "calls/op", ("count", "padic.inv_calls")),
    ("groupring.mul_calls", "calls/op", ("calls", "groupring.mul")),
    ("groupring.mul_s", "s/op", ("self", "groupring.mul")),
    ("groupring.twist_s", "s/op", ("self", "groupring.twist")),
    ("groupring.divisible_s", "s/op", ("self", "groupring.divisible")),
    ("groupring.divide_exact_calls", "calls/op", ("calls", "groupring.divide_exact")),
    ("groupring.divide_exact_s", "s/op", ("self", "groupring.divide_exact")),
    ("groupring.crt_decompose_s", "s/op", ("self", "groupring.crt_decompose")),
    ("groupring.reconstruct_s", "s/op", ("self", "groupring.reconstruct")),
    ("groupring.invert_unit_calls", "calls/op", ("calls", "groupring.invert_unit")),
    ("groupring.invert_unit_s", "s/op", ("self", "groupring.invert_unit")),
    ("groupring.crt_lookups", "calls/op", ("count", "groupring.crt_lookups")),
    ("groupring.crt_builds", "calls/op", ("calls", "groupring.crt_build")),
    ("groupring.crt_build_s", "s/op", ("self", "groupring.crt_build")),
    ("groupring.crt_hit_ratio", "ratio", ("special", "crt_hit_ratio")),
    ("cyclotomic.eval_char_calls", "calls/op", ("calls", "cyclotomic.eval_char")),
    ("cyclotomic.eval_char_s", "s/op", ("self", "cyclotomic.eval_char")),
    ("cyclotomic.mul_calls", "calls/op", ("count", "cyclotomic.mul_calls")),
    ("cyclotomic.inv_calls", "calls/op", ("calls", "cyclotomic.inv")),
    ("cyclotomic.inv_s", "s/op", ("self", "cyclotomic.inv")),
    ("halflogs.log_trunc_calls", "calls/op", ("calls", "halflogs.log_trunc")),
    ("halflogs.log_trunc_s", "s/op", ("self", "halflogs.log_trunc")),
    ("halflogs.log_trunc_reuse_ratio", "ratio", ("special", "log_trunc_reuse_ratio")),
    ("halflogs.zero_scan_s", "s/op", ("self", "halflogs.zero_scan")),
    ("plusminus.compose_s", "s/op", ("self", "plusminus.compose")),
    ("plusminus.decompose_s", "s/op", ("self", "plusminus.decompose")),
    ("plusminus.unit_inverse_builds", "calls/op", ("count", "plusminus.unit_inverse_builds")),
    ("plusminus.unit_inverse_hit_ratio", "ratio", ("special", "unit_inverse_hit_ratio")),
    ("plusminus.decompose_digits_min", "digits", ("special", "decompose_digits_min")),
    ("plusminus.compose_digits_min", "digits", ("special", "compose_digits_min")),
    ("plusminus.check_admissible_s", "s/op", ("self", "plusminus.check_admissible")),
    ("qpn.trace_calls", "calls/op", ("calls", "qpn.trace")),
    ("qpn.trace_s", "s/op", ("self", "qpn.trace")),
    ("qpn.subspace_s", "s/op", ("self", "qpn.subspace")),
    ("qpn.rank_s", "s/op", ("self", "qpn.rank")),
    ("qpn.kernel_s", "s/op", ("self", "qpn.kernel")),
    ("cli.command_s", "s/op", ("self", "cli.command")),
    ("cli.decode_s", "s/op", ("self", "cli.decode")),
    ("cli.encode_s", "s/op", ("self", "cli.encode")),
    ("cli.bytes_in", "B/op", ("count", "cli.bytes_in")),
    ("cli.bytes_out", "B/op", ("count", "cli.bytes_out")),
]


def per_layer(tr: Tracer, ops: int, scale: float) -> dict:
    """Per-layer metrics, normalized per traced operation.

    Times are multiplied by `scale`, the run's factor to nominal machine
    speed (speed.py).  Ratios and digit minima are not normalized.  A ratio whose base is zero
    (the layer never ran on this workload) reads 0, as does a digit minimum
    with no call behind it.
    """
    ops = max(ops, 1)
    lookups = tr.counts["groupring.crt_lookups"]
    builds = tr.calls["groupring.crt_build"]
    log_calls = tr.calls["halflogs.log_trunc"]
    inv_lookups = tr.counts["plusminus.unit_inverse_lookups"]
    inv_builds = tr.counts["plusminus.unit_inverse_builds"]
    special = {
        "crt_hit_ratio": (lookups - builds) / lookups if lookups else 0.0,
        "log_trunc_reuse_ratio": len(tr.log_keys) / log_calls if log_calls else 0.0,
        "unit_inverse_hit_ratio": (inv_lookups - inv_builds) / inv_lookups if inv_lookups else 0.0,
        "decompose_digits_min": tr.digits_min.get("decompose", 0),
        "compose_digits_min": tr.digits_min.get("compose", 0),
    }
    out = {}
    for name, unit, (how, key) in PER_LAYER:
        if how == "count":
            val = tr.counts[key] / ops
        elif how == "calls":
            val = tr.calls[key] / ops
        elif how == "self":
            val = tr.self_time[key] * scale / ops
        else:
            val = special[key]
        out[name] = {"value": val, "unit": unit}
    return out
