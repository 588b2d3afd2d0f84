"""Spans and counters for the traced benchmark run, taken from outside the
program.

`Tracer.install` wraps every public function of the stemsize modules in
each module namespace that holds it, including names imported from another
module (``presets.hilbert_cumulative``) and the package's re-exports, so
lazy ``from .x import y`` imports inside functions see the wrapper too.
`TruncatedSeries` methods are wrapped on the class.  Each call records a
span (name, request, parent, start, end) in memory; counters are taken
from the arguments and results at the same boundaries.  Nothing under
``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

MODULES = ("series", "dsl", "algebra", "presets", "torsion", "ehp", "asymptotics",
           "verify", "cli")

# Per-element helpers called up to millions of times inside the layers they
# belong to; a span per call would cost more than the call itself.
SKIP = frozenset({"is_prime", "val_p", "eval_expr", "expr_free_vars",
                  "expr_to_text", "parse_expr"})

SERIES_METHODS = ("mul_factor", "mul", "cumulative", "coeff_log", "to_json",
                  "to_json_obj", "csv_rows")

# metric -> span names whose outermost calls are summed (inclusive time)
INCLUSIVE = {
    "series.mul_factor_s": ("series.mul_factor",),
    "series.mul_s": ("series.mul",),
    "series.cumulative_s": ("series.cumulative",),
    "series.coeff_log_s": ("series.coeff_log",),
    "series.serialize_s": ("series.to_json", "series.to_json_obj", "series.csv_rows"),
    "algebra.instantiate_s": ("algebra.instantiate",),
    "algebra.oracle_s": ("algebra.oracle_hilbert",),
    "dsl.parse_s": ("algebra.parse_spec",),
    "presets.preset_s": ("presets.preset",),
    "ehp.enumerate_s": ("ehp.enumerate_I",),
    "ehp.admissible_s": ("ehp.admissible_series",),
    "torsion.s": ("torsion.*",),
    "verify.s": ("verify.*",),
}

# metric -> span names whose self time (duration minus traced children) is summed
SELF = {
    "algebra.hilbert_self_s": ("algebra.hilbert", "algebra.hilbert_cumulative"),
    "algebra.tensor_bracket_self_s": ("algebra.tensor_bracket",),
    "presets.max_over_h_self_s": ("presets.max_over_h",),
    "asymptotics.bracketing_self_s": ("asymptotics.bracketing_check",),
    "asymptotics.ratio_profile_self_s": ("asymptotics.ratio_profile",),
    "cli.self_s": ("cli.main",),
}

COUNTERS = (
    "series.mul_factor_calls.poly",
    "series.mul_factor_calls.ext",
    "series.mul_factor_calls.trunc",
    "series.mul_factor_coeffs",
    "series.mul_terms",
    "series.constructed",
    "series.coeffs_validated",
    "series.max_coeff_bits",
    "series.serialize_bytes",
    "algebra.generators",
    "dsl.specs_parsed",
    "ehp.sequences",
)


def _max_bits(series) -> int:
    return max(map(int.bit_length, series.coeffs))


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, request, parent, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = -1

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, self.request, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][3:] = (start, end)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _wrap_rows(self, name: str, fn):
        """A generator's span covers only the time spent inside next()."""
        spans, stack, clock, counts = self.spans, self.stack, time.thread_time, self.counts

        @functools.wraps(fn)
        def traced(*args):
            parent = stack[-1] if stack else -1
            it = fn(*args)
            first = None
            busy = 0.0
            try:
                while True:
                    start = clock()
                    if first is None:
                        first = start
                    try:
                        row = next(it)
                    except StopIteration:
                        busy += clock() - start
                        return
                    busy += clock() - start
                    counts["series.serialize_bytes"] += len(row[1])
                    yield row
            finally:
                if first is not None:
                    spans.append([name, self.request, parent, first, first + busy])

        return traced

    # -- counters ------------------------------------------------------------

    def _on_mul_factor(self, args, result) -> None:
        self.counts[f"series.mul_factor_calls.{args[1].name}"] += 1
        self.counts["series.mul_factor_coeffs"] += args[0].trunc + 1

    def _on_mul(self, args, result) -> None:
        n = min(args[0].trunc, args[1].trunc)
        self.counts["series.mul_terms"] += (n + 1) * (n + 2) // 2
        self._on_series(args, result)

    def _on_series(self, args, result) -> None:
        bits = _max_bits(result)
        if bits > self.counts["series.max_coeff_bits"]:
            self.counts["series.max_coeff_bits"] = bits

    def _on_json_obj(self, args, result) -> None:
        self.counts["series.serialize_bytes"] += sum(map(len, result["coeffs"]))

    def _on_instantiate(self, args, result) -> None:
        self.counts["algebra.generators"] += sum(g.multiplicity for g in result)

    def _on_parse(self, args, result) -> None:
        self.counts["dsl.specs_parsed"] += 1

    def _on_enumerate(self, args, result) -> None:
        self.counts["ehp.sequences"] += len(result)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import stemsize

        hooks = {
            "series.mul_factor": self._on_mul_factor,
            "series.mul": self._on_mul,
            "series.cumulative": self._on_series,
            "series.to_json_obj": self._on_json_obj,
            "algebra.hilbert": self._on_series,
            "algebra.instantiate": self._on_instantiate,
            "algebra.parse_spec": self._on_parse,
            "ehp.enumerate_I": self._on_enumerate,
        }
        replaced = {}
        for short in MODULES:
            mod = importlib.import_module(f"stemsize.{short}")
            names = getattr(mod, "__all__", ["main"])
            for attr in names:
                fn = getattr(mod, attr, None)
                if (attr in SKIP or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                replaced[fn] = self._wrap(name, fn, hooks.get(name))
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "stemsize" or n.startswith("stemsize.")]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in replaced:
                    setattr(ns, attr, replaced[val])

        cls = stemsize.series.TruncatedSeries
        methods = {}
        for attr in SERIES_METHODS:
            fn = vars(cls)[attr]
            name = f"series.{attr}"
            methods[fn] = (self._wrap_rows(name, fn) if attr == "csv_rows"
                           else self._wrap(name, fn, hooks.get(name)))
        for attr, val in list(vars(cls).items()):
            if val in methods:  # also catches aliases such as __mul__ = mul
                setattr(cls, attr, methods[val])

        init = cls.__init__
        counts = self.counts

        @functools.wraps(init)
        def counted_init(series, coeffs):
            init(series, coeffs)
            counts["series.constructed"] += 1
            counts["series.coeffs_validated"] += len(series.coeffs)

        cls.__init__ = counted_init

    # -- summaries -----------------------------------------------------------

    def times(self, lo: int = 0, hi: int | None = None) -> dict[str, float]:
        """Inclusive and self times of the metric groups over spans[lo:hi]."""
        spans = self.spans[lo:hi]
        durations = [s[4] - s[3] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, durations):
            if s[2] >= lo:
                child[s[2] - lo] += d

        def matches(name, patterns):
            return any(name == p or (p.endswith("*") and name.startswith(p[:-1]))
                       for p in patterns)

        out = {}
        for metric, patterns in INCLUSIVE.items():
            total = 0.0
            for i, s in enumerate(spans):
                if not matches(s[0], patterns):
                    continue
                parent = s[2]
                while parent >= lo and not matches(self.spans[parent][0], patterns):
                    parent = self.spans[parent][2]
                if parent < lo:
                    total += durations[i]
            out[metric] = total
        for metric, patterns in SELF.items():
            out[metric] = sum(durations[i] - child[i]
                              for i, s in enumerate(spans) if matches(s[0], patterns))
        return out

    def counters(self, ehp_module) -> dict[str, float]:
        out = {name: self.counts[name] for name in COUNTERS}
        hits = lookups = 0
        for val in vars(ehp_module).values():
            info = getattr(val, "cache_info", None)
            if callable(info):
                stats = info()
                hits += stats.hits
                lookups += stats.hits + stats.misses
        out["ehp.cache_hits"] = hits
        out["ehp.cache_lookups"] = lookups
        out["ehp.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        return out
