"""In-process traced run: spans around the public functions of each kvlie module.

`instrument(tracer)` rebinds every public module-level function of each layer
module to a span wrapper, under every name any kvlie module imported it as
(so `kv.dynkin` and `cli.f0` are traced, not only `idempotents.dynkin`), and
forwards `cache_clear`/`cache_info` so that `kv.clear_caches()` still empties
every cache. On exit every binding is restored.

Time is attributed to the layer on top of the span stack, so a layer's self
time is its span time minus the time of child spans in other layers, and
nested calls within one layer are not counted twice. Methods of classes
(`NCPoly.__add__`, `GradedSeries.__mul__`, ...) are not wrapped: their time
goes to the layer that called them. Two boundaries are not plain calls and get
spans of their own: word maps that `idempotents` passes to
`algebra.apply_word_map` run as `idempotents` time, and the iterators returned
by `permutations` run as `permutations` time while they produce items.

`Fraction` arithmetic is too fine-grained for spans; it is counted by wrapping
the arithmetic operators of `fractions.Fraction` while the tracer is installed.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from statistics import median
from time import perf_counter

LAYERS = ("cli", "kv", "series", "idempotents", "permutations", "lyndon",
          "algebra", "scalars", "linalg")
HARNESS = "harness"

_FUNCTION_TYPES = (type(lambda: 0), functools._lru_cache_wrapper)
ITERATOR_CHUNK = 4096

_BINARY_FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__",
)
_UNARY_FRACTION_OPS = ("__neg__", "__pos__", "__abs__")

# Layers whose lru caches are reported: all of them are word-level tables.
CACHED_LAYERS = ("idempotents", "lyndon")
STAGES = ("bch_eulerian", "bch_oracle", "a_series", "f0")
FORMATTERS = ("to_text", "to_json_terms", "to_latex")
TERM_PRODUCERS = ("concat", "bracket", "apply_word_map", "substitute")

COUNT_METRICS = (
    [f"{layer}.calls" for layer in LAYERS]
    + ["permutations.perms", "algebra.terms_out", "idempotents.dynkin.terms_in",
       "idempotents.dynkin.terms_out", "scalars.fraction_ops", "lyndon.coords",
       "lyndon.cache_entries", "idempotents.cache_entries", "kv.bch_eulerian.calls",
       "cli.output_bytes"]
)
RATIO_METRICS = ("idempotents.cache_hit_ratio",)
TIME_METRICS = (
    [f"{layer}.self_s" for layer in LAYERS]
    + [f"kv.{stage}_s" for stage in STAGES] + ["kv.verify_s", "algebra.format_s"]
)

# Traced wall time over untraced wall time; set by the runner per pass.
OVERHEAD_METRIC = "trace_overhead_ratio"

UNITS = {name: "count" for name in COUNT_METRICS}
UNITS.update({name: "s" for name in TIME_METRICS})
UNITS.update({name: "ratio" for name in RATIO_METRICS + (OVERHEAD_METRIC,)})
UNITS["cli.output_bytes"] = "bytes"
# Metrics that vary between passes; every other one must repeat exactly.
MEASURED = frozenset(TIME_METRICS) | {OVERHEAD_METRIC}


def lru_caches(module) -> list:
    """The lru caches defined in a module (public ones may be wrapped)."""
    return [fn for fn in vars(module).values()
            if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == module.__name__]


class Tracer:
    """Span and count tallies for one traced pass."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS + (HARNESS,), 0.0)
        self.calls: Counter = Counter()  # layer and "layer.function" -> calls
        self.inclusive: Counter = Counter()  # "layer.function" -> s, outermost calls
        self.counts: Counter = Counter()
        self.fraction_ops = [0]
        self._stack = [HARNESS]
        self._mark = perf_counter()
        self._active: Counter = Counter()

    def _push(self, layer: str) -> None:
        now = perf_counter()
        self.self_s[self._stack[-1]] += now - self._mark
        self._mark = now
        self._stack.append(layer)

    def _pop(self) -> float:
        now = perf_counter()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now
        return now

    def _callback(self, fn):
        layer = fn.__module__.rpartition(".")[2]
        if layer not in LAYERS:
            return fn

        def span(*args, **kwargs):
            self._push(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop()

        return span

    def _iterate(self, it, layer: str):
        """Yield from `it`, producing items inside a span in bounded chunks.

        A span per item would cost more than producing a permutation does.
        Consumers on CLI paths drain these iterators, so the chunking does no
        extra work there.
        """
        while True:
            self._push(layer)
            try:
                chunk = list(islice(it, ITERATOR_CHUNK))
            finally:
                self._pop()
            if not chunk:
                return
            self.counts[f"{layer}.items"] += len(chunk)
            yield from chunk

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        hook = _HOOKS.get(key)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = tracer._stack[-1]
            for arg in args:
                if type(arg) in _FUNCTION_TYPES:
                    args = tuple(tracer._callback(a) if type(a) in _FUNCTION_TYPES else a
                                 for a in args)
                    break
            tracer.calls[layer] += 1
            tracer.calls[key] += 1
            outer = not tracer._active[key]
            tracer._active[key] += 1
            tracer._push(layer)
            start = tracer._mark
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer._pop()
                tracer._active[key] -= 1
            if outer:
                tracer.inclusive[key] += end - start
            if hook is not None:
                hook(tracer, args, kwargs, result, caller, end - start)
            if hasattr(type(result), "__next__"):
                return tracer._iterate(result, layer)
            return result

        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
            traced.cache_info = fn.cache_info
        return traced

    def add_cache_stats(self, modules) -> None:
        for layer in CACHED_LAYERS:
            size = hits = misses = 0
            for fn in lru_caches(modules[layer]):
                info = fn.cache_info()
                size, hits, misses = size + info.currsize, hits + info.hits, misses + info.misses
            # Commands run in fresh processes in production, so the peak is per command.
            key = f"{layer}.cache_entries"
            self.counts[key] = max(self.counts[key], size)
            if layer == "idempotents":
                self.counts["idempotents.cache_hits"] += hits
                self.counts["idempotents.cache_lookups"] += hits + misses

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        for stage in STAGES:
            out[f"kv.{stage}_s"] = self.inclusive[f"kv.{stage}"]
        out["kv.verify_s"] = sum(v for k, v in self.inclusive.items() if k.startswith("kv.verify_"))
        out["kv.bch_eulerian.calls"] = self.calls["kv.bch_eulerian"]
        out["permutations.perms"] = self.counts["permutations.items"]
        out["scalars.fraction_ops"] = self.fraction_ops[0]
        for name in ("algebra.terms_out", "idempotents.dynkin.terms_in",
                     "idempotents.dynkin.terms_out", "lyndon.coords", "algebra.format_s",
                     "cli.output_bytes", "idempotents.cache_entries", "lyndon.cache_entries"):
            out[name] = self.counts[name]
        lookups = self.counts["idempotents.cache_lookups"]
        out["idempotents.cache_hit_ratio"] = (
            self.counts["idempotents.cache_hits"] / lookups if lookups else 0.0
        )
        return out


def _terms_out(tracer, args, kwargs, result, caller, elapsed) -> None:
    tracer.counts["algebra.terms_out"] += len(result.terms)


def _dynkin_terms(tracer, args, kwargs, result, caller, elapsed) -> None:
    p = args[0] if args else kwargs["p"]
    tracer.counts["idempotents.dynkin.terms_in"] += len(p.terms)
    tracer.counts["idempotents.dynkin.terms_out"] += len(result.terms)


def _lyndon_coords(tracer, args, kwargs, result, caller, elapsed) -> None:
    tracer.counts["lyndon.coords"] += len(result.coords)


def _format_time(tracer, args, kwargs, result, caller, elapsed) -> None:
    if caller == "cli":
        tracer.counts["algebra.format_s"] += elapsed


_HOOKS = {f"algebra.{name}": _terms_out for name in TERM_PRODUCERS}
_HOOKS.update({f"algebra.{name}": _format_time for name in FORMATTERS})
_HOOKS["idempotents.dynkin"] = _dynkin_terms
_HOOKS["lyndon.to_lie_coordinates"] = _lyndon_coords


def layer_modules() -> dict:
    return {layer: importlib.import_module(f"kvlie.{layer}") for layer in LAYERS}


def _counted(op, tally):
    def counted(*args):
        tally[0] += 1
        return op(*args)

    return counted


@contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers and Fraction counters; restore everything on exit."""
    layers = layer_modules()
    kvlie_modules = [m for name, m in sorted(sys.modules.items())
                     if name == "kvlie" or name.startswith("kvlie.")]
    patches: list[tuple[object, str, object]] = []
    try:
        for layer, module in layers.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or type(fn) not in _FUNCTION_TYPES:
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = tracer.wrap(layer, name, fn)
                for target in kvlie_modules:
                    for attr, value in list(vars(target).items()):
                        if value is fn:
                            patches.append((target, attr, value))
                            setattr(target, attr, wrapper)
        for name in _BINARY_FRACTION_OPS + _UNARY_FRACTION_OPS:
            op = vars(Fraction)[name]
            patches.append((Fraction, name, op))
            setattr(Fraction, name, _counted(op, tracer.fraction_ops))
        yield layers
    finally:
        for target, attr, value in reversed(patches):
            setattr(target, attr, value)


def summarize(passes: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first pass, measured values as the median over passes."""
    return {name: median(p[name] for p in passes) if name in MEASURED else value
            for name, value in passes[0].items()}


def counts_differ(passes: list[dict[str, float]]) -> list[str]:
    return sorted({name for p in passes[1:] for name in p
                   if name not in MEASURED and p[name] != passes[0][name]})
