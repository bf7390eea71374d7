"""Spans around lndkit's public functions, for the traced run only.

Every public function of the six layer modules is wrapped, and the wrapper
is bound in place of the original wherever any lndkit module holds it, so
the `from .cone import ...` copies in `toric` and `cli` are traced too.
Cached functions are wrapped outside their `lru_cache`: a cache hit is a
call with almost no self time, and hit ratios come from `cache_info()`.

Elementwise vector helpers are left unwrapped: they run millions of times
and a span each would cost more than the work. Their time counts as self
time of whichever traced function called them.

Spans (name, start, end, parent span, query id) are kept in flat arrays
and written out once, when the run ends.
"""

from __future__ import annotations

import inspect
import json
from array import array
from time import perf_counter

LAYERS = ("lattice", "cone", "algebra", "toric", "trinomial", "cli")
UNTRACED = {"pairing", "vec_add", "vec_sub", "vec_scale", "is_zero_vector",
            "content", "is_primitive", "primitive_part", "identity_matrix",
            "transpose", "mat_mul", "mat_vec", "vec_mat", "coeff_to_string"}
# Wrapped methods, "Class.method"; derivations capture ring.reduce when they
# are built, so this must be installed before any ring exists.
METHODS = {"algebra": ("TrinomialRing.reduce",)}
MAX_SPANS = 1_000_000


def _size_of(name):
    """Work-out counter for a function's result, if it has one."""
    return {"cone.hilbert_basis": lambda r: len(r.elements),
            "toric.enumerate_roots": len,
            "algebra.exponential": lambda r: len(r.terms)}.get(name)


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []
        self.caches = {}  # fid -> cache_info of a cached function
        self.query = -1
        self.stack = []
        self.reset()

    def reset(self):
        """Start counting afresh, e.g. after warm-up."""
        self.cache_base = {fid: info() for fid, info in self.caches.items()}
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.refusals = [0] * n
        self.out = [0] * n
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_query = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0

    def register(self, name):
        self.names.append(name)
        self.layer_of.append(name.split(".", 1)[0])
        for counts in (self.calls, self.refusals, self.out):
            counts.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def wrap(self, name, fn, refusal_types):
        fid = self.register(name)
        size = _size_of(name)
        cache_info = getattr(fn, "cache_info", None)
        if cache_info:
            self.caches[fid] = cache_info
        stack = self.stack

        def traced(*args, **kwargs):
            span = len(self.span_start)
            keep = span < MAX_SPANS
            if keep:
                self.span_name.append(fid)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_query.append(self.query)
                self.span_end.append(0.0)
            else:
                self.dropped += 1
            frame = [span if keep else -1, 0.0]
            stack.append(frame)
            misses = cache_info().misses if cache_info else 0
            start = perf_counter()
            if keep:
                self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except refusal_types as err:
                # a refusal counts once, in the layer that raised it
                if not getattr(err, "_traced", False):
                    err._traced = True
                    self.refusals[fid] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if keep:
                    self.span_end[span] = end
                took = end - start
                self.calls[fid] += 1
                self.self_s[fid] += took - frame[1]
                if stack:
                    stack[-1][1] += took
            if size is not None and (not cache_info or cache_info().misses > misses):
                self.out[fid] += size(result)
            return result

        traced.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def write(self, path):
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.span_start),
                       "dropped": self.dropped,
                       "arrays": ["name:H", "parent:l", "query:l", "start:d", "end:d"]},
                      fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_query,
                        self.span_start, self.span_end):
                arr.tofile(fh)


def install(lndkit_modules, errors):
    """Wrap the layer functions in place; returns the Tracer."""
    tracer = Tracer()
    refusal_types = (errors.RefusalError, errors.SearchBoundExceeded)
    replace = {}
    for layer in LAYERS:
        mod = lndkit_modules[layer]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or attr in UNTRACED:
                continue
            target = getattr(obj, "__wrapped__", obj) if hasattr(obj, "cache_info") else obj
            if inspect.isfunction(target) and target.__module__ == mod.__name__:
                replace[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj, refusal_types)
        for dotted in METHODS.get(layer, ()):
            cls_name, meth = dotted.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(f"{layer}.{dotted}", getattr(cls, meth),
                                           refusal_types))
    for mod in lndkit_modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replace:
                setattr(mod, attr, replace[id(obj)])
    tracer.reset()
    return tracer


def summary(tracer):
    """Per-layer and per-function totals since the last reset, with hit
    ratios of the cached functions from their ``cache_info()`` deltas."""
    layer = {name: {"calls": 0, "self_s": 0.0, "refusals": 0} for name in LAYERS}
    funcs = {}
    for fid, name in enumerate(tracer.names):
        agg = layer[tracer.layer_of[fid]]
        agg["calls"] += tracer.calls[fid]
        agg["self_s"] += tracer.self_s[fid]
        agg["refusals"] += tracer.refusals[fid]
        funcs[name] = {"calls": tracer.calls[fid], "self_s": tracer.self_s[fid],
                       "out": tracer.out[fid]}
    for fid, info in tracer.caches.items():
        now, base = info(), tracer.cache_base[fid]
        hits, misses = now.hits - base.hits, now.misses - base.misses
        funcs[tracer.names[fid]]["cache_hit_ratio"] = \
            hits / (hits + misses) if hits + misses else 0.0
    return layer, funcs
