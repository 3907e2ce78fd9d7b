"""Outside-in layer tracer for iqsl2.

The tracer never edits the package. ``install`` replaces each function and
method of a layer with a wrapper that records a span, and rebinds every
module-level name in ``iqsl2.*`` that held the original by value, so that
``from .qcomb import qint`` in ``idp``, ``verify`` and ``pbw`` reaches the
wrapper too.

A span is (name, parent, start, end) in the tracer's arrays. Calls that stay
inside one span name, or that enter a plain layer function while a span of
the same layer is open (the recursive ``_mono_mul``, ``_uni_prem`` inside
the gcd), extend the open span instead of opening a new one; only the call
count grows. A layer's self time is the time its spans cover minus the time
their child spans cover, so the self times of all spans add up to the
duration of the root span.
"""

import csv
import functools
import gzip
import sys
import time
from array import array

# layer name -> modules whose functions belong to it
LAYERS = {
    "cli": ("iqsl2.cli",),
    "verify": ("iqsl2.verify",),
    "idp": ("iqsl2.idp",),
    "tensor": ("iqsl2.tensor",),
    "pbw": ("iqsl2.pbw",),
    "qcomb": ("iqsl2.qcomb",),
    "coeff": ("iqsl2.coeff",),
    "kernel": ("iqsl2._kernel_py", "iqsl2._kernel_cy"),
}

# Helpers that other layers import and use as plain utilities; their time
# stays with the caller, so that idp's use of _coerce_scalar does not count
# as work in the normal-form layer.
SHARED_HELPERS = {"iqsl2.pbw": ("_coerce_scalar", "_acc")}

# (layer, qualified name) -> span name of a sub-span timed inside its layer
SUB_SPANS = {
    ("coeff", "_reduce"): "coeff.reduce",
    ("coeff", "_uni_gcd"): "coeff.gcd",
    ("coeff", "_div_exact_raw"): "coeff.div_exact",
    ("coeff", "LaurentPoly.__str__"): "coeff.str",
    ("coeff", "Scalar.__str__"): "coeff.str",
    ("kernel", "kmul"): "kernel.kmul",
}


class Tracer:
    """Span recorder; spans live in typed arrays until ``write``."""

    def __init__(self, run_id="", clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names = []      # span name by name id
        self.layer_of = []   # layer name by name id
        self.calls = []      # wrapped calls by name id
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []      # indices of the open spans
        self.counters = {}   # counts kept by the _probe_* wrappers

    def name_id(self, name, layer):
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def open(self, nid):
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(self.clock())
        self.span_end.append(0.0)
        self.stack.append(i)
        return i

    def close(self, i):
        self.span_end[i] = self.clock()
        self.stack.pop()

    def wrap(self, fn, name, layer):
        """Return ``fn`` wrapped so that each call is counted under ``name``."""
        nid = self.name_id(name, layer)
        plain = name == layer
        calls, stack = self.calls, self.stack
        span_name, layer_of = self.span_name, self.layer_of

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            if stack:
                top = span_name[stack[-1]]
                if top == nid or (plain and layer_of[top] == layer):
                    return fn(*args, **kwargs)
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def self_times(self):
        """Self time per span name: duration minus the children's durations."""
        return aggregate_self_times(
            self.names, self.span_name, self.span_parent,
            self.span_start, self.span_end,
        )

    def write(self, path):
        """Write every span as gzip'd CSV: run_id,span,name,parent,start,end."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(("run_id", "span", "name", "parent", "start", "end"))
            for i, nid in enumerate(self.span_name):
                out.writerow((self.run_id, i, self.names[nid],
                              self.span_parent[i], repr(self.span_start[i]),
                              repr(self.span_end[i])))


def aggregate_self_times(names, span_name, span_parent, span_start, span_end):
    """Sum, per name, each span's duration minus the durations of its children."""
    child = [0.0] * len(span_name)
    for i, p in enumerate(span_parent):
        if p >= 0:
            child[p] += span_end[i] - span_start[i]
    out = dict.fromkeys(names, 0.0)
    for i, nid in enumerate(span_name):
        out[names[nid]] += span_end[i] - span_start[i] - child[i]
    return out


class CountingDict(dict):
    """A memo dict that counts hits and misses of ``get``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.hits = 0
        self.misses = 0

    def get(self, key, default=None):
        try:
            value = self[key]
        except KeyError:
            self.misses += 1
            return default
        self.hits += 1
        return value


def _function(val):
    """The plain function behind a method, classmethod, staticmethod or property."""
    return val.fget if isinstance(val, property) else getattr(val, "__func__", val)


def _entry_points(module):
    """(qualified name, owner, attribute, value) for each function the
    module defines, methods and properties included; owner is the module or
    the class."""
    modname = module.__name__
    skip = SHARED_HELPERS.get(modname, ())
    for attr, val in list(vars(module).items()):
        if getattr(val, "__module__", None) != modname or attr in skip:
            continue
        if isinstance(val, type):
            for mattr, mval in list(vars(val).items()):
                fn = _function(mval)
                if callable(fn) and getattr(fn, "__module__", None) == modname:
                    yield f"{attr}.{mattr}", val, mattr, mval
        elif callable(val):
            yield attr, module, attr, val


def _probe_kmul(tracer, fn):
    c = tracer.counters
    c["kernel.kmul.term_products"] = 0

    def kmul(a, b):
        c["kernel.kmul.term_products"] += len(a) * len(b)
        return fn(a, b)

    return kmul


def _probe_div_exact(tracer, fn):
    c = tracer.counters
    c["coeff.div_exact.misses"] = 0

    def div_exact(a, b):
        q = fn(a, b)
        if q is None:
            c["coeff.div_exact.misses"] += 1
        return q

    return div_exact


def _q_span(d):
    return max(i for i, _ in d) - min(i for i, _ in d)


def _probe_reduce(tracer, fn):
    """Count reductions that ran the gcd, and those whose denominator shrank."""
    c = tracer.counters
    c["coeff.gcd.tried"] = 0
    c["coeff.gcd.useful"] = 0
    gcd = tracer.name_id("coeff.gcd", "coeff")
    calls = tracer.calls

    def reduce(n, d):
        before = calls[gcd]
        out = fn(n, d)
        if calls[gcd] != before:
            c["coeff.gcd.tried"] += 1
            if _q_span(out[1]) < _q_span(d):
                c["coeff.gcd.useful"] += 1
        return out

    return reduce


_PROBES = {
    "kernel.kmul": _probe_kmul,
    "coeff.div_exact": _probe_div_exact,
    "coeff.reduce": _probe_reduce,
}


def install(tracer):
    """Wrap every layer of the imported iqsl2 modules; return the span names
    that were found, so that a renamed helper shows as missing."""
    mods = [m for n, m in sys.modules.items()
            if n == "iqsl2" or n.startswith("iqsl2.")]
    replaced = {}  # id(original) -> wrapper, for module-level functions
    found = set()
    for layer, modnames in LAYERS.items():
        for modname in modnames:
            module = sys.modules.get(modname)
            if module is None:
                continue
            found.add(layer)
            for qual, owner, attr, val in _entry_points(module):
                name = SUB_SPANS.get((layer, qual), layer)
                found.add(name)
                raw = _function(val)
                if name in _PROBES:
                    raw = functools.wraps(raw)(_PROBES[name](tracer, raw))
                wrapped = tracer.wrap(raw, name, layer)
                if isinstance(val, classmethod):
                    wrapped = classmethod(wrapped)
                elif isinstance(val, staticmethod):
                    wrapped = staticmethod(wrapped)
                elif isinstance(val, property):
                    wrapped = property(wrapped, val.fset, val.fdel, val.__doc__)
                if owner is module:
                    replaced[id(val)] = wrapped
                else:
                    setattr(owner, attr, wrapped)
    # the originals stay alive through the wrappers, so their ids are unique
    for module in mods:
        for attr, val in list(vars(module).items()):
            if id(val) in replaced:
                setattr(module, attr, replaced[id(val)])
    return found


def install_cache_counters():
    """Swap the pbw and idp memo dicts for counting ones; return them by name."""
    out = {}
    for modname, attr, name in (("iqsl2.pbw", "_MONO_CACHE", "pbw.mono_cache"),
                                ("iqsl2.idp", "_CLOSED_CACHE", "idp.closed_cache")):
        module = sys.modules.get(modname)
        if module is not None and isinstance(getattr(module, attr, None), dict):
            counting = CountingDict(getattr(module, attr))
            setattr(module, attr, counting)
            out[name] = counting
    return out
