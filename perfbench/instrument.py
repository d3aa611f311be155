"""Spans and counters installed around the program from outside it.

Modules import functions by name (``from .linalg import rank_kernel``),
so wrapping a function means rebinding every name that refers to it in
every scrollgeom module, including functions held in module-level dicts.
Methods are wrapped on their class.  Everything installed is undone by
``uninstall``.

Two instruments use the same rebinding:

* ``SpanTracer`` records one span per call of each wrapped function:
  name, job id, start, end and parent span.  Spans stay in memory.
* ``Counters`` counts scalar arithmetic, matrix cells, coefficient
  products and random draws.  Wrapping every scalar operation inflates
  time, so counting runs in its own pass and is never timed.
"""

from __future__ import annotations

import functools
import inspect
import sys
from fractions import Fraction
from time import perf_counter_ns

# the program's modules that are layers; scrolls holds the dimension
# formulas behind `dims`, so its time would otherwise land in cli.self_s
LAYERS = (
    "cli",
    "reports",
    "rnc",
    "scroll_curves",
    "binary_curves",
    "scrolls",
    "linalg",
    "forms",
    "fields",
    "rngstream",
)

# spans of these functions are also gathered under one group name
GROUPS = {
    "rnc.random_frame": "rnc.sample",
    "rnc.random_standard_rnc": "rnc.sample",
    "rnc.random_quadric_through_frame": "rnc.sample",
    "rnc.random_rank4_quadric_through_frame": "rnc.sample",
    "binary_curves.hyperelliptic_test": "binary_curves.hyperelliptic",
    "binary_curves.hyperelliptic_from_nodes": "binary_curves.hyperelliptic",
}

_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "scrollgeom" or name.startswith("scrollgeom."))]


def _layer_module(layer):
    return sys.modules[f"scrollgeom.{layer}"]


def public_functions():
    """(span name, function) for every public function defined in a layer.

    Generator functions are left out: a span around one would close when
    the generator is created, before any of its work runs.
    """
    out = []
    for layer in LAYERS:
        mod = _layer_module(layer)
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)):
                out.append((f"{layer}.{attr}", obj))
    return out


def traced_methods():
    """(span name, class, attribute) for the methods that are spanned."""
    forms = _layer_module("forms")
    fields = _layer_module("fields")
    rng = _layer_module("rngstream")
    out = [("forms.mul", forms.BinaryForm, "__mul__")]
    out += [(f"rngstream.{m}", rng.RngStream, m)
            for m in ("next_u64", "below", "randint", "choice", "child")]
    out += [("fields.random_scalar", cls, "random_scalar")
            for cls in (fields.RationalField, fields.PrimeField)]
    return out


class _Patcher:
    """Rebinds functions everywhere they are named; undoes it on uninstall."""

    def __init__(self):
        self._undo = []

    def set(self, container, key, value):
        if isinstance(container, dict):
            self._undo.append((container, key, container[key]))
            container[key] = value
        else:
            self._undo.append((container, key, container.__dict__[key]))
            setattr(container, key, value)

    def rebind(self, wrappers: dict):
        """Replace each function in wrappers (keyed by id) by its wrapper."""
        for mod in _program_modules():
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self.set(namespace, attr, wrappers[id(value)][1])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in wrappers and wrappers[id(item)][0] is item:
                            self.set(value, key, wrappers[id(item)][1])

    def uninstall(self):
        while self._undo:
            container, key, value = self._undo.pop()
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)


def _rank_kernel_field(args):
    """Field tag ("q" or "fp") of one rank_kernel(rows, ncols, field) call.

    Without a field the rows are scanned in place, as rank_kernel itself
    does; every caller passes them as a list of sequences.
    """
    rows, *rest = args
    field = rest[1] if len(rest) > 1 else None
    if field is not None:
        return "fp" if hasattr(field, "p") else "q"
    fp_type = _layer_module("fields").FpElement
    return "fp" if any(isinstance(x, fp_type) for row in rows for x in row) else "q"


def _rank_kernel_span(args):
    return "linalg.rank_kernel." + _rank_kernel_field(args)


class SpanTracer:
    """Records a span per call of every public layer function."""

    def __init__(self):
        self.spans = []  # (name, job, start_ns, end_ns, parent index or -1)
        self.job = None
        self._stack = []
        self._patcher = _Patcher()

    def _wrap(self, name, fn, retag=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if retag is None else retag(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (span_name, self.job, start, end, parent)

        return wrapper

    def install(self):
        wrappers = {}
        for name, fn in public_functions():
            retag = _rank_kernel_span if name == "linalg.rank_kernel" else None
            wrappers[id(fn)] = (fn, self._wrap(name, fn, retag))
        self._patcher.rebind(wrappers)
        for name, cls, attr in traced_methods():
            self._patcher.set(cls, attr, self._wrap(name, cls.__dict__[attr]))

    def uninstall(self):
        self._patcher.uninstall()

    def clear(self):
        self.spans.clear()


def _span_keys(name):
    keys = [name.split(".", 1)[0], name]
    if name in GROUPS:
        keys.append(GROUPS[name])
    return keys


def summarize(spans):
    """Per-key calls, busy and self nanoseconds from one list of spans.

    Keys are layers ("forms"), span names ("forms.mul") and groups
    ("rnc.sample").  busy is the union of a key's spans: a span whose
    ancestor carries the same key is already covered by it.  self is each
    span's duration minus its direct children's, summed per key, so the
    layers' self times add up to the root spans' total.
    """
    n = len(spans)
    child_ns = [0] * n
    for name, job, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, busy, self_ns = {}, {}, {}
    ancestors = [frozenset()] * n
    union_cache = {}
    root_ns = 0
    for i, (name, job, start, end, parent) in enumerate(spans):
        keys = _span_keys(name)
        if parent >= 0:
            pkey = (ancestors[parent], spans[parent][0])
            anc = union_cache.get(pkey)
            if anc is None:
                anc = union_cache[pkey] = pkey[0] | frozenset(_span_keys(pkey[1]))
            ancestors[i] = anc
        else:
            root_ns += end - start
        anc = ancestors[i]
        dur = end - start
        own = dur - child_ns[i]
        for key in keys:
            calls[key] = calls.get(key, 0) + 1
            self_ns[key] = self_ns.get(key, 0) + own
            if key not in anc:
                busy[key] = busy.get(key, 0) + dur
    return {"calls": calls, "busy_ns": busy, "self_ns": self_ns, "root_ns": root_ns}


class Counters:
    """Exact operation counts, gathered in a pass of their own."""

    def __init__(self):
        self.ops = {"q": 0, "fp": 0}
        self.cells = {"q": 0, "fp": 0}
        self.coeff_products = 0
        self.next_u64 = 0
        self._patcher = _Patcher()

    def as_dict(self):
        return {
            "fields.q_ops": self.ops["q"],
            "fields.fp_ops": self.ops["fp"],
            "linalg.rank_kernel.q.cells": self.cells["q"],
            "linalg.rank_kernel.fp.cells": self.cells["fp"],
            "forms.mul.coeff_products": self.coeff_products,
            "rngstream.next_u64.calls": self.next_u64,
        }

    def _count_ops(self, cls, tag):
        ops = self.ops
        for op in _ARITHMETIC:
            fn = cls.__dict__.get(op)
            if fn is None:
                continue

            def wrapper(*args, _fn=fn):
                ops[tag] += 1
                return _fn(*args)

            self._patcher.set(cls, op, functools.wraps(fn)(wrapper))

    def install(self):
        fields = _layer_module("fields")
        forms = _layer_module("forms")
        rng = _layer_module("rngstream")
        linalg = _layer_module("linalg")
        self._count_ops(Fraction, "q")
        self._count_ops(fields.FpElement, "fp")

        rank_kernel = linalg.rank_kernel

        @functools.wraps(rank_kernel)
        def counted_rank_kernel(*args):
            self.cells[_rank_kernel_field(args)] += len(args[0]) * args[1]
            return rank_kernel(*args)

        self._patcher.rebind({id(rank_kernel): (rank_kernel, counted_rank_kernel)})

        mul = forms.BinaryForm.__dict__["__mul__"]

        @functools.wraps(mul)
        def counted_mul(a, b):
            if isinstance(b, forms.BinaryForm):
                self.coeff_products += len(a.coeffs) * len(b.coeffs)
            return mul(a, b)

        self._patcher.set(forms.BinaryForm, "__mul__", counted_mul)

        next_u64 = rng.RngStream.__dict__["next_u64"]

        @functools.wraps(next_u64)
        def counted_next_u64(stream):
            self.next_u64 += 1
            return next_u64(stream)

        self._patcher.set(rng.RngStream, "next_u64", counted_next_u64)

    def uninstall(self):
        self._patcher.uninstall()
