"""Span tracing and scalar counting from outside the kernel.

The tracer replaces public kernel entry points with wrappers that record a
span (name, start, end, parent, case) in flat in-memory arrays.  Nothing is
written until the pass ends.  A layer's self time is the sum over its spans
of the span's duration minus the durations of its direct children.

Scalar arithmetic is far too frequent to wrap with spans, so the ``QI`` and
``GradedScalar`` operators are counted in a separate pass, which keeps the
counting wrappers out of the span self times.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

from superschrod import (cli, quotient, realization, scalars, singular,
                         superalgebra, verma)

KERNEL_MODULES = ("superschrod", "superschrod.scalars",
                  "superschrod.superalgebra", "superschrod.verma",
                  "superschrod.singular", "superschrod.quotient",
                  "superschrod.realization", "superschrod.cli")


def _patch_everywhere(original, replacement):
    """Rebind ``original`` in every kernel namespace that imported it."""
    for module in (sys.modules[name] for name in KERNEL_MODULES):
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """In-memory span recorder with per-span count hooks."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()
        self.active = False
        self.current_case = -1
        self.modules = []

    def wrap(self, name, fn, after=None):
        """Wrapper recording a ``name`` span around each call of ``fn``.

        ``after(counts, args, result)`` runs after the span has closed, so
        its bookkeeping lands in the caller's self time, not the layer's.
        """
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.case.append(tracer.current_case)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.stack.pop()
            tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap the kernel's public entry points in place."""
        def method(cls, attr, name, after=None):
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), after))

        def function(module, attr, name, after=None):
            original = getattr(module, attr)
            _patch_everywhere(original, self.wrap(name, original, after))

        V = verma.VermaModule
        method(V, "act", "verma.act")
        method(V, "act_engine", "verma.act")
        method(V, "closure_failures", "verma.closure")
        init = V.__init__

        def register(module, *args, **kwargs):
            init(module, *args, **kwargs)
            if self.active:
                self.modules.append(module)
        V.__init__ = register

        function(singular, "find_singular", "singular.find", _after_find)
        function(singular, "bareiss_echelon", "singular.elim", _after_echelon)
        function(singular, "determinant", "singular.elim", _after_det)
        function(quotient, "classify", "quotient.classify", _after_classify)
        method(quotient.FactorModule, "reduce", "quotient.reduce")
        function(quotient, "gram", "quotient.gram", _after_gram)
        method(realization.SuperDiffOp, "apply", "realization.apply",
               _after_apply)
        function(realization, "verify_relations", "realization.verify")
        function(superalgebra, "verify_structure", "superalgebra.verify")
        function(superalgebra, "verify_adjoint", "superalgebra.verify")
        function(cli, "main", "cli")

    def end_case(self):
        """Add the cache sizes of the modules built during the case."""
        for module in self.modules:
            self.counts["verma.cache_entries"] += (
                len(module._cache_table) + len(module._cache_engine))
        self.modules = []

    def self_times(self, factors):
        """Self seconds per span name, and the summed root durations.

        Each span's time is scaled by ``factors[case]``, the speed factor
        measured around the case that recorded it.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = Counter()
        roots = 0.0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            scale = factors[self.case[i]]
            out[self.names[self.name_id[i]]] += (dur - child[i]) * scale
            if self.parent[i] < 0:
                roots += dur * scale
        return out, roots

    def write(self, path):
        """Write every span, columnar, as gzip-compressed JSON."""
        data = {"names": self.names, "name_id": self.name_id.tolist(),
                "parent": self.parent.tolist(), "case": self.case.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist()}
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh)


def _after_find(counts, args, reports):
    counts["singular.kernel_dim"] += sum(rep.kernel_dim for rep in reports)


def _after_echelon(counts, args, result):
    rows = args[0]
    counts["singular.elim_entries"] += len(rows) * (len(rows[0]) if rows else 0)
    counts["singular.elim_rank"] += len(result[1])


def _after_det(counts, args, result):
    counts["singular.elim_entries"] += len(args[0]) ** 2


def _after_classify(counts, args, record):
    counts["quotient.rules"] += len(getattr(record.terminal, "rules", ()))


def _after_gram(counts, args, gm):
    counts["quotient.gram_entries"] += gm.size ** 2


def _after_apply(counts, args, poly):
    counts["realization.terms_out"] += len(poly.terms)


class ScalarCounter:
    """Counts QI and GradedScalar arithmetic while ``active``."""

    QI_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
              "__mul__", "__rmul__", "__truediv__")
    GS_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
              "twist", "inverse")

    def __init__(self):
        self.counts = Counter()
        self.active = False

    def install(self):
        for cls, ops, key in ((scalars.QI, self.QI_OPS, "scalars.qi_ops"),
                              (scalars.GradedScalar, self.GS_OPS,
                               "scalars.gs_ops")):
            for op in ops:
                setattr(cls, op, self._wrap(key, getattr(cls, op)))

    def _wrap(self, key, fn):
        counter = self

        @functools.wraps(fn)
        def wrapper(*args):
            if counter.active:
                counter.counts[key] += 1
            return fn(*args)

        return wrapper
