"""Spans and counters around berkline's public functions.

The tracer patches functions from the outside: every module attribute of
the package bound to a traced function is replaced by a wrapper, so
calls between modules and within one module both pass through it.
Nothing under ``src/`` changes.

A span has an identifier, a parent span, the operation it belongs to, a
name (``module.function``), and a start and an end from
``time.perf_counter_ns``.  Self time is a span's duration minus the time
covered by its direct children.  Counters ride on the same boundaries.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import Counter

# (module, function) pairs wrapped with a span each
SPANNED = (
    ("polyhedra", "lp_max"),
    ("polyhedra", "strict_feasible"),
    ("polyhedra", "cone_generators"),
    ("polyhedra", "nullspace"),
    ("gflow", "build_complex"),
    ("gflow", "cells"),
    ("gflow", "core_bounds"),
    ("gflow", "flow"),
    ("gflow", "locate_cell"),
    ("gflow", "exit_time"),
    ("gflow", "classify_D0"),
    ("gflow", "recession_barycenter"),
    ("gflow", "cell_dimension"),
    ("pline", "skeleton"),
    ("pline", "join"),
    ("pline", "normalize_point"),
    ("pline", "retract"),
    ("pline", "skeleton_contains"),
    ("pline", "gauss_val"),
    ("topo", "family_sweep"),
    ("newton", "root_valuations_along_path"),
    ("newton", "coeff_val_path"),
    ("polys", "taylor_shift"),
    ("serialize", "run_scene"),
    ("serialize", "load_scene"),
    ("trop", "tau_h"),
)

# (module, class, method) triples that are only counted: they are hot
# enough that a span per call would distort the spans around them
COUNTED = (
    ("fields", "PAdicField", "val"),
    ("fields", "TAdicField", "val"),
)


class Tracer:
    """In-memory spans and per-name aggregates for one process."""

    def __init__(self):
        self.enabled = False
        self.keep_spans = True
        self.spans = []
        self.calls = Counter()
        self.self_ns = Counter()
        self.extra = Counter()
        self._stack = []
        self._next_id = 0
        self._op = None
        self._patterns = weakref.WeakKeyDictionary()

    def reset_round(self):
        """Start a fresh set of aggregates; spans already kept stay."""
        self.calls = Counter()
        self.self_ns = Counter()
        self.extra = Counter()
        self._patterns = weakref.WeakKeyDictionary()

    def begin(self, name, op=None):
        self._next_id += 1
        if op is not None:
            self._op = op
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, parent, name, time.perf_counter_ns(), 0])

    def end(self):
        stop = time.perf_counter_ns()
        sid, parent, name, start, child = self._stack.pop()
        dur = stop - start
        self.calls[name] += 1
        self.self_ns[name] += dur - child
        if self._stack:
            self._stack[-1][4] += dur
        if self.keep_spans:
            self.spans.append((sid, parent, self._op, name, start, stop))

    def observe(self, name, args, result):
        """Counts read off arguments and results at the span boundary."""
        if name == "gflow.cells":
            self.extra["gflow.cells.count"] += len(result)
        elif name == "gflow.flow":
            self.extra["gflow.flow.steps"] += len(result.steps)
        elif name == "polyhedra.strict_feasible":
            self.extra["polyhedra.strict_feasible.found"] += result is not None
        elif name == "gflow.classify_D0":
            seen = self._patterns.setdefault(args[0], set())
            if args[1].pattern not in seen:
                seen.add(args[1].pattern)
                self.extra["gflow.classify_D0.distinct"] += 1
        elif name == "pline.skeleton":
            self.extra["pline.skeleton.vertices"] += result.n
        elif name == "newton.root_valuations_along_path":
            self.extra["newton.root_valuations_along_path.pieces"] += len(result.pieces)

    def span_wrapper(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            tracer.observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def write(self, path, summary):
        """Write kept spans and a summary as one JSON document."""
        doc = {
            "summary": summary,
            "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


PACKAGE = "berkline"


def install(tracer: Tracer) -> list:
    """Wrap every traced function in every loaded module of the package.

    Returns the list of (owner, attribute, original) patches; pass it to
    :func:`uninstall` to restore the package.
    """
    loaded = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    patches = []
    for modname, fname in SPANNED:
        original = getattr(sys.modules[f"{PACKAGE}.{modname}"], fname)
        wrapper = tracer.span_wrapper(f"{modname}.{fname}", original)
        for m in loaded:
            for attr, value in list(vars(m).items()):
                if value is original:
                    patches.append((m, attr, original))
                    setattr(m, attr, wrapper)
    for modname, cls, meth in COUNTED:
        owner = getattr(sys.modules[f"{PACKAGE}.{modname}"], cls)
        original = owner.__dict__[meth]
        patches.append((owner, meth, original))
        setattr(owner, meth, tracer.count_wrapper(f"{modname}.{meth}", original))
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
