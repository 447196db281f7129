"""Per-layer spans for the traced run, installed from outside the program.

`Tracer.install` replaces the public functions of each typelog module by
timing wrappers and `Tracer.uninstall` puts the originals back.  Modules
import each other's functions by value (``from .terms import unify``), so
a function is replaced under every name that refers to it in any typelog
module, not only where it is defined; methods and the ``capability``
property are replaced on their classes, which every instance and subclass
looks up at call time.  ``typelog.solve`` names the function once the
package is imported, so modules are taken from ``sys.modules``.

A span's self time is its duration minus the durations of the spans
directly inside it.  Spans are aggregated per layer as they close (call
count and self time) rather than kept one by one, because the term layer
opens millions of them in one batch.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Dict, List

# The modules searched for references to a wrapped function.
MODULES = ("typelog", "typelog.terms", "typelog.derive", "typelog.goals",
           "typelog.solve", "typelog.prelude", "typelog.repl", "typelog.cli")

# Layer name -> (defining module, function names) for plain functions.
FUNCTIONS = {
    "terms.unify": ("typelog.terms", ("unify",)),
    "terms.occurs_in": ("typelog.terms", ("occurs_in",)),
    "terms.resolve": ("typelog.terms", ("resolve",)),
    "terms.walk": ("typelog.terms", ("walk",)),
    "terms.pretty": ("typelog.terms", ("pretty",)),
    "goals.build": ("typelog.goals", ("eq", "exists", "scope", "neg")),
    "prelude.predicate": ("typelog.prelude", (
        "plus", "is_suc", "leq", "lt", "is_head", "is_tail", "member",
        "not_member", "sorted_with", "sorted_nat", "map_p", "list_plus_one",
        "remainder", "append_list")),
    "prelude.convert": ("typelog.prelude", ("as_term", "as_nat", "nat", "make_list")),
    "solve.stream": ("typelog.solve", ("solve", "solve_stores", "holds")),
    "repl.compile_query": ("typelog.repl", ("compile_query",)),
    "repl.format_solution": ("typelog.repl", ("format_solution",)),
    # Not reported; makes a whole REPL session one outermost span.
    "repl.repl": ("typelog.repl", ("repl",)),
}

# Layer name -> (module, class, method names).
METHODS = {
    "terms.bind": ("typelog.terms", "BindingStore", ("bind",)),
    "derive.make": ("typelog.derive", "LogicType", ("make",)),
    "goals.build": ("typelog.goals", "Goal", ("__and__", "__or__", "__xor__")),
}

_END = object()


class Tracer:
    """Span totals per layer plus the counters the per-layer metrics need.

    `stats[layer]` is ``[calls, self_seconds]``.  `covered` sums the
    durations of outermost spans, so ``covered / wall`` is the share of
    traced time spent inside some layer.
    """

    def __init__(self):
        self.stats: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {
            "unify_clashes": 0, "bind_store_len_sum": 0, "bind_store_len_max": 0,
            "capability_lookups": 0, "answers": 0, "compiled_chars": 0,
        }
        self._stack = [0.0]
        self._undo: list = []

    @property
    def covered(self) -> float:
        return self._stack[0]

    # --- wrappers ---------------------------------------------------------

    def _span(self, fn, layer: str, note=None):
        stat = self.stats.setdefault(layer, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stack[-1] += dt
            if note is not None:
                note(args, result)
            return result
        return wrapper

    def _stream(self, fn, layer: str):
        """A generator function: each resumption is one span."""
        stat = self.stats.setdefault(layer, [0, 0.0])
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(inner, _END)
                    finally:
                        dt = clock() - t0
                        stat[0] += 1
                        stat[1] += dt - stack.pop()
                        stack[-1] += dt
                    if item is _END:
                        return
                    counts["answers"] += 1
                    yield item
            finally:
                inner.close()
        return wrapper

    def _note_for(self, layer: str):
        counts = self.counts
        if layer == "terms.unify":
            def note(args, result):
                if result is None:
                    counts["unify_clashes"] += 1
        elif layer == "terms.bind":
            def note(args, result):
                n = len(args[0])
                counts["bind_store_len_sum"] += n
                if n > counts["bind_store_len_max"]:
                    counts["bind_store_len_max"] = n
        elif layer == "repl.compile_query":
            def note(args, result):
                counts["compiled_chars"] += len(args[0])
        else:
            note = None
        return note

    def _wrap(self, fn, layer: str):
        if inspect.isgeneratorfunction(fn):
            return self._stream(fn, layer)
        return self._span(fn, layer, self._note_for(layer))

    # --- install / uninstall ----------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[m] for m in MODULES if m in sys.modules]
        replace = {}  # id(original) -> (original, wrapper)
        for layer, (module, names) in FUNCTIONS.items():
            for name in names:
                fn = getattr(sys.modules[module], name)
                replace[id(fn)] = (fn, self._wrap(fn, layer))
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, name, hit[1])
        # Numerals written as ints reach prelude.nat through the type's
        # from_int hook, which holds the function by value.
        nat_type = sys.modules["typelog.prelude"].NAT
        hit = replace.get(id(nat_type.from_int))
        if hit is not None:
            self._set(nat_type, "from_int", hit[1])
        for layer, (module, cls_name, names) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            for name in names:
                self._set(cls, name, self._wrap(vars(cls)[name], layer))
        logic_type = sys.modules["typelog.derive"].LogicType
        original = vars(logic_type)["capability"]
        counts = self.counts

        def capability(self_):
            counts["capability_lookups"] += 1
            return original.fget(self_)
        self._set(logic_type, "capability", property(capability, doc=original.__doc__))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
