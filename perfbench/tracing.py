"""Span tracing of pathideal's public functions, applied from outside.

The modules of pathideal import each other's functions by name, so one
function is bound in several module namespaces (``verify.minimalize``,
``linearity.minimalize``, ``monomials.minimalize``, ...).  ``Tracer.install``
replaces the function in every loaded ``pathideal`` namespace where it is
bound, and patches ``BettiCache.lookup``/``store`` on the class.  Nothing in
the package itself is edited; ``uninstall`` puts the originals back.

Spans are kept in memory as ``[name, start, end, parent]``; self time is a
span's duration minus the durations of its direct children.  Tracing assumes
one thread in one process, so traced sweeps must run with ``jobs=1``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections.abc import Sized
from dataclasses import dataclass, field

# (module, attribute, span name).  The layer of a span is its first dotted part.
TRACED_FUNCTIONS = (
    ("pathideal.verify", "run_sweep", "verify.run_sweep"),
    ("pathideal.verify", "emit_table", "verify.emit_table"),
    ("pathideal.cache", "cached_betti_table", "cache.cached_betti_table"),
    ("pathideal.oracle", "betti_table", "oracle.betti_table"),
    ("pathideal.oracle", "gf2_rank", "oracle.gf2_rank"),
    ("pathideal.oracle", "gfp_rank", "oracle.gfp_rank"),
    ("pathideal.monomials", "minimalize", "monomials.minimalize"),
    ("pathideal.monomials", "ideal_power", "monomials.ideal_power"),
    ("pathideal.monomials", "colon_by_monomial", "monomials.colon_by_monomial"),
    ("pathideal.path_ideals", "power_generators", "path_ideals.power_generators"),
    ("pathideal.linearity", "linear_quotients_check", "linearity.linear_quotients_check"),
    ("pathideal.linearity", "quasi_linear_check", "linearity.quasi_linear_check"),
    ("pathideal.linearity", "quasi_linear_witness", "linearity.quasi_linear_witness"),
)
TRACED_METHODS = (
    ("pathideal.cache", "BettiCache", "lookup", "cache.lookup"),
    ("pathideal.cache", "BettiCache", "store", "cache.store"),
)
LAYERS = ("oracle", "monomials", "path_ideals", "linearity", "cache", "verify")


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


@dataclass
class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    # (ideal, table) of every betti_table call, for the lattice measurement.
    oracle_calls: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, before=None, after=None):
        """fn inside a span; before(args) runs in the span, after outside it."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                if before is not None:
                    args = before(args)
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _hooks(self, span_name):
        """Counters recorded at a span boundary: (before, after) or Nones."""

        def materialize(args, counter):
            # Inputs may be generators; list them inside the span, as the
            # callee would, so their cost stays in the callee's time.
            first = args[0] if isinstance(args[0], Sized) else list(args[0])
            self.count(counter, len(first))
            return (first,) + tuple(args[1:])

        if span_name == "monomials.minimalize":
            return (lambda args: materialize(args, "minimalize.gens_in")), None
        if span_name in ("oracle.gf2_rank", "oracle.gfp_rank"):
            return (lambda args: materialize(args, "rank_rows")), None
        if span_name == "oracle.betti_table":
            return None, lambda args, table: self.oracle_calls.append((args[0], table))
        if span_name == "cache.lookup":
            def hit_or_miss(args, found):
                self.count("cache.misses" if found is None else "cache.hits")
            return None, hit_or_miss
        return None, None

    def install(self) -> None:
        """Patch every pathideal namespace that binds a traced function."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "pathideal" or name.startswith("pathideal.")
        ]
        for module_name, attr, span_name in TRACED_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(span_name, original, *self._hooks(span_name))
            for mod in namespaces:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, bound, original))
                        setattr(mod, bound, wrapper)
        for module_name, cls_name, attr, span_name in TRACED_METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(span_name, original, *self._hooks(span_name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def stats(self) -> dict[str, SpanStats]:
        """Per span name: calls, self time and inclusive time."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, SpanStats] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            st = out.setdefault(name, SpanStats())
            st.calls += 1
            st.total_s += end - start
            st.self_s += (end - start) - child_s[i]
        return out

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines, in seconds from the first start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent]))
                fh.write("\n")
