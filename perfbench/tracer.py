"""Span recorder and F_q call counter, installed on ``ffmult`` from outside.

Each traced library function is replaced under every name that binds it in
any ``ffmult`` module namespace, so calls from inside the library (``y_roots``
calling ``y_roots_bruteforce``, ``verify_merger_theorem`` calling
``exact_output_distribution``) are caught as well as calls from the CLI.
Spans live in memory until the run writes them out; ``uninstall`` puts every
original function back.
"""

from __future__ import annotations

import copy
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

MARK = "_perfbench_wrapped"


def _family(spec) -> str:
    return "prime" if spec.e == 1 else "gf2e" if spec.p == 2 else "oddpe"


def _multiplicity_mass_points(args, kwargs):
    P, S = args[0], args[1]
    return {"points": len(set(S)) ** P.n} if isinstance(S, (tuple, list, range)) else {}


# (module, function, attributes from (args, kwargs), attributes from the result)
TRACED = (
    ("ff", "field_make", None, None),
    ("interpolate", "vanishing_constraints", None, lambda r: {"rows": len(r)}),
    ("interpolate", "nullspace_vector",
     lambda a, kw: {"family": _family(a[2]), "cells": len(a[0]) * a[1]}, None),
    ("rs_decode", "choose_params", None, None),
    ("rs_decode", "y_roots", None, lambda r: {"candidates": len(r)}),
    ("rs_decode", "y_roots_bruteforce", None, None),
    ("rs_decode", "agreement", None, None),
    ("merger", "merger_make", None, None),
    ("merger", "exact_output_distribution",
     lambda a, kw: {"pairs": a[0].spec.q ** (a[0].n + 1)},
     lambda r: {"support": len(r.probs)}),
    ("merger", "distance_to_min_entropy", None, None),
    ("mvpoly", "multiplicity", None, None),
    ("mvpoly", "multiplicity_mass", _multiplicity_mass_points, None),
    ("kakeya", "exhaustive_min_kakeya", None, None),
    ("kakeya", "is_kakeya", None, None),
)

COUNTED = ("add", "mul", "inv", "pow")


def _ffmult_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ffmult" or name.startswith("ffmult."))]


class _Patches:
    """Replacements made on ffmult, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, original, wrapper) -> None:
        for mod in _ffmult_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def set(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "child_ns", "nested")

    def __init__(self, name, start, parent, op, nested):
        self.name, self.start, self.parent, self.op = name, start, parent, op
        self.end, self.attrs, self.child_ns, self.nested = 0, {}, 0, nested

    @property
    def dur_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        # children run one at a time inside their parent, so they never overlap
        return self.dur_ns - self.child_ns


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches = _Patches()
        self.op = None

    # -- recording ------------------------------------------------------------

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        nested = any(self.spans[i].name == name for i in self._stack)
        self.spans.append(Span(name, time.perf_counter_ns(), parent, self.op, nested))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def exit(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_ns += span.dur_ns

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(idx)

    def _wrap(self, name, fn, before, after):
        def wrapper(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            attrs = self.spans[idx].attrs
            if before:
                attrs.update(before(args, kwargs))
            if after:
                attrs.update(after(result))
            return result

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, ffmult) -> None:
        for module, func, before, after in TRACED:
            original = getattr(getattr(ffmult, module), func)
            self._patches.rebind(original, self._wrap(f"{module}.{func}", original, before, after))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- reduction ------------------------------------------------------------

    def summary(self, ops) -> dict:
        """Per-layer totals over the spans of the given op ids."""
        busy = defaultdict(int)
        self_ns = defaultdict(int)
        counts = Counter()
        for s in self.spans:
            if s.op not in ops:
                continue
            if not s.nested:
                busy[s.name] += s.dur_ns
            self_ns[s.name] += s.self_ns
            counts[s.name + ".calls"] += 1
            for key, value in s.attrs.items():
                if key == "family":
                    busy[f"{s.name}.{value}"] += s.dur_ns
                else:
                    counts[f"{s.name}.{key}"] += value
        return {"busy_ns": dict(busy), "self_ns": dict(self_ns), "counts": dict(counts)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                    "parent": s.parent, "op": s.op, "self_ns": s.self_ns, **s.attrs,
                }) + "\n")


class CallCounter:
    """Counts FieldSpec.add/mul/inv/pow calls; records no time.

    A tick is one C-level ``next`` on an ``itertools.count`` and the wrappers
    take fixed arguments, to keep the pass over millions of calls short."""

    def __init__(self):
        self._ticks = {name: itertools.count() for name in COUNTED}
        self._patches = _Patches()

    @property
    def counts(self) -> dict[str, int]:
        # a copy's next value is the number of ticks so far, and ticks nothing
        return {name: next(copy.copy(c)) for name, c in self._ticks.items()}

    def install(self, ffmult) -> None:
        cls = ffmult.ff.FieldSpec
        for name in COUNTED:
            fn, tick = vars(cls)[name], self._ticks[name].__next__
            if name == "inv":
                def wrapper(spec, a, _fn=fn, _tick=tick):
                    _tick()
                    return _fn(spec, a)
            else:
                def wrapper(spec, a, b, _fn=fn, _tick=tick):
                    _tick()
                    return _fn(spec, a, b)

            setattr(wrapper, MARK, True)
            wrapper.__wrapped__ = fn
            self._patches.set(cls, name, wrapper)

    def uninstall(self) -> None:
        self._patches.undo()


def leftover_wrappers() -> list[str]:
    """Names in ffmult still bound to a benchmark wrapper (should be none)."""
    found = []
    for mod in _ffmult_modules():
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type):
                found += [f"{mod.__name__}.{attr}.{k}" for k, v in vars(value).items()
                          if getattr(v, MARK, False)]
    return found
