"""Span recorder for the traced benchmark run.

It wraps the public functions of each library module where the caller looks
them up (module globals such as `coalition_attr.cli.harsanyi_allocate`, and
class attributes such as `Model.__call__` or `PartialOrderUniform.sample`).
Nothing in the library changes; `uninstall` restores every original.

Each span records its name, start, end, parent and request id. A span's self
time is the time during which it is an innermost open span. When spans from
worker threads overlap, each instant is shared equally among the innermost
open spans, so the self times of one request always add up to the duration
of its root `cli.main` span.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections import defaultdict
from time import perf_counter_ns

ROOT = "cli.main"

# Module globals that callers look up: (module, attribute). The span name is
# the defining module plus the function's qualified name.
GLOBALS = [
    ("cli", name) for name in (
        "harsanyi_allocate", "pme", "proportional_value", "shapley_direct",
        "shapley_dividends", "shapley_permutation", "weber_allocate", "weber_monte_carlo",
        "dividends_fast", "zeta_reconstruct", "dual_game", "efficiency_gap",
        "causal_orderings_from_json", "marginal_game", "conditional_gaussian_game",
        "conditional_mc_game", "sobol_closed_game", "sobol_total_game")
] + [
    ("allocations", name) for name in (
        "dividends_fast", "dual_game", "proportional_value", "weber_allocate",
        "marginal_vector")
] + [
    ("value_functions", name) for name in (
        "build_game", "gaussian_conditional", "conditional_mean_quad",
        "conditional_var_quad", "subvector")
] + [("expr", name) for name in ("parse", "monomials", "evaluate")]

# Class attributes: (module, class, attribute).
METHODS = [
    ("games", "Game", "from_json"),
    ("gaussian", "GaussianSpec", "from_json"),
    ("gaussian", "QuadForm", "mean_under"),
    ("gaussian", "QuadForm", "var_under"),
    ("value_functions", "Model", "__call__"),
    ("value_functions", "Model", "from_expression"),
    ("allocations", "WeightSystem", "from_json"),
    ("allocations", "WeightSystem", "validate"),
    ("orderings", "Explicit", "from_json"),
] + [("orderings", cls, attr) for cls in ("Uniform", "Explicit", "PartialOrderUniform")
     for attr in ("expand", "sample")]

ORACLE = "value_functions.oracle"
PACKAGE = "coalition_attr"


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Records spans in memory, one request at a time."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent id, request id)
        self.request_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = (
                self._main_stack if threading.current_thread() is threading.main_thread() else [])
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a worker thread's first span hangs off the caller's open span
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.request_id))

        return traced

    def _wrap_build_game(self, fn):
        wrap = self.wrap

        def build_game(d, oracle, *args, **kwargs):
            return fn(d, wrap(ORACLE, oracle), *args, **kwargs)

        return self.wrap(span_name(fn), functools.wraps(fn)(build_game))

    def install(self) -> None:
        for mod_name, attr in GLOBALS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            wrapped = (self._wrap_build_game(fn) if attr == "build_game"
                       else self.wrap(span_name(fn), fn))
            setattr(mod, attr, wrapped)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), cls_name)
            raw = cls.__dict__[attr]
            self._saved.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(span_name(raw.__func__), raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(span_name(raw), raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def call(self, fn, *args):
        """Run one request under a root span; returns (result, spans)."""
        self.request_id += 1
        self.spans = []
        result = self.wrap(ROOT, fn)(*args)
        return result, self.spans


def self_times(spans) -> dict[int, float]:
    """Self time in seconds of each span id (see module docstring)."""
    parent_of = {s[0]: s[4] for s in spans}
    events = sorted([(s[2], 1, s[0]) for s in spans] + [(s[3], 0, s[0]) for s in spans])
    open_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    leaves: set[int] = set()
    own: dict[int, float] = defaultdict(float)
    prev = events[0][0] if events else 0
    for t, starting, sid in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        prev = t
        parent = parent_of[sid]
        if starting:
            active.add(sid)
            leaves.add(sid)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0 and parent in active:
                    leaves.add(parent)
    return {sid: own[sid] * 1e-9 for sid in parent_of}


def summarize(spans) -> dict:
    """Per-name count, inclusive seconds and self seconds for one request."""
    own = self_times(spans)
    out: dict[str, list] = {}
    for sid, name, start, end, *_ in spans:
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (end - start) * 1e-9
        row[2] += own[sid]
    return {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in out.items()}
