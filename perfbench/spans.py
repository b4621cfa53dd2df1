"""In-memory span tracer that wraps the public functions of anomdet modules.

The tracer patches every reference to a module's public function (the
names in its ``__all__``) across the loaded ``anomdet`` modules, so calls
between modules and within a module both go through a wrapper and nested
calls become child spans.  Nothing under ``src/`` is modified; ``remove``
restores the original functions.

Each span records (id, name, start_ns, end_ns, parent_id, item_id).  A
span's self time is its duration minus the time covered by its child
spans; calls are synchronous and single-threaded, so children never
overlap and the covered time is the sum of their durations.

Hot leaf functions (called once per matrix entry or per binomial) are
counted and timed but not stored as individual spans, which keeps the
span list small; their time still counts as covered time of the caller.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable

# Functions that call no other traced function and run once per matrix
# entry or per coefficient: aggregated, not stored one span per call.
AGGREGATED = frozenset({
    "combin.binomial",
    "combin.normalize_pattern",
    "combin.pattern_distance",
    "combin.pochhammer_rising",
    "johnson.multiplicity",
    "johnson.valency",
})

ROOT = "bench.item"


@dataclass
class FunctionStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    errors: int = 0


@dataclass
class Tracer:
    """Records spans while ``active``; costs one flag test per call otherwise."""

    clock: Callable[[], int] = time.perf_counter_ns
    active: bool = False
    spans: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    item_id: int | None = None
    _stack: list = field(default_factory=list)
    _next_id: int = 0
    _patches: list = field(default_factory=list)
    _root: Callable | None = None

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        tracer = self
        keep = name not in AGGREGATED
        stats = self.stats.setdefault(name, FunctionStats())

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None:
                key, amount = hook(*args, **kwargs)
                tracer.counters[key] = tracer.counters.get(key, 0) + amount
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, tracer.clock(), 0]  # id, start, covered by children
            stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = tracer.clock()
                stack.pop()
                duration = end - frame[1]
                stats.calls += 1
                stats.total_ns += duration
                stats.self_ns += duration - frame[2]
                stats.errors += failed
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                if keep:
                    tracer.spans.append((
                        span_id, name, frame[1], end,
                        parent[0] if parent is not None else None, tracer.item_id,
                    ))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package: str, modules: list[str], hooks: dict | None = None) -> None:
        """Wrap the public functions of ``package.<module>`` for each module.

        Every attribute of every loaded ``package`` module that is one of
        those function objects is replaced, so references bound by
        ``from .x import f`` are traced too.  ``hooks`` maps a span name
        to ``f(*args, **kwargs) -> (counter_name, amount)``, called before
        the wrapped function.
        """
        hooks = hooks or {}
        wrappers: dict[int, Callable] = {}
        for short in modules:
            module = sys.modules[f"{package}.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    wrappers[id(fn)] = self._wrap(name, fn, hooks.get(name))
        loaded = [m for key, m in sys.modules.items()
                  if isinstance(m, ModuleType) and (key == package or key.startswith(package + "."))]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def item(self, item_id: int, fn: Callable, *args):
        """Run ``fn(*args)`` as the root span of one benchmark item."""
        if self._root is None:
            self._root = self._wrap(ROOT, lambda f, *a: f(*a), None)
        self.item_id = item_id
        self.active = True
        try:
            return self._root(fn, *args)
        finally:
            self.active = False
            self.item_id = None

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, name, start_ns, end_ns, parent, item."""
        keys = ("id", "name", "start_ns", "end_ns", "parent", "item")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
