"""In-memory spans around the public functions of fairgfl's modules.

The tracer lives entirely in the benchmark: it replaces module attributes
with timing wrappers while installed and restores them afterwards. Several
modules import functions by name (``metrics.forward``, ``overlap.perturb_node``,
``federation.partition``, ``cli.run_experiment``, ``cli.generate_sbm``, ...), so
every binding of a wrapped function, in every listed module, is replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

MODULES = ("graph", "gcn", "ldp", "overlap", "federation", "metrics", "cli")

# Called once per vector element inside perturb_node; a span there would
# cost more than the work it measures.
SKIP = frozenset({"ldp.node_grid_probs"})


class Tracer:
    """Spans are ``[name, start, end, parent_index]`` rows, parent -1 at the root."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []   # (module, attr, original, replacement)
        mods = [importlib.import_module(f"fairgfl.{m}") for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, mods):
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    wrapped[obj] = self._wrap(name, obj)
        for mod in mods:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, attr, obj, wrapped[obj]))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def around(self, module, attr: str, hook):
        """Route calls of ``module.attr`` (every binding of it) through ``hook``.

        ``hook(fn, args, kwargs)`` must call ``fn`` and return its result. The
        hook runs outside the function's span; install it after ``install``.
        """
        target = getattr(module, attr)

        @functools.wraps(target)
        def hooked(*args, **kwargs):
            return hook(target, args, kwargs)

        for mod in {p[0] for p in self._patches} | {module}:
            for name, obj in list(vars(mod).items()):
                if obj is target:
                    self._patches.append((mod, name, obj, hooked))
                    setattr(mod, name, hooked)

    def install(self):
        for mod, attr, _, new in self._patches:
            setattr(mod, attr, new)

    def remove(self):
        for mod, attr, orig, _ in reversed(self._patches):
            setattr(mod, attr, orig)

    def reset(self):
        self.spans.clear()
        self._stack.clear()


def summarize(spans) -> dict:
    """Per-name totals in seconds: self time, inclusive time and call count.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans add up to the root spans.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"self": 0.0, "incl": 0.0, "calls": 0})
    for (name, start, end, _), c in zip(spans, child):
        row = out[name]
        row["self"] += (end - start) - c
        row["incl"] += end - start
        row["calls"] += 1
    return dict(out)


def inclusive_under(spans, name: str, parent_name: str) -> float:
    """Total duration of ``name`` spans whose direct parent is ``parent_name``."""
    return sum(
        end - start
        for n, start, end, parent in spans
        if n == name and parent >= 0 and spans[parent][0] == parent_name
    )
