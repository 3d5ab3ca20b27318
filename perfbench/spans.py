"""Per-layer call spans for operadkit, recorded from outside the package.

A Tracer wraps named functions of loaded ``operadkit`` modules and counts
calls, total time and self time.  Self time subtracts the time of nested
wrapped calls, kept on one span stack; total time counts only the outermost
activation of a function, so recursion is not counted twice.

Targets are named relative to the package, e.g. ``exact.span_rank`` or
``poisson.PoissonElement.__init__``.  Each original is found by identity in
every loaded ``operadkit`` module and class, so from-imports such as
``gravity.delta_apply`` are wrapped too.  A name that no longer exists is
recorded as absent instead of failing, so refactors keep the benchmark
running.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

PACKAGE = "operadkit"

CALLS, TOTAL, SELF, DEPTH, USEFUL = range(5)


def _resolve(target):
    """The object a dotted target names in its module or class namespace,
    or None when the name is gone."""
    mod_name, *path = target.split(".")
    try:
        owner = importlib.import_module("%s.%s" % (PACKAGE, mod_name))
    except ImportError:
        return None
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return vars(owner).get(path[-1])


def _namespaces():
    """Every loaded operadkit module and every class defined in one."""
    seen = set()
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        yield mod
        for val in list(vars(mod).values()):
            if (
                isinstance(val, type)
                and val.__module__.startswith(PACKAGE)
                and id(val) not in seen
            ):
                seen.add(id(val))
                yield val


class Tracer:
    """Wraps the given targets while installed; ``stats`` maps each present
    target to ``[calls, total_s, self_s, depth, useful]``.

    ``observers`` maps a target to ``f(args, result) -> bool``; calls for
    which it is true are counted as useful.
    """

    def __init__(self, targets, observers=None):
        self.targets = list(targets)
        self.observers = dict(observers or {})
        self.stats = {}
        self.absent = []
        self._stack = []
        self._patches = []

    def install(self):
        for target in self.targets:
            raw = _resolve(target)
            if raw is None:
                self.absent.append(target)
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                replacement = type(raw)(self._wrap(target, raw.__func__))
            elif callable(raw):
                replacement = self._wrap(target, raw)
            else:
                self.absent.append(target)
                continue
            for ns in _namespaces():
                for name, val in list(vars(ns).items()):
                    if val is raw:
                        setattr(ns, name, replacement)
                        self._patches.append((ns, name, raw))
        return self

    def uninstall(self):
        while self._patches:
            ns, name, raw = self._patches.pop()
            setattr(ns, name, raw)

    def _wrap(self, target, fn):
        rec = self.stats[target] = [0, 0.0, 0.0, 0, 0]
        stack = self._stack
        observe = self.observers.get(target)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec[CALLS] += 1
            rec[DEPTH] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rec[SELF] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                rec[DEPTH] -= 1
                if not rec[DEPTH]:
                    rec[TOTAL] += dt
            if observe is not None and observe(args, result):
                rec[USEFUL] += 1
            return result

        return wrapper
