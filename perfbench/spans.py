"""Per-layer spans recorded from outside the package.

`install` wraps every public function and method of the measured
modules and rebinds the wrapper wherever the package binds the original
object, so a call through any import path is timed.  Each wrapper adds
its duration to the enclosing span's child time, which gives self time
(busy minus wrapped children).  Spans are aggregated per name in memory.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from collections import Counter

PACKAGE = "toric_cartier"
# svgfig (the plot command) is deliberately not measured; linalg and
# errors are leaf helpers below every layer
LAYERS = ("instance", "polyhedral", "ideals", "cartier", "fixed_points", "birational", "oracle", "documents", "cli")
# per-lattice-point predicates and coercions: wrapping them would cost
# more than the work they do and distort every layer above them
LEAF_NAMES = frozenset({"contains", "interior_contains", "relint_contains", "as_lattice_point",
                        "as_rational_vector", "iter_box"})


def _is_callable_target(obj, module_name):
    if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
        return getattr(obj, "__module__", None) == module_name
    return False


def public_targets():
    """(span name, owner, attribute, original) for every measured public
    function: module-level functions, plain methods and classmethods of
    classes defined in a measured module.  Dunder aliases of a public
    method (``__add__ = sum``) share its span."""
    targets = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or name in LEAF_NAMES:
                continue
            if _is_callable_target(obj, mod.__name__):
                targets.append((f"{layer}.{name}", mod, name, obj))
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, val in vars(obj).items():
                    if attr.startswith("_") or attr in LEAF_NAMES:
                        continue
                    if isinstance(val, (types.FunctionType, classmethod)):
                        targets.append((f"{layer}.{name}.{attr}", obj, attr, val))
    return targets


def public_caches():
    """{function name: lru-cached function} for the public lru_caches
    that still exist; call before `install` replaces the bindings."""
    caches = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            if not name.startswith("_") and hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                caches[name] = obj
    return caches


def cached_entries():
    """Total entries held by every lru_cache in the package, public or not."""
    total = 0
    for modname, mod in list(sys.modules.items()):
        if modname == PACKAGE or modname.startswith(PACKAGE + "."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == modname:
                    total += obj.cache_info().currsize
    return total


class Recorder:
    """Aggregated spans: per name [calls, busy_s, self_s], plus counters."""

    def __init__(self):
        self.stats = {}
        self.counters = Counter()
        self._child = []  # child time accumulated by each open span
        self.active = Counter()  # open spans per name

    def wrap(self, name, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        child_stack, active, counters, clock = self._child, self.active, self.counters, time.perf_counter

        def span(*args, **kwargs):
            active[name] += 1
            child_stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                elapsed = clock() - start
                inner = child_stack.pop()
                if child_stack:
                    child_stack[-1] += elapsed
                active[name] -= 1
                stats[0] += 1
                stats[2] += elapsed - inner
                if not active[name]:
                    stats[1] += elapsed  # outermost call only, so recursion is not counted twice
            if after is not None:
                after(self, result)
            return result

        return span

    def snapshot(self):
        return {"stats": {k: list(v) for k, v in self.stats.items()}, "counters": dict(self.counters)}


def _count(key):
    def after(rec, result):
        rec.counters[key] += len(result)
    return after


def _count_sum(rec, result):
    if rec.active["fixed_points.enumerate_fixed"]:
        rec.counters["fixed_points.enumerate_fixed.sums"] += 1


def _count_verdict(rec, result):
    if result.status == "not_fixed":
        rec.counters["oracle.verify_fixed.not_fixed"] += 1
    if rec.active["oracle.brute_force_enumerate"]:
        rec.counters["oracle.brute_force_enumerate.candidates"] += 1


AFTER = {
    "polyhedral.minimal_lattice_points": _count("polyhedral.minimal_lattice_points.points_out"),
    "polyhedral.face_lattice": _count("polyhedral.face_lattice.faces_out"),
    "fixed_points.enumerate_fixed": _count("fixed_points.enumerate_fixed.ideals_out"),
    "oracle.brute_force_enumerate": _count("oracle.brute_force_enumerate.fixed"),
    "documents.dump_document": _count("documents.dump_document.bytes_out"),
    "ideals.MonomialIdeal.sum": _count_sum,
    "oracle.verify_fixed": _count_verdict,
}


def install():
    """Wrap every public target and rebind it throughout the package."""
    rec = Recorder()
    modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for name, owner, attr, original in public_targets():
        if isinstance(original, classmethod):
            wrapped = classmethod(rec.wrap(name, original.__func__, AFTER.get(name)))
            setattr(owner, attr, wrapped)
            continue
        wrapped = rec.wrap(name, original, AFTER.get(name))
        if isinstance(owner, type):
            for alias, val in list(vars(owner).items()):
                if val is original:
                    setattr(owner, alias, wrapped)
        for mod in modules:
            for binding, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, binding, wrapped)
    return rec
