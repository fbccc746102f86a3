"""Layer tracing from outside the package.

Each public function and method of the nine ``thetanulls`` modules is
replaced, at every place it is bound, by a wrapper that adds to an
in-memory aggregate for its name: call count, total time, self time and,
for a few functions, the size of what they return.  Nothing is recorded
per call, so per-element functions (vector and class constructors,
hashing, form evaluation) cost two clock reads and a few additions.

Self time is a span's duration minus the time covered by the spans it
caused, so the self times of every span under a root sum to that root's
duration exactly.

Generator functions (``quadforms.all_forms``) are counted when called;
the work of their body is charged to the span that consumes them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("gf2", "quadforms", "picard", "ramified", "etale", "verify", "constructions", "report", "cli")

# Dunder methods that build, compare, hash, add or evaluate objects; the
# other dunders (repr, post-init hooks) run inside a traced caller.
TRACED_DUNDERS = frozenset(
    {"__init__", "__call__", "__add__", "__xor__", "__eq__", "__hash__", "__lt__", "__le__", "__gt__", "__ge__"}
)

# Span name -> how much work one return value stands for.
SIZES = {
    "picard.BaseCurveModel.sqrt_classes": len,
    "ramified.enumerate_theta_chars": len,
    "etale.enumerate_etale": len,
    "report.dumps": len,  # json.dumps escapes to ASCII, so characters are bytes
    "report.check": lambda chk: 0 if chk["pass"] else 1,
}

# Per-layer counter -> ("calls" | "items", spans summed).
COUNTERS = {
    "gf2.vectors_built": ("calls", ("gf2.GF2Vector.__init__",)),
    "quadforms.forms_built": ("calls", ("quadforms.QuadraticForm.__init__",)),
    "quadforms.evals": ("calls", ("quadforms.QuadraticForm.__call__",)),
    "quadforms.arf_calls": ("calls", ("quadforms.QuadraticForm.arf",)),
    "quadforms.oracle_calls": ("calls", ("quadforms.arf_by_zero_count",)),
    "picard.classes_built": ("calls", ("picard.LineBundleClass.__init__",)),
    "picard.tensor_calls": ("calls", ("picard.BaseCurveModel.tensor",)),
    "picard.sqrt_calls": ("calls", ("picard.BaseCurveModel.sqrt_classes",)),
    "picard.roots": ("items", ("picard.BaseCurveModel.sqrt_classes",)),
    "ramified.chars": ("items", ("ramified.enumerate_theta_chars",)),
    "ramified.classify_calls": ("calls", ("ramified.parity", "ramified.is_vanishing", "ramified.h0_theta")),
    "etale.enumerate_calls": ("calls", ("etale.enumerate_etale",)),
    "etale.chars": ("items", ("etale.enumerate_etale",)),
    "verify.checks": ("calls", ("report.check",)),
    "verify.checks_failed": ("items", ("report.check",)),
    "verify.triples": ("calls", ("etale.triple_parity", "etale.triple_product")),
    "constructions.builds": (
        "calls",
        (
            "constructions.build_bielliptic_genus6",
            "constructions.sample_bielliptic_spec",
            "constructions.hyperelliptic_report",
        ),
    ),
    "report.bytes": ("items", ("report.dumps",)),
    "cli.calls": ("calls", ("cli.main",)),
}


class Stat:
    __slots__ = ("calls", "total", "self_time", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0


class Tracer:
    """Aggregated spans keyed by name, with self time from a stack of
    child-time accumulators."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._child = [0.0]  # bottom entry collects the durations of root spans

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.calls, stat.total, stat.self_time, stat.items = 0, 0.0, 0.0, 0
        self._child[:] = [0.0]

    def wrap(self, name: str, fn, size=None):
        """``fn`` timed as span ``name``; ``size(result)`` is added to items."""
        stat = self.stats.setdefault(name, Stat())
        clock = self.clock
        child = self._child

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                child[-1] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - inner
            if size is not None:
                stat.items += size(result)
            return result

        return span

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat.self_time
        return out

    def counts(self) -> dict[str, tuple[int, int]]:
        """Calls and items of every span, for comparing passes exactly."""
        return {name: (s.calls, s.items) for name, s in sorted(self.stats.items())}

    def counters(self) -> dict[str, int]:
        out = {}
        for metric, (field, names) in COUNTERS.items():
            out[metric] = sum(getattr(self.stats[n], field) for n in names if n in self.stats)
        return out

    def missing_counter_spans(self) -> list[str]:
        return sorted({n for _, names in COUNTERS.values() for n in names} - self.stats.keys())


def _traced_members(layer: str, module):
    """(span name, class or None, attribute, original, rebuild) for every
    traced function and method defined in ``module``."""
    for attr, obj in list(vars(module).items()):
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            for mname, member in list(vars(obj).items()):
                if mname.startswith("_") and mname not in TRACED_DUNDERS:
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    yield f"{layer}.{obj.__qualname__}.{mname}", obj, mname, member.__func__, type(member)
                elif inspect.isfunction(member):
                    yield f"{layer}.{member.__qualname__}", obj, mname, member, None
        elif (
            callable(obj)
            and not isinstance(obj, type)
            and not attr.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__
        ):
            yield f"{layer}.{attr}", None, attr, obj, None


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every layer of ``thetanulls`` for the duration of the block.

    A function imported elsewhere with ``from ... import`` or stored in a
    module-level dict (``verify.SUITES``) is replaced there too, so no
    call escapes its span.
    """
    wrappers: dict[int, object] = {}  # id(original) -> wrapper; the wrapper keeps the original alive
    undo = []
    for layer in LAYERS:
        module = importlib.import_module(f"thetanulls.{layer}")
        for name, cls, attr, original, rebuild in _traced_members(layer, module):
            if id(original) not in wrappers:
                wrappers[id(original)] = tracer.wrap(name, original, SIZES.get(name))
            if cls is not None:
                undo.append(functools.partial(setattr, cls, attr, vars(cls)[attr]))
                wrapper = wrappers[id(original)]
                setattr(cls, attr, rebuild(wrapper) if rebuild else wrapper)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "thetanulls" and not mod_name.startswith("thetanulls."):
            continue
        namespaces = [vars(module)]
        namespaces += [v for k, v in vars(module).items() if isinstance(v, dict) and not k.startswith("__")]
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                if id(value) in wrappers:
                    undo.append(functools.partial(namespace.__setitem__, key, value))
                    namespace[key] = wrappers[id(value)]
    try:
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()
