"""Per-layer tracing from outside the program.

The tracer replaces each public function of a layer module at every name
a ``dhyper`` module binds it to (``dhyper.cli.groebner_weyl``,
``dhyper.systems.saturate``, ...), plus a few engine methods on their
classes, so nested calls open nested spans.  A span records its layer,
function, start, end, parent span and task id; spans stay in memory and
are written out by the caller when the run ends.  A layer's busy time is
self time: the span's duration minus the time its child spans cover.

Two hot scalar helpers, ``weyl.term_action_factor`` and
``series.lattice_coordinates``, are counted but not timed, and
``weyl.falling_factorial`` is left alone; their time stays in the caller's
self time.  So does any call the wrapping cannot reach, such as
``series._smith``, which is bound at import to the unwrapped
``smith_form``, and every private helper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("exact", "weyl", "groebner", "systems", "mgraph", "series", "cli")

# counted, not timed
COUNTED = {
    ("weyl", "term_action_factor"): "weyl.term_action_calls",
    ("series", "lattice_coordinates"): "series.lattice_coordinate_calls",
}

# scalar helpers left unwrapped: their time stays in the caller's self time
UNWRAPPED = {("weyl", "falling_factorial")}

# engine methods traced besides the module-level functions
METHODS = {
    "groebner": [
        ("CommIdeal", "groebner"),
        ("CommIdeal", "normal_form"),
        ("WeylGroebner", "membership"),
        ("WeylGroebner", "normal_form"),
        ("MembershipCertificate", "verify"),
    ],
    "series": [("PuiseuxSeries", "make")],
}

# work counters read off a traced call's result
COUNTER_NAMES = (
    "groebner.weyl_basis_size",
    "groebner.capped_bases",
    "groebner.comm_basis_size",
    "groebner.comm_cache_hits",
    "groebner.memberships",
    "groebner.cofactor_terms",
    "weyl.term_action_calls",
    "series.points",
    "series.lattice_coordinate_calls",
    "series.inconclusive_verdicts",
    "mgraph.vertices",
)


class Tracer:
    """Collects spans and counters while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.task = -1
        self.spans = []  # (layer, function, start, end, parent index, task)
        self.busy = Counter()
        self.calls = Counter()
        self.counters = Counter()
        self._stack = []  # [span index, child time]
        self._gb_cache = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"dhyper.{name}") for name in LAYERS}
        everywhere = [importlib.import_module("dhyper")] + list(modules.values())
        self._gb_cache = modules["groebner"]._groebner_cached
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__ or (layer, name) in UNWRAPPED:
                    continue
                wrapped = self._wrap(layer, name, fn)
                for other in everywhere:
                    for alias, obj in list(vars(other).items()):
                        if obj is fn:
                            setattr(other, alias, wrapped)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                raw = inspect.getattr_static(cls, meth)
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self._wrap(layer, f"{cls_name}.{meth}", raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(layer, f"{cls_name}.{meth}", raw))

    def _wrap(self, layer: str, name: str, fn):
        counter = COUNTED.get((layer, name))
        if counter is not None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.active:
                    self.counters[counter] += 1
                return fn(*args, **kwargs)

            return counted

        qualname = f"{layer}.{name}"
        after = _AFTER.get(qualname)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            misses = self._gb_cache.cache_info().misses if qualname == "groebner.CommIdeal.groebner" else None
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            self._stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                self._stack.pop()
                duration = end - start
                self.spans[index] = (layer, name, start, end, parent, self.task)
                self.busy[layer] += duration - frame[1]
                self.calls[layer] += 1
                if self._stack:
                    self._stack[-1][1] += duration
            if misses is not None:
                if self._gb_cache.cache_info().misses > misses:
                    self.counters["groebner.comm_basis_size"] += len(result)
                else:
                    self.counters["groebner.comm_cache_hits"] += 1
            elif after is not None:
                after(self.counters, result)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.busy_s"] = (self.busy[layer], "s")
        for name in COUNTER_NAMES:
            out[name] = (self.counters[name], "count")
        return out


def _weyl_basis(counters, gb):
    counters["groebner.weyl_basis_size"] += len(gb.basis)
    counters["groebner.capped_bases"] += gb.status == "capped"


def _membership(counters, cert):
    counters["groebner.memberships"] += 1
    counters["groebner.cofactor_terms"] += sum(len(q.terms) for q in cert.cofactors)


def _annihilation(counters, report):
    counters["series.inconclusive_verdicts"] += sum(v.status == "INCONCLUSIVE" for v in report.verdicts)


_AFTER = {
    "groebner.groebner_weyl": _weyl_basis,
    "groebner.WeylGroebner.membership": _membership,
    "series.PuiseuxSeries.make": lambda c, f: c.update({"series.points": len(f.coeffs)}),
    "series.annihilation_check": _annihilation,
    "mgraph.component": lambda c, comp: c.update({"mgraph.vertices": len(comp.vertices)}),
}
