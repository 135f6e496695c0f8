"""Per-layer tracing from outside the program.

Every public function of the eight layer modules is wrapped, and the
wrapper is bound in place of the function on every eqsketch module
attribute that holds it, so calls from one module into another are seen.
Private helpers and methods are not wrapped: their time is their
caller's self time.

A span is open while a wrapped call runs.  Its self time is its duration
minus the time of the spans it caused.  Spans are folded into per-function
totals as they close; work counters are read from the arguments, return
values and exceptions at the same boundaries.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from oracles import uf_root

LAYERS = ("dsl", "core", "decorate", "sketch", "inference", "parameterize",
          "models", "cli")

# Public functions that no workload calls; they are traced like the rest
# (see the trace file) but not listed among the per-layer metrics.
UNCALLED = {"core.compose", "core.coproduct", "core.identity_morphism",
            "core.pushout_universal_check", "decorate.purify",
            "inference.identity_fraction", "inference.match_morphism",
            "inference.compose_fractions", "sketch.validate_sketch_morphism",
            "parameterize.parameterize_morphism",
            "parameterize.check_param_restricts_to_embed"}

# name -> (unit, better)
COUNTERS = {
    "inference.saturate.terms_out": ("count", "lower"),
    "inference.saturate.budget_hits": ("count", "lower"),
    "inference.congruence_classes.classes": ("count", "lower"),
    "inference.terms_equal.equal": ("count", "higher"),
    "inference.terms_equal.distinct": ("count", "higher"),
    "inference.terms_equal.unknown": ("count", "lower"),
    "models.enumerate_models.candidates": ("count", "lower"),
    "models.enumerate_models.models_out": ("count", "higher"),
    "models.enumerate_models.too_large": ("count", "lower"),
    "models.enumerate_models.yield": ("ratio", "higher"),
    "models.hom_search.homs_out": ("count", "higher"),
    "core.iso_search.found": ("count", "higher"),
    "sketch.realization.elements": ("count", "lower"),
    "dsl.parse.bytes_in": ("count", "lower"),
    "dsl.dump.bytes_out": ("count", "lower"),
    "parameterize.parameterize.terms_out": ("count", "lower"),
    "cli.main.stdout_bytes": ("count", "lower"),
}

OVERHEAD = "trace.overhead_ratio"


def public_functions(E) -> Dict[str, Callable]:
    """'<module>.<function>' -> function, for the eight layers."""
    out = {}
    for layer in LAYERS:
        mod = getattr(E, layer)
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and not name.startswith("_"):
                out[f"{layer}.{name}"] = obj
    return out


def per_layer_metrics(E) -> Dict[str, tuple]:
    """Every per-layer metric: name -> (unit, better)."""
    out = {}
    for key in public_functions(E):
        if key not in UNCALLED:
            out[f"{key}.self_ms"] = ("ms", "lower")
            out[f"{key}.calls"] = ("count", "lower")
    out.update(COUNTERS)
    out[OVERHEAD] = ("ratio", "lower")
    return out


# ---------------------------------------------------------------------------
# Counters read at the boundaries
# ---------------------------------------------------------------------------

def _own_candidates(spec, base_carriers, fixed) -> int:
    """The product of |cod|^|dom| over the terms no mark and no fixed
    table determine: the table space generate-and-test walks."""
    carriers = {x: len(v) for x, v in base_carriers.items()}
    if fixed is not None:
        for x, v in fixed.carriers.items():
            carriers.setdefault(x, len(v))
    if spec.terminal is not None:
        carriers[spec.terminal] = 1
    while any(p not in carriers for (p, _1, _2) in spec.products.values()):
        for (y1, y2), (p, _1, _2) in spec.products.items():
            if p not in carriers and y1 in carriers and y2 in carriers:
                carriers[p] = carriers[y1] * carriers[y2]
    marked = set(spec.identities.values()) | set(spec.collapsings.values())
    marked |= set(spec.compositions.values()) | set(spec.tuples.values())
    for (_p, p1, p2) in spec.products.values():
        marked |= {p1, p2}
    if fixed is not None:
        marked |= set(fixed.functions)
    total = 1
    for name, t in spec.terms.items():
        if name not in marked:
            total *= carriers[t.cod] ** carriers[t.dom]
    return total


def _hooks(E) -> Dict[str, Callable]:
    """key -> hook(counters, args, kwargs, result, exception, pre)."""
    budget = E.errors.BudgetExceeded
    too_large = E.errors.SearchSpaceTooLarge
    enum_sig = inspect.signature(E.models.enumerate_models)

    def saturate(c, a, k, res, exc, pre):
        if res is not None:
            c["inference.saturate.terms_out"] += len(res.spec.terms)
        if isinstance(exc, budget):
            c["inference.saturate.budget_hits"] += 1

    def classes(c, a, k, res, exc, pre):
        if res is not None:
            c["inference.congruence_classes.classes"] += len(
                {uf_root(res.parent, t) for t in res.parent})

    def terms_equal(c, a, k, res, exc, pre):
        if res is not None:
            key = {"equal": "equal", "distinct-at-bound": "distinct",
                   "unknown": "unknown"}[res.state.value]
            c[f"inference.terms_equal.{key}"] += 1

    def enumerate_models(c, a, k, res, exc, pre):
        if isinstance(exc, too_large):
            c["models.enumerate_models.too_large"] += 1
        if res is not None:
            b = enum_sig.bind(*a, **k)
            c["models.enumerate_models.candidates"] += _own_candidates(
                b.arguments["s"], b.arguments["base_carriers"], b.arguments.get("fixed"))
            c["models.enumerate_models.models_out"] += len(res)

    def hom_search(c, a, k, res, exc, pre):
        if res is not None:
            c["models.hom_search.homs_out"] += len(res)

    def iso_search(c, a, k, res, exc, pre):
        if res is not None and res.iso is not None:
            c["core.iso_search.found"] += 1

    def realization(c, a, k, res, exc, pre):
        if res is not None:
            c["sketch.realization.elements"] += sum(len(v) for v in res.point_sets.values())

    def parse(c, a, k, res, exc, pre):
        text = a[0] if a else k["text"]
        c["dsl.parse.bytes_in"] += len(text.encode())

    def dump(c, a, k, res, exc, pre):
        if res is not None:
            c["dsl.dump.bytes_out"] += len(res.encode())

    def parameterize(c, a, k, res, exc, pre):
        if res is not None:
            c["parameterize.parameterize.terms_out"] += len(res.spec.base.terms)

    def cli_main(c, a, k, res, exc, pre):
        if pre is not None:
            c["cli.main.stdout_bytes"] += len(sys.stdout.getvalue()[pre:].encode())

    return {"inference.saturate": saturate, "inference.congruence_classes": classes,
            "inference.terms_equal": terms_equal, "models.enumerate_models": enumerate_models,
            "models.hom_search": hom_search, "core.iso_search": iso_search,
            "sketch.spec_to_realization": realization, "dsl.parse": parse,
            "dsl.dump": dump, "parameterize.parameterize": parameterize,
            "cli.main": cli_main}


def _stdout_position():
    out = sys.stdout
    return out.tell() if hasattr(out, "getvalue") else None


class Tracer:
    """Wraps the public functions; counts calls, self time and work."""

    def __init__(self, E):
        self.E = E
        self.functions = public_functions(E)
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(int)
        self.recording = False
        self._children: List[float] = []   # child time of each open span
        self._saved: List[tuple] = []

    def _wrap(self, key: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        calls, self_s, children, counters = self.calls, self.self_s, self._children, self.counters
        pre_fn = _stdout_position if key == "cli.main" else None
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*a, **k):
            pre = pre_fn() if pre_fn else None
            children.append(0.0)
            res = exc = None
            t0 = clock()
            try:
                res = fn(*a, **k)
                return res
            except BaseException as e:
                exc = e
                raise
            finally:
                dur = clock() - t0
                child = children.pop()
                if children:
                    children[-1] += dur
                if tracer.recording:
                    calls[key] += 1
                    self_s[key] += dur - child
                    if hook is not None:
                        hook(counters, a, k, res, exc, pre)
        return traced

    def install(self) -> None:
        hooks = _hooks(self.E)
        wrapped = {id(fn): self._wrap(key, fn, hooks.get(key))
                   for key, fn in self.functions.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "eqsketch" or mod_name.startswith("eqsketch.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def report(self, passes: int) -> Dict[str, float]:
        """Every function and counter, per pass."""
        out: Dict[str, float] = {}
        for key in self.functions:
            out[f"{key}.self_ms"] = 1000 * self.self_s[key] / passes
            out[f"{key}.calls"] = self.calls[key] / passes
        for name in COUNTERS:
            out[name] = self.counters[name] / passes
        checks = self.calls["models.check_model"]
        out["models.enumerate_models.yield"] = (
            self.counters["models.enumerate_models.models_out"] / checks if checks else 0.0)
        return out
