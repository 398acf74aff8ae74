"""Outside-in tracing of the multipoint layers.

Wrappers are installed from here, around the public functions of each
module, wherever the name is looked up at call time: module globals that
other modules bound with `from ... import`, the SIGNATURE_ROUTES table,
and methods on their classes.  The oracle is never wrapped.

Calls at layer boundaries that happen at most a few thousand times per run
(queries, routes, transfers, validation, loading, derived classes, the
CLI) are kept as spans: name, start, end, parent, and the time their
direct children covered.  Calls that happen millions of times (ring
products, linear maps, pushpull, partition enumeration, cross products)
are aggregated per name: count, total time and self time.  Self time is
duration minus the time of direct children, so nothing is counted twice.
"""

from __future__ import annotations

import json
import os
import weakref
from collections import defaultdict
from time import perf_counter
from typing import Dict, List

from multipoint import cli, formulas, graded, model, modelfile, partitions
import multipoint

# signature route -> the formulas function that implements it
ROUTES = {
    "general": "signature_via_source",
    "via-N": "signature_via_target",
    "collected": "signature_collected",
    "collected-source": "signature_collected_source",
}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []   # [name, start, end, parent, covered]
        self.stack: List[list] = []   # open calls: [time covered by their children]
        self.current = -1             # innermost open span
        self.hot: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.counts: Dict[str, int] = defaultdict(int)
        self.pushpull_keys = set()
        self._model_ids = weakref.WeakKeyDictionary()

    # ---- wrappers ------------------------------------------------------

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            record = [name, perf_counter(), 0.0, self.current, 0.0]
            self.spans.append(record)
            frame = [0.0]
            self.stack.append(frame)
            parent, self.current = self.current, idx
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.current = parent
                record[2], record[4] = end, frame[0]
                if self.stack:
                    self.stack[-1][0] += end - record[1]
        return wrapper

    def leaf(self, name, fn, on_result=None):
        agg = self.hot[name]

        def wrapper(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def generator(self, name, fn, timed=True):
        """Wrap a generator function; only the time inside next() counts."""
        agg = self.hot[name]

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if timed:
                        dur = perf_counter() - start
                        if self.stack:
                            self.stack[-1][0] += dur
                        agg[1] += dur
                        agg[2] += dur
                agg[0] += 1
                yield item
        return wrapper

    def mul(self, fn):
        """GradedClass.__mul__: ring products only; scalar products pass through."""
        agg = self.hot["graded.mul"]
        counts = self.counts
        GradedClass = graded.GradedClass

        def wrapper(a, b):
            if b.__class__ is not GradedClass:
                return fn(a, b)
            start = perf_counter()
            result = fn(a, b)
            dur = perf_counter() - start
            if self.stack:
                self.stack[-1][0] += dur
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur
            if not result.coords:
                counts["graded.mul_zero"] += 1
            return result
        return wrapper

    def derived(self, fn):
        """ImmersionModel._cached: a span only when the value is computed."""
        computed = self.span("model.derived", fn)

        def wrapper(obj, key, make):
            if key in obj._cache:
                return obj._cache[key]
            return computed(obj, key, make)
        return wrapper

    def _count_cross(self, args, result):
        self.counts["graded.cross_terms"] += len(result.terms)

    def _note_pushpull(self, args, result):
        m, cls = args
        serial = self._model_ids.setdefault(m, len(self._model_ids))
        self.pushpull_keys.add((serial, tuple(sorted(cls.coords.items()))))

    def _count_load(self, args, result):
        self.counts["modelfile.bytes_read"] += os.stat(args[0]).st_size

    # ---- installation ----------------------------------------------------

    def install(self) -> None:
        def patch(name, wrapped, *modules):
            for mod in modules:
                if hasattr(mod, name):
                    setattr(mod, name, wrapped)

        g = graded
        g.GradedClass.__mul__ = self.mul(g.GradedClass.__mul__)
        g.GradedRing.check_axioms = self.span("graded.check_axioms", g.GradedRing.check_axioms)
        patch("cross", self.leaf("graded.cross", g.cross, self._count_cross),
              g, formulas, cli, multipoint)
        patch("signature_class", self.span("graded.signature_class", g.signature_class),
              g, model, multipoint)

        p = partitions
        patch("all_partitions", self.generator("partitions.enum", p.all_partitions),
              p, formulas, cli, multipoint)
        patch("type_vectors", self.generator("partitions.type_vectors", p.type_vectors, False),
              p, formulas, cli, multipoint)
        patch("marked_type_vectors",
              self.generator("partitions.type_vectors", p.marked_type_vectors, False),
              p, formulas)

        f = formulas
        for attr in ("transfer_to_source", "transfer_to_target"):
            patch(attr, self.span("formulas.transfer", getattr(f, attr)), f, multipoint)
        for route, attr in ROUTES.items():
            wrapped = self.span(f"formulas.{route}", getattr(f, attr))
            f.SIGNATURE_ROUTES[route] = wrapped
            patch(attr, wrapped, f, cli, multipoint)
        patch("virtual_signature_class",
              self.span("formulas.bk", f.virtual_signature_class), f, cli, multipoint)
        f._characteristic_number = self.span("formulas.charnum", f._characteristic_number)

        m = model
        m.LinearMap.__call__ = self.leaf("model.linmap", m.LinearMap.__call__)
        m.ImmersionModel.pushpull = self.leaf("model.pushpull", m.ImmersionModel.pushpull,
                                              self._note_pushpull)
        m.ImmersionModel._cached = self.derived(m.ImmersionModel._cached)
        patch("validate", self.span("model.validate", m.validate), m, cli, multipoint)

        patch("load_model", self.leaf("modelfile.load", modelfile.load_model, self._count_load),
              modelfile, cli, multipoint)
        cli.main = self.span("cli.main", cli.main)

    # ---- results -----------------------------------------------------------

    def dump(self, path) -> None:
        self.counts["model.pushpull_distinct"] = len(self.pushpull_keys)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "hot": self.hot, "counts": self.counts}, fh)


def layer_metrics(trace: dict) -> Dict[str, float]:
    """Per-layer totals derived from a dumped trace."""
    spans, hot, counts = trace["spans"], trace["hot"], trace["counts"]
    inclusive: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for name, start, end, parent, covered in spans:
        calls[name] += 1
        self_time[name] += end - start - covered
        # nested derived classes are part of their outermost computation
        if name == "model.derived" and parent >= 0 and spans[parent][0] == name:
            continue
        inclusive[name] += end - start

    def h(name, i):
        return hot.get(name, [0, 0.0, 0.0])[i]

    mul_calls = h("graded.mul", 0)
    pushpull_calls = h("model.pushpull", 0)
    out = {
        "graded.mul_calls": mul_calls,
        "graded.mul_self_s": h("graded.mul", 2),
        "graded.mul_zero_share": counts.get("graded.mul_zero", 0) / mul_calls if mul_calls else 0.0,
        "graded.cross_terms": counts.get("graded.cross_terms", 0),
        "graded.check_axioms_s": inclusive["graded.check_axioms"],
        "graded.signature_class_s": inclusive["graded.signature_class"],
        "partitions.enumerated": h("partitions.enum", 0),
        "partitions.enum_self_s": h("partitions.enum", 2),
        "partitions.type_vectors": h("partitions.type_vectors", 0),
        "formulas.transfer_calls": calls["formulas.transfer"],
        "formulas.transfer_self_s": self_time["formulas.transfer"],
    }
    for route in ROUTES:
        out[f"formulas.{route}_s"] = inclusive[f"formulas.{route}"]
    out["formulas.bk_s"] = inclusive["formulas.bk"]
    out["formulas.charnum_s"] = inclusive["formulas.charnum"]
    out.update({
        "model.linmap_calls": h("model.linmap", 0),
        "model.pushpull_calls": pushpull_calls,
        "model.pushpull_distinct_share": (counts.get("model.pushpull_distinct", 0) / pushpull_calls
                                          if pushpull_calls else 0.0),
        "model.validate_calls": calls["model.validate"],
        "model.validate_s": inclusive["model.validate"],
        "model.derived_s": inclusive["model.derived"],
        "modelfile.load_s": h("modelfile.load", 1),
        "modelfile.bytes_read": counts.get("modelfile.bytes_read", 0),
    })
    return out
