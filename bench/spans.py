"""Per-layer tracing from the benchmark's own wrappers.

``Tracer.install()`` wraps the public functions of each layer module (see
``LAYERS``) wherever the package holds a reference to them, so calls made
through ``from .x import y`` names are seen too.  Every call becomes a span
(id, layer, item, parent span, start, end); spans nest, and a layer's self
time is its spans' time minus their child spans'.  Spans stay in memory
until ``write()``.  ``uninstall()`` puts the original functions back, so
traced and untraced passes alternate in one process.

The two enumeration layers also count what they find and the edge subsets
they examine: one subset per union-find structure (``graphs._UnionFind``)
that the enumeration function itself builds, which is how it tests a
subset (connectivity checks it calls build their own and are not counted).

A layer missing from the program (a later change may rename it) is
skipped and listed in ``missing``; the run reports each as a problem, so
its metrics cannot silently read 0.
"""

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

# (layer, module, attribute, counter).  Methods are "Class.method".
LAYERS = (
    ("polynomials.det", "polynomials", "det_fraction_free", None),
    ("polynomials.mul", "polynomials", "MultiPoly.__mul__", None),
    ("graphs.spanning_trees", "graphs", "spanning_trees", "trees"),
    ("graphs.spanning_2forests", "graphs", "spanning_2forests", "forests"),
    ("graphs.cycle_basis", "graphs", "cycle_basis", None),
    ("symanzik.first_det", "symanzik", "first_symanzik_det", None),
    ("symanzik.first_trees", "symanzik", "first_symanzik_trees", None),
    ("symanzik.second_bordered", "symanzik", "second_symanzik_bordered", None),
    ("symanzik.second_forests", "symanzik", "second_symanzik_forests", None),
    ("symanzik.ratio_eval", "symanzik", "symanzik_ratio_eval", None),
    ("symanzik.momentum_lift", "symanzik", "momentum_lift", None),
    ("symanzik.resistance_oracle", "symanzik", "resistance_oracle", None),
    ("asymptotics.height_eval", "asymptotics", "height_eval", None),
    ("asymptotics.height_via_orbit", "asymptotics", "height_via_orbit", None),
    ("asymptotics.graph_blocks", "asymptotics", "graph_blocks", None),
    ("asymptotics.bounded_remainder_scan", "asymptotics", "bounded_remainder_scan", None),
    ("asymptotics.limit_along_segment", "asymptotics", "limit_along_segment", None),
    ("poincare.log_norm", "poincare", "log_norm", None),
    ("lab.torus_green", "lab", "TorusGreen.__init__", None),
    ("lab.degeneration_experiment", "lab", "degeneration_experiment", None),
    ("lab.theta_frac", "lab", "log_abs_theta1_frac", "points"),
    ("lab.laplacian_residual", "lab", "TorusGreen.laplacian_residual", None),
    ("lab.integral_residual", "lab", "TorusGreen.integral_residual", None),
    ("jsonio.load_graph_bundle", "jsonio", "load_graph_bundle", None),
    ("corpus.check_bundle", "corpus", "check_bundle", None),
)
NAMES = tuple(layer for layer, _m, _a, _c in LAYERS)
PACKAGE = "tropical_heights"

# The enumeration layers' counters, and the class whose construction marks
# one edge subset examined.
ENUMERATIONS = {"trees": "graphs.spanning_trees", "forests": "graphs.spanning_2forests"}
SUBSET_MARK = ("graphs", "_UnionFind")


class Tracer:
    def __init__(self):
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.counts = {"lab.theta_frac.points": 0}
        for layer in ENUMERATIONS.values():
            self.counts[layer + ".found"] = 0
            self.counts[layer + ".tried"] = 0
        # Flat span log: id, layer, item, parent id, start, end.
        self.spans = array("d")
        self.item = -1
        self.missing = []
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _count(self, kind, args, result):
        if kind == "points":  # log_abs_theta1_frac(x, y, tau)
            self.counts["lab.theta_frac.points"] += int(np.broadcast(args[0], args[1]).size)
            return
        self.counts[ENUMERATIONS[kind] + ".found"] += len(result)

    def _mark_subset(self, init, tried):
        """Wrap the union-find constructor: one built directly by an
        enumeration function (``tried`` maps its code to its counter) is one
        edge subset that enumeration examined."""
        counts = self.counts

        @functools.wraps(init)
        def marked(*args, **kwargs):
            key = tried.get(sys._getframe(1).f_code)
            if key is not None:
                counts[key] += 1
            return init(*args, **kwargs)
        return marked

    def _wrap(self, idx, fn, kind):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                tracer.self_s[idx] += duration - frame[1]
                tracer.calls[idx] += 1
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][2]
                tracer.spans.extend((span_id, idx, tracer.item, parent, frame[0], end))
            if kind is not None:
                tracer._count(kind, args, result)
            return result
        return traced

    # -- install / uninstall ----------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        self.missing = []
        tried = {}
        for idx, (layer, module_name, attr, kind) in enumerate(LAYERS):
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                owner, name = module, attr
                if "." in attr:
                    cls_name, name = attr.split(".")
                    owner = getattr(module, cls_name)
                original = owner.__dict__[name] if isinstance(owner, type) \
                    else getattr(owner, name)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(layer)
                continue
            if kind in ENUMERATIONS:
                tried[original.__code__] = layer + ".tried"
            self._patch(owner, original, self._wrap(idx, original, kind), modules)
        module_name, cls_name = SUBSET_MARK
        try:
            owner = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), cls_name)
            init = owner.__dict__["__init__"]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module_name}.{cls_name}.__init__")
        else:
            self._patch(owner, init, self._mark_subset(init, tried), modules)
        return self

    def _patch(self, owner, original, wrapper, modules):
        holders = [owner] if isinstance(owner, type) else modules
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []

    # -- results ----------------------------------------------------------

    def snapshot(self):
        return list(self.self_s), list(self.calls), dict(self.counts)

    def summary(self):
        """Raw (uncalibrated) per-layer figures."""
        out = {}
        for idx, layer in enumerate(NAMES):
            out[layer] = {"calls": self.calls[idx], "self_ms": self.self_s[idx] * 1e3}
        return {"layers": out, "counts": dict(self.counts), "missing": list(self.missing)}

    def write(self, path):
        """Write the span log and the layer names as JSON."""
        rows = [self.spans[k:k + 6].tolist() for k in range(0, len(self.spans), 6)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": list(NAMES),
                       "columns": ["id", "layer", "item", "parent", "start_s", "end_s"],
                       "spans": rows}, fh)
