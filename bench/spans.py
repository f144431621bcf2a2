"""Spans around the calls into caloron's modules, recorded from outside.

The tracer replaces module attributes (and a few methods) with timing
wrappers for the traced run only; nothing under src/caloron changes.  A
function imported by name into other caloron modules is replaced there too,
so `from .lattice import ext_deriv` in chernweil is timed as well.  Spans
(name, start, end, parent span, op id) are kept in memory and written out
when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np


def distinct_mb(arrays) -> float:
    """Total nbytes of the distinct array objects, in MB (computed, not RSS)."""
    seen = {}
    for arr in arrays:
        seen[id(arr)] = arr.nbytes
    return sum(seen.values()) / 2**20


def _measure_curvature_split(tracer, args, out):
    tracer.count("transform.curvature_split.out_mb", distinct_mb(
        [a for f in (out.F_A, out.F_Phi, out.NablaPhi) for a in f.comps.values()]))


def _measure_eval_invariant(tracer, args, out):
    tracer.count("chernweil.eval_invariant.out_components", len(out.comps))
    tracer.count("chernweil.eval_invariant.out_mb", distinct_mb(out.comps.values()))


def _measure_document(tracer, args, out):
    path = args[-1]
    tracer.count("serialize.doc_mb", os.path.getsize(path) / 2**20)


# (module, attribute path, span name, measure).  Span names are the module's
# public name; per-layer metrics are <span>.s, <span>.self_s and <span>.calls.
TARGETS = [
    ("symbolic", "caloron_integrand", "symbolic.caloron_integrand", None),
    ("lattice", "ext_deriv", "lattice.ext_deriv", None),
    ("lattice", "bracket", "lattice.bracket", None),
    ("lattice", "sample", "lattice.sample", None),
    ("transform", "curvature_split", "transform.curvature_split", _measure_curvature_split),
    ("chernweil", "caloron_class", "chernweil.caloron_class", None),
    ("chernweil", "eval_invariant", "chernweil.eval_invariant", _measure_eval_invariant),
    ("chernweil", "fiber_integrate", "chernweil.fiber_integrate", None),
    ("chernweil", "closedness_residual", "chernweil.closedness_residual", None),
    ("universal", "run_property_suite", "universal.run_property_suite", None),
    ("universal", "GreenOperator.__init__", "universal.GreenOperator.init", None),
    ("universal", "GreenOperator.solve", "universal.GreenOperator.solve", None),
    ("universal", "cov_deriv", "universal.cov_deriv", None),
    ("universal", "adjoint_cov_deriv", "universal.adjoint_cov_deriv", None),
    ("serialize", "load_document", "serialize.load_document", _measure_document),
    ("serialize", "save_document", "serialize.save_document", _measure_document),
    ("serialize", "connection_from_doc", "serialize.connection_from_doc", None),
    ("serialize", "connection_to_doc", "serialize.connection_to_doc", None),
    ("serialize", "pair_from_doc", "serialize.pair_from_doc", None),
    ("serialize", "pair_to_doc", "serialize.pair_to_doc", None),
    ("scene", "SceneConfig.build_connection", "scene.SceneConfig.build_connection", None),
    ("scene", "report_hash", "scene.report_hash", None),
    ("cli", "cmd_expand", "cli.expand", None),
    ("cli", "cmd_transform", "cli.transform", None),
    ("cli", "cmd_classes", "cli.classes", None),
    ("cli", "cmd_universal", "cli.universal", None),
    ("cli", "cmd_selftest", "cli.selftest", None),
]

MODULES = ("symbolic", "lattice", "transform", "chernweil", "universal",
           "serialize", "scene", "cli")


class Tracer:
    """Installs the wrappers, records spans and counters, derives per-op metrics."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent, op]
        self.counters = defaultdict(float)
        self.op = None
        self._stack = []
        self._undo = []

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def _wrap(self, name, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if measure is not None:
                measure(tracer, args, out)
            return out

        return wrapper

    def install(self) -> None:
        mods = {m: importlib.import_module(f"caloron.{m}") for m in MODULES}
        for mod_name, attr, name, measure in TARGETS:
            owner = mods[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original, measure)
            if path:  # a method: replace it on its class
                self._replace(owner, leaf, wrapper)
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)

    def _replace(self, owner, key, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def per_op(self, n_ops: int) -> dict:
        """Per-op inclusive time, self time and call count of every span name,
        plus the counters, all divided by the number of traced ops."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            total[f"{name}.s"] += end - start
            total[f"{name}.self_s"] += end - start - child[sid]
            total[f"{name}.calls"] += 1
        for name, value in self.counters.items():
            total[name] += value
        return {k: v / n_ops for k, v in total.items()}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
