"""Spans and call counts for the traced benchmark run.

Each library function in SPANNED is replaced, in every isingrect module that
holds it by name, with a wrapper that records one span per call: name,
start, end, parent span and the evaluation it belongs to. Functions in
COUNTED run thousands of times per evaluation, so they are only counted.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

SPANNED = [
    "thermo.report",
    "thermo.casimir_force_strip",
    "spectral.find_modes",
    "spectral.residual_system",
    "spectral.log_strip_part",
    "qseries.free_energy_pieces",
    "numerics.log_abs_det",
    "pfaffian.logZ_pfaffian",
    "pfaffian.build_A",
    "cylinder.logZ_cylinder",
    "cylinder.build_factors",
]
COUNTED = [
    "spectral.char_poly",
    "numerics.bracketed_root",
    "qseries.pi_product",
]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, evaluation]
        self.counts = Counter()
        self.evaluation = None   # index of the evaluation being timed
        self._stack = []
        self._patched = []       # (module, attribute, original)

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
               self.evaluation]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap each traced function wherever a module looks it up by name."""
        for names, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name in names:
                module, attr = name.split(".")
                original = getattr(importlib.import_module(f"isingrect.{module}"), attr)
                wrapper = make(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "isingrect" and not mod_name.startswith("isingrect."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def self_times(self):
        """Seconds per span name, each span less the time its children cover."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def span_counts(self):
        return Counter(rec[0] for rec in self.spans)

    def records(self):
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p, "eval": ev}
                for i, (n, s, e, p, ev) in enumerate(self.spans)]
