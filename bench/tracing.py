"""Spans around the package's layer boundaries, installed from outside.

A Tracer replaces each target function (and each class method) with a
wrapper that records one span per call: name, start, end, parent span and
whether the call returned.  A function is replaced in every module of the
package that holds a binding to it, so calls through `from .x import f`
are seen too.  Spans stay in memory until `write`.
"""

import contextlib
import functools
import gzip
import json
import sys
import time

# metric prefix, module, attribute ("Class.method" patches the class)
TARGETS = (
    ("series.mul", "newton_strata.series", "TruncatedSeries.__mul__"),
    ("series.inverse", "newton_strata.series", "TruncatedSeries.inverse"),
    ("isocrystal.slope_sequence", "newton_strata.isocrystal", "slope_sequence"),
    ("isocrystal.charpoly3", "newton_strata.isocrystal", "charpoly3"),
    ("isocrystal.inverse", "newton_strata.isocrystal", "IsoMatrix.inverse"),
    ("affine_weyl.chamber_of", "newton_strata.affine_weyl", "chamber_of"),
    ("affine_weyl.coset_pattern", "newton_strata.affine_weyl", "coset_pattern"),
    ("affine_weyl.pattern_contains", "newton_strata.affine_weyl", "ValuationPattern.contains"),
    ("strata.poset_of", "newton_strata.strata", "poset_of"),
    ("strata.codim", "newton_strata.strata", "codim"),
    ("strata.codim_roottheoretic", "newton_strata.strata", "codim_roottheoretic"),
    ("strata.stratum_predicate", "newton_strata.strata", "stratum_predicate"),
    ("strata.witness", "newton_strata.strata", "witness"),
    ("empirics.empirical_poset", "newton_strata.empirics", "empirical_poset"),
    ("empirics.sample_pattern", "newton_strata.empirics", "sample_pattern"),
    ("empirics.estimate_codim", "newton_strata.empirics", "estimate_codim"),
    ("empirics.kappa_check", "newton_strata.empirics", "kappa_check"),
    ("empirics.predicate_campaign", "newton_strata.empirics", "predicate_campaign"),
    ("cli.main", "newton_strata.cli", "main"),
)

RETURNED = 1
CACHE_MISS = 2


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        # one list per span: [name id, start ns, end ns, parent index, flags]
        self.spans = []
        self._stack = []
        self._undo = []
        # cleared while checks run, so only the measured calls leave spans
        self.active = [True]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around one part."""
        rec = [self._name_id(name), time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
            rec[4] = RETURNED
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        spans, stack, clock, active = self.spans, self._stack, time.perf_counter_ns, self.active
        # an lru_cache'd function: flag the calls that missed the cache
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            rec = [name_id, clock(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            misses = cache_info().misses if cache_info else 0
            try:
                out = fn(*args, **kwargs)
                rec[4] = RETURNED
                if cache_info and cache_info().misses > misses:
                    rec[4] |= CACHE_MISS
                return out
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every target that exists; a missing one records no spans."""
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                original = vars(cls)[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "newton_strata" and not mod_name.startswith("newton_strata."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "flags"],
                       "names": self.names, "spans": self.spans}, fh)

    # -- summaries --------------------------------------------------------

    def summary(self):
        """Per-span inclusive seconds, self seconds and root span index.

        A span's self time is its duration minus the time its child spans
        cover; children of one span never overlap in a single thread.
        """
        n = len(self.spans)
        dur = [(s[2] - s[1]) * 1e-9 for s in self.spans]
        child = [0.0] * n
        root = list(range(n))
        for k, s in enumerate(self.spans):
            parent = s[3]
            if parent >= 0:
                child[parent] += dur[k]
                root[k] = root[parent]
        return dur, [d - c for d, c in zip(dur, child)], root

    def has_ancestor(self, k, name):
        target = self._ids.get(name)
        parent = self.spans[k][3]
        while parent >= 0:
            if self.spans[parent][0] == target:
                return True
            parent = self.spans[parent][3]
        return False
