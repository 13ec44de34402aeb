"""Per-layer tracing installed from the benchmark's own files.

The tracer wraps public functions of each heiscurve module.  Whole
computations get a span (name, start, end, parent) kept in memory until the
pass ends; per-element methods such as QuadNum.__mul__ or Point
construction only count calls, because timing every field operation would
cost more than the operation.  A function is patched under every name that
holds it in the package, so calls through names that other modules re-bind
at import (heiscurve.elliptic.find_field_roots) are seen too.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from array import array

MODULES = ("heiscurve", "heiscurve.quadfield", "heiscurve.elliptic",
           "heiscurve.words", "heiscurve.heisenberg", "heiscurve.covers",
           "heiscurve.cli")

# (module, class or None, attribute, metric name, "span" or "count")
HOOKS = (
    ("quadfield", "QuadNum", "__init__", "quadfield.quadnum_new", "count"),
    ("quadfield", "QuadNum", "__mul__", "quadfield.mul", "count"),
    ("quadfield", "QuadNum", "inverse", "quadfield.inverse", "count"),
    ("quadfield", "QuadNum", "sqrt", "quadfield.sqrt", "count"),
    ("quadfield", None, "poly_eval", "quadfield.poly_eval", "count"),
    ("quadfield", None, "find_field_roots", "quadfield.find_field_roots", "span"),
    ("elliptic", "Point", "__init__", "elliptic.point_new", "count"),
    ("elliptic", None, "point_add", "elliptic.point_add", "span"),
    ("elliptic", None, "three_torsion", "elliptic.three_torsion", "span"),
    ("elliptic", None, "velu3", "elliptic.velu3", "span"),
    ("elliptic", None, "classify_pair", "elliptic.classify_pair", "span"),
    ("elliptic", None, "derive_isogenous_curves", "elliptic.derive_isogenous_curves", "span"),
    ("words", "Word", "__init__", "words.word_new", "count"),
    ("words", "Word", "__pow__", "words.word_pow", "span"),
    ("words", "Endo", "apply", "words.endo_apply", "span"),
    ("words", None, "eval_in_heisenberg", "words.eval_in_heisenberg", "span"),
    ("words", None, "lifts_to_heisenberg_cover", "words.lifts_to_heisenberg_cover", "span"),
    ("heisenberg", "HeisenbergElement", "__init__", "heisenberg.element_new", "count"),
    ("heisenberg", "HeisenbergElement", "__mul__", "heisenberg.mul", "count"),
    ("heisenberg", "HeisenbergElement", "__pow__", "heisenberg.pow", "count"),
    ("heisenberg", "HeisenbergElement", "order", "heisenberg.order", "span"),
    ("covers", None, "is_fixed_by", "covers.is_fixed_by", "count"),
    ("covers", None, "stabilizer_subgroup", "covers.stabilizer", "span"),
    ("covers", None, "stabilizer_generator", "covers.stabilizer", "span"),
    ("covers", None, "orbit_size", "covers.stabilizer", "span"),
    ("covers", "FermatAutGroup", "multiply", "covers.aut_multiply", "count"),
    ("covers", "FermatAutGroup", "verify_axioms", "covers.verify_axioms", "span"),
    ("covers", None, "audit_signature_claims", "covers.audit", "span"),
    ("cli", None, "main", "cli.main", "span"),
)

# Reported per-layer metrics, and the end-to-end metric each should move,
# are listed in README.md.
CALLS = ("quadfield.quadnum_new", "quadfield.mul", "quadfield.inverse",
         "quadfield.sqrt", "quadfield.find_field_roots", "quadfield.poly_eval",
         "elliptic.point_new", "elliptic.point_add", "words.word_new",
         "heisenberg.element_new", "heisenberg.mul", "heisenberg.pow",
         "heisenberg.order", "covers.is_fixed_by", "covers.aut_multiply")
SELF_MS = ("quadfield.find_field_roots", "elliptic.three_torsion",
           "elliptic.point_add", "elliptic.velu3", "elliptic.classify_pair",
           "elliptic.derive_isogenous_curves", "words.lifts_to_heisenberg_cover",
           "words.endo_apply", "words.word_pow", "words.eval_in_heisenberg",
           "heisenberg.order", "covers.stabilizer", "covers.verify_axioms",
           "covers.audit", "cli.main")
ERRORS = ("quadfield.find_field_roots", "elliptic.three_torsion")


def self_times(names, parents, starts, ends):
    """Summed self time per span name.

    Spans of one thread nest properly, so the time a span's children cover
    is the sum of its direct children's durations.
    """
    covered = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    out = {}
    for i, name in enumerate(names):
        out[name] = out.get(name, 0.0) + (ends[i] - starts[i]) - covered[i]
    return out


class Tracer:
    def __init__(self):
        self.active = False
        self.counts = {}  # metric -> [count]
        self.names = []
        self.name_ids = {}
        self.span_names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []
        self.missing = []

    def _cell(self, key):
        return self.counts.setdefault(key, [0])

    def _counting(self, fn, name):
        calls = self._cell(name + ".calls")
        tracer = self
        if name == "words.word_new":
            syllables_in = self._cell(name + ".syllables_in")

            def wrapper(self_, syllables=(), *args, **kwargs):
                if tracer.active:
                    calls[0] += 1
                    syllables_in[0] += len(syllables)
                return fn(self_, syllables, *args, **kwargs)
        elif name == "quadfield.sqrt":
            hits = self._cell(name + ".hits")

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                calls[0] += 1
                result = fn(*args, **kwargs)
                hits[0] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                if tracer.active:
                    calls[0] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _spanning(self, fn, name):
        calls = self._cell(name + ".calls")
        errors = self._cell(name + ".errors")
        roots = self._cell(name + ".roots")
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        tracer = self
        span_names, parents = self.span_names, self.parents
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter
        count_roots = name == "quadfield.find_field_roots"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(starts)
            span_names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            calls[0] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[0] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if count_roots:
                roots[0] += len(result[0])
            return result
        return wrapper

    def install(self):
        """Patch every hook; returns a function that undoes the patches."""
        modules = [importlib.import_module(m) for m in MODULES]
        undo = []
        for module_name, class_name, attr, name, mode in HOOKS:
            module = importlib.import_module("heiscurve." + module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__.get(attr) if class_name else getattr(module, attr, None)
            if original is None:
                self.missing.append("%s.%s" % (class_name or module_name, attr))
                continue
            make = self._spanning if mode == "span" else self._counting
            wrapper = make(original, name)
            holders = [owner] if class_name else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        undo.append((holder, key, original))

        def uninstall():
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)
        return uninstall

    def layer_metrics(self):
        spans = self_times([self.names[i] for i in self.span_names],
                           self.parents, self.starts, self.ends)

        def count(key):
            return self.counts.get(key, [0])[0]

        out = {}
        for name in CALLS:
            out[name + ".calls"] = count(name + ".calls")
        for name in SELF_MS:
            out[name + ".self_ms"] = spans.get(name, 0.0) * 1e3
        for name in ERRORS:
            out[name + ".errors"] = count(name + ".errors")
        out["words.word_new.syllables_in"] = count("words.word_new.syllables_in")
        out["quadfield.sqrt.hit_ratio"] = _ratio(count("quadfield.sqrt.hits"),
                                                 count("quadfield.sqrt.calls"))
        out["quadfield.root_hit_ratio"] = _ratio(
            count("quadfield.find_field_roots.roots"), count("quadfield.poly_eval.calls"))
        return out


def _ratio(num, den):
    return num / den if den else 0.0
