"""Tracing for the benchmark's traced run, done entirely from outside the
program: every public function or method of interest in the eight
quasicartan modules is replaced, wherever the package binds it, by a
wrapper that records a span or bumps a counter, and is put back after.

A span is [name, start_ns, end_ns, parent span id, job id]; the span id is
its index in Tracer.spans.  Self time is a span's duration minus that of
its direct children (spans nest, as the program is single-threaded).
Hot functions are counted but get no span, so that wrapper cost does not
swamp the self times of the spans around them.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import time

MODULES = ("cli", "finring", "groupoid", "twist", "steinberg", "pairs",
           "reconstruct", "grouprings")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.job = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter_ns(), None, parent, self.job]
        self.spans.append(record)
        self.counts[name + ".calls"] += 1
        self._stack.append(sid)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def self_seconds(self):
        """Summed self time per span name, in seconds."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = collections.Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += (end - start - covered) / 1e9
        return out


# -- hooks: extra counts read off a call's arguments or result -----------
# Each takes (counts, result, *args, **kwargs) of the wrapped call.

def _vectors_scanned(counts, result, R, equations, num_unknowns, *_, **__):
    counts["finring.solve_linear.vectors_scanned"] += R.size ** num_unknowns


def _span_size(counts, result, *_, **__):
    counts["pairs.span.out_size"] += len(result)


def _dagger_hits(counts, result, *_, **__):
    counts["pairs.dagger_of.hits"] += result is not None


def _points(counts, result, *_, **__):
    counts["reconstruct.points"] += len(result.points)


def _units_found(counts, result, T, *_, **__):
    counts["grouprings.enumerate_units.units"] += len(result[0])
    counts["grouprings.enumerate_units.candidates"] += \
        T.ring.size ** len(T.group)


def _normaliser_mode(self, mode="full", *_, **__):
    return f"pairs.enumerate_normalisers.{mode}"


# (module, attribute path, span name, hook); a callable span name is
# computed from the call's arguments.
SPANNED = [
    ("cli", "parse_input", "cli.parse", None),
    ("cli", "build_ring", "cli.parse", None),
    ("cli", "build_groupoid", "cli.parse", None),
    ("cli", "build_cocycle", "cli.parse", None),
    ("cli", "build_abstract_pair", "cli.parse", None),
    ("finring", "solve_linear", "finring.solve_linear", _vectors_scanned),
    ("groupoid", "validate_groupoid", "groupoid.validate_groupoid", None),
    ("groupoid", "make_groupoid", "groupoid.make_groupoid", None),
    ("twist", "twist_from_cocycle", "twist.twist_from_cocycle", None),
    ("twist", "check_twist_axioms", "twist.check_twist_axioms", None),
    ("twist", "fibre_cocycle", "twist.fibre_cocycle", None),
    ("steinberg", "convolve", "steinberg.convolve", None),
    ("pairs", "AbstractAlgebra.__init__", "pairs.AbstractAlgebra.init", None),
    ("pairs", "AbstractAlgebra.span", "pairs.span", _span_size),
    ("pairs", "Pair.__init__", "pairs.Pair.init", None),
    ("pairs", "Pair.enumerate_normalisers", _normaliser_mode, None),
    ("pairs", "Pair.dagger_of", "pairs.dagger_of", _dagger_hits),
    ("pairs", "Pair.classify", "pairs.classify", None),
    ("pairs", "Pair.canonical_expectation", "pairs.canonical_expectation", None),
    ("pairs", "Pair.check_expectation", "pairs.check_expectation", None),
    ("pairs", "Pair.idempotents_of_B", "pairs.idempotents_of_B", None),
    ("pairs", "check_lbh", "pairs.check_lbh", None),
    ("pairs", "pair_from_twist", "pairs.pair_from_twist", None),
    ("reconstruct", "verify_reconstruction_theorem",
     "reconstruct.verify_reconstruction_theorem", None),
    ("reconstruct", "build_ultra_groupoid", "reconstruct.build_ultra_groupoid",
     _points),
    ("reconstruct", "UltraGroupoid.to_twist", "reconstruct.to_twist", None),
    ("reconstruct", "phi_map", "reconstruct.phi_map", None),
    ("reconstruct", "compare_twists", "reconstruct.compare_twists", None),
    ("reconstruct", "algebra_iso_from_twist_iso",
     "reconstruct.algebra_iso_from_twist_iso", None),
    ("grouprings", "enumerate_units", "grouprings.enumerate_units", _units_found),
    ("grouprings", "TwistedGroupRing.__init__",
     "grouprings.TwistedGroupRing.init", None),
    ("grouprings", "unique_product_search", "grouprings.unique_product_search",
     None),
]

# (module, attribute path, counter): counted only, no span.
COUNTED = [
    ("twist", "check_cocycle", "twist.check_cocycle.calls"),
    ("steinberg", "is_bisection", "steinberg.is_bisection.calls"),
    ("pairs", "AbstractAlgebra.mul", "pairs.mul.calls"),
    ("pairs", "AbstractAlgebra.add", "pairs.add.calls"),
    ("pairs", "Pair.is_free_normaliser", "pairs.is_free_normaliser.calls"),
    ("grouprings", "TwistedGroupRing.mul", "grouprings.mul.calls"),
]


def package_modules():
    return {name: importlib.import_module(f"quasicartan.{name}")
            for name in MODULES}


def resolve(modules, module, path):
    """(owner, attribute, object) of a dotted path inside a module."""
    owner = modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def bindings(modules, obj):
    """Every (owner, attribute) in the package that binds obj: module
    globals, including by-name imports, and class attributes."""
    found = []
    for module in modules.values():
        for name, value in vars(module).items():
            if value is obj:
                found.append((module, name))
            if isinstance(value, type) and value.__module__ == module.__name__:
                found.extend((value, n) for n, v in vars(value).items()
                             if v is obj)
    return found


def _span_wrapper(tracer, fn, name, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name(*args, **kwargs) if callable(name) else name):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer.counts, result, *args, **kwargs)
        return result
    return wrapper


def _counting_wrapper(counts, fn, key):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def install(tracer, modules):
    """Wrap every target at every binding; returns the patches made, as
    (owner, attribute, original, wrapper)."""
    planned = []
    for module, path, name, hook in SPANNED:
        _, _, fn = resolve(modules, module, path)
        planned.append((fn, _span_wrapper(tracer, fn, name, hook)))
    for module, path, key in COUNTED:
        _, _, fn = resolve(modules, module, path)
        planned.append((fn, _counting_wrapper(tracer.counts, fn, key)))
    patches = []
    for fn, wrapper in planned:
        for owner, attr in bindings(modules, fn):
            setattr(owner, attr, wrapper)
            patches.append((owner, attr, fn, wrapper))
    return patches


@contextlib.contextmanager
def traced(tracer, modules):
    """Wrappers installed for the body of the with statement; yields the
    patches, and puts every original back on the way out."""
    patches = install(tracer, modules)
    try:
        yield patches
    finally:
        for owner, attr, original, _ in reversed(patches):
            setattr(owner, attr, original)


def unit(name):
    if name.endswith(".s"):
        return "s"
    return "ratio" if name in RATIOS else "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, as {name: value}."""
    s = tracer.self_seconds()
    c = tracer.counts
    out = {f"{name}.s": s[name] for name in SPAN_SECONDS}
    out.update({name: c[name] for name in COUNTS})
    out["pairs.dagger_hit_ratio"] = _ratio(c["pairs.dagger_of.hits"],
                                           c["pairs.dagger_of.calls"])
    out["grouprings.unit_hit_ratio"] = _ratio(
        c["grouprings.enumerate_units.units"],
        c["grouprings.enumerate_units.candidates"])
    return out


# The reported metrics.  Self times are in s, counts and ratios plain.
SPAN_SECONDS = [
    "cli.job", "cli.parse",
    "finring.solve_linear",
    "groupoid.validate_groupoid", "groupoid.make_groupoid",
    "twist.twist_from_cocycle", "twist.check_twist_axioms",
    "twist.fibre_cocycle",
    "steinberg.convolve",
    "pairs.AbstractAlgebra.init", "pairs.Pair.init", "pairs.span",
    "pairs.enumerate_normalisers.full", "pairs.enumerate_normalisers.minimal",
    "pairs.dagger_of", "pairs.classify", "pairs.canonical_expectation",
    "pairs.check_expectation", "pairs.idempotents_of_B", "pairs.check_lbh",
    "reconstruct.verify_reconstruction_theorem",
    "reconstruct.build_ultra_groupoid", "reconstruct.to_twist",
    "reconstruct.phi_map", "reconstruct.compare_twists",
    "reconstruct.algebra_iso_from_twist_iso",
    "grouprings.enumerate_units", "grouprings.TwistedGroupRing.init",
    "grouprings.unique_product_search",
]

COUNTS = [
    "cli.job.calls",
    "finring.solve_linear.calls", "finring.solve_linear.vectors_scanned",
    "groupoid.validate_groupoid.calls",
    "twist.twist_from_cocycle.calls", "twist.check_cocycle.calls",
    "steinberg.convolve.calls", "steinberg.is_bisection.calls",
    "pairs.mul.calls", "pairs.add.calls", "pairs.span.calls",
    "pairs.span.out_size", "pairs.dagger_of.calls",
    "pairs.is_free_normaliser.calls", "pairs.pair_from_twist.calls",
    "reconstruct.points",
    "grouprings.mul.calls",
]

RATIOS = ["pairs.dagger_hit_ratio", "grouprings.unit_hit_ratio"]
