"""In-memory span tracing of juntatester's layers, installed from outside `src/`.

The tracer replaces each public function of the traced modules with a wrapper
that records a span: name, start, end, parent span and the current trial id.
Modules import functions by name (`tester` binds `fourier_sample`, `quantum`
binds `restricted_spectrum`, `harness` binds `distance_to_k_junta`), so a
wrapper is installed in every juntatester namespace that binds the original
object, not only in the defining module. Methods are wrapped on their class.

Some boundaries also record a small attribute computed from the call's
arguments or result (a hit, a work size, a key), so that ratios are measured
where the work happens.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from juntatester import boolfn, distribution, harness, oracles, quantum, tester

# `oracles` defines classes only; its layer is read from the ledgers instead.
TRACED_MODULES = (harness, distribution, boolfn, quantum, tester, oracles)

# (span name, class, attribute names); classmethods keep their descriptor kind.
TRACED_METHODS = (
    (
        "distribution.Distribution",
        distribution.Distribution,
        ("__init__", "dense", "sparse", "uniform", "point_mass"),
    ),
    ("distribution.sample_indices", distribution.Distribution, ("sample_indices",)),
    ("boolfn.from_junta", boolfn.BooleanFunction, ("from_junta",)),
)


def _hit(args, kwargs, result):
    return {"hit": result is not None}


def _sample_points(args, kwargs, result):
    return {"points": int(result.size)}


def _nonempty(args, kwargs, result):
    return {"nonempty": bool(result)}


def _spectrum_points(args, kwargs, result):
    return {"points": int(result.coefficients.size)}


def _attempt_key(args, kwargs, result):
    f, dist, fixed = args[:3]
    return {"key": f"{id(f):x}/{id(dist):x}/{sorted(fixed)}"}


OBSERVERS = {
    "tester.generate_cube": _hit,
    "quantum.amplified_generate_cube": _hit,
    "distribution.sample_indices": _sample_points,
    "quantum.fourier_sample": _nonempty,
    "boolfn.restricted_spectrum": _spectrum_points,
    "quantum.attempt_success_probability": _attempt_key,
}

# Span record fields (kept as lists: one is created per traced call).
NAME, START, END, PARENT, TRIAL, ATTRS = range(6)


class Tracer:
    """Records spans while installed; `spans` stays in memory until written."""

    def __init__(self):
        self.spans: list[list] = []
        self.trial = None
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, observe = self.spans, self._stack, OBSERVERS.get(name)

        def traced(*args, **kwargs):
            rec = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.trial, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                rec[ATTRS] = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block, then restore."""
        restore = []
        try:
            namespaces = [
                m for name, m in sys.modules.items()
                if name == "juntatester" or name.startswith("juntatester.")
            ]
            for module in TRACED_MODULES:
                short = module.__name__.rsplit(".", 1)[-1]
                for attr, fn in list(vars(module).items()):
                    if attr.startswith("_") or not inspect.isfunction(fn):
                        continue
                    if fn.__module__ != module.__name__:
                        continue
                    wrapper = self.wrap(f"{short}.{attr}", fn)
                    for ns in namespaces:
                        for bound, value in list(vars(ns).items()):
                            if value is fn:
                                restore.append((ns, bound, fn))
                                setattr(ns, bound, wrapper)
            for name, cls, attrs in TRACED_METHODS:
                for attr in attrs:
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(name, raw.__func__))
                    else:
                        wrapped = self.wrap(name, raw)
                    restore.append((cls, attr, raw))
                    setattr(cls, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)
            self._stack.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, trial, attrs in self.spans:
                doc = {"name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "trial": trial}
                if attrs:
                    doc["attrs"] = attrs
                out.write(json.dumps(doc) + "\n")


def layer_stats(spans: list[list]) -> dict:
    """Per span name: calls, total seconds, self seconds and summed attributes.

    A span nested inside a span of the same name (a classmethod constructor
    calling `__init__`, say) counts as a call but not again toward `s`.
    Self time is a span's duration minus the durations of its direct children,
    which never overlap in a single thread.
    """
    calls = defaultdict(int)
    total_ns = defaultdict(int)
    child_ns = defaultdict(int)
    for rec in spans:
        name, parent = rec[NAME], rec[PARENT]
        dur = rec[END] - rec[START]
        calls[name] += 1
        if parent >= 0:
            child_ns[parent] += dur
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][NAME] != name:
            ancestor = spans[ancestor][PARENT]
        if ancestor < 0:
            total_ns[name] += dur
    self_ns = defaultdict(int)
    for i, rec in enumerate(spans):
        self_ns[rec[NAME]] += rec[END] - rec[START] - child_ns.get(i, 0)
    hits = defaultdict(int)
    points = defaultdict(int)
    nonempty = defaultdict(int)
    keys = defaultdict(set)
    for rec in spans:
        attrs = rec[ATTRS]
        if not attrs:
            continue
        name = rec[NAME]
        hits[name] += attrs.get("hit", False)
        points[name] += attrs.get("points", 0)
        nonempty[name] += attrs.get("nonempty", False)
        if "key" in attrs:
            keys[name].add(attrs["key"])
    return {
        name: {
            "calls": calls[name],
            "s": total_ns[name] / 1e9,
            "self_s": self_ns[name] / 1e9,
            "hits": hits[name],
            "points": points[name],
            "nonempty": nonempty[name],
            "distinct": len(keys[name]),
        }
        for name in calls
    }
