"""Span tracing of dcbruhat from outside the package.

``install`` wraps public functions and methods of each layer (module) and
returns the patches; ``remove`` puts the original objects back.  A name
is replaced in every dcbruhat module that holds it, because
``from .bruhat import leq`` copies the reference into ``spherical``.

Each wrapper records a span (layer, start, end, parent span, op id) in
memory.  ``Recorder.layer_metrics`` turns them into per-layer counts and
self time (span time minus the time covered by its child spans), and
``Recorder.dump`` writes them out as tab-separated rows.  Targets that
a later version of the package no longer has are skipped and report 0.
"""
from __future__ import annotations

import functools
import sys
import time


def _len(result) -> int:
    return len(result)


def _entries(table) -> int:
    return len(table.entries)


#: Marks a counter that counts the items an iterator result yields.
ITERATE = object()

#: (layer, module, attribute, counter name, counter).  A counter maps the
#: result to a count, or is ITERATE.
FUNCTIONS = (
    ("symgroup.all_permutations", "dcbruhat.symgroup", "all_permutations", "elements", ITERATE),
    ("bruhat.leq", "dcbruhat.bruhat", "leq", None, None),
    ("bruhat.order_tables", "dcbruhat.bruhat", "order_tables", None, None),
    ("bruhat.covers", "dcbruhat.bruhat", "covers", None, None),
    ("parabolic.max_representatives", "dcbruhat.parabolic", "max_representatives", "reps", _len),
    ("parabolic.decompose", "dcbruhat.parabolic", "decompose", "cosets", _entries),
    ("poset.classify_shape", "dcbruhat.poset", "classify_shape", None, None),
    ("poset.are_isomorphic", "dcbruhat.poset", "are_isomorphic", None, None),
    ("spherical.verify_case", "dcbruhat.spherical", "verify_case", None, None),
    ("weights.is_tight", "dcbruhat.weights", "is_tight", None, None),
    ("weights.dominance_leq", "dcbruhat.weights", "dominance_leq", None, None),
    ("weights.orbit", "dcbruhat.weights", "orbit", "members", _len),
    ("weights.orbit_poset", "dcbruhat.weights", "orbit_poset", None, None),
    ("cli.main", "dcbruhat.cli", "main", None, None),
)

#: (layer, attribute of poset.FinitePoset, counter name, counter).
METHODS = (
    ("poset.from_relation", "from_relation", "elements", _len),
    ("poset.is_lattice", "is_lattice", None, None),
    ("poset.render", "to_dot", None, None),
    ("poset.render", "to_json", None, None),
)


class Recorder:
    """Spans and per-layer counters of one traced process."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.count_names: list[str | None] = []
        self.errors: list[int] = []
        self.counts: list[int] = []
        self.span_layer: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_op: list[int] = []
        self.stack: list[int] = []
        self.op = -1

    def layer(self, name: str, count_name: str | None) -> int:
        if name in self.layers:
            return self.layers.index(name)
        self.layers.append(name)
        self.count_names.append(count_name)
        self.errors.append(0)
        self.counts.append(0)
        return len(self.layers) - 1

    def open(self, layer: int) -> int:
        sid = len(self.span_start)
        self.span_layer.append(layer)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self.stack.pop()

    def count_iter(self, layer: int, items):
        n = 0
        try:
            for item in items:
                n += 1
                yield item
        finally:
            self.counts[layer] += n

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children.

        Spans nest (one thread, wrappers open and close in call order),
        so direct children are disjoint and their durations add up.
        """
        covered = [0.0] * len(self.span_start)
        for sid, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += self.span_end[sid] - self.span_start[sid]
        return [e - s - c for s, e, c in zip(self.span_start, self.span_end, covered)]

    def layer_metrics(self) -> dict[str, float]:
        calls = [0] * len(self.layers)
        self_s = [0.0] * len(self.layers)
        for layer, t in zip(self.span_layer, self.self_times()):
            calls[layer] += 1
            self_s[layer] += t
        out: dict[str, float] = {}
        for k, name in enumerate(self.layers):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
            out[f"{name}.errors"] = self.errors[k]
            if self.count_names[k]:
                out[f"{name}.{self.count_names[k]}"] = self.counts[k]
        return out

    def dump(self, path: str) -> int:
        """Write every span as a tab-separated row; returns the span count."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tlayer\tstart_s\tend_s\n")
            for sid, layer in enumerate(self.span_layer):
                fh.write(f"{sid}\t{self.span_parent[sid]}\t{self.span_op[sid]}\t"
                         f"{self.layers[layer]}\t{self.span_start[sid] - origin:.9f}\t"
                         f"{self.span_end[sid] - origin:.9f}\n")
        return len(self.span_layer)


def _wrap(rec: Recorder, layer: int, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.open(layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.errors[layer] += 1
            raise
        finally:
            rec.close(sid)
        if counter is ITERATE:
            return rec.count_iter(layer, result)
        if counter is not None:
            rec.counts[layer] += counter(result)
        return result

    return wrapper


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "dcbruhat" or name.startswith("dcbruhat.")]


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every target; returns (owner, attribute, original) patches."""
    patches = []
    modules = _package_modules()
    for layer_name, module_name, attr, count_name, counter in FUNCTIONS:
        layer = rec.layer(layer_name, count_name)
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            continue
        wrapper = _wrap(rec, layer, original, counter)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, name, original))
                    setattr(module, name, wrapper)
    poset_cls = getattr(sys.modules.get("dcbruhat.poset"), "FinitePoset", None)
    for layer_name, attr, count_name, counter in METHODS:
        layer = rec.layer(layer_name, count_name)
        original = vars(poset_cls).get(attr) if poset_cls is not None else None
        if original is None:
            continue
        if isinstance(original, classmethod):
            wrapper = classmethod(_wrap(rec, layer, original.__func__, counter))
        else:
            wrapper = _wrap(rec, layer, original, counter)
        patches.append((poset_cls, attr, original))
        setattr(poset_cls, attr, wrapper)
    return patches


def remove(patches: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def unrestored(patches: list[tuple[object, str, object]]) -> list[str]:
    """Patched names that no longer hold their original object."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in patches
            if vars(owner).get(attr) is not original]


def leq_cache_info():
    """``cache_info()`` of the comparison's cache, or None without one."""
    fn = getattr(sys.modules.get("dcbruhat.bruhat"), "leq", None)
    while fn is not None and not hasattr(fn, "cache_info"):
        fn = getattr(fn, "__wrapped__", None)
    return fn.cache_info() if fn is not None else None


def leq_cache_metrics(before, after) -> dict[str, float]:
    """Hit ratio of the comparison cache over one run; its base is the lookups."""
    if before is None or after is None:
        hits = lookups = 0
    else:
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
    return {
        "bruhat.leq.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "bruhat.leq.cache_lookups": lookups,
    }


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds from ``python -X importtime`` output.

    ``dcbruhat`` is the sum over the top-level dcbruhat entries, which
    nest everything they pull in (networkx included).
    """
    networkx_us = dcbruhat_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        field = parts[2][1:]
        name = field.lstrip()
        depth = (len(field) - len(name)) // 2
        if name == "networkx" and not networkx_us:
            networkx_us = cumulative
        if depth == 0 and (name == "dcbruhat" or name.startswith("dcbruhat.")):
            dcbruhat_us += cumulative
    return {"setup.import.networkx_s": networkx_us / 1e6,
            "setup.import.dcbruhat_s": dcbruhat_us / 1e6}
