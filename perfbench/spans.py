"""Span recording for the traced benchmark run.

The recorder replaces the module attributes that the eqdesign layers call
through with wrappers that record one span per call: name, start, end, the
enclosing span and the op id.  Nothing inside ``src/`` is edited; every
layer is timed from outside, at its public boundary.  Spans stay in memory
until the run ends.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

from eqdesign import cli, effects, families, poly, screening

# Every span the traced run can report, with the name of the count it keeps
# (None when it keeps none).  Spans a workload never enters report zeros.
SPANS = {
    "families.generate": "vertices",
    "poly.mirror": None,
    "poly.permute": None,
    "poly.edge_profile": None,
    "poly.loads_design": "bytes",
    "poly.dumps_design": "bytes",
    "effects.randomize": None,
    "effects.order_vertices": None,
    "effects.embed": "points",
    "effects.build_incidence": "pairs",
    "effects.elementary_effects": "effects",
    "effects.pooled_stats": None,
    "effects.pairs_csv": None,
    "screening.build_test_function": None,
    "screening.evaluate": "evals",
    "screening.classify": None,
    "screening.render": None,
    "screening.run_screen": None,
    "cli.main": None,
    "cli.write_atomic": "bytes",
}
LAYERS = ("families", "poly", "effects", "screening", "cli")
# spans whose self time is also given per vertex and direction handled
PER_VERTEX_DIR = ("poly.edge_profile", "effects.embed", "effects.build_incidence")

# Span record fields.
NAME, START, END, PARENT, OP, COUNT, WORK = range(7)


def _len_result(args, result):
    return len(result), 0


def _embed_count(args, result):
    return len(result.points), len(result.points) * args[0].dim


def _incidence_count(args, result):
    return len(result.pairs), len(args[0])


def _profile_count(args, result):
    return 0, len(args[0]) * args[0].dim


def _text_arg(position):
    return lambda args, result: (len(args[position]), 0)


# (owner, attribute, span name, count function) for every patched call site.
# screening binds the effects/families functions under its own names, so
# both bindings are patched.
_PATCHES = (
    (screening, "generate", "families.generate", _len_result),
    (families, "generate", "families.generate", _len_result),
    (poly.DesignPoly, "mirror", "poly.mirror", None),
    (poly.DesignPoly, "permute", "poly.permute", None),
    (poly.DesignPoly, "edge_profile", "poly.edge_profile", _profile_count),
    (poly, "loads_design", "poly.loads_design", _text_arg(0)),
    (poly, "dumps_design", "poly.dumps_design", _len_result),
    (screening, "randomize", "effects.randomize", None),
    (screening, "order_vertices", "effects.order_vertices", None),
    (effects, "order_vertices", "effects.order_vertices", None),
    (screening, "embed", "effects.embed", _embed_count),
    (screening, "build_incidence", "effects.build_incidence", _incidence_count),
    (effects, "build_incidence", "effects.build_incidence", _incidence_count),
    (screening, "elementary_effects", "effects.elementary_effects", _len_result),
    (screening, "pooled_stats", "effects.pooled_stats", None),
    (effects, "pairs_csv", "effects.pairs_csv", None),
    (screening, "classify", "screening.classify", None),
    (cli, "write_atomic", "cli.write_atomic", _text_arg(1)),
)


def cache_counts() -> dict:
    """Hits and misses summed over the public lru caches of the families."""
    infos = [families.gen_G.cache_info(), families.gen_H.cache_info()]
    return {"hits": sum(i.hits for i in infos), "misses": sum(i.misses for i in infos)}


class Tracer:
    """In-memory span recorder; install() patches the layers, uninstall() restores them."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._saved = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), 0.0, parent, self.op, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[COUNT], rec[WORK] = count(args, result)
            return result
        return traced

    def traced_function(self, func):
        """Wrap a screening test function so each call records screening.evaluate."""
        return self.wrap("screening.evaluate", func, _len_result)

    def install(self):
        for owner, attr, name, count in _PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))
        original_build = screening.build_test_function
        self._saved.append((screening, "build_test_function", original_build))

        def build_test_function(seed):
            return self.traced_function(original_build(seed))
        screening.build_test_function = self.wrap(
            "screening.build_test_function", build_test_function)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        """The spans in compact form: name ids and integer ns from the first start."""
        names = list(SPANS)
        ids = {name: k for k, name in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        return {"names": names,
                "fields": ["name", "start_ns", "end_ns", "parent", "op", "count"],
                "spans": [[ids[r[NAME]], round((r[START] - t0) * 1e9),
                           round((r[END] - t0) * 1e9), r[PARENT], r[OP], r[COUNT]]
                          for r in self.spans]}

    def extend(self, spans, op):
        """Append spans recorded by another process, re-based onto this recorder."""
        base = len(self.spans)
        for rec in spans:
            rec = list(rec)
            rec[PARENT] = rec[PARENT] + base if rec[PARENT] >= 0 else -1
            rec[OP] = op
            self.spans.append(rec)


def summarize(spans) -> dict:
    """Per span name: calls, busy_s, self_s, its count and ns per vertex-direction.

    Self time is a span's duration minus the time its child spans cover;
    spans come from one thread, so children nest and never overlap.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0, "work": 0}
           for name in SPANS}
    for k, rec in enumerate(spans):
        row = out[rec[NAME]]
        busy = rec[END] - rec[START]
        row["calls"] += 1
        row["busy_s"] += busy
        row["self_s"] += busy - child_time[k]
        row["count"] += rec[COUNT]
        row["work"] += rec[WORK]
    for name, row in out.items():
        work = row.pop("work")
        counted = SPANS[name]
        count = row.pop("count")
        if counted:
            row[counted] = count
        if name in PER_VERTEX_DIR:
            row["ns_per_vertex_dir"] = row["self_s"] * 1e9 / work if work else 0.0
    for layer in LAYERS:
        out[layer] = {"self_s": sum(row["self_s"] for name, row in out.items()
                                    if name.startswith(layer + "."))}
    return out
