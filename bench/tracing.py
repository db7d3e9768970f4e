"""Span tracer for the benchmark's traced run.

`Tracer.install()` replaces each layer-boundary function of gbmoments with a
wrapper, at every loaded gbmoments module namespace that holds the function
(so `moments.build_graph` and `cyclegraph.build_graph` are both wrapped).
No file under src/ is touched.  Spans (name, start, end, parent) and
counters stay in memory; `write()` saves them when the run ends and
`layer_metrics()` reduces them to the per-layer numbers.  A span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array


def _count_items(tracer, nid, sid, args, result):
    if tracer.outer[sid]:
        tracer.items[nid] += len(result)


def _peak_keys(tracer, nid, sid, args, result):
    tracer.peak_keys = max(tracer.peak_keys, len(result))


def _gram_products(tracer, nid, sid, args, result):
    tracer.products += len(args[0]) ** 2


def _nonzero(tracer, nid, sid, args, result):
    tracer.nonzero += result != 0


# span name -> (module, functions, result hook); only layer boundaries
BOUNDARIES = {
    "partitions.enumerate": (
        "partitions", ("enumerate_pair_partitions", "enumerate_colored"), _count_items
    ),
    "partitions.uncolored_cycles": ("partitions", ("uncolored_cycles",), None),
    "partitions.crossings": ("partitions", ("crossings",), None),
    "cyclegraph.build_graph": ("cyclegraph", ("build_graph",), None),
    "cyclegraph.classify": ("cyclegraph", ("classify",), None),
    "moments.t_n": ("moments", ("t_n",), None),
    "moments.t_colored": ("moments", ("t_colored",), None),
    "moments.t_tensor": ("moments", ("t_tensor",), None),
    "words.compatible_partitions": ("words", ("compatible_partitions",), _count_items),
    "fock.dense": ("fock", ("vacuum_expectation_dense",), None),
    "fock.apply_letter": ("fock", ("apply_letter",), _peak_keys),
    "fock.sym_project": ("fock", ("sym_project",), None),
    "fock.lambda": ("fock", ("vacuum_expectation_lambda",), None),
    "fock.rho_n_combinatorial": ("fock", ("rho_n_combinatorial",), None),
    "broken.enumerate_broken": ("broken", ("enumerate_broken",), _count_items),
    "broken.multiply": ("broken", ("multiply",), None),
    "broken.involution": ("broken", ("involution",), None),
    "broken.evaluate_t_hat": ("broken", ("evaluate_t_hat",), _nonzero),
    "broken.gram_matrix": ("broken", ("gram_matrix",), _gram_products),
    "qproduct.gram_psd_check": ("qproduct", ("gram_psd_check",), None),
    "qproduct.q_product_eval": ("qproduct", ("q_product_eval",), None),
    "qproduct.t_q_star_n": ("qproduct", ("t_q_star_n",), None),
    "qproduct.t_q_limit": ("qproduct", ("t_q_limit",), None),
    "qproduct.stirling_check": ("qproduct", ("stirling_check",), None),
}

class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.items: list[int] = []
        self.depth: list[int] = []  # open spans per name
        self.span_name = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 unless nested in a span of the same name
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active = True
        self.peak_keys = 0
        self.products = 0
        self.nonzero = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.items.append(0)
            self.depth.append(0)
        return self.names.index(name)

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.outer.append(self.depth[nid] == 0)
        self.depth[nid] += 1
        self.stack.append(sid)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.depth[self.span_name[sid]] -= 1
        self.stack.pop()

    def _wrap(self, nid, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None:
                hook(tracer, nid, sid, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "gbmoments" or name.startswith("gbmoments.")
        ]
        for span, (module, functions, hook) in BOUNDARIES.items():
            nid = self.name_id(span)
            for function in functions:
                original = getattr(sys.modules[f"gbmoments.{module}"], function)
                wrapper = self._wrap(nid, original, hook)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        setattr(mod, attr, wrapper)

    def _per_name(self):
        count = len(self.names)
        calls, busy, self_s = [0] * count, [0.0] * count, [0.0] * count
        child = [0.0] * len(self.start)
        durations = [e - s for s, e in zip(self.start, self.end)]
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += durations[sid]
        for sid, nid in enumerate(self.span_name):
            calls[nid] += 1
            if self.outer[sid]:
                busy[nid] += durations[sid]
            self_s[nid] += durations[sid] - child[sid]
        return calls, busy, self_s

    def layer_metrics(self) -> dict:
        """Every per-layer number this process can measure, by name;
        BENCHMARK.json declares which of them the benchmark reports."""
        calls, busy, self_s = self._per_name()
        out = {}
        for span in BOUNDARIES:
            nid = self.names.index(span)
            out[f"{span}.calls"] = calls[nid]
            out[f"{span}.items"] = self.items[nid]
            out[f"{span}.busy_s"] = busy[nid]
            out[f"{span}.self_s"] = self_s[nid]
        graph_calls = out["cyclegraph.build_graph.calls"]
        out["cyclegraph.build_graph.us_per_call"] = (
            out["cyclegraph.build_graph.busy_s"] / graph_calls * 1e6 if graph_calls else 0.0
        )
        lookups = self.cache_hits + self.cache_misses
        out["moments.graph_cache.hits"] = self.cache_hits
        out["moments.graph_cache.misses"] = self.cache_misses
        out["moments.graph_cache.hit_ratio"] = self.cache_hits / lookups if lookups else 0.0
        out["fock.state.peak_keys"] = self.peak_keys
        out["broken.gram.products"] = self.products
        out["broken.gram.nonzero"] = self.nonzero
        out["broken.gram.nonzero_ratio"] = self.nonzero / self.products if self.products else 0.0
        return out

    def write(self, path: str, metrics: dict) -> None:
        """Save the counters as JSON at `path` and the spans beside it, as
        four arrays (name id, parent span, start, end) in one binary file."""
        spans_path = path + ".spans"
        with open(spans_path, "wb") as fh:
            for column in (self.span_name, self.parent, self.start, self.end):
                column.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "spans_file": os.path.basename(spans_path),
            "layout": "int32 name[n], int32 parent[n], float64 start[n], float64 end[n]",
            "metrics": metrics,
        }
        with open(path, "w") as fh:
            json.dump(header, fh, indent=1)
