"""Span tracing of pinrig from outside the package.

`Tracer.install` replaces every public function of the layer modules by a
wrapper that records a span (name, start, end, parent, query) around the
call.  It patches every module attribute that is bound to the function, so
calls made through ``from .pebble import pebble_rank`` style bindings are
caught as well as calls through the module.  `pinrig.graphs` is not
wrapped: graph construction counts in the self time of its callers.

Spans are kept in memory.  Self time (span time minus the time of its
direct child spans) and the counters are accumulated as spans close;
`dump` writes the raw spans out at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from collections import Counter

LAYERS = ("cli", "fileio", "assur", "pebble", "numeric", "counting", "canon",
          "generate")

_perf_ns = time.perf_counter_ns


def _shape_cells(mat):
    rows, cols = mat.shape
    return rows * cols


def _count_games(counts, args):
    counts["pebble.games"] += 1
    counts["pebble.edges_offered"] += args[0].m


def _count_is_circuit(counts, args):
    counts["pebble.is_circuit_calls"] += 1


def _count_kernel(counts, args):
    counts["numeric.kernels"] += 1
    counts["numeric.elim_cells"] += _shape_cells(args[0])


def _count_rank(counts, args):
    counts["numeric.elim_cells"] += _shape_cells(args[0])


def _count_canon(counts, args):
    counts["canon.calls"] += 1
    counts["canon.vertices"] += args[0].n


# counters taken on entry to a function, keyed by span name
ENTRY_COUNTERS = {
    "pebble.pebble_rank": _count_games,
    "pebble.is_circuit": _count_is_circuit,
    "numeric.matrix_kernel": _count_kernel,
    "numeric.matrix_rank": _count_rank,
    "canon.canonical_form": _count_canon,
}


def _is_oracle(name):
    return name.startswith("counting.") and name.endswith(("_oracle", "_violation"))


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.span_name, self.start, self.end = [], [], []
        self.parent, self.query = [], []
        self.self_ns = Counter()   # by span name
        self.counts = Counter()
        self.verify_self_ns = 0
        self._open = []            # [span index, ns spent in direct children]
        self._verify_depth = 0
        self._query = -1
        self._patches = []

    # -- spans --------------------------------------------------------------------

    def open(self, name):
        i = len(self.span_name)
        self.span_name.append(name)
        self.parent.append(self._open[-1][0] if self._open else -1)
        self.query.append(self._query)
        self.end.append(0)
        if name == "generate.verify_certificate":
            self._verify_depth += 1
        self._open.append([i, 0])
        self.start.append(_perf_ns())
        return i

    def close(self, i):
        t = _perf_ns()
        self.end[i] = t
        _, child_ns = self._open.pop()
        dur = t - self.start[i]
        own = dur - child_ns
        if self._open:
            self._open[-1][1] += dur
        name = self.span_name[i]
        self.self_ns[name] += own
        if self._verify_depth and name.startswith("generate."):
            self.verify_self_ns += own
        if name == "generate.verify_certificate":
            self._verify_depth -= 1

    def begin_query(self, qid):
        self._query = qid
        return self.open("bench.query")

    # -- wrapping -------------------------------------------------------------------

    def _wrapper(self, name, fn):
        entry = ENTRY_COUNTERS.get(name)
        oracle = _is_oracle(name)
        tracer = self

        def traced(*args, **kwargs):
            if entry is not None:
                entry(tracer.counts, args)
            if oracle:
                tracer.counts["counting.oracle_calls"] += 1
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close(i)
                tracer._on_raise(name, exc)
                raise
            tracer.close(i)
            if name == "assur.decompose":
                tracer.counts["assur.levels"] += result.levels
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _on_raise(self, name, exc):
        if (name == "generate.certify"
                and type(exc).__name__ == "CertificateSearchExhausted"
                and "time" in str(exc)):
            self.counts["generate.time_box_hits"] += 1

    def install(self):
        """Wrap the public functions of every layer at every binding site."""
        layer_mods = {layer: importlib.import_module(f"pinrig.{layer}")
                      for layer in LAYERS}
        sites = [m for n, m in sys.modules.items()
                 if (n == "pinrig" or n.startswith("pinrig.")) and m is not None]
        wrappers = {}
        for layer, mod in layer_mods.items():
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrapper(f"{layer}.{attr}", fn))
        for site in sites:
            for attr, value in list(vars(site).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((site, attr, value))
                    setattr(site, attr, hit[1])

    def uninstall(self):
        for site, attr, fn in reversed(self._patches):
            setattr(site, attr, fn)
        self._patches = []

    # -- results --------------------------------------------------------------------

    def layer_self_s(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, ns in self.self_ns.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += ns / 1e9
        return out

    def query_s(self):
        return sum(self.end[i] - self.start[i]
                   for i, name in enumerate(self.span_name)
                   if name == "bench.query") / 1e9

    def dump(self, path, meta):
        names = sorted(set(self.span_name))
        index = {n: k for k, n in enumerate(names)}
        t0 = self.start[0] if self.start else 0
        doc = dict(meta, names=names,
                   name=[index[n] for n in self.span_name],
                   start_ns=[t - t0 for t in self.start],
                   end_ns=[t - t0 for t in self.end],
                   parent=self.parent, query=self.query)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
