"""Spans around the calls one walshmap layer makes into another.

The benchmark installs wrappers, from its own files, at the module attributes
through which a layer reaches the next one (``walshmap.green.integrate_chebyshev``
is the Chebyshev rule as the Green layer sees it, and so on), and around the
integrand callbacks handed to the quadrature rules to count nodes.  Nothing in
the package changes; removing the wrappers restores the original functions.

Spans live in memory as (name, start, end, parent) plus a few counters and
are dumped once at the end.  A span's self time is its duration minus the
time covered by its direct children; the root span's self time is the part
of the run no wrapper covers.
"""

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np


def self_times(spans):
    """Self time of each span given (name, start, end, parent) tuples.

    `parent` is the index of the enclosing span or None.  Children of one
    span never overlap (the program is single threaded), so the covered time
    is the sum of the children's durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (name, start, end, parent) in enumerate(spans)]


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []      # [name, start, end, parent]
        self.labels = []     # workload class active when the span opened
        self.counts = []     # per-span counters (nodes, iterations)
        self.stack = []
        self.label = None
        self.events = defaultdict(int)

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), None, parent])
        self.labels.append(self.label)
        self.counts.append({})
        self.stack.append(idx)
        return idx

    def close(self, idx, name=None):
        self.spans[idx][2] = self.clock()
        if name is not None:
            self.spans[idx][0] = name
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def count(self, idx, key, amount=1):
        self.counts[idx][key] = self.counts[idx].get(key, 0) + amount

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def dump(self, path):
        """Write every span as one JSON document (the raw trace)."""
        doc = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                "label": lab, "counts": cnt}
               for s, lab, cnt in zip(self.spans, self.labels, self.counts)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def aggregate(tracer):
    """Per span name: calls, self time and summed counters, in total and per
    class label.  Returns (by_name, by_name_and_label)."""
    tuples = [tuple(s) for s in tracer.spans]
    selfs = self_times(tuples)
    total = defaultdict(lambda: defaultdict(float))
    per_label = defaultdict(lambda: defaultdict(float))
    for (name, *_), lab, cnt, st in zip(tuples, tracer.labels, tracer.counts, selfs):
        for bucket in (total[name], per_label[(name, lab)]):
            bucket["calls"] += 1
            bucket["self_s"] += st
            for key, val in cnt.items():
                bucket[key] += val
    return total, per_label


# --- wrappers ----------------------------------------------------------------

class Instrumentation:
    """Installs and removes the span wrappers at the layer boundaries."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []

    def _replace(self, module, attr, make):
        original = getattr(module, attr)
        self.saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make(original)))

    def install(self):
        import walshmap
        from walshmap import (api, cli, equilibrium, green, lemniscatic,
                              mapping)
        from walshmap.errors import NoConvergence
        tr = self.tracer

        def spanned(name, on_result=None):
            def make(fn):
                def wrapper(*args, **kwargs):
                    idx = tr.open(name)
                    try:
                        out = fn(*args, **kwargs)
                        if on_result is not None:
                            on_result(idx, out)
                        return out
                    finally:
                        tr.close(idx)
                return wrapper
            return make

        def quadrature(name):
            def make(fn):
                def wrapper(*args, **kwargs):
                    idx = tr.open(name)

                    def counted(cb):
                        def inner(x, *rest):
                            tr.count(idx, "nodes", int(np.size(x)))
                            return cb(x, *rest)
                        return inner

                    if kwargs.get("fd") is not None:
                        kwargs["fd"] = counted(kwargs["fd"])
                    elif args and callable(args[0]):
                        args = (counted(args[0]),) + args[1:]
                    try:
                        return fn(*args, **kwargs)
                    except NoConvergence:
                        tr.events["quadrature.no_convergence"] += 1
                        raise
                    finally:
                        tr.close(idx)
                return wrapper
            return make

        def map_point(fn):
            def wrapper(z, E, *args, **kwargs):
                idx = tr.open("mapping.point")
                branch = "mapping.complex" if complex(z).imag != 0.0 else "mapping.real_gap"
                try:
                    out = fn(z, E, *args, **kwargs)
                    branch = "mapping." + out.branch
                    tr.count(idx, "iterations", out.iterations)
                    return out
                finally:
                    tr.close(idx, branch)
            return wrapper

        def record_iterations(idx, dom):
            tr.count(idx, "outer_iterations", dom.outer_iterations)

        for mod in (green, equilibrium):
            self._replace(mod, "integrate_chebyshev", quadrature("quadrature.chebyshev"))
            self._replace(mod, "integrate_segment_complex", quadrature("quadrature.segment"))
        self._replace(green, "integrate_tail", quadrature("quadrature.tail"))
        self._replace(api, "green_data", spanned("green.green_data"))
        self._replace(api, "exponents", spanned("equilibrium.exponents"))
        self._replace(api, "solve_domain",
                      spanned("lemniscatic.solve_domain", record_iterations))
        self._replace(lemniscatic, "crit_points", spanned("lemniscatic.crit_points"))
        self._replace(lemniscatic, "boundary_abscissae",
                      spanned("lemniscatic.boundary_abscissae"))
        for mod in (walshmap, cli):
            self._replace(mod, "solve", spanned("api.solve"))
        self._replace(api, "map_grid", spanned("mapping.grid"))
        for mod in (api, mapping):
            self._replace(mod, "map_point", map_point)
        for attr in ("green_complex", "_green_real"):
            self._replace(mapping, attr, spanned("green.target"))
        self._replace(walshmap, "trace_boundary", spanned("mapping.trace_boundary"))

    def remove(self):
        while self.saved:
            module, attr, original = self.saved.pop()
            setattr(module, attr, original)
