"""Spans and counts recorded from outside the reebspec package.

A Tracer replaces the public entry points of each layer with wrappers for
the length of one `with tracer.installed():` block and puts the originals
back when it ends, also on an exception.  A wrapped name is replaced in
every reebspec module that binds it, because `from .x import f` copies the
binding and a patch of the defining module alone would miss those callers.

Each call is a frame on one stack.  Coarse calls (main, scans, spectra,
cross-checks, index computations) are kept as span records: name, start,
end and parent span.  Calls made millions of times (the exact floor kernel,
a Tamura stream's next element, numpy's SVD) are only aggregated per name,
so a traced run stays within a few times the untraced one.  Both kinds add
their duration to the enclosing frame, which gives every name a self time:
its duration minus the part its wrapped callees cover.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import sys
import time
from dataclasses import dataclass

SPAN, HOT, STREAM = "span", "hot", "stream"

# (module, attribute path, name, kind).  STREAM wraps a generator function
# and times each element it produces.
TARGETS = (
    ("reebspec.cli", "main", "cli.main", SPAN),
    ("reebspec.partitions", "verify_partition", "partitions.verify_partition", SPAN),
    ("reebspec.partitions", "TamuraFamily.generator", "partitions.element", STREAM),
    ("reebspec.quadfield", "_floor_scaled", "quadfield.floor", HOT),
    ("reebspec.ellipsoid", "spectrum", "ellipsoid.spectrum", SPAN),
    ("reebspec.ellipsoid", "cross_check_index", "ellipsoid.cross_check_index", SPAN),
    ("reebspec.czindex", "cz_index", "czindex.cz_index", SPAN),
    ("reebspec.czindex", "find_crossings", "czindex.find_crossings", SPAN),
    ("reebspec.homology", "compare", "homology.compare", SPAN),
    ("reebspec.homology", "sh_dims_gutt", "homology.sh_dims_gutt", SPAN),
    ("numpy.linalg", "svd", "czindex.svd", HOT),
)

# counts that must repeat exactly when the same argv runs twice
EXACT_COUNTS = (
    "partitions.elements", "quadfield.floors", "czindex.svd_calls",
    "czindex.svd_matrices", "czindex.crossings", "czindex.errors",
    "ellipsoid.spectrum_calls", "partitions.owner_table_bytes",
    "cli.output_bytes",
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


def _resolve(module, path):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(module, path, original):
    """Every (owner, attribute) through which callers reach `original`."""
    owner, attr = _resolve(module, path)
    found = [(owner, attr)]
    if "." in path:
        return found
    for name, mod in list(sys.modules.items()):
        if mod is owner or not (name == "reebspec" or name.startswith("reebspec.")):
            continue
        for key, value in vars(mod).items():
            if value is original:
                found.append((mod, key))
    return found


class Tracer:
    def __init__(self):
        self.spans = []
        self.stats = {}        # name -> [calls, total s, self s]
        self.counts = {"partitions.elements": 0, "czindex.svd_matrices": 0,
                       "czindex.crossings": 0, "czindex.errors": 0,
                       "partitions.owner_table_bytes": 0}
        self._stack = []       # open frames: [child s, span id]
        self._next_id = 0
        self._patches = []     # (owner, attribute, original)

    # -- frames -------------------------------------------------------------

    def _call(self, name, record, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [0.0, None]
        if record:
            frame[1] = self._next_id
            self._next_id += 1
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[0] += duration
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = [0, 0.0, 0.0]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[0]
            if record:
                self.spans.append(Span(frame[1], name, start, end,
                                       parent[1] if parent else None))

    def _wrap(self, name, kind, fn):
        tracer = self
        observe = _OBSERVERS.get(name)

        if kind == STREAM:
            @functools.wraps(fn)
            def stream(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = tracer._call(name, False, next, (it,), {})
                    except StopIteration:
                        return
                    tracer.counts["partitions.elements"] += 1
                    yield item
            return stream

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = tracer._call(name, kind == SPAN, fn, args, kwargs)
            except Exception:
                if name == "czindex.cz_index":
                    tracer.counts["czindex.errors"] += 1
                raise
            if observe is not None:
                observe(tracer.counts, args, result)
            return result
        return wrapper

    # -- install / restore --------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the block, then restore the originals."""
        import numpy.linalg  # noqa: F401  (SVD target)
        import reebspec.cli  # noqa: F401  (imports every layer)

        try:
            for module, path, name, kind in TARGETS:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
                wrapper = self._wrap(name, kind, original)
                for where, key in _bindings(module, path, original):
                    self._patches.append((where, key, getattr(where, key)))
                    setattr(where, key, wrapper)
            yield self
        finally:
            while self._patches:
                where, key, original = self._patches.pop()
                setattr(where, key, original)

    # -- report -------------------------------------------------------------

    def self_times(self):
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())}

    def layer_metrics(self, output_bytes):
        """The per-layer metrics of one traced main() call."""
        def stat(name):
            return self.stats.get(name, (0, 0.0, 0.0))

        def per(total, count, scale):
            return total / count * scale if count else 0.0

        counts = self.counts
        floors, floor_s = stat("quadfield.floor")[:2]
        elements = counts["partitions.elements"]
        svd_calls, svd_s = stat("czindex.svd")[:2]
        crossings = counts["czindex.crossings"]
        checks = sorted(1e3 * (s.end - s.start) for s in self.spans
                        if s.name == "ellipsoid.cross_check_index")
        return {
            "quadfield.floors": floors,
            "quadfield.ns_per_floor": per(floor_s, floors, 1e9),
            "partitions.elements": elements,
            "partitions.ns_per_element":
                per(stat("partitions.element")[1], elements, 1e9),
            "partitions.merge_ns_per_element":
                per(stat("partitions.verify_partition")[2], elements, 1e9),
            "partitions.owner_table_bytes": counts["partitions.owner_table_bytes"],
            "ellipsoid.spectrum_calls": stat("ellipsoid.spectrum")[0],
            "ellipsoid.spectrum_s": stat("ellipsoid.spectrum")[1],
            "homology.compare_s": stat("homology.compare")[1],
            "cli.self_s": stat("cli.main")[2],
            "cli.output_bytes": output_bytes,
            "czindex.svd_calls": svd_calls,
            "czindex.svd_matrices": counts["czindex.svd_matrices"],
            "czindex.svd_s": svd_s,
            "czindex.crossings": crossings,
            "czindex.svd_calls_per_crossing": per(svd_calls, crossings, 1),
            "czindex.cz_index_s": stat("czindex.cz_index")[1],
            "czindex.errors": counts["czindex.errors"],
            "ellipsoid.crosscheck_self_s": stat("ellipsoid.cross_check_index")[2],
            "ellipsoid.crosscheck_ms_p50": _percentile(checks, 50),
            "ellipsoid.crosscheck_ms_p90": _percentile(checks, 90),
        }


def _percentile(ordered, pct):
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]


def _count_crossings(counts, args, result):
    counts["czindex.crossings"] += len(result)


def _count_svd_matrices(counts, args, result):
    shape = getattr(args[0], "shape", ())
    counts["czindex.svd_matrices"] += math.prod(shape[:-2])


def _count_owner_table(counts, args, result):
    if result.owners is not None:
        counts["partitions.owner_table_bytes"] += sys.getsizeof(result.owners)


_OBSERVERS = {
    "czindex.find_crossings": _count_crossings,
    "czindex.svd": _count_svd_matrices,
    "partitions.verify_partition": _count_owner_table,
}
