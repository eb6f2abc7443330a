"""Span recording for the traced run, from the benchmark's own files.

:class:`Tracer` installs timing wrappers on the public entry points of
each layer of ``repro`` (see :data:`TARGETS`) and removes them again,
so traced and untraced operations can alternate within one run.  A
wrapper goes where the caller looks the name up: class attributes for
methods, and every loaded ``repro`` module that holds the function
under its name (``cons2ftbfs`` imports ``all_single_replacements`` by
name, for example).

Each span keeps its name, start, end, parent span and request id in
flat integer arrays; garbage-collector pauses are recorded as ``gc``
spans under whatever span was running.  A span's self time is its
duration minus the time its children (and collections) cover.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import threading
from array import array
from time import perf_counter_ns

#: (span name, module, attribute) of every wrapped entry point.  An
#: attribute ``Class.method`` is patched on the class.
TARGETS = (
    ("builder", "repro.ftbfs.cons2ftbfs", "build_cons2ftbfs"),
    ("replacement.single", "repro.replacement.single", "all_single_replacements"),
    ("replacement.dual", "repro.replacement.dual", "pipi_replacement"),
    ("replacement.dual", "repro.replacement.dual", "pid_replacement"),
    ("planner.execute", "repro.core.query_batch", "PointQueryBatch.execute"),
    ("spec.execute", "repro.core.query_batch", "SpeculativeBatch.execute"),
    ("engine.search", "repro.core.canonical", "CSRLexShortestPaths.search"),
    ("oracle.distance", "repro.core.canonical", "DistanceOracle.distance"),
    ("oracle.distances_from", "repro.core.canonical", "DistanceOracle.distances_from"),
    ("kernel.csr.bfs", "repro.core.csr", "CSRGraph.bfs"),
    ("kernel.csr.bfs_dists", "repro.core.csr", "CSRGraph.bfs_dists"),
    ("kernel.csr.bidir_distance", "repro.core.csr", "CSRGraph.bidir_distance"),
    ("kernel.csr.bidir_distances", "repro.core.csr", "CSRGraph.bidir_distances"),
    ("kernel.bulk.multi_pair", "repro.core.bulk", "BulkCSRKernel.multi_pair_dists"),
    ("kernel.bulk.multi_target", "repro.core.bulk", "BulkCSRKernel.multi_target_dists"),
    ("kernel.c.multi_pair", "repro.core.ckernel", "CKernel.multi_pair_dists"),
    ("kernel.c.multi_target", "repro.core.ckernel", "CKernel.multi_target_dists"),
    ("csr.snapshot", "repro.core.csr", "csr_of"),
    ("cache.migrate", "repro.core.snapshot_cache", "SnapshotCache.migrate"),
    ("graph.apply_delta", "repro.core.graph", "Graph.apply_delta"),
    ("artifact.load", "repro.core.artifact", "load_artifact"),
    ("artifact.oracle", "repro.core.artifact", "Artifact.oracle"),
    ("serve.handle", "repro.serve", "QueryServer.handle"),
    ("scenario.sweep", "repro.core.scenario", "sweep_blueprint"),
    ("scenario.expand", "repro.core.scenario", "expand_blueprint"),
    ("scenario.topology", "repro.core.scenario", "Blueprint.topology"),
)

GC = "gc"


class Recorder:
    """In-memory span store: one row per span in parallel int arrays."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.req = array("q")
        self.request = 0
        self.counters = {}
        self._tls = threading.local()
        self._gc_open = {}

    def name_id(self, name):
        """The integer id of a span name."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin(self, nid):
        """Open a span under the current one; returns its index."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(parent)
        self.req.append(self.request)
        self.end.append(0)
        self.start.append(perf_counter_ns())
        stack.append(idx)
        return idx

    def finish(self, idx):
        """Close the span opened as ``idx``."""
        self.end[idx] = perf_counter_ns()
        self._stack().pop()

    def gc_callback(self, phase, info):
        """``gc.callbacks`` hook: each collection becomes a ``gc`` span."""
        if phase == "start":
            self._gc_open[threading.get_ident()] = self.begin(self.name_id(GC))
        else:
            idx = self._gc_open.pop(threading.get_ident(), None)
            if idx is not None:
                self.finish(idx)

    def dump(self, path):
        """Write every span to ``path`` as JSON."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "req": self.req.tolist(),
                "counters": self.counters,
            }, fh)

    @classmethod
    def load(cls, path):
        """Read spans written by :meth:`dump`."""
        with open(path) as fh:
            doc = json.load(fh)
        rec = cls()
        for name in doc["names"]:
            rec.name_id(name)
        for key in ("name", "start", "end", "parent", "req"):
            getattr(rec, key).extend(doc[key])
        rec.counters.update(doc["counters"])
        return rec


def _resolve(module, attr):
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(mod, cls_name), meth
    return mod, attr


class Tracer:
    """Installs and removes the wrappers of :data:`TARGETS` on one recorder."""

    def __init__(self):
        self.rec = Recorder()
        self._patches = []

    def _wrapper(self, name, fn):
        rec = self.rec
        nid = rec.name_id(name)
        if name == "serve.handle":
            # One request per call; the span name carries the op.
            def wrapper(server, request, *args, **kwargs):
                rec.request += 1
                op = request.get("op") if isinstance(request, dict) else None
                idx = rec.begin(rec.name_id(f"serve.handle.{op}"))
                try:
                    return fn(server, request, *args, **kwargs)
                finally:
                    rec.finish(idx)
        elif name == "planner.execute":
            def wrapper(batch, *args, **kwargs):
                before = batch.stats["queries"]
                idx = rec.begin(nid)
                try:
                    return fn(batch, *args, **kwargs)
                finally:
                    rec.finish(idx)
                    probes = batch.stats["queries"] - before
                    rec.counters["planner.probes"] = rec.counters.get("planner.probes", 0) + probes
        else:
            def wrapper(*args, **kwargs):
                idx = rec.begin(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.finish(idx)
        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Wrap every target (idempotent) and start recording collections."""
        if self._patches:
            return
        for name, module, attr in TARGETS:
            owner, key = _resolve(module, attr)
            original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            wrapped = self._wrapper(name, original)
            holders = [owner]
            if not isinstance(owner, type):
                holders = [
                    mod for mod_name, mod in list(sys.modules.items())
                    if mod is not None and mod_name.split(".")[0] == "repro"
                    and any(v is original for v in vars(mod).values())
                ]
            for holder in holders:
                for k, v in list(vars(holder).items()):
                    if v is original:
                        setattr(holder, k, wrapped)
                        self._patches.append((holder, k, original))
        gc.callbacks.append(self.rec.gc_callback)

    def uninstall(self):
        """Restore every patched attribute and stop recording collections."""
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)
        if self.rec.gc_callback in gc.callbacks:
            gc.callbacks.remove(self.rec.gc_callback)


def self_times(rec, roots=None):
    """Per-span self time in ns, restricted to the trees under ``roots``.

    ``roots`` is a set of span indices (``None`` = every root span).
    Returns ``(selected indices in order, {index: self ns})``.
    """
    n = len(rec.name)
    keep = [False] * n
    for i in range(n):
        p = rec.parent[i]
        keep[i] = (roots is None or i in roots) if p < 0 else keep[p]
    child = [0] * n
    for i in range(n):
        p = rec.parent[i]
        if keep[i] and p >= 0:
            child[p] += rec.end[i] - rec.start[i]
    selected = [i for i in range(n) if keep[i]]
    return selected, {i: rec.end[i] - rec.start[i] - child[i] for i in selected}


def layer_totals(rec, selected, self_ns):
    """``{span name: [self ns, calls]}`` over the selected spans."""
    out = {}
    for i in selected:
        entry = out.setdefault(rec.names[rec.name[i]], [0, 0])
        entry[0] += self_ns[i]
        entry[1] += 1
    return out


def layer_tree(rec, selected, self_ns):
    """Aggregate spans by their path of names from the root.

    A span named like its parent (recursion) folds into the parent's
    node.  Returns ``{path tuple: [self ns, inclusive ns, calls]}``.
    """
    path = {}
    tree = {}
    for i in selected:
        p = rec.parent[i]
        name = rec.names[rec.name[i]]
        if p >= 0 and p in path and path[p][-1] == name:
            path[i] = path[p]
            node = tree[path[i]]
            node[0] += self_ns[i]
            continue
        path[i] = (path[p] if p >= 0 and p in path else ()) + (name,)
        node = tree.setdefault(path[i], [0, 0, 0])
        node[0] += self_ns[i]
        node[1] += rec.end[i] - rec.start[i]
        node[2] += 1
    return tree


def format_tree(tree, wall_ns, unattributed_ns):
    """Render a layer tree as indented lines, biggest subtrees first."""
    lines = [f"{'layer':<48s} {'self s':>10s} {'incl s':>10s} {'calls':>9s}"]

    def emit(prefix):
        kids = [p for p in tree if len(p) == len(prefix) + 1 and p[:-1] == prefix]
        for p in sorted(kids, key=lambda k: -tree[k][1]):
            s, inc, calls = tree[p]
            label = "  " * (len(p) - 1) + p[-1]
            lines.append(f"{label:<48s} {s / 1e9:>10.4f} {inc / 1e9:>10.4f} {calls:>9d}")
            emit(p)

    emit(())
    lines.append(f"{'unattributed':<48s} {unattributed_ns / 1e9:>10.4f}")
    lines.append(f"{'wall (timed operations)':<48s} {wall_ns / 1e9:>21.4f}")
    return "\n".join(lines)
