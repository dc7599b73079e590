"""Benchmark-owned spans around the layers' public entry points.

Nothing under ``src/`` knows about this file.  :func:`install` replaces
each entry point listed in ``_patch_points`` with a timing proxy and
``uninstall`` puts the originals back, so traced and untraced blocks
can alternate inside one process.  A span is ``(id, name, parent, thread,
start, end, weight)``; spans are kept in memory and folded into per-name
totals after each unit, outside the timed region.

Self time is a span's duration minus the time its children cover.  The
traced run has one client, so siblings never overlap and a worker-thread
span (``Server.query`` hands the request to a server thread) lies inside
the client-thread span that caused it: subtracting the children's clipped
durations is exact, and per-unit self times sum to the unit's wall time.
"""

import itertools
import json
import threading
import time
from collections import defaultdict

#: span name -> layer (the repo's modules).  ``unit`` is the harness's
#: own root span; its self time is whatever no proxy covers.
LAYERS = {
    "unit": "bench",
    "pages.decode": "pages",
    "buffer.fetch_hit": "buffer",
    "buffer.fetch_miss": "buffer",
    "disk.sync": "disk",
    "replication.catch_up": "replication",
    "xrtree.find_ancestors": "xrtree",
    "xrtree.find_descendants": "xrtree",
    "xrtree.seek": "xrtree",
    "xrtree.insert": "xrtree",
    "xrtree.delete": "xrtree",
    "xrtree.bulk_load": "xrtree",
    "bptree.seek": "bptree",
    "bptree.bulk_load": "bptree",
    "joins.stack_tree": "joins",
    "joins.bplus": "joins",
    "joins.xr_stack": "joins",
    "query.parse": "query",
    "query.evaluate": "query",
    "core.session_open": "core",
    "core.session_query": "core",
    "core.add_document": "core",
    "core.remove_document": "core",
    "core.flush": "core",
    "server.query": "server",
    "cluster.write": "cluster",
    "cluster.tick": "cluster",
    "cluster.read": "cluster",
    "xmldata.parse": "xmldata",
}


class Tracer:
    """Span store shared by every proxy; one per process."""

    def __init__(self):
        self.spans = []
        self.pools = []
        self.evictions = 0
        #: Span a thread with an empty stack attaches to: set by the
        #: ``Server.query`` proxy while its request is in a worker.
        self.handoff = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin_unit(self):
        """Open the harness's root span for one unit."""
        sid = next(self._ids)
        self.stack().append(sid)
        return sid, time.perf_counter()

    def end_unit(self, token):
        sid, started = token
        ended = time.perf_counter()
        self.stack().pop()
        self.spans.append((sid, "unit", None, threading.get_ident(),
                           started, ended, 0))

    def drain(self):
        """Hand over the spans recorded so far and forget them."""
        spans = list(self.spans)
        self.spans.clear()  # in place: the proxies hold its append
        return spans

    def wrap(self, name, function, weigh=None, handoff=False):
        """``function`` timed as span ``name``.  ``weigh(self_arg)`` is
        read after the span closes (e.g. a bulk-loaded tree's size)."""
        ids, append, stack_of = self._ids, self.spans.append, self.stack
        clock, ident = time.perf_counter, threading.get_ident
        tracer = self

        def proxy(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else tracer.handoff
            stack.append(sid)
            if handoff:
                tracer.handoff = sid
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                if handoff:
                    tracer.handoff = None
                append((sid, name, parent, ident(), started, ended,
                        weigh(args[0]) if weigh is not None else 0))

        proxy.__wrapped__ = function
        return proxy

    def wrap_fetch(self, function):
        """``BufferPool.fetch`` split into hit and miss spans by reading
        the pool's own public counters around the call."""
        ids, append, stack_of = self._ids, self.spans.append, self.stack
        clock, ident = time.perf_counter, threading.get_ident
        tracer = self

        def fetch(pool, page_id):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else tracer.handoff
            stack.append(sid)
            stats = pool.stats
            misses, evictions = stats.misses, stats.evictions
            started = clock()
            try:
                return function(pool, page_id)
            finally:
                ended = clock()
                stack.pop()
                tracer.evictions += stats.evictions - evictions
                append((sid, "buffer.fetch_miss" if stats.misses != misses
                        else "buffer.fetch_hit", parent, ident(), started,
                        ended, 0))

        fetch.__wrapped__ = function
        return fetch

    def wrap_pool_init(self, function):
        """Remember every pool built, to sum ``latch_waits`` later."""
        pools = self.pools

        def __init__(pool, *args, **kwargs):
            function(pool, *args, **kwargs)
            pools.append(pool)

        __init__.__wrapped__ = function
        return __init__


def _patch_points():
    """``(owner, attribute, wrapper-kind, span name)`` for every proxy.

    Imported lazily so this module loads without ``repro`` (the span
    arithmetic is tested on synthetic spans).
    """
    import repro.core.database as database_module
    import repro.query.engine as engine_module
    from repro.cluster import ClusterClient, ReplicaSet
    from repro.core import Session, XmlDatabase
    from repro.indexes.bptree import BPlusTree
    from repro.indexes.xrtree import XRTree
    from repro.server import Server
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import FileDisk
    from repro.storage.pages import Page
    from repro.storage.replication import StandbyReplica

    return [
        (Page, "decode", "classmethod", "pages.decode"),
        (BufferPool, "fetch", "fetch", None),
        (BufferPool, "__init__", "pool-init", None),
        (FileDisk, "sync", "plain", "disk.sync"),
        (StandbyReplica, "catch_up", "plain", "replication.catch_up"),
        (XRTree, "find_ancestors", "plain", "xrtree.find_ancestors"),
        (XRTree, "find_descendants", "plain", "xrtree.find_descendants"),
        (XRTree, "seek", "plain", "xrtree.seek"),
        (XRTree, "seek_after", "plain", "xrtree.seek"),
        (XRTree, "insert", "plain", "xrtree.insert"),
        (XRTree, "delete", "plain", "xrtree.delete"),
        (XRTree, "bulk_load", "sized", "xrtree.bulk_load"),
        (BPlusTree, "seek", "plain", "bptree.seek"),
        (BPlusTree, "seek_after", "plain", "bptree.seek"),
        (BPlusTree, "bulk_load", "sized", "bptree.bulk_load"),
        (engine_module, "parse_path", "plain", "query.parse"),
        (engine_module, "xr_stack_join", "plain", "joins.xr_stack"),
        (engine_module, "stack_tree_join", "plain", "joins.stack_tree"),
        (engine_module.PathQueryEngine, "evaluate", "plain",
         "query.evaluate"),
        (XmlDatabase, "session", "plain", "core.session_open"),
        (Session, "query", "plain", "core.session_query"),
        (XmlDatabase, "add_document", "plain", "core.add_document"),
        (XmlDatabase, "remove_document", "plain", "core.remove_document"),
        (XmlDatabase, "flush", "plain", "core.flush"),
        (Server, "query", "handoff", "server.query"),
        (ClusterClient, "write", "plain", "cluster.write"),
        (ReplicaSet, "tick", "plain", "cluster.tick"),
        (ClusterClient, "query", "plain", "cluster.read"),
        (database_module, "parse_document", "plain", "xmldata.parse"),
    ]


#: Registry names of the three join runners and their span names.
JOIN_RUNNERS = {"stack-tree": "joins.stack_tree", "b+": "joins.bplus",
                 "xr-stack": "joins.xr_stack"}


def _tree_size(tree):
    return tree.size


class Installation:
    """The proxies currently in place, and how to take them out."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def install(self):
        from repro.joins.registry import get_algorithm, register_algorithm

        tracer = self.tracer
        for owner, attribute, kind, name in _patch_points():
            original = owner.__dict__[attribute]
            if kind == "classmethod":
                proxy = classmethod(tracer.wrap(name, original.__func__))
            elif kind == "fetch":
                proxy = tracer.wrap_fetch(original)
            elif kind == "pool-init":
                proxy = tracer.wrap_pool_init(original)
            else:
                proxy = tracer.wrap(
                    name, original,
                    weigh=_tree_size if kind == "sized" else None,
                    handoff=kind == "handoff")
            setattr(owner, attribute, proxy)
            self._undo.append((setattr, owner, attribute, original))
        for algorithm, name in JOIN_RUNNERS.items():
            spec = get_algorithm(algorithm)
            register_algorithm(algorithm, tracer.wrap(name, spec.runner),
                               spec.input_kind, spec.description,
                               replace=True)
            self._undo.append((register_algorithm, algorithm, spec.runner,
                               spec.input_kind, spec.description, True))
        return self

    def uninstall(self):
        while self._undo:
            restore, *arguments = self._undo.pop()
            restore(*arguments)


# -- span arithmetic ---------------------------------------------------------


def self_times(spans):
    """``{span id: self seconds}``: duration minus what children cover.

    Children are clipped to their parent's interval, so a cross-thread
    child that started a hair before its parent's clock read cannot push
    a self time below zero.
    """
    interval = {span[0]: (span[4], span[5]) for span in spans}
    covered = defaultdict(float)
    for _sid, _name, parent, _thread, started, ended, _weight in spans:
        if parent in interval:
            low, high = interval[parent]
            covered[parent] += max(0.0, min(ended, high) - max(started, low))
    return {span[0]: (span[5] - span[4]) - covered[span[0]]
            for span in spans}


class Totals:
    """Per-span-name sums folded from units; times scaled by each
    block's speed factor before they are added."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.weight = defaultdict(int)

    def fold(self, spans, factor=1.0):
        own = self_times(spans)
        for sid, name, _parent, _thread, started, ended, weight in spans:
            self.calls[name] += 1
            self.seconds[name] += (ended - started) * factor
            self.self_seconds[name] += own[sid] * factor
            self.weight[name] += weight

    def add(self, other, factor):
        """Fold another block's raw totals in, scaled to reference speed."""
        for name, calls in other.calls.items():
            self.calls[name] += calls
            self.seconds[name] += other.seconds[name] * factor
            self.self_seconds[name] += other.self_seconds[name] * factor
            self.weight[name] += other.weight[name]

    def mean_us(self, name):
        if not self.calls[name]:
            return 0.0
        return self.seconds[name] / self.calls[name] * 1e6

    def mean_self_us(self, name):
        if not self.calls[name]:
            return 0.0
        return self.self_seconds[name] / self.calls[name] * 1e6

    def layer_self_seconds(self, layer):
        return sum(seconds for name, seconds in self.self_seconds.items()
                   if LAYERS[name] == layer)


def write_spans(handle, spans, unit):
    """One JSON object per span of unit ``unit``, eight fields each."""
    for sid, name, parent, thread, started, ended, _weight in spans:
        handle.write(json.dumps({
            "id": sid, "name": name, "layer": LAYERS[name], "unit": unit,
            "thread": thread, "start": started, "end": ended,
            "parent": parent}) + "\n")
