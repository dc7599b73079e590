"""The four workloads: what set-up builds, what one unit does, its oracle.

Every workload touches the program only through public entry points
(``structural_join``, the ``build_*`` helpers, ``XmlDatabase``,
``Server``, ``ReplicaSet.tick``, ``ClusterClient``).  The seed feeds the
input generators only; the program receives the generated inputs.

A *unit* is always the same fixed bundle of operations, so a workload's
latency distribution is unimodal.  Generated inputs are cut to an exact
element count (the generators overshoot by up to one subtree), so runs
with different seeds do the same amount of work on different data.
``generate`` (the benchmark making its inputs) is kept apart from
``setup`` (the program loading them), and only the latter is timed.
Sizes are frozen here: changing one changes what every metric of that
workload means (a benchmark PR with a re-baseline).
"""

import os

from repro import XmlDatabase, structural_join
from repro.cluster import ClusterClient, ReplicaSet
from repro.core import (
    StorageContext,
    build_bplus_tree,
    build_element_list,
    build_xr_tree,
)
from repro.query import PathQueryEngine
from repro.server import Server
from repro.storage.disk import FileDisk
from repro.storage.replication import LocalDirShipper, StandbyReplica
from repro.workloads import JoinDataset, vary_both_selectivity
from repro.xmldata import (
    Document,
    GeneratorConfig,
    XmlGenerator,
    serialize_document,
)
from repro.xmldata.dtd import AUCTION_DTD, DEPARTMENT_DTD
from repro.xmldata.model import annotate_regions

JOIN_ALGORITHMS = ("stack-tree", "b+", "xr-stack")


def containment_pairs(ancestors, descendants):
    """Number of (a, d) pairs with ``a`` containing ``d``, by one sweep.

    The joins' oracle.  ``repro.joins.nested_loop_join`` is quadratic —
    tens of seconds at ``join_sparse`` size — so set-up uses this
    independent O(n · depth) sweep instead; ``test_harness.py`` checks it
    against ``nested_loop_join`` itself.  No nesting discipline is
    assumed: every open ancestor is tested against the descendant.
    """
    events = [(entry.start, 0, entry) for entry in ancestors]
    events.extend((entry.start, 1, entry) for entry in descendants)
    events.sort(key=lambda event: event[:2])
    open_ancestors = []
    pairs = 0
    for start, is_descendant, entry in events:
        open_ancestors = [a for a in open_ancestors if a.end > start]
        if is_descendant:
            pairs += sum(1 for a in open_ancestors
                         if a.doc_id == entry.doc_id and a.start < start
                         and entry.end < a.end)
        else:
            open_ancestors.append(entry)
    return pairs


def document_prefix(document, elements):
    """``document`` cut to its first ``elements`` elements in document
    order (a preorder prefix keeps every kept node's parent), renumbered."""
    kept = set()
    for count, node in enumerate(document):
        if count == elements:
            break
        kept.add(id(node))
    if len(kept) < elements:
        raise ValueError("document has only %d of %d elements"
                         % (len(kept), elements))
    stack = [document.root]
    while stack:
        node = stack.pop()
        node.children = [child for child in node.children
                         if id(child) in kept]
        stack.extend(node.children)
    annotate_regions(document.root)
    return Document(document.root, doc_id=document.doc_id)


def generate_documents(dtd, config, seed, count, elements):
    """``count`` generated documents of exactly ``elements`` elements."""
    generator = XmlGenerator(dtd, config, seed=seed)
    return [document_prefix(generator.generate(elements, doc_id=index + 1),
                            elements)
            for index in range(count)]


def auction_profile(document):
    """``(items, bidders, parlists, parlist-in-parlist pairs)``: the
    counts the ``query_serve`` paths' costs follow."""
    items = bidders = parlists = pairs = 0
    stack = [(document.root, 0)]
    while stack:
        node, open_parlists = stack.pop()
        if node.tag == "parlist":
            parlists += 1
            pairs += open_parlists
            open_parlists += 1
        elif node.tag == "item":
            items += 1
        elif node.tag == "bidder":
            bidders += 1
        stack.extend((child, open_parlists) for child in node.children)
    return items, bidders, parlists, pairs


def closest_to_profile(candidates, count, target):
    """``count`` of ``candidates``, picked greedily so that their summed
    ``auction_profile`` tracks ``target`` (relative squared error)."""
    profiles = [auction_profile(document) for document in candidates]
    remaining = list(range(len(candidates)))
    total = [0] * len(target)
    chosen = []
    for step in range(1, count + 1):
        def error(index):
            return sum(
                ((total[axis] + profiles[index][axis])
                 / (target[axis] * step / count) - 1.0) ** 2
                for axis in range(len(target)))
        best = min(remaining, key=error)
        remaining.remove(best)
        chosen.append(candidates[best])
        total = [have + add for have, add in zip(total, profiles[best])]
    return chosen


class Workload:
    """What the harness needs from a workload.

    ``generate`` turns the seed into inputs, once per run.  ``setup``
    hands them to the program and is timed (``setup_s``);
    ``prepare_oracle`` is the benchmark's own checking cost and is not.
    ``unit`` returns True when its oracle held.  ``teardown`` must leave
    no thread running; files live under the harness's per-set-up
    temporary directory.
    """

    name = None
    why = None
    clients = 1
    #: Elements in each document a unit or set-up parses (None: no XML).
    document_elements = None

    def __init__(self, smoke=False):
        self.smoke = smoke

    @classmethod
    def generate(cls, seed, smoke=False):
        raise NotImplementedError

    def setup(self, inputs, workdir):
        raise NotImplementedError

    def prepare_oracle(self):
        pass

    def warmup(self):
        """Untimed units run once after set-up."""
        for _ in range(5):
            self.unit()

    def unit(self):
        raise NotImplementedError

    def stored(self):
        """``(bytes, elements)`` behind ``bytes_per_element``."""
        raise NotImplementedError

    def counters(self):
        """Cumulative *exact* counters, read from the program's public
        statistics objects (``JoinStats``, ``server.stats``,
        ``disk.durability_stats``, ``replica.stats``, ``QueryResult``)."""
        return {}

    def teardown(self):
        pass


class _JoinWorkload(Workload):
    """``employee``//``name`` over prebuilt indexes, one cold join per
    algorithm per unit."""

    elements = None
    fraction = None
    page_size = 512
    buffer_pages = 32
    config = GeneratorConfig(mean_repeat=2.2, recursion_decay=0.72,
                             max_depth=28)

    @classmethod
    def generate(cls, seed, smoke=False):
        elements = cls.elements // 8 if smoke else cls.elements
        document = generate_documents(DEPARTMENT_DTD, cls.config, seed, 1,
                                      elements)[0]
        data = JoinDataset("employee_name",
                           document.entries_for_tag("employee"),
                           document.entries_for_tag("name"), document)
        derived = vary_both_selectivity(data, cls.fraction, seed=seed)
        return derived.ancestors, derived.descendants

    def setup(self, inputs, workdir):
        self.ancestors, self.descendants = inputs
        self.context = StorageContext(page_size=self.page_size,
                                      buffer_pages=self.buffer_pages)
        pool = self.context.pool
        builders = {"stack-tree": build_element_list,
                    "b+": build_bplus_tree, "xr-stack": build_xr_tree}
        self.inputs = {
            algorithm: (builders[algorithm](self.ancestors, pool),
                        builders[algorithm](self.descendants, pool))
            for algorithm in JOIN_ALGORITHMS}
        pool.flush_all()
        self.expected_pairs = None
        self.last_outcomes = {}
        self.stab_pages = 0

    def prepare_oracle(self):
        self.expected_pairs = containment_pairs(self.ancestors,
                                                self.descendants)

    def unit(self):
        ok = True
        for algorithm in JOIN_ALGORITHMS:
            a_input, d_input = self.inputs[algorithm]
            outcome = structural_join(a_input, d_input, algorithm=algorithm,
                                      context=self.context, cold=True,
                                      collect=False)
            self.last_outcomes[algorithm] = outcome
            self.stab_pages += outcome.stats.stab_pages
            ok = ok and outcome.pair_count == self.expected_pairs
        return ok

    def stored(self):
        pages = self.context.disk.allocated_page_count
        return (pages * self.page_size,
                len(self.ancestors) + len(self.descendants))

    def counters(self):
        return {"xrtree.stab_pages": self.stab_pages}

    def teardown(self):
        self.context.close()


class JoinDense(_JoinWorkload):
    name = "join_dense"
    why = ("90% selectivity: XR-stack probes FindAncestors per descendant, "
           "so index descents and buffer hits dominate and decode is small")
    elements = 2600
    fraction = 0.90


class JoinSparse(_JoinWorkload):
    name = "join_sparse"
    why = ("5% selectivity, data 12x the pool: skipping leaves cold page "
           "reads and the full Stack-Tree scan, so CRC, decode and buffer "
           "misses dominate")
    elements = 11000
    fraction = 0.05


AUCTION_CONFIG = GeneratorConfig(mean_repeat=2.0, recursion_decay=0.75,
                                  max_depth=30)


class _QueryCounters:
    """Work the engine reports for the queries a workload issued."""

    def __init__(self):
        self.scanned = 0
        self.rows = 0
        self.stab_pages = 0

    def note(self, result):
        self.scanned += result.stats.elements_scanned
        self.stab_pages += result.stats.stab_pages
        self.rows += len(result)

    def as_counters(self):
        return {"query.elements_scanned": self.scanned,
                "query.rows": self.rows,
                "xrtree.stab_pages": self.stab_pages}


class QueryServe(Workload):
    name = "query_serve"
    why = ("corpus fits the pool (hit ratio 1.0): parser, planner, engine, "
           "MVCC session and server queue do the work; storage I/O does "
           "none, so a decode or commit change must not move it")
    clients = 2
    page_size = 1024
    buffer_pages = 256
    documents = 6
    document_elements = 650
    paths = ("//item[description]/name", "//open_auction/bidder",
             "//parlist//parlist", "//site/region/item/name")
    #: The corpus is the ``documents`` of ``candidates`` generated ones
    #: whose summed ``auction_profile`` lands closest to this: what the
    #: four paths cost follows the tag mix (``//parlist//parlist`` alone
    #: is 60 % of a unit and its pair count swung 2015-2934 across seeds),
    #: and a free draw moved the unit by 15 % from seed to seed.
    profile = (128, 490, 690, 2450)
    candidates = 24

    @classmethod
    def generate(cls, seed, smoke=False):
        if smoke:
            chosen = generate_documents(AUCTION_DTD, AUCTION_CONFIG, seed,
                                        cls.documents, 60)
        else:
            chosen = closest_to_profile(
                generate_documents(AUCTION_DTD, AUCTION_CONFIG, seed,
                                   cls.candidates, cls.document_elements),
                cls.documents, cls.profile)
        return [serialize_document(document) for document in chosen]

    def setup(self, inputs, workdir):
        self.server = None
        self.db = None
        texts = inputs
        self.path = os.path.join(workdir, "query_serve.db")
        self.disk = FileDisk(self.path, self.page_size,
                             durability="journal")
        self.db = XmlDatabase.create(disk=self.disk,
                                     page_size=self.page_size,
                                     buffer_pages=self.buffer_pages)
        for index, text in enumerate(texts):
            self.db.add_document(text, name="auction-%d" % index)
        self.db.flush()  # the only fsync: units never commit
        self.server = Server(self.db, workers=2).start()
        self.expected = None
        self.query_counters = _QueryCounters()

    def prepare_oracle(self):
        engine = PathQueryEngine(self.db, strategy="stack-tree")
        self.expected = {path: len(engine.evaluate(path))
                         for path in self.paths}
        engine.context.close()

    def unit(self):
        ok = True
        for path in self.paths:
            result = self.server.query(path)
            self.query_counters.note(result)
            ok = ok and len(result) == self.expected[path]
        return ok

    def stored(self):
        return os.path.getsize(self.path), self.db.element_count()

    def counters(self):
        stats = self.server.stats
        counters = self.query_counters.as_counters()
        counters.update({
            "server.session_refreshes": stats.session_refreshes,
            "server.rejected": stats.rejected,
            "server.queue_high_water": stats.peak_queue,
            "disk.commits": self.disk.durability_stats.commits})
        return counters

    def teardown(self):
        if self.server is not None:
            self.server.stop()
        if self.db is not None:
            self.db.close()


class ClusterRw(Workload):
    name = "cluster_rw"
    why = ("acked write + replication tick + bounded-staleness read: "
           "XR-tree insert/delete and the commit path do the work, so a "
           "read-side gain bought with write-side cost shows here")
    page_size = 1024
    buffer_pages = 128
    cycle = 20
    document_elements = 450
    # One step on purpose.  A multi-step path makes the engine build a
    # throwaway XR-tree in the serving pool; a standby's read database
    # sits directly on its data file, so those scratch pages reach the
    # file and collide with pages later commits allocate.  With
    # "//item/name" the oracle caught standbys answering from a corrupted
    # file (see README, "Defect found"); until that is fixed in src/ the
    # cluster read must not allocate.
    read_path = "//name"

    @classmethod
    def generate(cls, seed, smoke=False):
        documents = generate_documents(
            AUCTION_DTD, AUCTION_CONFIG, seed, cls.cycle,
            30 if smoke else cls.document_elements)
        return ([serialize_document(document) for document in documents],
                [sum(1 for node in document if node.tag == "name")
                 for document in documents])

    def setup(self, inputs, workdir):
        self.rs = None
        self.client = None
        self.db = None
        self.texts, self.names_per_text = inputs
        self.path = os.path.join(workdir, "primary.db")
        self.archive_dir = os.path.join(workdir, "primary.archive")
        self.disk = FileDisk(self.path, self.page_size,
                             durability="archive",
                             archive_dir=self.archive_dir)
        self.db = XmlDatabase.create(disk=self.disk,
                                     page_size=self.page_size,
                                     buffer_pages=self.buffer_pages)
        #: doc id -> index into ``texts`` for every live document.
        self.live = {}
        for index, text in enumerate(self.texts):
            doc_id = self.db.add_document(text, name="doc-%d" % index)
            self.live[doc_id] = index
        self.db.flush()
        backup = os.path.join(workdir, "backup")
        self.db.hot_backup(backup)
        self.replicas = [
            StandbyReplica.from_backup(
                backup, os.path.join(workdir, "standby-%d.db" % index),
                LocalDirShipper(self.archive_dir, self.page_size),
                page_size=self.page_size, buffer_pages=self.buffer_pages)
            for index in range(2)]
        # Ticked by hand, never start(interval): a timer thread inside a
        # timed section is what made the previous benchmark noisy.
        self.rs = ReplicaSet(self.db, self.replicas, workers=1,
                             staleness_bound=0)
        self.client = ClusterClient(self.rs, staleness_bound=0,
                                    hedge_after=None)
        self.rs.tick()
        self.units_run = 0
        self.user_bytes = 0
        self.standby_reads = 0
        self.max_lag = 0
        self.query_counters = _QueryCounters()

    def warmup(self):
        """One full document cycle, so every set-up document has been
        replaced once before timing starts."""
        for _ in range(self.cycle):
            self.unit()

    def _mutate(self, db):
        index = self.units_run % self.cycle
        oldest = min(self.live)
        doc_id = db.add_document(
            self.texts[index], name="doc-%d" % (self.cycle + self.units_run))
        db.remove_document(oldest)
        del self.live[oldest]
        self.live[doc_id] = index

    def unit(self):
        self.client.write(self._mutate)
        self.user_bytes += len(self.texts[self.units_run % self.cycle])
        self.units_run += 1
        status = self.rs.tick()
        self.max_lag = max([self.max_lag] + [backend["lag"] for backend
                                             in status["backends"]])
        result = self.client.query(self.read_path, staleness_bound=0)
        self.query_counters.note(result.rows)
        if result.role == "standby":
            self.standby_reads += 1
        expected = sum(self.names_per_text[index]
                       for index in self.live.values())
        return len(result) == expected and result.staleness == 0

    def stored(self):
        return os.path.getsize(self.path), self.db.element_count()

    def counters(self):
        durability = self.disk.durability_stats
        stats = self.rs.view.primary.server.stats
        counters = self.query_counters.as_counters()
        counters.update({
            "disk.commits": durability.commits,
            "disk.page_writes": durability.physical_page_writes,
            "disk.segment_bytes": sum(
                entry.stat().st_size
                for entry in os.scandir(self.archive_dir)),
            "disk.user_bytes": self.user_bytes,
            "replication.segments": sum(replica.stats.segments_applied
                                        for replica in self.replicas),
            "replication.max_lag": self.max_lag,
            "cluster.reads": self.units_run,
            "cluster.standby_reads": self.standby_reads,
            "server.session_refreshes": stats.session_refreshes,
            "server.rejected": stats.rejected,
            "server.queue_high_water": stats.peak_queue})
        return counters

    def teardown(self):
        if self.client is not None:
            self.client.close()
        if self.rs is not None:
            self.rs.close()
        elif self.db is not None:
            self.db.close()


WORKLOADS = {cls.name: cls for cls in (JoinDense, JoinSparse, QueryServe,
                                       ClusterRw)}
