"""Shared pieces of the join algorithms: statistics, match predicates, the
output sink and a brute-force oracle used by the tests."""

from dataclasses import dataclass, field


@dataclass
class JoinStats:
    """Counters for one join run.

    ``elements_scanned`` is the paper's headline metric (Section 6.1): the
    total number of element entries examined, including index probes and stab
    list scans.  ``pairs`` counts output tuples.  The object doubles as the
    scan counter handed to index operations (it exposes ``count``).

    ``runtime`` optionally attaches a :class:`~repro.query.runtime.\
    QueryContext`: when one is armed, every join algorithm ticks it once
    per hot-loop iteration at a *pin-free* point, which is where
    deadlines, cancellation and page quotas fire.  ``count`` itself never
    raises — it runs inside index operations while pages are pinned, where
    an exception would leak buffer-pool pins.  A kernel keeps its own scan
    count in a local and adds it here when it returns or raises; the
    runtime never reads it mid-join.

    Skip accounting (the flip side of the headline metric):
    ``ancestor_skips``/``descendant_skips`` count the *skip probes* the
    index-backed joins issue — each one leaps the merge past elements that
    are never scanned (XR-stack's FindAncestors leap and open-ended
    FindDescendants probe, Anc_Des_B+'s containment and range skips).
    ``stab_pages`` counts stab-list pages (directory and chain) read by
    FindAncestors, charged via :meth:`count_stab_page` — the I/O behind
    the ``R`` term of Theorem 4.  Both are incremented at probe sites, not
    per element, so idle cost is zero.
    """

    elements_scanned: int = 0
    pairs: int = 0
    ancestor_skips: int = 0
    descendant_skips: int = 0
    stab_pages: int = 0
    runtime: object = None

    def count(self, n=1):
        self.elements_scanned += n

    def count_stab_page(self, n=1):
        """Charge stab-list page reads (directory or chain pages)."""
        self.stab_pages += n

    def checkpoint(self):
        """Guardrail checkpoint; call only where no page is pinned."""
        if self.runtime is not None:
            self.runtime.tick()

    def merge(self, other):
        self.elements_scanned += other.elements_scanned
        self.pairs += other.pairs
        self.ancestor_skips += other.ancestor_skips
        self.descendant_skips += other.descendant_skips
        self.stab_pages += other.stab_pages


@dataclass
class JoinSink:
    """Collects (or merely counts) output pairs.

    ``parent_child`` restricts output to parent-child pairs by the level
    condition ``a.level == d.level - 1`` (Section 2.2); ``collect=False``
    keeps only the count, which the large benchmark sweeps use.
    """

    stats: JoinStats
    parent_child: bool = False
    collect: bool = True
    pairs: list = field(default_factory=list)

    #: What a :class:`MatchSink` records besides the pairs; None here.
    descendants = None
    ancestor_starts = None

    def emit(self, ancestor, descendant):
        self.emit_stack((ancestor,), descendant)

    def emit_stack(self, stack, descendant):
        """Emit ``descendant`` with every frame of ``stack`` it matches.

        A frame matches when it shares the document, opens before the
        descendant and, for parent-child joins, sits one level above it.
        Overlapping input sets (e.g. the employee//employee self-join) put
        the descendant's own element on the stack as a candidate for
        *later* descendants; it is not its own ancestor.

        Each pair is charged to ``stats.pairs`` and to the runtime's rows.
        A row cap trips at the pair that exceeds it, so a capped runtime
        is charged pair by pair; an uncapped one, which cannot trip, once
        per descendant.  Emit sites hold no pinned pages, so the cap may
        raise here safely.
        """
        doc_id, start = descendant.doc_id, descendant.start
        level = descendant.level - 1 if self.parent_child else None
        stats = self.stats
        runtime = stats.runtime
        capped = runtime is not None and runtime.row_cap is not None
        pairs = self.pairs if self.collect else None
        starts = self.ancestor_starts
        before = stats.pairs
        for ancestor in stack:
            if (ancestor.doc_id != doc_id or ancestor.start >= start
                    or (level is not None and ancestor.level != level)):
                continue
            stats.pairs += 1
            if capped:
                runtime.note_pair()
            if pairs is not None:
                pairs.append((ancestor, descendant))
            if starts is not None:
                starts.add(ancestor.start)
        matched = stats.pairs - before
        if matched:
            if runtime is not None and not capped:
                runtime.note_pair(matched)
            if self.descendants is not None:
                self.descendants.append(descendant)


@dataclass
class MatchSink(JoinSink):
    """Records what a semi-join needs instead of the pairs: the distinct
    matched descendants in document order and, when ``ancestor_starts`` is
    a set, the starts of the matched ancestors.

    Every pair still goes through :meth:`JoinSink.emit_stack` — the same
    match predicate, ``stats.pairs`` and row-cap charge — only nothing is
    kept of it.  The kernels emit each descendant once, with its whole
    stack, in start order, so a descendant is recorded the first time it
    pairs.
    """

    collect: bool = False
    descendants: list = field(default_factory=list)
    ancestor_starts: set = None


def contains(ancestor, descendant):
    """Region containment: ``a.start < d.start`` and ``d.end < a.end``."""
    return (
        ancestor.doc_id == descendant.doc_id
        and ancestor.start < descendant.start
        and descendant.end < ancestor.end
    )


def nested_loop_join(alist, dlist, parent_child=False):
    """O(|A| * |D|) reference join used as the oracle in tests.

    Accepts any iterables of element entries; returns a sorted list of
    ``(a, d)`` pairs.
    """
    pairs = []
    ancestors = list(alist)
    for descendant in dlist:
        for ancestor in ancestors:
            if contains(ancestor, descendant):
                if not parent_child or ancestor.level == descendant.level - 1:
                    pairs.append((ancestor, descendant))
    pairs.sort(key=lambda pair: (pair[1].start, pair[0].start))
    return pairs


def sort_pairs(pairs):
    """Canonical pair order (by descendant start, then ancestor start)."""
    return sorted(pairs, key=lambda pair: (pair[1].start, pair[0].start))
