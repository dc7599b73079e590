"""Structural invariant checker for XR-trees.

Used heavily by the test suite (including property-based tests driving random
insert/delete interleavings): after any sequence of updates,
:func:`check_xrtree` verifies every clause of Definition 4 plus the derived
invariants the algorithms rely on:

* B+-tree shape: sorted unique keys, correct separator bounds, uniform leaf
  depth, intact left-to-right leaf chain, child-pointer arity;
* stab placement: every leaf element stabbed by at least one internal key is
  flagged and appears in the stab list of exactly the *top-most* stabbing
  node; unstabbed elements are unflagged and appear in no stab list;
* stab-list form: each chain is start-sorted, every record is stabbed by a
  key of its owner, ``sl_count`` is exact, each key's ``(ps, pe)`` equals the
  region of its PSL head (or nil), and the ps directory mirrors the chain.
"""

from repro.indexes.xrtree.pages import NIL, XRInternalPage, XRLeafPage
from repro.storage.errors import StorageError

_NEG_INF = -(2 ** 31)


class XRTreeInvariantError(StorageError):
    """An XR-tree invariant does not hold."""


def check_xrtree(tree, check_fill=False):
    """Validate ``tree``; raises :class:`XRTreeInvariantError` on failure.

    ``check_fill`` additionally enforces the d..2d occupancy bounds (off by
    default because bulk loads may legitimately produce a part-full tail).
    """
    if not tree.root_id:
        if tree.size:
            raise XRTreeInvariantError("empty tree with non-zero size")
        return True
    snapshot = _Snapshot(tree)
    snapshot.collect(tree.root_id, _NEG_INF, None, 1)
    snapshot.verify_leaf_chain()
    snapshot.verify_size()
    if check_fill:
        snapshot.verify_fill()
    snapshot.verify_stab_lists()
    snapshot.verify_stab_placement()
    return True


class _Snapshot:
    """In-memory copy of the tree used for cross-node checks."""

    def __init__(self, tree):
        self.tree = tree
        self.pool = tree.pool
        self.nodes = {}   # page_id -> dict(keys, children, ps, pe, sl fields)
        self.leaves = []  # (page_id, records, next_id) in key order
        self.parents = {}  # page_id -> parent page_id

    def collect(self, page_id, low, high, depth):
        with self.pool.pinned(page_id) as page:
            if isinstance(page, XRLeafPage):
                if not _strictly_ascending(page.records):
                    raise XRTreeInvariantError("leaf keys unsorted/duplicated")
                for record in page.records:
                    if not (low <= record.start
                            and (high is None or record.start < high)):
                        raise XRTreeInvariantError(
                            "leaf key %d outside (%s, %s)"
                            % (record.start, low, high)
                        )
                    if record.start >= record.end:
                        raise XRTreeInvariantError(
                            "degenerate region (%d, %d)"
                            % (record.start, record.end)
                        )
                if depth != self.tree.height:
                    raise XRTreeInvariantError(
                        "leaf depth %d != height %d" % (depth, self.tree.height)
                    )
                self.leaves.append((page_id, list(page.records), page.next_id))
                return
            if not isinstance(page, XRInternalPage):
                raise XRTreeInvariantError("unexpected page type %r" % page)
            keys = list(page.keys)
            if keys != sorted(set(keys)):
                raise XRTreeInvariantError("internal keys unsorted/duplicated")
            if len(page.children) != len(keys) + 1:
                raise XRTreeInvariantError("child count != keys + 1")
            if len(page.ps) != len(keys) or len(page.pe) != len(keys):
                raise XRTreeInvariantError("(ps, pe) arity mismatch")
            for key in keys:
                if not (low <= key and (high is None or key < high)):
                    raise XRTreeInvariantError(
                        "internal key %d outside (%s, %s)" % (key, low, high)
                    )
            self.nodes[page_id] = {
                "keys": keys,
                "children": list(page.children),
                "ps": list(page.ps),
                "pe": list(page.pe),
                "sl_head": page.sl_head,
                "sl_dir": page.sl_dir,
                "sl_count": page.sl_count,
            }
            children = list(page.children)
        bounds = [low] + keys + [high]
        for child, (lo, hi) in zip(children, zip(bounds, bounds[1:])):
            self.parents[child] = page_id
            self.collect(child, lo, hi, depth + 1)

    # -- whole-tree checks ----------------------------------------------------

    def verify_leaf_chain(self):
        for (_, _, next_id), (right_id, _, _) in zip(self.leaves,
                                                     self.leaves[1:]):
            if next_id != right_id:
                raise XRTreeInvariantError("broken leaf chain")
        if self.leaves and self.leaves[-1][2] != 0:
            raise XRTreeInvariantError("last leaf has a dangling next link")

    def verify_size(self):
        total = sum(len(records) for _, records, _ in self.leaves)
        if total != self.tree.size:
            raise XRTreeInvariantError(
                "size %d != %d leaf entries" % (self.tree.size, total)
            )

    def verify_fill(self):
        min_leaf = self.tree._min_leaf()
        min_internal = self.tree._min_internal()
        for page_id, records, _ in self.leaves:
            if page_id != self.tree.root_id and len(records) < min_leaf:
                raise XRTreeInvariantError("underfull leaf %d" % page_id)
            if len(records) > self.tree.leaf_capacity:
                raise XRTreeInvariantError("overfull leaf %d" % page_id)
        for page_id, node in self.nodes.items():
            if page_id != self.tree.root_id and len(node["keys"]) < min_internal:
                raise XRTreeInvariantError("underfull internal %d" % page_id)
            if len(node["keys"]) > self.tree.internal_capacity:
                raise XRTreeInvariantError("overfull internal %d" % page_id)

    # -- stab checks ---------------------------------------------------------------

    def _read_chain(self, node):
        """Return (records, page_firsts) of a node's stab chain, validating
        the directory against the physical chain."""
        records = []
        page_firsts = []
        page_id = node["sl_head"]
        while page_id:
            with self.pool.pinned(page_id) as page:
                if not page.records:
                    raise XRTreeInvariantError("empty stab page %d" % page_id)
                page_firsts.append((page.records[0].start, page_id))
                records.extend(page.records)
                page_id = page.next_id
        if node["sl_dir"]:
            if len(page_firsts) <= 1:
                raise XRTreeInvariantError(
                    "directory page on a %d-page chain" % len(page_firsts)
                )
            with self.pool.pinned(node["sl_dir"]) as dir_page:
                entries = list(dir_page.entries)
            if [pid for _, pid in entries] != [pid for _, pid in page_firsts]:
                raise XRTreeInvariantError("directory page order mismatch")
            for (dir_first, _), (real_first, _) in zip(entries, page_firsts):
                if dir_first != _NEG_INF and dir_first != real_first:
                    raise XRTreeInvariantError(
                        "directory first %d != chain first %d"
                        % (dir_first, real_first)
                    )
        elif len(page_firsts) > 1:
            raise XRTreeInvariantError("multi-page chain without a directory")
        return records

    def verify_stab_lists(self):
        self.stab_records = {}
        for page_id, node in self.nodes.items():
            records = self._read_chain(node)
            if not _strictly_ascending(records):
                raise XRTreeInvariantError("stab chain unsorted/duplicated")
            if len(records) != node["sl_count"]:
                raise XRTreeInvariantError(
                    "sl_count %d != %d records" % (node["sl_count"], len(records))
                )
            keys = node["keys"]
            heads = {}
            for record in records:
                j = _primary_index(keys, record.start)
                if j is None or keys[j] > record.end:
                    raise XRTreeInvariantError(
                        "stab record (%d, %d) not stabbed by its node"
                        % (record.start, record.end)
                    )
                heads.setdefault(j, record)
                if not record.in_stab_list:
                    raise XRTreeInvariantError(
                        "stab record %d carries an off flag" % record.start
                    )
            for j in range(len(keys)):
                head = heads.get(j)
                if head is None:
                    if node["ps"][j] != NIL or node["pe"][j] != NIL:
                        raise XRTreeInvariantError(
                            "key %d has (ps, pe) but an empty PSL" % keys[j]
                        )
                elif (node["ps"][j], node["pe"][j]) != (head.start, head.end):
                    raise XRTreeInvariantError(
                        "key %d (ps, pe) = (%d, %d) but PSL head is (%d, %d)"
                        % (keys[j], node["ps"][j], node["pe"][j],
                           head.start, head.end)
                    )
            self.stab_records[page_id] = records

    def verify_stab_placement(self):
        """Every element is in the stab list of exactly its top-most stabbing
        node, with a matching leaf flag."""
        placements = {}
        for page_id, records in self.stab_records.items():
            for record in records:
                if record.start in placements:
                    raise XRTreeInvariantError(
                        "element %d in two stab lists" % record.start
                    )
                placements[record.start] = page_id
        for _, records, _ in self.leaves:
            for record in records:
                expected = self._topmost_stabbing_node(record)
                actual = placements.pop(record.start, None)
                if expected is None:
                    if record.in_stab_list:
                        raise XRTreeInvariantError(
                            "element %d flagged but unstabbed" % record.start
                        )
                    if actual is not None:
                        raise XRTreeInvariantError(
                            "unstabbed element %d in a stab list" % record.start
                        )
                else:
                    if not record.in_stab_list:
                        raise XRTreeInvariantError(
                            "stabbed element %d not flagged" % record.start
                        )
                    if actual != expected:
                        raise XRTreeInvariantError(
                            "element %d in node %r, expected top-most %r"
                            % (record.start, actual, expected)
                        )
        if placements:
            raise XRTreeInvariantError(
                "stab lists hold unknown elements: %r" % sorted(placements)
            )

    def _topmost_stabbing_node(self, record):
        """Walk the descent path of ``record.start`` from the root and return
        the first node with a stabbing key, or None."""
        page_id = self.tree.root_id
        while page_id in self.nodes:
            node = self.nodes[page_id]
            keys = node["keys"]
            j = _primary_index(keys, record.start)
            if j is not None and keys[j] <= record.end:
                return page_id
            from bisect import bisect_right

            page_id = node["children"][bisect_right(keys, record.start)]
        return None


def _primary_index(keys, start):
    from bisect import bisect_left

    index = bisect_left(keys, start)
    return index if index < len(keys) else None


def _strictly_ascending(records):
    return all(left.start < right.start
               for left, right in zip(records, records[1:]))
