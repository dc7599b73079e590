"""Property-based join tests: every algorithm equals the nested-loop oracle
on arbitrary valid region sets, and XR-stack's work equals Algorithm 6's
as published."""

from bisect import bisect_left, bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import StorageContext, build_element_list, build_xr_tree
from repro.joins import (
    MemoryElementList,
    bplus_join,
    mpmgjn_join,
    nested_loop_join,
    stack_tree_join,
    xr_stack_join,
)
from repro.joins.base import sort_pairs
from tests.test_joins import run
from tests.test_xrtree_property import tree_shape_to_entries

shapes = st.lists(st.integers(min_value=0, max_value=3),
                  min_size=1, max_size=80)


def memory_runs(ancestors, descendants, **options):
    """XR-stack and Stack-Tree with the in-memory input as the ancestor
    side, against an in-memory and a page-backed descendant side."""
    pool = StorageContext(page_size=512, buffer_pages=64).pool
    for join, build in ((xr_stack_join, build_xr_tree),
                        (stack_tree_join, build_element_list)):
        for d_input in (MemoryElementList(descendants),
                        build(descendants, pool)):
            yield join(MemoryElementList(ancestors), d_input, **options)


def published_xr_stack(ancestors, descendants, parent_child=False,
                       merge=False):
    """Algorithm 6 over start-sorted lists, FindAncestors bounded by the
    stack top and answered by brute force: ``(pairs, elements_scanned,
    ancestor_skips, descendant_skips)``.  A step scans one element and
    FindAncestors charges one per ancestor it returns.  With overlapping
    inputs, an ancestor-side element starting where CurD does is CurD's
    own element: it goes onto the stack with no probe and no skip.

    With ``merge`` the ancestor side is not an XR-tree: instead of
    FindAncestors, the step passes every ancestor starting before CurD,
    one unit each, and keeps those enclosing CurD."""
    a_starts = [a.start for a in ancestors]
    d_starts = [d.start for d in descendants]
    pairs, stack = [], []
    scanned = a_skips = d_skips = i = j = 0
    while j < len(descendants) and (i < len(ancestors) or stack):
        d = descendants[j]
        while stack and stack[-1].end < d.start:
            stack.pop()
        scanned += 1
        if i < len(ancestors) and ancestors[i].start == d.start:
            stack.append(ancestors[i])
            i += 1
        elif i < len(ancestors) and ancestors[i].start < d.start:
            passed = bisect_left(a_starts, d.start)
            if merge:
                found = [a for a in ancestors[i:passed] if d.start < a.end]
                scanned += passed - i
            else:
                top = stack[-1].start if stack else float("-inf")
                found = [a for a in ancestors
                         if top < a.start < d.start < a.end]
                scanned += len(found)
                a_skips += 1
            stack += found
            i = passed
            if i < len(ancestors) and ancestors[i].start == d.start:
                stack.append(ancestors[i])
                i += 1
        elif not stack:
            if i == len(ancestors):
                break
            d_skips += 1
            j = bisect_right(d_starts, ancestors[i].start)
            continue
        pairs += [(a, d) for a in stack if a.start < d.start and (
            not parent_child or a.level == d.level - 1)]
        j += 1
    return pairs, scanned, a_skips, d_skips


def assert_xr_stack_work_is_published(ancestors, descendants, **options):
    pairs, stats = run(xr_stack_join, ancestors, descendants, **options)
    want, scanned, a_skips, d_skips = published_xr_stack(
        ancestors, descendants, **options)
    assert sort_pairs(pairs) == sort_pairs(want)
    assert (stats.elements_scanned, stats.ancestor_skips,
            stats.descendant_skips) == (scanned, a_skips, d_skips)


def split_sets(entries, selector_bits):
    """Partition one element list into (possibly overlapping) A and D."""
    ancestors, descendants = [], []
    for index, element in enumerate(entries):
        bit = selector_bits[index % len(selector_bits)]
        if bit in (0, 2):
            ancestors.append(element)
        if bit in (1, 2):
            descendants.append(element)
    return ancestors, descendants


@given(shapes, st.lists(st.integers(min_value=0, max_value=2),
                        min_size=1, max_size=7))
@settings(max_examples=40, deadline=None)
def test_all_algorithms_match_oracle(shape, bits):
    entries = tree_shape_to_entries(shape)
    ancestors, descendants = split_sets(entries, bits)
    expected = nested_loop_join(ancestors, descendants)
    for algorithm in (stack_tree_join, mpmgjn_join, bplus_join,
                      xr_stack_join):
        pairs, stats = run(algorithm, ancestors, descendants)
        assert sort_pairs(pairs) == expected
        assert stats.pairs == len(expected)
    for pairs, stats in memory_runs(ancestors, descendants):
        assert sort_pairs(pairs) == expected
        assert stats.pairs == len(expected)
    assert_xr_stack_work_is_published(ancestors, descendants)


@given(shapes, st.lists(st.integers(min_value=0, max_value=2),
                        min_size=1, max_size=7))
@settings(max_examples=30, deadline=None)
def test_parent_child_matches_oracle(shape, bits):
    entries = tree_shape_to_entries(shape)
    ancestors, descendants = split_sets(entries, bits)
    expected = nested_loop_join(ancestors, descendants, parent_child=True)
    for algorithm in (stack_tree_join, bplus_join, xr_stack_join):
        pairs, _ = run(algorithm, ancestors, descendants, parent_child=True)
        assert sort_pairs(pairs) == expected
    for pairs, _ in memory_runs(ancestors, descendants, parent_child=True):
        assert sort_pairs(pairs) == expected
    assert_xr_stack_work_is_published(ancestors, descendants,
                                      parent_child=True)


def counting_probes(tree):
    """Wrap ``tree.find_ancestors`` — XR-stack's probe — on the instance
    to record every call; returns the record."""
    calls, find_ancestors = [], tree.find_ancestors

    def counted(*args, **kwargs):
        calls.append(args[0])
        return find_ancestors(*args, **kwargs)

    tree.find_ancestors = counted
    return calls


@given(shapes)
@settings(max_examples=30, deadline=None)
def test_full_overlap_self_join(shape):
    """Every algorithm joins a set with itself; and since every ancestor
    step then starts on CurD's own element, XR-stack never probes an
    XR-tree ancestor input — the same object on both sides or two — and
    over a memory list it merges with no ancestor skip either."""
    entries = tree_shape_to_entries(shape)
    expected = nested_loop_join(entries, entries)
    for algorithm in (stack_tree_join, mpmgjn_join, bplus_join,
                      xr_stack_join):
        pairs, _ = run(algorithm, entries, entries)
        assert sort_pairs(pairs) == expected
    for pairs, _ in memory_runs(entries, entries):
        assert sort_pairs(pairs) == expected
    assert_xr_stack_work_is_published(entries, entries)
    pool = StorageContext(page_size=512, buffer_pages=64).pool
    tree = build_xr_tree(entries, pool)
    for dtree in (tree, build_xr_tree(entries, pool)):
        calls = counting_probes(tree)
        try:
            pairs, stats = xr_stack_join(tree, dtree)
        finally:
            del tree.find_ancestors
        assert sort_pairs(pairs) == expected
        assert calls == [] and stats.ancestor_skips == 0
    memory = MemoryElementList(entries)
    for dtree in (memory, MemoryElementList(entries)):
        pairs, stats = xr_stack_join(memory, dtree)
        assert sort_pairs(pairs) == expected
        assert stats.ancestor_skips == 0


@given(shapes, st.lists(st.integers(min_value=0, max_value=2),
                        min_size=1, max_size=7), st.booleans())
@settings(max_examples=40, deadline=None)
def test_xr_stack_merges_a_memory_ancestor_list(shape, bits, parent_child):
    """Over a memory list on the ancestor side XR-stack merges: the
    nested-loop pairs, no ancestor skip, the merge's charges, and the
    descendant-side leaps XR-stack makes over an XR-tree of the same set
    — against a memory list or an XR-tree on the descendant side."""
    entries = tree_shape_to_entries(shape)
    ancestors, descendants = split_sets(entries, bits)
    expected = nested_loop_join(ancestors, descendants,
                                parent_child=parent_child)
    _pairs, scanned, _a_skips, d_skips = published_xr_stack(
        ancestors, descendants, parent_child, merge=True)
    pool = StorageContext(page_size=512, buffer_pages=64).pool
    atree = build_xr_tree(ancestors, pool)
    for d_input in (MemoryElementList(descendants),
                    build_xr_tree(descendants, pool)):
        pairs, stats = xr_stack_join(MemoryElementList(ancestors), d_input,
                                     parent_child=parent_child)
        _, probed = xr_stack_join(atree, d_input, collect=False,
                                  parent_child=parent_child)
        assert sort_pairs(pairs) == expected
        assert (stats.elements_scanned, stats.ancestor_skips,
                stats.descendant_skips) == (scanned, 0, d_skips)
        assert stats.descendant_skips == probed.descendant_skips
        assert stats.stab_pages == 0


@given(shapes, st.lists(st.integers(min_value=0, max_value=2),
                        min_size=1, max_size=5))
@settings(max_examples=25, deadline=None)
def test_pair_counts_agree_across_algorithms(shape, bits):
    entries = tree_shape_to_entries(shape)
    ancestors, descendants = split_sets(entries, bits)
    counts = set()
    for algorithm in (stack_tree_join, mpmgjn_join, bplus_join,
                      xr_stack_join):
        _, stats = run(algorithm, ancestors, descendants, collect=False)
        counts.add(stats.pairs)
    assert len(counts) == 1
