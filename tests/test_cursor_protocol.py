"""The one read protocol under every join kernel.

Four access methods — paged element list, B+-tree, XR-tree and
``MemoryElementList`` — answer ``first()`` (and, where offered, ``seek(k)`` /
``seek_after(k)``) with something iterable from its position to the end.
Over pages that is always a :class:`~repro.storage.pagedlist.RecordCursor`;
a memory list hands out a plain list iterator.  Nothing polls: a reader
that comes back to a position (MPMGJN's rescans) builds a new cursor at a
saved ``(page_id, slot)``.
"""

import pytest

from repro.core.api import (
    build_bplus_tree,
    build_element_list,
    build_xr_tree,
)
from repro.indexes.bptree import Finger
from repro.joins import MemoryElementList, nested_loop_join, stack_tree_join
from repro.joins.base import sort_pairs
from repro.storage.pagedlist import RecordCursor
from tests.conftest import entry

#: 60 disjoint elements, starts 1, 11, 21, … — several pages of 512 bytes.
ENTRIES = [entry(i * 10 + 1, i * 10 + 5) for i in range(60)]


BUILDERS = {
    "paged-list": build_element_list,
    "b+tree": build_bplus_tree,
    "xr-tree": build_xr_tree,
    "memory": lambda entries, pool: MemoryElementList(list(entries)),
}
#: The paged list is the sequential file: it has no ``seek``.
SEEKABLE = ["b+tree", "xr-tree", "memory"]


def head(cursor):
    """The entry a cursor stands on, or None past the end."""
    return next(iter(cursor), None)


class TestEveryAccessMethod:
    """Every method iterates."""

    @pytest.mark.parametrize("method", BUILDERS)
    def test_first_walks_the_entries_in_order(self, pool, method):
        source = BUILDERS[method](ENTRIES, pool)
        assert list(source.first()) == ENTRIES
        assert pool.pinned_count == 0

    @pytest.mark.parametrize("method", BUILDERS)
    def test_iteration_walks_the_entries_in_order(self, pool, method):
        """A suspended iteration holds no pin."""
        items = iter(BUILDERS[method](ENTRIES, pool).first())
        for expected in ENTRIES:
            assert next(items) == expected
            assert pool.pinned_count == 0
        assert next(items, None) is None

    @pytest.mark.parametrize("method", BUILDERS)
    def test_cursor_class(self, pool, method):
        cursor = BUILDERS[method](ENTRIES, pool).first()
        assert type(cursor) is (type(iter([])) if method == "memory"
                                else RecordCursor)

    @pytest.mark.parametrize("method", BUILDERS)
    def test_empty_source(self, pool, method):
        assert list(BUILDERS[method]([], pool).first()) == []


@pytest.mark.parametrize("method", SEEKABLE)
class TestSeek:
    @pytest.mark.parametrize("key, expected", [
        (-5, 1),        # before everything
        (1, 1),         # on the first key
        (2, 11),        # between keys
        (291, 291),     # on a key in a later page
        (295, 301),
        (591, 591),     # on the last key
    ])
    def test_seek_lands_on_first_start_at_or_after(self, pool, method, key,
                                                   expected):
        assert head(BUILDERS[method](ENTRIES, pool).seek(key)).start \
            == expected
        assert pool.pinned_count == 0

    @pytest.mark.parametrize("key, expected", [
        (-5, 1), (1, 11), (2, 11), (291, 301), (581, 591),
    ])
    def test_seek_after_lands_on_first_start_after(self, pool, method, key,
                                                   expected):
        assert head(BUILDERS[method](ENTRIES, pool).seek_after(key)).start \
            == expected
        assert pool.pinned_count == 0

    def test_seeks_past_the_end(self, pool, method):
        source = BUILDERS[method](ENTRIES, pool)
        for cursor in (source.seek(592), source.seek_after(591),
                       source.seek(10 ** 9)):
            assert list(cursor) == []

    def test_seek_then_scan_reaches_the_tail(self, pool, method):
        cursor = BUILDERS[method](ENTRIES, pool).seek(300)
        assert list(cursor) == ENTRIES[30:]

    def test_a_finger_changes_no_answer(self, pool, method):
        """Every seekable method takes the join's ``finger`` argument."""
        source = BUILDERS[method](ENTRIES, pool)
        finger = Finger()
        for key in (295, 1, 591, 300, 300, -5, 10 ** 9, 2):
            for seek in ("seek", "seek_after"):
                assert list(getattr(source, seek)(key, finger=finger)) == \
                    list(getattr(source, seek)(key))
        assert pool.pinned_count == 0


class TestRecordCursor:
    def test_a_slot_at_a_pages_end_settles_on_the_next_page(self, pool):
        """A slot at a page's end yields the next page's first record
        first — what ``seek`` hands over when the key is past a leaf."""
        lst = build_element_list(ENTRIES, pool)
        first_page, second_page = list(lst.pages())[:2]
        with pool.pinned(first_page) as page:
            count = len(page.records)
        cursor = RecordCursor(pool, first_page, count)
        assert head(cursor) == ENTRIES[count]
        assert cursor.page_id == second_page

    def test_a_cursor_at_a_saved_position_rereads_its_page(self, pool):
        """MPMGJN's rescan: a cursor built at the ``(page_id, slot)`` of
        an entry another cursor yielded requests that page again and
        starts on that entry, and the first cursor reads on unmoved."""
        cursor = build_element_list(ENTRIES, pool).first()
        items = iter(cursor)
        for _ in range(30):
            saved = next(items)
        page_id = cursor.page_id
        with pool.pinned(page_id) as page:
            slot = page.records.index(saved)
        before = pool.stats.requests
        rescan = RecordCursor(pool, page_id, slot)
        assert pool.stats.requests == before + 1
        assert list(rescan) == ENTRIES[29:]
        assert next(items) == ENTRIES[30]

    def test_a_suspended_list_iterator_holds_no_pin(self, pool):
        """Iterating a paged list used to yield inside ``pool.pinned``: a
        half-read iterator kept its page pinned and ``clear()`` failed."""
        lst = build_element_list(ENTRIES, pool)
        items = iter(lst)
        assert next(items) == ENTRIES[0]
        assert pool.pinned_count == 0
        pool.clear()
        assert list(items) == ENTRIES[1:]
        assert pool.pinned_count == 0


class TestStackTreeOverAnyAccessMethod:
    """Stack-Tree-Desc only scans, so any two access methods will do."""

    @pytest.mark.parametrize("a_method, d_method", [
        ("xr-tree", "xr-tree"),
        ("b+tree", "paged-list"),
        ("memory", "paged-list"),
    ])
    def test_pairs_and_scan_count_match_the_paged_lists(
            self, pool, dept_data, a_method, d_method):
        ancestors = dept_data.ancestors[:300]
        descendants = dept_data.descendants[:600]
        expected = nested_loop_join(ancestors, descendants)
        _pairs, reference = stack_tree_join(
            build_element_list(ancestors, pool),
            build_element_list(descendants, pool))
        pairs, stats = stack_tree_join(
            BUILDERS[a_method](ancestors, pool),
            BUILDERS[d_method](descendants, pool))
        assert sort_pairs(pairs) == expected
        assert stats.elements_scanned == reference.elements_scanned
        assert pool.pinned_count == 0
