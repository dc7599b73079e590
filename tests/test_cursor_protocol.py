"""The one read protocol under every join kernel.

Four access methods — paged element list, B+-tree, XR-tree and
``MemoryElementList`` — answer ``first()`` (and, where offered, ``seek(k)`` /
``seek_after(k)``) with something iterable from its position to the end.
Over pages that is always a :class:`~repro.storage.pagedlist.RecordCursor`,
which also polls (``at_end``, ``current``, ``advance()``) for MPMGJN's
rescans; a memory list hands out a plain list iterator.
"""

from operator import attrgetter

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
#: The access methods over pages, whose cursors poll.
PAGED = ["paged-list", "b+tree", "xr-tree"]
#: The paged list is the sequential file: it has no ``seek``.
SEEKABLE = ["b+tree", "xr-tree", "memory"]


def drain(cursor):
    seen = []
    while not cursor.at_end:
        seen.append(cursor.current)
        cursor.advance()
    return seen


def head(cursor):
    """The entry a cursor stands on, or None past the end."""
    return next(iter(cursor), None)


class TestEveryAccessMethod:
    """Every method iterates; the cursors over pages also poll."""

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

    @pytest.mark.parametrize("method", PAGED)
    def test_polling_walks_the_entries_in_order(self, pool, method):
        source = BUILDERS[method](ENTRIES, pool)
        assert drain(source.first()) == ENTRIES
        assert pool.pinned_count == 0

    @pytest.mark.parametrize("method", PAGED)
    def test_empty_source_polls_at_end(self, pool, method):
        cursor = BUILDERS[method]([], pool).first()
        assert cursor.at_end
        with pytest.raises(IndexError):
            cursor.current

    @pytest.mark.parametrize("method", PAGED)
    def test_advance_returns_false_at_the_end(self, pool, method):
        cursor = BUILDERS[method](ENTRIES[:2], pool).first()
        assert cursor.advance() is True
        assert cursor.advance() is False
        assert cursor.at_end
        assert cursor.advance() is False

    @pytest.mark.parametrize("method", PAGED)
    def test_current_past_the_end_is_index_error(self, pool, method):
        cursor = BUILDERS[method](ENTRIES[:1], pool).first()
        cursor.advance()
        with pytest.raises(IndexError):
            cursor.current

    @pytest.mark.parametrize("method", PAGED)
    def test_exhausted_read_is_not_silently_truncated(self, pool, method):
        """``StopIteration`` from ``current`` was control flow to ``map``
        and ``list``: reading an exhausted cursor returned ``[]``."""
        cursor = BUILDERS[method](ENTRIES[:1], pool).first()
        cursor.advance()
        with pytest.raises(IndexError):
            list(map(attrgetter("current"), [cursor]))

        def reads():
            yield cursor.current

        with pytest.raises(IndexError):
            next(reads())


@pytest.mark.parametrize("method", ["b+tree", "xr-tree"])
def test_tree_seeks_poll(pool, method):
    source = BUILDERS[method](ENTRIES, pool)
    for cursor in (source.seek(592), source.seek_after(591)):
        assert cursor.at_end
        with pytest.raises(IndexError):
            cursor.current
    assert drain(source.seek(300)) == ENTRIES[30:]
    assert pool.pinned_count == 0


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


def test_memory_find_ancestors_accepts_and_ignores_a_finger():
    source = MemoryElementList(
        [entry(1, 100), entry(2, 50), entry(3, 10), entry(60, 90)])
    finger = Finger()
    for point in (5, 70, 4, 95, 5):
        for after in (None, 1, 2):
            assert source.find_ancestors(point, after_start=after,
                                         finger=finger) \
                == source.find_ancestors(point, after_start=after)
    assert finger.path == []


class TestRecordCursor:
    def test_a_slot_at_a_pages_end_settles_on_the_next_page(self, pool):
        """A slot at a page's end settles on the next page's first
        record — what ``seek`` hands over when the key is past a leaf."""
        lst = build_element_list(ENTRIES, pool)
        first_page, second_page = list(lst.pages())[:2]
        with pool.pinned(first_page) as page:
            count = len(page.records)
        cursor = RecordCursor(pool, first_page, count)
        assert cursor.page_id == second_page
        assert cursor.current == ENTRIES[count]

    def test_clone_rereads_its_page(self, pool):
        cursor = build_element_list(ENTRIES, pool).first()
        before = pool.stats.requests
        copy = cursor.clone()
        assert pool.stats.requests == before + 1
        assert copy.current is cursor.current
        copy.advance()
        assert cursor.current == ENTRIES[0]

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

    def test_clone_of_an_exhausted_cursor_reads_nothing(self, pool):
        cursor = build_element_list(ENTRIES[:1], pool).first()
        cursor.advance()
        before = pool.stats.requests
        assert cursor.clone().at_end
        assert pool.stats.requests == before


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
