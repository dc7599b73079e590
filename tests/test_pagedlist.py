"""Tests for paged element lists and cursors (repro.storage.pagedlist)."""

import pytest

from repro.storage.pagedlist import ElementListPage, PagedElementList
from tests.conftest import entry


def sample_entries(n, stride=10):
    return [entry(i * stride + 1, i * stride + 5) for i in range(n)]


class TestBuild:
    def test_empty_list(self, pool):
        lst = PagedElementList.build(pool, [])
        assert len(lst) == 0
        assert list(lst) == []
        assert lst.page_count == 0

    def test_single_page(self, pool):
        entries = sample_entries(3)
        lst = PagedElementList.build(pool, entries)
        assert list(lst) == entries
        assert lst.page_count == 1

    def test_multi_page_chain(self, pool):
        capacity = ElementListPage.capacity(pool.page_size)
        entries = sample_entries(capacity * 3 + 2)
        lst = PagedElementList.build(pool, entries)
        assert list(lst) == entries
        assert lst.page_count == 4

    def test_fill_factor_spreads_pages(self, pool):
        capacity = ElementListPage.capacity(pool.page_size)
        entries = sample_entries(capacity * 2)
        full = PagedElementList.build(pool, entries, fill_factor=1.0)
        half = PagedElementList.build(pool, entries, fill_factor=0.5)
        assert half.page_count > full.page_count
        assert list(half) == entries

    def test_bad_fill_factor(self, pool):
        with pytest.raises(ValueError):
            PagedElementList.build(pool, [], fill_factor=0.0)

    def test_pages_iterator_matches_page_count(self, pool):
        capacity = ElementListPage.capacity(pool.page_size)
        lst = PagedElementList.build(pool, sample_entries(capacity + 1))
        assert len(list(lst.pages())) == lst.page_count

    def test_no_pins_left_after_build_and_iterate(self, pool):
        lst = PagedElementList.build(pool, sample_entries(100))
        list(lst)
        assert pool.pinned_count == 0


class TestCursor:
    def test_forward_iteration(self, pool):
        entries = sample_entries(25)
        cursor = PagedElementList.build(pool, entries).first()
        assert list(cursor) == entries

    def test_empty_cursor(self, pool):
        cursor = PagedElementList.build(pool, []).first()
        assert next(iter(cursor), None) is None

    def test_cursor_charges_page_reads(self, pool):
        capacity = ElementListPage.capacity(pool.page_size)
        lst = PagedElementList.build(pool, sample_entries(capacity * 3))
        pool.flush_all()
        pool.clear()
        pool.reset_stats()
        for _ in lst.first():
            pass
        assert pool.stats.misses == 3


class TestPageCodec:
    def test_roundtrip_through_bytes(self, pool):
        entries = sample_entries(4)
        page = ElementListPage(entries, next_id=77)
        data = page.encode(pool.page_size)
        from repro.storage.pages import Page

        decoded = Page.decode(data, pool.page_size)
        assert decoded.records == entries
        assert decoded.next_id == 77

    def test_capacity_positive_for_default_page(self):
        assert ElementListPage.capacity(4096) > 100
