"""A persistent XML index database: build, close, reopen, query.

Shows the storage-engine face of the library: a file-backed storage
context, a catalog page recording every structure's metadata, and XR-tree /
B+-tree indexes that survive process restarts byte-for-byte.  The XR-tree
is reopened through an :class:`~repro.storage.indexmanager.IndexManager`,
so repeated access reuses one live handle instead of re-deserializing it
from the catalog.

Run:  python examples/persistent_database.py
"""

import os
import tempfile

from repro.core import StorageContext
from repro.indexes.bptree import BPlusTree
from repro.indexes.xrtree import XRTree, check_xrtree
from repro.storage.catalog import Catalog
from repro.storage.indexmanager import IndexManager
from repro.storage.pagedlist import PagedElementList
from repro.workloads import department_dataset


def build_database(path, data):
    with StorageContext(page_size=2048, buffer_pages=64,
                        path=path) as context:
        catalog = Catalog.create(context.pool)

        employees = XRTree(context.pool)
        employees.bulk_load(data.ancestors)
        catalog.save_xrtree("employees", employees)

        names = BPlusTree(context.pool)
        names.bulk_load(data.descendants)
        catalog.save_bptree("names", names)

        raw = PagedElementList.build(context.pool, data.descendants)
        catalog.save_element_list("names_raw", raw)

        context.pool.flush_all()
        print("built %s: %d pages, %d bytes"
              % (os.path.basename(path),
                 context.disk.allocated_page_count,
                 os.path.getsize(path)))


def reopen_and_query(path, data):
    with StorageContext(page_size=2048, buffer_pages=64,
                        path=path) as context:
        catalog = Catalog.open(context.pool)
        print("catalog:", catalog.names())
        manager = context.attach_index_manager(
            IndexManager(catalog, context.pool))

        employees = manager.get_xrtree("employees")
        check_xrtree(employees)
        print("employees index intact: %d elements, height %d"
              % (employees.size, employees.height))

        probe = data.descendants[len(data.descendants) // 2]
        ancestors = employees.find_ancestors(probe.start)
        print("name at %d has %d employee ancestors: %s"
              % (probe.start, len(ancestors),
                 [a.start for a in ancestors]))

        names = catalog.load_bptree("names")
        found = names.search(probe.start)
        print("B+-tree lookup of that name:", (found.start, found.end))

        # Re-fetching returns the live handle; the catalog is not re-read.
        assert manager.get_xrtree("employees") is employees
        stats = context.index_stats
        print("index handles: %d loads, %d hits (hit rate %.2f)"
              % (stats.loads, stats.hits, stats.hit_rate))

        misses = context.pool.stats.misses
        print("all of the above cost %d page reads from a cold cache"
              % misses)


def main():
    data = department_dataset(3000, seed=41)
    path = os.path.join(tempfile.mkdtemp(prefix="xrdb-"), "corpus.db")
    build_database(path, data)
    reopen_and_query(path, data)


if __name__ == "__main__":
    main()
