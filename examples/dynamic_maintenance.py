"""Dynamic XR-tree maintenance with a file-backed disk.

Demonstrates Section 4: the XR-tree is a *dynamic* index — elements are
inserted and deleted online while stab lists, (ps, pe) fields and ps
directories stay consistent (verified with the structural checker), at an
amortized cost close to a plain B+-tree update.  The index lives in a real
file on disk, showing the whole stack round-trips through bytes.

Run:  python examples/dynamic_maintenance.py
"""

import os
import random
import tempfile

from repro.core import StorageContext
from repro.indexes.xrtree import XRTree, check_xrtree
from repro.workloads import department_dataset


def main():
    rng = random.Random(2003)
    data = department_dataset(4000, seed=17)
    entries = sorted(data.ancestors + data.descendants,
                     key=lambda entry: entry.start)
    rng.shuffle(entries)

    path = os.path.join(tempfile.mkdtemp(prefix="xrtree-"), "index.pages")
    # The context-manager form closes (and flushes) the file-backed disk on
    # exit — no bare close() bookkeeping.
    with StorageContext(page_size=2048, buffer_pages=64, path=path) as context:
        tree = XRTree(context.pool)

        print("inserting %d employee+name elements in random order..."
              % len(entries))
        context.reset_stats()
        for entry in entries:
            tree.insert(entry)
        context.pool.flush_all()
        io = context.disk.stats
        print("height=%d size=%d | %.2f page transfers per insert"
              % (tree.height, tree.size,
                 io.total_transfers / len(entries)))
        check_xrtree(tree)
        print("invariants hold after the insert storm")

        victims = rng.sample([entry.start for entry in entries],
                             len(entries) // 2)
        context.reset_stats()
        for start in victims:
            removed = tree.delete(start)
            assert removed is not None
        context.pool.flush_all()
        io = context.disk.stats
        print("deleted %d elements | %.2f page transfers per delete"
              % (len(victims), io.total_transfers / len(victims)))
        check_xrtree(tree)
        print("invariants hold after interleaved deletions")

        # The index still answers structural queries correctly.
        survivor = next(tree.items())
        print("first surviving element: (%d, %d); it has %d indexed "
              "descendants"
              % (survivor.start, survivor.end,
                 len(tree.find_descendants(survivor.start, survivor.end))))
        print("index file: %s (%d bytes)" % (path, os.path.getsize(path)))


if __name__ == "__main__":
    main()
