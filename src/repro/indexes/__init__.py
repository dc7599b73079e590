"""Disk-based index structures: the classic B+-tree, the paper's XR-tree,
and the R-tree baseline the paper's related work references."""

from repro.indexes.bptree import BPlusTree
from repro.indexes.rtree import RTree, rtree_sync_join
from repro.indexes.xrtree import XRTree

__all__ = ["BPlusTree", "RTree", "XRTree", "rtree_sync_join"]
