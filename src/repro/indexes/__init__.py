"""Disk-based index structures: the B+-tree baseline and the XR-tree."""

from repro.indexes.bptree import BPlusTree
from repro.indexes.xrtree import XRTree

__all__ = ["BPlusTree", "XRTree"]
