"""Public API: storage contexts, the XR-tree index facade, one-call
structural joins, databases and their query sessions."""

from repro.core.api import (
    ALGORITHMS,
    JoinOutcome,
    StorageContext,
    XRTreeIndex,
    build_bplus_tree,
    build_element_list,
    build_xr_tree,
    structural_join,
)
from repro.core.database import XmlDatabase
from repro.core.session import Session, SessionError

__all__ = [
    "ALGORITHMS",
    "JoinOutcome",
    "Session",
    "SessionError",
    "StorageContext",
    "XRTreeIndex",
    "XmlDatabase",
    "build_bplus_tree",
    "build_element_list",
    "build_xr_tree",
    "structural_join",
]
