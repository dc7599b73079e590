"""repro — a full reproduction of "XR-Tree: Indexing XML Data for Efficient
Structural Joins" (Jiang, Lu, Wang, Ooi — ICDE 2003).

The package provides, from scratch:

* a paged external-memory substrate with a buffer pool and I/O accounting
  (:mod:`repro.storage`);
* an XML data model with region numbering, a minimal parser, DTDs and a
  synthetic generator (:mod:`repro.xmldata`);
* a dynamic disk-based B+-tree and the paper's XR-tree with stab lists and
  ps directories (:mod:`repro.indexes`);
* four structural join algorithms — Stack-Tree-Desc, MPMGJN, Anc_Des_B+ and
  XR-stack (:mod:`repro.joins`);
* the experiment workload derivations and a benchmark harness regenerating
  every table and figure of the paper's Section 6 (:mod:`repro.workloads`,
  :mod:`repro.bench`);
* a path-expression evaluator composing structural joins — the paper's
  stated future work (:mod:`repro.query`).
"""

from repro.core import (
    ALGORITHMS,
    JoinOutcome,
    Session,
    StorageContext,
    XmlDatabase,
    XRTreeIndex,
    structural_join,
)
from repro.query import CancellationToken, QueryContext, QueryRejected
from repro.storage.pages import ElementEntry

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "CancellationToken",
    "ElementEntry",
    "JoinOutcome",
    "QueryContext",
    "QueryRejected",
    "Session",
    "StorageContext",
    "XmlDatabase",
    "XRTreeIndex",
    "structural_join",
    "__version__",
]
