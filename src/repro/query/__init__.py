"""Path-expression evaluation over XR-tree indexed documents.

This is the paper's stated future work (Section 7): "query evaluation
strategies for complex XML queries (i.e. a combination of multiple structural
joins) over XML data on which proper XR-tree indexes have been built."

A path like ``//department//employee/name`` is parsed into steps
(:mod:`repro.query.path`) and evaluated as a pipeline of structural joins
(:mod:`repro.query.engine`), with XR-tree indexes built per element set and
reused across queries.
"""

from repro.query.engine import PathQueryEngine, QueryError, QueryResult
from repro.query.runtime import (
    CancellationToken,
    DeadlineExceeded,
    PageQuotaExceeded,
    QueryCancelled,
    QueryContext,
    QueryRejected,
    QueryRuntimeError,
    RowCapExceeded,
)
from repro.query.path import (
    AttributePredicate,
    Axis,
    PathExpression,
    PathStep,
    parse_path,
)
from repro.query.estimate import JoinEstimate, estimate_join

__all__ = [
    "CancellationToken",
    "DeadlineExceeded",
    "PageQuotaExceeded",
    "QueryCancelled",
    "QueryContext",
    "QueryError",
    "QueryRejected",
    "QueryRuntimeError",
    "RowCapExceeded",
    "JoinEstimate",
    "estimate_join",
    "AttributePredicate",
    "Axis",
    "PathExpression",
    "PathQueryEngine",
    "PathStep",
    "QueryResult",
    "parse_path",
]
