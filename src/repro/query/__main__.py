"""Interactive path-query runner.

Usage::

    python -m repro.query "//employee[email]/name" --file doc.xml
    python -m repro.query "//employee//name" --generate 5000
    python -m repro.query "//employee//name" --generate 5000 --profile \
        --trace-out trace.jsonl

Evaluates the path with the XR-stack join pipeline (default) or the
no-index pipeline (``--strategy stack-tree``) and prints matches plus
execution statistics.  ``--profile`` prints the per-operator actuals (EXPLAIN
ANALYZE); ``--trace-out FILE`` records the run with an enabled tracer and
exports the span/event ring as JSONL.
"""

import argparse
import sys

from repro.obs import Observability, QueryProfile, Tracer
from repro.query.engine import PathQueryEngine
from repro.xmldata.dtd import CONFERENCE_DTD, DEPARTMENT_DTD
from repro.xmldata.generator import XmlGenerator
from repro.xmldata.parser import parse_document
from repro.xmldata.stats import document_stats


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m repro.query")
    parser.add_argument("path", help="path expression, e.g. //a//b[c]")
    parser.add_argument("--file", help="XML file to query")
    parser.add_argument("--generate", type=int, metavar="N",
                        help="query a generated Department document of ~N "
                             "elements instead of a file")
    parser.add_argument("--dtd", choices=("department", "conference"),
                        default="department")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--strategy", choices=("xr-stack", "stack-tree"),
                        default="xr-stack")
    parser.add_argument("--explain", action="store_true",
                        help="print the engine's plan before executing")
    parser.add_argument("--profile", action="store_true",
                        help="print per-operator actuals after executing "
                             "(EXPLAIN ANALYZE)")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="record the run with tracing enabled and "
                             "export the trace ring as JSONL to FILE")
    parser.add_argument("--limit", type=int, default=10,
                        help="matches to print (default 10)")
    args = parser.parse_args(argv)

    if bool(args.file) == bool(args.generate):
        parser.error("choose exactly one of --file or --generate")
    if args.file:
        with open(args.file) as handle:
            document = parse_document(handle.read())
    else:
        dtd = DEPARTMENT_DTD if args.dtd == "department" else CONFERENCE_DTD
        document = XmlGenerator(dtd, seed=args.seed).generate(args.generate)
    print(document_stats(document).describe())

    observability = None
    if args.trace_out:
        observability = Observability(tracer=Tracer(enabled=True))
    profile = QueryProfile() if args.profile else None

    engine = PathQueryEngine(document, strategy=args.strategy,
                             observability=observability)
    if args.explain:
        print()
        print(engine.explain(args.path))
    result = engine.evaluate(args.path, profile=profile)
    matches = result.matches
    print("\n%s: %d matches, %d joins, %d elements scanned"
          % (args.path, len(matches), result.joins_run,
             result.stats.elements_scanned))
    for match in matches[: args.limit]:
        print("  region (%d, %d) level %d"
              % (match.start, match.end, match.level))
    if len(matches) > args.limit:
        print("  ... and %d more" % (len(matches) - args.limit))
    if profile is not None:
        print()
        print(profile.render())
    if observability is not None and args.trace_out:
        observability.tracer.export_jsonl(args.trace_out)
        print("\ntrace: %d records -> %s"
              % (len(observability.tracer), args.trace_out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
