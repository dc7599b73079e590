"""Twig pattern matching over a multi-document corpus.

Combines three extensions of the core reproduction: the path engine with
existential predicates (structural semi-joins), evaluation over a corpus of
several documents with disjoint region spaces, and the comparison between
the XR-stack plan and the no-index plan.

Run:  python examples/twig_queries.py [docs] [elements-per-doc]
"""

import sys

from repro.query import PathQueryEngine
from repro.xmldata.corpus import Corpus
from repro.xmldata.dtd import DEPARTMENT_DTD
from repro.xmldata.generator import XmlGenerator
from repro.xmldata.model import Document

QUERIES = (
    "//employee[email]",                 # employees with an email child
    "//employee[employee]/name",         # names of managers
    "//department[employee[employee]]",  # departments with nested employees
    "//employee[email][employee]",       # conjunctive predicate
    "//department//employee[name]//employee",
)


def merged_corpus_document(corpus):
    """View the corpus as one virtual document for the query engine.

    The engine only needs ``entries_for_tag`` and ``tags``; the corpus
    provides both with globally unique starts, so a thin adapter suffices.
    """

    class _CorpusView:
        def entries_for_tag(self, tag):
            return corpus.entries_for_tag(tag)

        def tags(self):
            return corpus.tags()

    return _CorpusView()


def main():
    docs = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    per_doc = int(sys.argv[2]) if len(sys.argv) > 2 else 2500
    corpus = Corpus()
    generator = XmlGenerator(DEPARTMENT_DTD, seed=19)
    for document in generator.generate_corpus(docs, per_doc):
        corpus.add(document)
    print("corpus: %d documents, %d elements total"
          % (len(corpus), corpus.element_count()))

    view = merged_corpus_document(corpus)
    engine = PathQueryEngine(view)
    fallback = PathQueryEngine(view, strategy="stack-tree")

    print("\n%-42s %8s %7s %11s %11s"
          % ("twig", "matches", "joins", "xr scan", "nidx scan"))
    for query in QUERIES:
        fast = engine.evaluate(query)
        slow = fallback.evaluate(query)
        assert fast.starts() == slow.starts(), "plans disagree"
        print("%-42s %8d %7d %11d %11d"
              % (query, len(fast), fast.joins_run,
                 fast.stats.elements_scanned, slow.stats.elements_scanned))

    # Show that matches map back to their source documents.
    sample = engine.evaluate("//employee[employee]/name").matches[:3]
    print("\nfirst matches located back in their documents:")
    for match in sample:
        doc_id, start, end = corpus.locate(match)
        print("  doc %d, local region (%d, %d)" % (doc_id, start, end))


if __name__ == "__main__":
    main()
