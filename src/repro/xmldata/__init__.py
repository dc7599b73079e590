"""XML data substrate: ordered-tree documents with region numbering, a
minimal from-scratch parser, DTD models and the synthetic data generator
used by the paper's experiments (our stand-in for the IBM AlphaWorks XML
generator).
"""

from repro.xmldata.dtd import (
    CONFERENCE_DTD,
    DEPARTMENT_DTD,
    Cardinality,
    ChildSpec,
    Dtd,
    ElementDecl,
    parse_dtd,
)
from repro.xmldata.generator import GeneratorConfig, XmlGenerator
from repro.xmldata.model import Document, Element, XmlModelError
from repro.xmldata.parser import XmlParseError, parse_document, \
    serialize_document
from repro.xmldata.stats import document_stats, element_set_stats

__all__ = [
    "CONFERENCE_DTD",
    "Cardinality",
    "ChildSpec",
    "DEPARTMENT_DTD",
    "Document",
    "Dtd",
    "Element",
    "ElementDecl",
    "GeneratorConfig",
    "XmlGenerator",
    "XmlModelError",
    "XmlParseError",
    "parse_document",
    "parse_dtd",
    "serialize_document",
    "document_stats",
    "element_set_stats",
]
