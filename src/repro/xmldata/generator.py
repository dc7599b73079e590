"""Synthetic XML data generator (substitute for the IBM AlphaWorks generator).

The paper generated ~90 MB of XML per DTD "using the IBM XML data generator
with default parameters".  That tool is proprietary and long gone; this module
replaces it with a seedable, DTD-driven generator exposing the two knobs the
experiments actually depend on:

* **size** — documents grow by appending top-level units until an approximate
  element-count target is reached;
* **nesting** — recursive element declarations (``employee`` in the
  Department DTD) expand with a per-level decay so that the same-tag nesting
  depth ``h_d`` is controllable; the Conference DTD has no recursion and stays
  flat, matching the paper's "highly nested" vs "less nested" data sets.

Generation is fully deterministic for a given seed and configuration.
"""

import math
from dataclasses import dataclass
from random import Random

from repro.xmldata.dtd import Cardinality
from repro.xmldata.model import Document, Element, annotate_regions


@dataclass(frozen=True)
class GeneratorConfig:
    """Tunable distribution parameters for :class:`XmlGenerator`.

    ``mean_repeat`` is the expected number of instances for ``*``/``+``
    particles; ``optional_probability`` the chance an ``?`` child appears;
    ``recursion_decay`` multiplies the expected repeat count once per level of
    same-tag nesting already on the path (values < 1 guarantee termination);
    ``max_depth`` hard-caps the tree height.
    """

    mean_repeat: float = 2.5
    optional_probability: float = 0.5
    recursion_decay: float = 0.6
    max_depth: int = 32
    id_attributes: bool = False  # stamp every element with an id attribute

    def __post_init__(self):
        if self.mean_repeat <= 0:
            raise ValueError("mean_repeat must be positive")
        if not 0.0 <= self.optional_probability <= 1.0:
            raise ValueError("optional_probability must be a probability")
        if not 0.0 < self.recursion_decay <= 1.0:
            raise ValueError("recursion_decay must be in (0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


class XmlGenerator:
    """Generates region-encoded :class:`Document` trees from a DTD."""

    def __init__(self, dtd, config=None, seed=0):
        self.dtd = dtd
        self.config = config or GeneratorConfig()
        self._rng = Random(seed)
        self._id_counter = 0

    def generate(self, target_elements=10000, doc_id=1):
        """Generate one document with roughly ``target_elements`` elements.

        The root's first repeatable child particle is used as the growth
        unit: units are appended until the element count reaches the target
        (so actual size overshoots by at most one unit).
        """
        root_decl = self.dtd.declaration(self.dtd.root_tag)
        root = Element(self.dtd.root_tag)
        produced = 1

        growth_spec = None
        for spec in root_decl.children:
            if spec.cardinality.repeatable:
                growth_spec = spec
                break

        # Emit the non-growth children once, as the content model dictates.
        for spec in root_decl.children:
            if spec is growth_spec:
                continue
            produced += self._emit_child(root, spec, depth=1, nesting={})

        if growth_spec is not None:
            minimum = max(1, growth_spec.cardinality.minimum)
            units = 0
            while produced < target_elements or units < minimum:
                produced += self._expand_into(
                    root, growth_spec.tag, depth=1, nesting={}
                )
                units += 1

        annotate_regions(root)
        return Document(root, doc_id=doc_id)

    def generate_corpus(self, documents, target_elements=10000, first_doc_id=1):
        """Generate a list of documents with consecutive doc ids."""
        return [
            self.generate(target_elements, doc_id=first_doc_id + index)
            for index in range(documents)
        ]

    # -- internals --------------------------------------------------------------

    def _emit_child(self, parent, spec, depth, nesting):
        """Instantiate one child particle; returns elements produced."""
        count = self._instance_count(spec, nesting)
        produced = 0
        for _ in range(count):
            produced += self._expand_into(parent, spec.tag, depth, nesting)
        return produced

    def _instance_count(self, spec, nesting):
        card = spec.cardinality
        if card is Cardinality.ONE:
            return 1
        if card is Cardinality.OPTIONAL:
            return 1 if self._rng.random() < self.config.optional_probability else 0
        mean = self.config.mean_repeat
        decay = self.config.recursion_decay ** nesting.get(spec.tag, 0)
        mean = mean * decay
        extra = self._geometric(mean)
        if card is Cardinality.ONE_OR_MORE:
            return 1 + extra
        # ZERO_OR_MORE: keep the same mean but allow zero.
        return self._geometric(mean)

    def _geometric(self, mean):
        """Geometric sample on {0, 1, ...} with the given mean."""
        if mean <= 0:
            return 0
        success = 1.0 / (mean + 1.0)
        u = self._rng.random()
        return int(math.log(max(1.0 - u, 1e-12)) / math.log(1.0 - success))

    def _expand_into(self, parent, tag, depth, nesting):
        """Build one ``tag`` subtree under ``parent``; returns element count."""
        decl = self.dtd.declaration(tag)
        node = parent.add_child(Element(tag))
        if self.config.id_attributes:
            self._id_counter += 1
            node.attributes["id"] = "%s-%d" % (tag, self._id_counter)
        if decl.is_text:
            node.text = "t"
        produced = 1
        if depth + 1 >= self.config.max_depth:
            return produced
        child_nesting = dict(nesting)
        child_nesting[tag] = child_nesting.get(tag, 0) + 1
        for spec in decl.children:
            produced += self._emit_child(node, spec, depth + 1, child_nesting)
        return produced
