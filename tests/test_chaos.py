"""Cross-component chaos test.

One seeded end-to-end sweep: random documents → derived workloads → every
join implementation and every query executor, all cross-checked against
each other and against brute force.  The final safety net over the whole
stack — if any two components disagree about anything, this fails.
"""

import random

import pytest

from repro.core.api import (
    ALGORITHMS,
    StorageContext,
    build_bplus_tree,
    build_element_list,
    oracle_join,
    structural_join,
)
from repro.joins import (
    bplus_psp_join,
    bplus_sp_join,
    with_containment_pointers,
)
from repro.joins.base import sort_pairs
from repro.query import PathQueryEngine
from repro.workloads.datasets import JoinDataset
from repro.workloads.selectivity import (
    vary_ancestor_selectivity,
    vary_both_selectivity,
)
from repro.xmldata.dtd import AUCTION_DTD, DEPARTMENT_DTD
from repro.xmldata.generator import GeneratorConfig, XmlGenerator


def _random_dataset(rng):
    dtd, a_tag, d_tag = rng.choice((
        (DEPARTMENT_DTD, "employee", "name"),
        (DEPARTMENT_DTD, "employee", "email"),
        (AUCTION_DTD, "parlist", "text"),
        (AUCTION_DTD, "item", "name"),
    ))
    config = GeneratorConfig(
        mean_repeat=rng.uniform(1.5, 2.5),
        recursion_decay=rng.uniform(0.5, 0.9),
        max_depth=rng.randrange(8, 24),
    )
    document = XmlGenerator(dtd, config, seed=rng.randrange(10 ** 6)) \
        .generate(rng.randrange(300, 1200))
    return JoinDataset("chaos", document.entries_for_tag(a_tag),
                       document.entries_for_tag(d_tag), document)


@pytest.mark.parametrize("trial", range(6))
def test_every_component_agrees(trial):
    rng = random.Random(1000 + trial)
    dataset = _random_dataset(rng)
    if not dataset.ancestors or not dataset.descendants:
        pytest.skip("degenerate draw")
    workload = rng.choice((
        lambda: vary_ancestor_selectivity(dataset, rng.choice((0.7, 0.2)),
                                          seed=trial),
        lambda: vary_both_selectivity(dataset, rng.choice((0.6, 0.1)),
                                      seed=trial),
        lambda: dataset,
    ))()
    ancestors = list(workload.ancestors)
    descendants = list(workload.descendants)
    expected = oracle_join(ancestors, descendants)

    # 1. The five public join algorithms.
    for algorithm in ALGORITHMS:
        outcome = structural_join(ancestors, descendants,
                                  algorithm=algorithm)
        assert sort_pairs(outcome.pairs) == expected, algorithm

    # 2. The pointer-enhanced variants.
    context = StorageContext(page_size=1024, buffer_pages=64)
    a_tree = build_bplus_tree(with_containment_pointers(ancestors),
                              context.pool)
    d_tree = build_bplus_tree(descendants, context.pool)
    for variant in (bplus_sp_join, bplus_psp_join):
        pairs, _ = variant(a_tree, d_tree)
        assert sort_pairs(pairs) == expected, variant.__name__

    # 3. Query executors over the source document.
    document = dataset.document
    engine = PathQueryEngine(document)
    fallback = PathQueryEngine(document, strategy="stack-tree")
    tags = sorted(document.tags())
    outer, inner = rng.sample(tags, 2) if len(tags) >= 2 else (tags[0],
                                                               tags[0])
    path = "//%s//%s" % (outer, inner)
    fast = engine.evaluate(path)
    slow = fallback.evaluate(path)
    assert fast.starts() == slow.starts(), path
    twig = "//%s[%s]" % (outer, inner)
    assert engine.evaluate(twig).starts() == \
        fallback.evaluate(twig).starts(), twig
